"""The array-native diagram basis against a tuple-and-object reference.

The reference below is the earlier implementation: a recursive tuple
enumerator, the parent-by-parent add-a-box walk with a dict lookup, and the
scalar correctly rounded root.  The package must agree with it exactly: the
same bases in the same order, the same edge arrays and the same bits.  The
exact kernel is held to the hook length and hook content formulas of
conftest.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

from dpbt.diagrams import _row_tuples, enumerate_diagrams
from dpbt.protocol import _DOUBLE_LIMIT, _ratio, _sqrt_ratio, optimal_solution
from dpbt.telemat import incidence_edges


def ref_partition_tuples(n, max_part, max_len):
    """Partitions of n with parts <= max_part and at most max_len parts, in
    strongly decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), (n - 1) // max_len, -1):
        for rest in ref_partition_tuples(n - first, first, max_len - 1):
            yield (first,) + rest


def ref_basis(n, d):
    return list(ref_partition_tuples(n, n, min(n, d)))


def ref_edges(n, d):
    """(parent, child) index lists of R, walking each parent's add-a-box
    children in row order."""
    rows_of, cols = ref_basis(n - 1, d), ref_basis(n, d)
    index = {rows: j for j, rows in enumerate(cols)}
    parent, child = [], []
    for i, rows in enumerate(rows_of):
        for k, r in enumerate(rows):
            if k == 0 or r < rows[k - 1]:
                parent.append(i)
                child.append(index[rows[:k] + (r + 1,) + rows[k + 1 :]])
        if len(rows) < d:
            parent.append(i)
            child.append(index[rows + (1,)])
    return parent, child


# a cap of None in a grid stands for the full cap d = n
CELLS = sorted(
    {(n, d) for n in range(1, 15) for d in (2, 3, 4, 5, None)}
    | {(n, d) for n in range(1, 12) for d in (n, n + 1, n + 3)}
    # full widths 16..20: a base-(N+1) integer key of a row would
    # overflow int64 here (17^16 > 2^63)
    | {(n, None) for n in range(16, 21)}
    # 256: the parents fit uint8 rows and the children need uint16
    | {(40, 4), (60, 3), (200, 2), (256, 2), (256, 3)},
    key=lambda c: (c[0], c[1] or 0),
)


@pytest.mark.parametrize("n,d", CELLS)
def test_matches_reference(n, d, hook_dim, hook_mult):
    d = n if d is None else d  # None: the full cap d = n
    e = incidence_edges(n, d)
    assert _row_tuples(e.row_basis) == ref_basis(n - 1, d)
    assert _row_tuples(e.col_basis) == ref_basis(n, d)
    parent, child = ref_edges(n, d)
    assert e.parent.dtype == e.child.dtype == np.intp
    assert e.parent.tolist() == parent and e.child.tolist() == child
    for basis in (e.row_basis, e.col_basis):
        ref = ref_basis(basis.n, d)
        dims, mults = (x.tolist() for x in basis.numbers)
        assert dims == [hook_dim(r) for r in ref]
        assert mults == [hook_mult(r, d) for r in ref]


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("d", [1, 2, 3, None])
def test_enumeration_matches_reference(n, d):
    d = max(n, 1) if d is None else d  # None: the full cap, at least 1
    assert _row_tuples(enumerate_diagrams(n, d)) == ref_basis(n, d)


@pytest.mark.parametrize("rows", [(5,), (3, 2, 2, 1), (4, 4, 1, 1, 1), (25, 25), (1,) * 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 12])
def test_shared_kernel_matches_reference(rows, d, hook_dim, hook_mult):
    # read at the diagram's place in the basis capped at d, which leaves out
    # a diagram taller than d
    basis = enumerate_diagrams(sum(rows), d)
    if len(rows) > d:
        assert rows not in _row_tuples(basis)
        return
    i = _row_tuples(basis).index(rows)
    dims, mults = basis.numbers
    assert (dims[i], mults[i]) == (hook_dim(rows), hook_mult(rows, d))


class TestDiagramBasis:
    def test_interface(self):
        basis = enumerate_diagrams(6, 3)
        assert len(basis) == 7
        rows = _row_tuples(basis)
        assert rows == [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2)]
        assert basis.labels() == tuple("[" + ",".join(map(str, mu)) + "]" for mu in rows)
        assert basis.search(basis.rows[::-1]).tolist() == list(range(7))[::-1]

    def test_empty_diagram_basis(self):
        basis = enumerate_diagrams(0, 3)
        assert basis.rows.shape == (1, 0)
        assert _row_tuples(basis) == [()]
        assert basis.search(basis.rows).tolist() == [0] and basis.labels() == ("[]",)

    def test_rows_are_read_only(self):
        basis = enumerate_diagrams(10, 4)
        assert not basis.rows.flags.writeable
        with pytest.raises(ValueError):
            basis.rows[0, 0] = 1
        # the cached array is shared, so it is the same one every time
        assert enumerate_diagrams(10, 4).rows is basis.rows

    def test_index_at_wide_uncapped_rows(self):
        basis = enumerate_diagrams(20, 20)  # every diagram of 20
        assert basis.rows.shape == (627, 20)
        assert basis.search(basis.rows).tolist() == list(range(627))


@pytest.fixture
def check_kernel(hook_dim, hook_mult):
    """check(basis): basis.numbers, read-only, against the hook formulas at
    the basis's cap."""

    def check(basis):
        dims, mults = basis.numbers
        assert dims.dtype == mults.dtype == object
        assert not dims.flags.writeable and not mults.flags.writeable
        assert dims.tolist() == [hook_dim(mu) for mu in _row_tuples(basis)]
        assert mults.tolist() == [hook_mult(mu, basis.d) for mu in _row_tuples(basis)]
        assert all(type(x) is int for x in [*dims, *mults])

    return check


class TestExactKernel:
    @pytest.mark.parametrize("n", range(0, 15))
    def test_every_diagram_against_hook_formulas(self, n, check_kernel):
        full = _row_tuples(enumerate_diagrams(n, max(n, 1)))
        for d in sorted({1, 2, 3, 5, max(n, 1), n + 3}):
            # a capped basis caches its numbers at its own cap, read-only,
            # and holds every diagram of n with height <= d
            capped = enumerate_diagrams(n, d)
            assert _row_tuples(capped) == [mu for mu in full if len(mu) <= d]
            check_kernel(capped)

    def test_tall_uncapped_basis(self, check_kernel):
        n = 22
        basis = enumerate_diagrams(n, n)  # every diagram of 22
        assert basis.rows.shape == (1002, 22)
        check_kernel(basis)
        dims, mults = basis.numbers
        assert sum(x * x for x in dims.tolist()) == math.factorial(n)
        assert sum((dims * mults).tolist()) == n**n

    def test_huge_local_dimension_is_quick(self, check_kernel):
        d = 10**6
        start = time.perf_counter()
        check_kernel(enumerate_diagrams(3, d))
        sol = optimal_solution(incidence_edges(3, d))
        assert time.perf_counter() - start < 2.0  # 0.01 s; a table sized by d takes minutes
        assert sol.eigenpair.method == "closed_dgeN" and np.isfinite(sol.p_coeffs).all()

    def test_local_dimension_beyond_int64(self, check_kernel):
        d = 10**20
        check_kernel(enumerate_diagrams(6, d))
        basis = enumerate_diagrams(3, d)
        assert basis.numbers[1][_row_tuples(basis).index((2, 1))] == (d + 1) * d * (d - 1) // 3

    def test_single_diagrams_share_the_kernel(self, hook_dim, hook_mult):
        # a diagram's numbers are its entries in the basis that holds it; the
        # basis capped at 4 leaves out the diagram of height 6
        assert (1,) * 6 not in _row_tuples(enumerate_diagrams(6, 4))
        for rows, d in [((), 4), ((7,), 4), ((3, 3, 1), 4), ((1,) * 6, 6)]:
            basis = enumerate_diagrams(sum(rows), d)
            i = _row_tuples(basis).index(rows)
            dims, mults = basis.numbers
            assert (dims[i], mults[i]) == (hook_dim(rows), hook_mult(rows, d))


def ref_sqrt_ratio(num, den):
    """The scalar root: shift near 1 by an even power of two, divide, root,
    shift back; inf where math.ldexp overflows."""
    half = (num.bit_length() - den.bit_length()) // 2
    q = num / (den << 2 * half) if half > 0 else (num << -2 * half) / den
    try:
        return math.ldexp(math.sqrt(q), half)
    except OverflowError:
        return math.inf


def ref_ratio(num, den):
    try:
        return num / den
    except OverflowError:
        return math.inf


def random_ratios(seed, count=400):
    """Positive bigint pairs whose ratios span 2^-2100 .. 2^2100, many near
    2^(+-2000), so that their roots lie near 2^(+-1000)."""
    rng = random.Random(seed)
    nums, dens = [], []
    for _ in range(count):
        den_bits = rng.randint(1, 3000)
        gap = rng.choice([rng.randint(-2100, 2100), rng.randint(1990, 2050), -rng.randint(1990, 2050)])
        num_bits = max(1, den_bits + gap)
        nums.append(rng.getrandbits(num_bits) | 1 << (num_bits - 1))
        dens.append(rng.getrandbits(den_bits) | 1 << (den_bits - 1))
    return nums, dens


class TestArrayRoot:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_for_bit_against_the_scalar_root(self, seed):
        nums, dens = random_ratios(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sqrt_ratio(np.array(nums, dtype=object), np.array(dens, dtype=object))
        want = [ref_sqrt_ratio(a, b) for a, b in zip(nums, dens)]
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
        assert np.isinf(got).any() and (np.abs(np.log2(got[np.isfinite(got)])) > 990).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_ratio_against_int_division(self, seed):
        nums, dens = random_ratios(seed)
        nums += [_DOUBLE_LIMIT - 1, _DOUBLE_LIMIT, 3 * _DOUBLE_LIMIT - 1, 3 * _DOUBLE_LIMIT]
        dens += [1, 1, 3, 3]
        got = _ratio(np.array(nums, dtype=object), np.array(dens, dtype=object))
        want = [ref_ratio(a, b) for a, b in zip(nums, dens)]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[-4:].tolist() == [np.finfo(float).max, math.inf] * 2

    def test_equal_ratios_give_equal_bits(self):
        nums, dens = random_ratios(7, count=100)
        scale = np.array([1, 2, 3, 2**70 + 1] * 25, dtype=object)
        a = _sqrt_ratio(np.array(nums, dtype=object), np.array(dens, dtype=object))
        b = _sqrt_ratio(np.array(nums, dtype=object) * scale, np.array(dens, dtype=object) * scale)
        assert a.tobytes() == b.tobytes()

    def test_one_denominator_broadcasts(self):
        nums = np.array([2, 8, 18], dtype=object)
        assert _sqrt_ratio(nums, 2).tolist() == [1.0, 2.0, 3.0]
