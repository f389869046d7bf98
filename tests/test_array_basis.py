"""The array-native diagram basis against a tuple-and-object reference.

The reference below is the earlier implementation: a recursive tuple
enumerator, the parent-by-parent add-a-box walk with a dict lookup, the
Frobenius and Weyl formulas, each with its own Vandermonde product, and the
scalar correctly rounded root.  The package must agree with it exactly: the
same bases in the same order, the same edge arrays, the same integers and the
same bits.  The exact kernel is also held to the hook-length formulas.
"""

import math
import random
import time
import warnings
from itertools import accumulate, combinations

import numpy as np
import pytest

from dpbt.diagrams import (
    DiagramBasis,
    YoungDiagram,
    dims_and_multiplicities,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
from dpbt.protocol import (
    _DOUBLE_LIMIT,
    _ratio,
    _sqrt_ratio,
    fidelity_row,
    optimal_solution,
    sweep,
)
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
    return list(ref_partition_tuples(n, n, n if d is None else min(n, d)))


def ref_edges(n, d):
    """(parent, child) index lists of R, walking each parent's add-a-box
    children in row order."""
    rows_of, cols = ref_basis(n - 1, d), ref_basis(n, d)
    index = {rows: j for j, rows in enumerate(cols)}
    cap = n if d is None else d
    parent, child = [], []
    for i, rows in enumerate(rows_of):
        for k, r in enumerate(rows):
            if k == 0 or r < rows[k - 1]:
                parent.append(i)
                child.append(index[rows[:k] + (r + 1,) + rows[k + 1 :]])
        if len(rows) < cap:
            parent.append(i)
            child.append(index[rows + (1,)])
    return parent, child


def _ref_shifted(rows):
    k = len(rows)
    shifted = [r + k - 1 - i for i, r in enumerate(rows)]
    return shifted, math.prod(a - b for a, b in combinations(shifted, 2))


def ref_irrep_dim(rows):
    """Frobenius: the multinomial of the rows times the Vandermonde product
    over prod_i perm(l_i, k - 1 - i)."""
    k = len(rows)
    shifted, vandermonde = _ref_shifted(rows)
    num = vandermonde * math.prod(math.comb(top, r) for top, r in zip(accumulate(rows), rows))
    return num // math.prod(math.perm(l, k - 1 - i) for i, l in enumerate(shifted))


def ref_multiplicity(rows, d):
    """Weyl: the Vandermonde product within the rows, and one binomial ratio
    per row for the empty rows below the diagram."""
    k = len(rows)
    if k > d:
        return 0
    _, vandermonde = _ref_shifted(rows)
    num = vandermonde * math.prod(math.comb(r + d - 1 - i, r) for i, r in enumerate(rows))
    den = math.prod(math.factorial(i) for i in range(k)) * math.prod(
        math.comb(r + k - 1 - i, r) for i, r in enumerate(rows)
    )
    return num // den


CELLS = sorted(
    {(n, d) for n in range(1, 15) for d in (2, 3, 4, 5, None)}
    | {(n, d) for n in range(1, 12) for d in (n, n + 1, n + 3)}
    # uncapped widths 16..20: a base-(N+1) integer key of a row would
    # overflow int64 here (17^16 > 2^63)
    | {(n, None) for n in range(16, 21)}
    # 256: the parents fit uint8 rows and the children need uint16
    | {(40, 4), (60, 3), (200, 2), (256, 2), (256, 3)},
    key=lambda c: (c[0], c[1] or 0),
)


def _rows(basis):
    return [tuple(m.rows) for m in basis]


@pytest.mark.parametrize("n,d", CELLS)
def test_matches_reference(n, d):
    e = incidence_edges(n, d)
    assert _rows(e.row_basis) == ref_basis(n - 1, d)
    assert _rows(e.col_basis) == ref_basis(n, d)
    parent, child = ref_edges(n, d)
    assert e.parent.dtype == e.child.dtype == np.intp
    assert e.parent.tolist() == parent and e.child.tolist() == child
    dd = n if d is None else d
    for basis in (e.row_basis, e.col_basis):
        ref = ref_basis(basis.n, d)
        dims, mults = (x.tolist() for x in dims_and_multiplicities(basis, dd))
        assert dims == [ref_irrep_dim(r) for r in ref]
        assert mults == [ref_multiplicity(r, dd) for r in ref]
        uncapped = dims_and_multiplicities(basis, None)
        assert (uncapped[0].tolist(), uncapped[1].tolist()) == (dims, [0] * len(ref))
    for mu in e.col_basis:
        assert irrep_dim(mu) == ref_irrep_dim(mu.rows)
        assert multiplicity(mu, dd) == ref_multiplicity(mu.rows, dd)


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("d", [1, 2, 3, None])
def test_enumeration_matches_reference(n, d):
    assert _rows(enumerate_diagrams(n, d)) == ref_basis(n, d)


@pytest.mark.parametrize("rows", [(5,), (3, 2, 2, 1), (4, 4, 1, 1, 1), (25, 25), (1,) * 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 12])
def test_shared_kernel_matches_reference(rows, d):
    assert irrep_dim(YoungDiagram(rows)) == ref_irrep_dim(rows)
    assert multiplicity(YoungDiagram(rows), d) == ref_multiplicity(rows, d)


class TestDiagramBasis:
    def test_interface(self):
        basis = enumerate_diagrams(6, 3)
        assert len(basis) == 7
        assert basis.labels() == tuple(mu.label() for mu in basis.entries)
        for i, mu in enumerate(basis.entries):
            assert basis[i] is mu and mu in basis and basis.index(mu) == i
        assert YoungDiagram((3, 1, 1, 1)) not in basis
        assert YoungDiagram((3, 1)) not in basis
        assert "[3,2,1]" not in basis
        with pytest.raises(KeyError):
            basis.index(YoungDiagram((2, 1, 1, 1, 1)))

    def test_empty_diagram_basis(self):
        basis = enumerate_diagrams(0, 3)
        assert basis.rows.shape == (1, 0)
        assert basis.entries == (YoungDiagram(()),)
        assert basis.index(YoungDiagram(())) == 0 and basis.labels() == ("[]",)

    def test_rows_are_read_only(self):
        basis = enumerate_diagrams(10, 4)
        assert not basis.rows.flags.writeable
        with pytest.raises(ValueError):
            basis.rows[0, 0] = 1
        # the cached array is shared, so it is the same one every time
        assert enumerate_diagrams(10, 4).rows is basis.rows

    def test_equality_is_a_plain_bool(self):
        a, b = enumerate_diagrams(7, 3), enumerate_diagrams(7, 3)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != enumerate_diagrams(7, 4) and a != enumerate_diagrams(8, 3)
        assert enumerate_diagrams(5) != enumerate_diagrams(5, 5)  # d differs
        assert a != "basis" and {a: 1}[b] == 1
        assert DiagramBasis(2, None, np.zeros((0, 2))) != DiagramBasis(2, None, np.zeros((0, 1)))

    def test_index_at_wide_uncapped_rows(self):
        basis = enumerate_diagrams(20)
        assert basis.rows.shape == (627, 20)
        for i, mu in enumerate(basis.entries):
            assert basis.index(mu) == i


class TestNoDiagramObjects:
    """The per-cell fast path reads rows and builds no YoungDiagram objects."""

    @pytest.fixture
    def built(self, monkeypatch):
        rows, init = [], YoungDiagram.__post_init__

        def counted(self):
            init(self)
            rows.append(self.rows)

        monkeypatch.setattr(YoungDiagram, "__post_init__", counted)
        return rows

    def test_fidelity_row(self, built):
        fidelity_row(100, 3)
        assert built == []

    def test_sweep(self, built):
        rows = sweep(range(2, 13), [2, 3, 4])
        assert len(rows) == 33 and all("error" not in r for r in rows)
        assert built == []

    def test_optimal_solution(self, built):
        e = incidence_edges(40, 4)
        sol = optimal_solution(e)
        assert len(sol.v) == len(e.col_basis) and len(sol.p_coeffs) == len(e.parent)
        assert built == []


def hook_lengths(rows):
    cols = [sum(r > j for r in rows) for j in range(rows[0] if rows else 0)]
    return [r - j + cols[j] - i - 1 for i, r in enumerate(rows) for j in range(r)]


def hook_dim(rows):
    """Hook length formula: N! over the product of the hook lengths."""
    return math.factorial(sum(rows)) // math.prod(hook_lengths(rows))


def hook_mult(rows, d):
    """Hook content formula: prod (d + content) over the hook product; 0 for
    d=None or a diagram taller than d."""
    if d is None or len(rows) > d:
        return 0
    contents = (d + j - i for i, r in enumerate(rows) for j in range(r))
    return math.prod(contents) // math.prod(hook_lengths(rows))


def check_kernel(basis, d, numbers=None):
    """numbers (default dims_and_multiplicities(basis, d)) against the hook formulas."""
    dims, mults = dims_and_multiplicities(basis, d) if numbers is None else numbers
    assert dims.dtype == mults.dtype == object
    assert dims.tolist() == [hook_dim(mu.rows) for mu in basis]
    assert mults.tolist() == [hook_mult(mu.rows, d) for mu in basis]
    assert all(type(x) is int for x in [*dims, *mults])


class TestExactKernel:
    @pytest.mark.parametrize("n", range(0, 15))
    def test_every_diagram_against_hook_formulas(self, n):
        for d in sorted({1, 2, 3, 5, n + 3}) + [None]:
            check_kernel(enumerate_diagrams(n), d)
            # a capped basis caches its numbers at its own cap, read-only
            capped = enumerate_diagrams(n, d)
            check_kernel(capped, d, capped.numbers)
            assert not any(x.flags.writeable for x in capped.numbers)

    def test_tall_uncapped_basis(self):
        n = 22
        basis = enumerate_diagrams(n)
        assert basis.rows.shape == (1002, 22)
        check_kernel(basis, n)
        dims, mults = dims_and_multiplicities(basis, n)
        assert sum(x * x for x in dims.tolist()) == math.factorial(n)
        assert sum((dims * mults).tolist()) == n**n

    def test_huge_local_dimension_is_quick(self):
        d = 10**6
        start = time.perf_counter()
        check_kernel(enumerate_diagrams(3, d), d)
        sol = optimal_solution(incidence_edges(3, d))
        assert time.perf_counter() - start < 2.0  # 0.01 s; a table sized by d takes minutes
        assert sol.method == "closed_dgeN" and np.isfinite(sol.p_coeffs).all()

    def test_local_dimension_beyond_int64(self):
        d = 10**20
        check_kernel(enumerate_diagrams(6, d), d)
        assert multiplicity(YoungDiagram((2, 1)), d) == (d + 1) * d * (d - 1) // 3

    def test_single_diagrams_share_the_kernel(self):
        for rows in [(), (7,), (3, 3, 1), (1,) * 6]:
            mu = YoungDiagram(rows)
            assert irrep_dim(mu) == hook_dim(rows)
            assert multiplicity(mu, 4) == hook_mult(rows, 4)


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
