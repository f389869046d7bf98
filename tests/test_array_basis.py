"""The array-native diagram basis against a tuple-and-object reference.

The reference below is the earlier implementation: a recursive tuple
enumerator, the parent-by-parent add-a-box walk with a dict lookup, and the
Frobenius and Weyl formulas, each with its own Vandermonde product.  The package must agree with it exactly: the
same bases in the same order, the same edge arrays, and the same integers.
"""

import math
from collections import Counter
from itertools import accumulate, combinations

import numpy as np
import pytest

from dpbt.diagrams import (
    DiagramBasis,
    YoungDiagram,
    dim_mult_products,
    dims_and_multiplicities,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
from dpbt.protocol import fidelity_row, optimal_solution, sweep
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
        dims, mults = dims_and_multiplicities(basis, dd)
        assert dims == [ref_irrep_dim(r) for r in ref]
        assert mults == [ref_multiplicity(r, dd) for r in ref]
        assert dim_mult_products(basis, dd) == [a * b for a, b in zip(dims, mults)]
        assert dims_and_multiplicities(basis, None) == (dims, [0] * len(ref))
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
    """The per-cell fast path reads rows; YoungDiagram objects are built only
    for the keys of an OptimalSolution, once per diagram."""

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

    def test_optimal_solution_builds_each_diagram_once(self, built):
        e = incidence_edges(40, 4)
        optimal_solution(e)
        counts = Counter(built)
        assert max(counts.values()) == 1
        assert len(counts) == len(e.row_basis) + len(e.col_basis)
