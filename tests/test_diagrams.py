"""Diagram combinatorics against brute-force tableau enumeration."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbt.diagrams import (
    _row_tuples,
    enumerate_diagrams,
    partition_counts,
)
from dpbt.oracle import _add_box, character
from dpbt.telemat import incidence_edges, teleportation_matrix


def brute_force_syt_count(rows):
    """Count standard tableaux by checking every filling of the cells with 1..N."""
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    n = len(cells)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {cell: val for cell, val in zip(cells, perm)}
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)] for (i, j) in cells if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)] for (i, j) in cells if (i + 1, j) in grid
        )
        count += ok
    return count


def brute_force_ssyt_count(rows, d):
    """Count semistandard tableaux by checking every filling with entries 1..d."""
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    count = 0
    for values in itertools.product(range(1, d + 1), repeat=len(cells)):
        grid = {cell: val for cell, val in zip(cells, values)}
        ok = all(
            grid[(i, j)] <= grid[(i, j + 1)] for (i, j) in cells if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)] for (i, j) in cells if (i + 1, j) in grid
        )
        count += ok
    return count


def numbers_of(mu, d):
    """(d_mu, m_mu) of the rows mu from the package's kernel, read at mu's
    place in the basis of its box count capped at d; m_mu at d."""
    basis = enumerate_diagrams(sum(mu), d)
    dims, mults = basis.numbers
    i = _row_tuples(basis).index(mu)
    return dims[i], mults[i]


HOOK_DIMS = [*range(1, 13), 40, 1000, 10**6]


partitions = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from(_row_tuples(enumerate_diagrams(n, n)))
)


class TestYoungDiagram:
    """A diagram is the tuple of its positive rows; the public entry points
    that take one refuse any other tuple."""

    def test_validation(self):
        for rows, fault in [((1, 2), "weakly decreasing"), ((2, 0), "positive")]:
            with pytest.raises(ValueError, match=f"row lengths must be {fault}"):
                character(rows, (1,) * sum(rows))

    def test_label_roundtrip(self):
        # a label is a JSON array of the positive rows
        assert enumerate_diagrams(4, 4).labels()[1] == "[3,1]"
        assert enumerate_diagrams(0, 1).labels() == ("[]",)

    @given(partitions)
    def test_label_roundtrip_any(self, mu):
        basis = enumerate_diagrams(sum(mu), sum(mu))
        label = basis.labels()[_row_tuples(basis).index(mu)]
        assert tuple(json.loads(label)) == mu


class TestEnumerate:
    def test_examples(self):
        assert _row_tuples(enumerate_diagrams(4, 4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        assert _row_tuples(enumerate_diagrams(4, 2)) == [(4,), (3, 1), (2, 2)]
        assert len(enumerate_diagrams(5, 5)) == 7
        assert _row_tuples(enumerate_diagrams(1, 1)) == [(1,)]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, None])
    def test_order(self, n, d):
        d = n if d is None else d  # None: the full cap d = n
        rows = _row_tuples(enumerate_diagrams(n, d))
        assert rows == sorted(rows, reverse=True), "strongly decreasing lex order"
        assert rows[0] == (n,)
        assert all(len(m) <= d for m in rows)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_heights_weakly_increase_small_n(self, n):
        # true under decreasing lex only up to n = 5: at n = 6 the diagram
        # [4,1,1] (height 3) precedes [3,3] (height 2)
        heights = [len(m) for m in _row_tuples(enumerate_diagrams(n, n))]
        assert heights == sorted(heights)

    def test_heights_not_monotone_from_six(self):
        labels = _row_tuples(enumerate_diagrams(6, 6))
        assert labels.index((4, 1, 1)) < labels.index((3, 3))

    def test_every_partition_once(self):
        seen = set(_row_tuples(enumerate_diagrams(6, 6)))
        assert len(seen) == len(enumerate_diagrams(6, 6)) == 11

    def test_counts_match_partition_recurrence(self):
        # p(n, k), the partitions of n into at most k parts:
        # p(n, k) = p(n, k - 1) + p(n - k, k), p(0, k) = 1, p(n > 0, 0) = 0
        p = [[1] * 6] + [[0] * 6 for _ in range(60)]
        for n in range(1, 61):
            for k in range(1, 6):
                p[n][k] = p[n][k - 1] + (p[n - k][k] if n >= k else 0)
        for n in range(61):
            for d in range(1, 6):
                rows = _row_tuples(enumerate_diagrams(n, d))
                assert len(rows) == p[n][d], (n, d)
                assert partition_counts(n, d)[n] == p[n][d], (n, d)
                assert rows == sorted(set(rows), reverse=True)
                assert all(sum(r) == n and len(r) <= d for r in rows)

    def test_partition_counts_uncapped(self):
        # a cap of n drops nothing, and neither does any cap above it
        assert partition_counts(20, 20) == [len(enumerate_diagrams(m, 20)) for m in range(21)]
        assert partition_counts(30, 30)[30] == partition_counts(30, 45)[30] == 5604
        assert partition_counts(0, 1) == partition_counts(0, 3) == [1]
        with pytest.raises(ValueError):
            partition_counts(-1, 2)
        with pytest.raises(ValueError):
            partition_counts(3, 0)


def parents(mu):
    """Diagrams one box below the rows mu, read from the edge list of its box
    count."""
    e = incidence_edges(sum(mu), sum(mu))
    alphas, j = _row_tuples(e.row_basis), _row_tuples(e.col_basis).index(mu)
    return {alphas[i] for i in e.parent[e.child == j].tolist()}


class TestBoxMoves:
    def test_add_box_examples(self):
        assert _add_box((2, 1), 4) == _add_box((2, 1), 3) == [(3, 1), (2, 2), (2, 1, 1)]
        assert _add_box((2, 1), 2) == [(3, 1), (2, 2)]
        assert _add_box((1,), 2) == [(2,), (1, 1)]
        assert _add_box((1,), 1) == [(2,)]
        assert _add_box((), 1) == [(1,)]

    def test_remove_box_examples(self):
        assert parents((3, 1)) == {(2, 1), (3,)}
        assert parents((2, 2)) == {(2, 1)}
        assert parents((1,)) == {()}
        with pytest.raises(ValueError):
            incidence_edges(0, 2)

    def test_remove_count_is_distinct_row_lengths(self):
        for n in range(1, 9):
            e = incidence_edges(n, n)
            counts = [len(set(mu)) for mu in _row_tuples(e.col_basis)]
            assert np.bincount(e.child).tolist() == counts

    @given(partitions)
    @settings(max_examples=60)
    def test_branching_symmetry(self, mu):
        for alpha in parents(mu):
            assert mu in _add_box(alpha, sum(mu))
        if sum(mu) <= 7:
            for nu in _add_box(mu, sum(mu) + 1):
                assert mu in parents(nu)

    def test_box_move_examples(self):
        rows = _row_tuples(enumerate_diagrams(4, 4))
        m = teleportation_matrix(incidence_edges(4, 4)).tolist()
        i, j, k = (rows.index(r) for r in [(3, 1), (2, 2), (4,)])
        assert m[i][j] == 1
        assert m[k][j] == 0

    def test_box_move_symmetric_irreflexive(self):
        # distinct diagrams share a parent iff the rows differ by one moved
        # box: a zero-padded L1 distance of 2
        for n in range(2, 7):
            rows = enumerate_diagrams(n, n).rows.astype(int)
            moved = np.abs(rows[:, None] - rows[None, :]).sum(axis=2) == 2
            m = teleportation_matrix(incidence_edges(n, n))
            np.fill_diagonal(m, 0)
            assert np.array_equal(m, moved)


class TestDimensions:
    def test_examples(self):
        assert numbers_of((2, 1), 2)[0] == 2
        assert numbers_of((5,), 2)[0] == 1
        assert numbers_of((1, 1, 1), 3)[0] == 1
        assert numbers_of((), 2)[0] == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force_syt(self, n):
        basis = enumerate_diagrams(n, n)
        for mu, dim in zip(_row_tuples(basis), basis.numbers[0].tolist()):
            assert dim == brute_force_syt_count(mu)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dimension_square_sum(self, n):
        dims = enumerate_diagrams(n, n).numbers[0].tolist()
        assert sum(x * x for x in dims) == math.factorial(n)


class TestMultiplicity:
    def test_examples(self):
        assert numbers_of((2,), 2)[1] == 3
        # no diagram taller than d occurs in (C^d)^(x N): the cap leaves it out
        assert (1, 1, 1) not in _row_tuples(enumerate_diagrams(3, 2))
        assert numbers_of((1, 1, 1), 3)[1] == 1
        for d in (1, 2, 5):
            assert numbers_of((1,), d)[1] == d
        assert numbers_of((), 3)[1] == 1

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_brute_force_ssyt(self, n, d):
        # the capped basis lists exactly the diagrams of n with a tableau
        counts = {mu: brute_force_ssyt_count(mu, d) for mu in _row_tuples(enumerate_diagrams(n, n))}
        basis = enumerate_diagrams(n, d)
        mults = basis.numbers[1].tolist()
        assert _row_tuples(basis) == [mu for mu, count in counts.items() if count]
        for mu, mult in zip(_row_tuples(basis), mults):
            assert mult == counts[mu]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_schur_weyl_dimension_count(self, n, d):
        dims, mults = enumerate_diagrams(n, d).numbers
        assert sum((dims * mults).tolist()) == d**n

    def test_exactness_at_large_n(self):
        # hook products overflow 64-bit integers well before N = 50
        basis = enumerate_diagrams(50, 2)
        i = _row_tuples(basis).index((25, 25))
        dims, mults = basis.numbers
        assert dims[i] == brute_force_catalan(25)
        assert mults[i] == 1


class TestHookFormulas:
    @pytest.mark.parametrize("n", range(0, 21))
    def test_uncapped(self, n, hook_dim, hook_mult):
        basis = enumerate_diagrams(n, max(n, 1))  # every diagram of n
        rows = _row_tuples(basis)
        assert basis.numbers[0].tolist() == [hook_dim(r) for r in rows]
        for d in HOOK_DIMS:
            capped = enumerate_diagrams(n, d)
            # the cap keeps the diagrams of height <= d, in the same order
            assert _row_tuples(capped) == [r for r in rows if len(r) <= d], d
            dims, mults = (x.tolist() for x in capped.numbers)
            assert dims == [hook_dim(r) for r in _row_tuples(capped)], d
            assert mults == [hook_mult(r, d) for r in _row_tuples(capped)], d

    @pytest.mark.parametrize("n,d", [(100, 3), (60, 4), (400, 2), (40, 9)])
    def test_capped_bases(self, n, d, hook_dim, hook_mult):
        basis = enumerate_diagrams(n, d)
        dims, mults = basis.numbers
        assert dims.tolist() == [hook_dim(mu) for mu in _row_tuples(basis)]
        assert mults.tolist() == [hook_mult(mu, d) for mu in _row_tuples(basis)]

    def test_qubit_closed_forms_at_large_n(self):
        # two rows [n - k, k]: m = n - 2k + 1, d_mu = C(n, k) - C(n, k - 1)
        n = 2000
        basis = enumerate_diagrams(n, 2)
        dims, mults = basis.numbers
        ks = basis.rows[:, 1].tolist()
        assert mults.tolist() == [n - 2 * k + 1 for k in ks]
        assert dims.tolist() == [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in ks]


def brute_force_catalan(k):
    # dim of the two-row rectangle (k, k) is the k-th Catalan number
    return math.comb(2 * k, k) // (k + 1)
