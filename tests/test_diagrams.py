"""Diagram combinatorics against brute-force tableau enumeration."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbt.diagrams import (
    EMPTY_DIAGRAM,
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
    partition_counts,
)
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


def hook_product(rows):
    """Product of the hook lengths of every box."""
    cols = [sum(r > j for r in rows) for j in range(max(rows, default=0))]
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= r - j + cols[j] - i - 1
    return prod


def hook_length_dim(rows):
    """Hook length formula: N! over the hook product."""
    return math.factorial(sum(rows)) // hook_product(rows)


def hook_content_multiplicity(rows, d):
    """Hook content formula: prod of (d + content) over the hook product."""
    if len(rows) > d:
        return 0
    num = 1
    for i, r in enumerate(rows):
        for j in range(r):
            num *= d + j - i
    return num // hook_product(rows)


HOOK_DIMS = [*range(1, 13), 40, 1000, 10**6]


partitions = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from(enumerate_diagrams(n).entries)
)


class TestYoungDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_metrics(self):
        mu = YoungDiagram((3, 1))
        assert mu.boxes == 4
        assert mu.height == 2
        assert EMPTY_DIAGRAM.boxes == 0

    def test_label_roundtrip(self):
        # a label is a JSON array of the rows
        assert YoungDiagram((3, 1)).label() == "[3,1]"
        assert EMPTY_DIAGRAM.label() == "[]"

    @given(partitions)
    def test_label_roundtrip_any(self, mu):
        assert YoungDiagram(tuple(json.loads(mu.label()))) == mu


class TestEnumerate:
    def test_examples(self):
        assert [m.rows for m in enumerate_diagrams(4, 4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        assert [m.rows for m in enumerate_diagrams(4, 2)] == [(4,), (3, 1), (2, 2)]
        assert len(enumerate_diagrams(5)) == 7
        assert [m.rows for m in enumerate_diagrams(1, 1)] == [(1,)]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [1, 2, 3, 4, None])
    def test_order(self, n, d):
        basis = enumerate_diagrams(n, d)
        rows = [m.rows for m in basis]
        assert rows == sorted(rows, reverse=True), "strongly decreasing lex order"
        assert basis[0].rows == (n,)
        if d is not None:
            assert all(m.height <= d for m in basis)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_heights_weakly_increase_small_n(self, n):
        # true under decreasing lex only up to n = 5: at n = 6 the diagram
        # [4,1,1] (height 3) precedes [3,3] (height 2)
        heights = [m.height for m in enumerate_diagrams(n)]
        assert heights == sorted(heights)

    def test_heights_not_monotone_from_six(self):
        basis = enumerate_diagrams(6)
        labels = [m.rows for m in basis]
        assert labels.index((4, 1, 1)) < labels.index((3, 3))

    def test_every_partition_once(self):
        seen = {m.rows for m in enumerate_diagrams(6)}
        assert len(seen) == len(enumerate_diagrams(6)) == 11

    def test_counts_match_partition_recurrence(self):
        # p(n, k), the partitions of n into at most k parts:
        # p(n, k) = p(n, k - 1) + p(n - k, k), p(0, k) = 1, p(n > 0, 0) = 0
        p = [[1] * 6] + [[0] * 6 for _ in range(60)]
        for n in range(1, 61):
            for k in range(1, 6):
                p[n][k] = p[n][k - 1] + (p[n - k][k] if n >= k else 0)
        for n in range(61):
            for d in range(1, 6):
                rows = [m.rows for m in enumerate_diagrams(n, d)]
                assert len(rows) == p[n][d], (n, d)
                assert partition_counts(n, d)[n] == p[n][d], (n, d)
                assert rows == sorted(set(rows), reverse=True)
                assert all(sum(r) == n and len(r) <= d for r in rows)

    def test_partition_counts_uncapped(self):
        assert partition_counts(20) == [len(enumerate_diagrams(m)) for m in range(21)]
        assert partition_counts(30)[30] == 5604
        assert partition_counts(0) == partition_counts(0, 3) == [1]
        with pytest.raises(ValueError):
            partition_counts(-1)
        with pytest.raises(ValueError):
            partition_counts(3, 0)


def parents(mu):
    """Diagrams one box below mu, read from the edge list of its box count."""
    e = incidence_edges(mu.boxes)
    return {e.row_basis[i] for i in e.parent[e.child == e.col_basis.index(mu)].tolist()}


class TestBoxMoves:
    def test_add_box_examples(self):
        assert {m.rows for m in add_box(YoungDiagram((2, 1)))} == {
            (3, 1),
            (2, 2),
            (2, 1, 1),
        }
        assert {m.rows for m in add_box(YoungDiagram((2, 1)), 2)} == {(3, 1), (2, 2)}
        assert {m.rows for m in add_box(YoungDiagram((1,)))} == {(2,), (1, 1)}
        assert {m.rows for m in add_box(EMPTY_DIAGRAM)} == {(1,)}

    def test_remove_box_examples(self):
        assert parents(YoungDiagram((3, 1))) == {YoungDiagram((2, 1)), YoungDiagram((3,))}
        assert parents(YoungDiagram((2, 2))) == {YoungDiagram((2, 1))}
        assert parents(YoungDiagram((1,))) == {EMPTY_DIAGRAM}
        with pytest.raises(ValueError):
            incidence_edges(0)

    def test_remove_count_is_distinct_row_lengths(self):
        for n in range(1, 9):
            e = incidence_edges(n)
            counts = [len(set(mu.rows)) for mu in e.col_basis]
            assert np.bincount(e.child).tolist() == counts

    @given(partitions)
    @settings(max_examples=60)
    def test_branching_symmetry(self, mu):
        for alpha in parents(mu):
            assert mu in add_box(alpha)
        if mu.boxes <= 7:
            for nu in add_box(mu):
                assert mu in parents(nu)

    def test_box_move_examples(self):
        basis = enumerate_diagrams(4)
        m = teleportation_matrix(4).entries
        i, j, k = (basis.index(YoungDiagram(r)) for r in [(3, 1), (2, 2), (4,)])
        assert m[i][j] == 1
        assert m[k][j] == 0

    def test_box_move_symmetric_irreflexive(self):
        # distinct diagrams share a parent iff the rows differ by one moved
        # box: a zero-padded L1 distance of 2
        for n in range(2, 7):
            rows = enumerate_diagrams(n).rows.astype(int)
            moved = np.abs(rows[:, None] - rows[None, :]).sum(axis=2) == 2
            m = np.array(teleportation_matrix(n).entries)
            np.fill_diagonal(m, 0)
            assert np.array_equal(m, moved)


class TestDimensions:
    def test_examples(self):
        assert irrep_dim(YoungDiagram((2, 1))) == 2
        assert irrep_dim(YoungDiagram((5,))) == 1
        assert irrep_dim(YoungDiagram((1, 1, 1))) == 1
        assert irrep_dim(EMPTY_DIAGRAM) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force_syt(self, n):
        for mu in enumerate_diagrams(n):
            assert irrep_dim(mu) == brute_force_syt_count(mu.rows)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dimension_square_sum(self, n):
        assert sum(irrep_dim(mu) ** 2 for mu in enumerate_diagrams(n)) == math.factorial(n)


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity(YoungDiagram((2,)), 2) == 3
        assert multiplicity(YoungDiagram((1, 1, 1)), 2) == 0
        for d in (1, 2, 5):
            assert multiplicity(YoungDiagram((1,)), d) == d
        assert multiplicity(EMPTY_DIAGRAM, 3) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_brute_force_ssyt(self, n, d):
        for mu in enumerate_diagrams(n):
            assert multiplicity(mu, d) == brute_force_ssyt_count(mu.rows, d)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_schur_weyl_dimension_count(self, n, d):
        total = sum(irrep_dim(mu) * multiplicity(mu, d) for mu in enumerate_diagrams(n))
        assert total == d**n

    def test_exactness_at_large_n(self):
        # hook products overflow 64-bit integers well before N = 50
        mu = YoungDiagram((25, 25))
        assert irrep_dim(mu) == brute_force_catalan(25)
        assert multiplicity(mu, 2) == 1


class TestHookFormulas:
    @pytest.mark.parametrize("n", range(0, 21))
    def test_uncapped(self, n):
        for mu in enumerate_diagrams(n):
            assert irrep_dim(mu) == hook_length_dim(mu.rows), mu
            for d in HOOK_DIMS:
                want = hook_content_multiplicity(mu.rows, d)
                assert multiplicity(mu, d) == want, (mu, d)

    @pytest.mark.parametrize("n,d", [(100, 3), (60, 4), (400, 2), (40, 9)])
    def test_capped_bases(self, n, d):
        for mu in enumerate_diagrams(n, d):
            assert irrep_dim(mu) == hook_length_dim(mu.rows), mu
            assert multiplicity(mu, d) == hook_content_multiplicity(mu.rows, d), mu

    def test_qubit_closed_forms_at_large_n(self):
        # two rows [n - k, k]: m = n - 2k + 1, d_mu = C(n, k) - C(n, k - 1)
        n = 2000
        for mu in enumerate_diagrams(n, 2):
            k = mu.rows[1] if mu.height == 2 else 0
            assert multiplicity(mu, 2) == n - 2 * k + 1
            below = math.comb(n, k - 1) if k else 0
            assert irrep_dim(mu) == math.comb(n, k) - below


def brute_force_catalan(k):
    # dim of the two-row rectangle (k, k) is the k-th Catalan number
    return math.comb(2 * k, k) // (k + 1)
