"""Teleportation-matrix structure: Gram identities, recursion, Perron preconditions."""

import csv
import io
import random
from fractions import Fraction

import numpy as np
import pytest

from dpbt.diagrams import add_box, enumerate_diagrams
from dpbt.telemat import (
    IncidenceEdges,
    gram_H,
    incidence_edges,
    incidence_matrix,
    recursion_defect,
    teleportation_matrix,
    to_csv,
    to_json_dict,
)

SMALL_GRID = [(n, d) for n in range(2, 9) for d in range(2, n + 1)]


def gram_columns(n, d=None):
    """R^T R computed by numpy from the dense incidence matrix."""
    r = np.array(incidence_matrix(n, d).entries, dtype=np.int64)
    return r.T @ r


class TestTeleportationMatrix:
    def test_examples(self):
        assert teleportation_matrix(2, 2).entries == ((1, 1), (1, 1))
        assert teleportation_matrix(3, 2).entries == ((1, 1), (1, 2))
        assert teleportation_matrix(4, 2).entries == ((1, 1, 0), (1, 2, 1), (0, 1, 1))
        assert teleportation_matrix(1, 5).entries == ((1,),)

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_matches_remove_box_reference(self, n, d):
        # the definition: parent counts on the diagonal, box moves off it;
        # two distinct diagrams are one box move apart iff they share a parent
        def remove_box(rows):
            last = [i for i in range(len(rows)) if i + 1 == len(rows) or rows[i] > rows[i + 1]]
            return {tuple(r - (j == i) for j, r in enumerate(rows) if r - (j == i)) for i in last}

        parents = [remove_box(mu.rows) for mu in enumerate_diagrams(n, d)]
        reference = tuple(tuple(len(a & b) for b in parents) for a in parents)
        assert teleportation_matrix(n, d).entries == reference

    def test_full_matrix_row_sums(self):
        m = teleportation_matrix(4, 4)
        assert all(sum(row) <= 16 for row in m.entries)

    def test_symmetric_nonnegative(self):
        for n, d in SMALL_GRID:
            e = teleportation_matrix(n, d).entries
            assert all(x >= 0 for row in e for x in row)
            assert all(
                e[i][j] == e[j][i] for i in range(len(e)) for j in range(len(e))
            )

    def test_unbounded_equals_d_ge_n(self):
        for n in range(1, 8):
            assert teleportation_matrix(n).entries == teleportation_matrix(n, n).entries
            assert teleportation_matrix(n).entries == teleportation_matrix(n, n + 3).entries


def add_box_edges(n, d=None):
    """Sorted (parent, child) index pairs of R from add_box and basis lookups."""
    row_basis = enumerate_diagrams(n - 1, d)
    col_basis = enumerate_diagrams(n, d)
    pairs = sorted(
        (i, col_basis.index(mu))
        for i, alpha in enumerate(row_basis)
        for mu in add_box(alpha, d)
    )
    return np.array(pairs, dtype=np.intp).T


class TestIncidenceEdges:
    @pytest.mark.parametrize(
        "n,d",
        SMALL_GRID
        + [(40, 4), (100, 3), (400, 2)]
        + [(n, None) for n in range(1, 11)],
    )
    def test_matches_add_box_reference(self, n, d):
        e = incidence_edges(n, d)
        parent, child = add_box_edges(n, d)
        assert e.parent.dtype == e.child.dtype == np.intp
        assert np.array_equal(e.parent, parent)
        assert np.array_equal(e.child, child)


class TestIncidenceMatrix:
    def test_printed_example(self):
        assert incidence_matrix(4, 4).entries == (
            (1, 1, 0, 0, 0),
            (0, 1, 1, 1, 0),
            (0, 0, 0, 1, 1),
        )

    def test_small_examples(self):
        assert incidence_matrix(2, 2).entries == ((1, 1),)
        assert incidence_matrix(3, 2).entries == ((1, 1), (0, 1))

    def test_column_sums_count_parents(self):
        for n, d in SMALL_GRID:
            r = incidence_matrix(n, d)
            for j, mu in enumerate(r.col_basis):
                col_sum = sum(r.entries[i][j] for i in range(len(r.row_basis)))
                parents_in = sum(1 for alpha in r.row_basis if mu in add_box(alpha, d))
                assert col_sum == parents_in

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_maximal_rank(self, n, d):
        r = incidence_matrix(n, d)
        assert exact_rank(r.entries) == len(r.row_basis)


def exact_rank(entries):
    """Row rank over the rationals by fraction-free Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in entries]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestGramIdentities:
    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_g_equals_teleportation_matrix(self, n, d):
        assert gram_columns(n, d).tolist() == list(
            map(list, teleportation_matrix(n, d).entries)
        )

    def test_g_equals_unbounded(self):
        for n in range(2, 8):
            assert gram_columns(n).tolist() == list(
                map(list, teleportation_matrix(n).entries)
            )

    def test_h_full_is_identity_plus_stepdown(self):
        for n in range(2, 8):
            h = gram_H(n, n)
            mf = teleportation_matrix(n - 1, n)
            size = len(h.row_basis)
            expect = tuple(
                tuple(mf.entries[i][j] + (1 if i == j else 0) for j in range(size))
                for i in range(size)
            )
            assert h.entries == expect

    def test_h_example_4_2(self):
        # one parent of height < 2, so a single diagonal correction on row [3]
        h = gram_H(4, 2)
        assert h.entries == ((2, 1), (1, 2))
        mf = teleportation_matrix(3, 2)
        assert h.entries[0][0] - mf.entries[0][0] == 1
        assert h.entries[1][1] - mf.entries[1][1] == 0

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_recursion_defect_zero(self, n, d):
        defect = recursion_defect(n, d)
        assert all(x == 0 for row in defect for x in row)

    def test_recursion_defect_trivial_cases(self):
        assert recursion_defect(2, 2) == ((0,),)
        assert all(x == 0 for row in recursion_defect(5, 2) for x in row)

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_quadratic_form_identity(self, n, d):
        # sum over parents of (sum of child entries)^2 equals v^T M v, exactly
        basis = enumerate_diagrams(n, d)
        m = teleportation_matrix(n, d)
        rng = random.Random(20240 + 10 * n + d)
        trials = max(1, 100 // len(SMALL_GRID) * 4)
        for _ in range(trials):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in basis]
            lhs = Fraction(0)
            for alpha in enumerate_diagrams(n - 1, d):
                inner = sum(
                    (v[basis.index(mu)] for mu in add_box(alpha, d) if mu in basis),
                    Fraction(0),
                )
                lhs += inner * inner
            rhs = sum(
                v[i] * m.entries[i][j] * v[j]
                for i in range(len(basis))
                for j in range(len(basis))
            )
            assert lhs == rhs

    def test_quadratic_form_identity_100_vectors(self):
        n, d = 6, 3
        basis = enumerate_diagrams(n, d)
        m = teleportation_matrix(n, d)
        rng = random.Random(7)
        for _ in range(100):
            v = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in basis]
            lhs = Fraction(0)
            for alpha in enumerate_diagrams(n - 1, d):
                inner = sum(
                    (v[basis.index(mu)] for mu in add_box(alpha, d) if mu in basis),
                    Fraction(0),
                )
                lhs += inner * inner
            rhs = sum(
                v[i] * m.entries[i][j] * v[j]
                for i in range(len(basis))
                for j in range(len(basis))
            )
            assert lhs == rhs


class TestSpectralStructure:
    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_positive_semidefinite(self, n, d):
        w = np.linalg.eigvalsh(teleportation_matrix(n, d).entries)
        assert w[0] >= -1e-10

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_g_and_h_share_nonzero_spectrum(self, n, d):
        wg = np.linalg.eigvalsh(gram_columns(n, d).astype(float))
        wh = np.linalg.eigvalsh(gram_H(n, d).entries)
        nz_g = sorted(x for x in wg if x > 1e-9)
        nz_h = sorted(x for x in wh if x > 1e-9)
        assert len(nz_g) == len(nz_h)
        assert all(abs(a - b) < 1e-9 for a, b in zip(nz_g, nz_h))


def connected(e):
    """Whether the parent-child graph of the edge list is connected, by
    union-find over its edges (parents first, then children)."""
    root = list(range(len(e.row_basis) + len(e.col_basis)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p, c in zip(e.parent.tolist(), (e.child + len(e.row_basis)).tolist()):
        root[find(p)] = find(c)
    return len({find(i) for i in range(len(root))}) == 1


def centrosymmetric(n):
    a = np.array(teleportation_matrix(n).entries)
    return np.array_equal(a, a[::-1, ::-1])


class TestStructureReport:
    """The facts lanczos_perron relies on: M_F = R^T R is irreducible (the
    parent-child graph is connected) with a positive diagonal (every diagram
    has a parent), so its Perron vector is positive and its radius simple."""

    @pytest.mark.parametrize("n,d", SMALL_GRID + [(100, 3), (40, 4)])
    def test_perron_preconditions(self, n, d):
        e = incidence_edges(n, d)
        assert connected(e)
        assert np.bincount(e.child, minlength=len(e.col_basis)).min() >= 1

    def test_mf4_irreducible_primitive(self):
        # primitive: some power of the dense matrix is strictly positive
        a = np.array(teleportation_matrix(4).entries)
        assert np.linalg.matrix_power(a, len(a) - 1).min() > 0

    def test_mf5_centrosymmetric(self):
        assert centrosymmetric(5)

    def test_full_matrices_centrosymmetric_small_n(self):
        # centrosymmetry of the full matrix depends on the basis order being
        # reversed by diagram conjugation, which decreasing lex achieves only
        # up to n = 5
        assert all(centrosymmetric(n) for n in range(2, 6))
        assert not centrosymmetric(6)

    def test_row_sum_bound(self):
        for n in range(2, 9):
            for d in range(2, 5):
                assert np.array(teleportation_matrix(n, d).entries).sum(axis=1).max() <= d * d

    def test_reducible_detected(self):
        # (4, 2) without the edge [2,1] -> [3,1] splits into two components
        e = incidence_edges(4, 2)
        keep = (e.parent != 1) | (e.child != 1)
        assert keep.sum() == len(e.parent) - 1
        assert connected(e)
        assert not connected(IncidenceEdges(e.row_basis, e.col_basis, e.parent[keep], e.child[keep]))


class TestSerialization:
    @pytest.mark.parametrize(
        "build", [teleportation_matrix, incidence_matrix, gram_H]
    )
    def test_csv_roundtrip(self, build):
        m = build(5, 3)
        header, *records = csv.reader(io.StringIO(to_csv(m)))
        assert header == ["", *m.col_basis.labels()]
        assert [rec[0] for rec in records] == list(m.row_basis.labels())
        assert [tuple(map(int, rec[1:])) for rec in records] == list(m.entries)

    def test_json_dict(self):
        m = teleportation_matrix(3, 2)
        payload = to_json_dict(m)
        assert payload["kind"] == "MF"
        assert payload["N"] == 3
        assert payload["d"] == 2
        assert payload["basis"] == ["[3]", "[2,1]"]
        assert payload["entries"] == [[1, 1], [1, 2]]

    def test_json_dict_rectangular(self):
        payload = to_json_dict(incidence_matrix(3, 2))
        assert payload["basis"]["rows"] == ["[2]", "[1,1]"]
        assert payload["basis"]["cols"] == ["[3]", "[2,1]"]
