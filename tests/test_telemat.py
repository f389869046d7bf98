"""Teleportation-matrix structure: Gram identities, recursion, Perron preconditions."""

import csv
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from dpbt.cli import run
from dpbt.diagrams import _row_tuples, enumerate_diagrams
from dpbt.oracle import _add_box
from dpbt.telemat import (
    IncidenceEdges,
    gram_H,
    incidence_edges,
    incidence_matrix,
    teleportation_matrix,
)

SMALL_GRID = [(n, d) for n in range(2, 9) for d in range(2, n + 1)]


def dense(build, n, d):
    """Nested lists of one dense view of the cell (n, d)."""
    return build(incidence_edges(n, d)).tolist()


def sparse_gram(key, member, size):
    """The Gram matrix of the edges grouped by key, as sorted flat codes
    a * size + b and their counts: every edge pairs with itself, and edges
    i and i + s of one key run pair both ways."""
    order = np.lexsort((member, key))
    key, member = key[order], member[order]
    codes = [member * size + member]
    for s in range(1, len(key)):
        same = key[s:] == key[:-s]
        if not same.any():
            break
        a, b = member[:-s][same], member[s:][same]
        codes += [a * size + b, b * size + a]
    return np.unique(np.concatenate(codes), return_counts=True)


def gram_columns(n, d):
    """R^T R computed by numpy from the dense incidence matrix."""
    r = incidence_matrix(incidence_edges(n, d))
    return r.T @ r


class TestTeleportationMatrix:
    def test_examples(self):
        assert dense(teleportation_matrix, 2, 2) == [[1, 1], [1, 1]]
        assert dense(teleportation_matrix, 3, 2) == [[1, 1], [1, 2]]
        assert dense(teleportation_matrix, 4, 2) == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
        assert dense(teleportation_matrix, 1, 5) == [[1]]

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_matches_remove_box_reference(self, n, d):
        # the definition: parent counts on the diagonal, box moves off it;
        # two distinct diagrams are one box move apart iff they share a parent
        def remove_box(rows):
            last = [i for i in range(len(rows)) if i + 1 == len(rows) or rows[i] > rows[i + 1]]
            return {tuple(r - (j == i) for j, r in enumerate(rows) if r - (j == i)) for i in last}

        parents = [remove_box(mu) for mu in _row_tuples(enumerate_diagrams(n, d))]
        reference = [[len(a & b) for b in parents] for a in parents]
        assert dense(teleportation_matrix, n, d) == reference

    def test_full_matrix_row_sums(self):
        m = dense(teleportation_matrix, 4, 4)
        assert all(sum(row) <= 16 for row in m)

    def test_symmetric_nonnegative(self):
        for n, d in SMALL_GRID:
            e = dense(teleportation_matrix, n, d)
            assert all(x >= 0 for row in e for x in row)
            assert all(
                e[i][j] == e[j][i] for i in range(len(e)) for j in range(len(e))
            )

    def test_unbounded_equals_d_ge_n(self):
        for n in range(1, 8):
            assert dense(teleportation_matrix, n, n + 3) == dense(teleportation_matrix, n, n)


def places(basis):
    """{rows: index} over the row tuples of a basis."""
    return {mu: i for i, mu in enumerate(_row_tuples(basis))}


def add_box_edges(n, d):
    """Sorted (parent, child) index pairs of R from the oracle's add-box walk
    and a dict of the children's places."""
    place = places(enumerate_diagrams(n, d))
    pairs = sorted(
        (i, place[mu])
        for i, alpha in enumerate(_row_tuples(enumerate_diagrams(n - 1, d)))
        for mu in _add_box(alpha, d)
    )
    return np.array(pairs, dtype=np.intp).T


class TestIncidenceEdges:
    @pytest.mark.parametrize(
        "n,d",
        SMALL_GRID
        + [(40, 4), (100, 3), (400, 2), (5, 7)]
        + [(n, None) for n in range(1, 11)],
    )
    def test_matches_add_box_reference(self, n, d):
        d = n if d is None else d  # None: the full cap d = n
        e = incidence_edges(n, d)
        parent, child = add_box_edges(n, d)
        assert e.parent.dtype == e.child.dtype == np.intp
        assert np.array_equal(e.parent, parent)
        assert np.array_equal(e.child, child)


class TestIncidenceMatrix:
    def test_printed_example(self):
        assert dense(incidence_matrix, 4, 4) == [
            [1, 1, 0, 0, 0],
            [0, 1, 1, 1, 0],
            [0, 0, 0, 1, 1],
        ]

    def test_small_examples(self):
        assert dense(incidence_matrix, 2, 2) == [[1, 1]]
        assert dense(incidence_matrix, 3, 2) == [[1, 1], [0, 1]]

    def test_column_sums_count_parents(self):
        for n, d in SMALL_GRID:
            e = incidence_edges(n, d)
            r = incidence_matrix(e).tolist()
            for j, mu in enumerate(_row_tuples(e.col_basis)):
                col_sum = sum(r[i][j] for i in range(len(e.row_basis)))
                parents_in = sum(1 for alpha in _row_tuples(e.row_basis) if mu in _add_box(alpha, d))
                assert col_sum == parents_in

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_maximal_rank(self, n, d):
        e = incidence_edges(n, d)
        assert exact_rank(incidence_matrix(e).tolist()) == len(e.row_basis)


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
    @pytest.mark.parametrize(
        "n,d", SMALL_GRID + [(n, None) for n in range(1, 11)] + [(1, 2), (1, 3)]
    )
    def test_scatter_matches_int64_products(self, n, d):
        # the scatters over shared parents (M_F) and shared children (H)
        # against numpy's int64 products of the dense incidence matrix
        d = n if d is None else d  # None: the full cap d = n
        e = incidence_edges(n, d)
        r, mf, h = incidence_matrix(e), teleportation_matrix(e), gram_H(e)
        assert r.dtype == mf.dtype == h.dtype == np.int64
        assert np.array_equal(mf, r.T @ r)
        assert np.array_equal(h, r @ r.T)

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_g_equals_teleportation_matrix(self, n, d):
        assert gram_columns(n, d).tolist() == dense(teleportation_matrix, n, d)

    def test_g_equals_unbounded(self):
        for n in range(2, 8):
            assert gram_columns(n, n + 3).tolist() == dense(teleportation_matrix, n, n)

    def test_h_full_is_identity_plus_stepdown(self):
        for n in range(2, 8):
            h = dense(gram_H, n, n)
            mf = dense(teleportation_matrix, n - 1, n)
            size = len(h)
            expect = [
                [mf[i][j] + (1 if i == j else 0) for j in range(size)]
                for i in range(size)
            ]
            assert h == expect

    def test_h_example_4_2(self):
        # one parent of height < 2, so a single diagonal correction on row [3]
        h = dense(gram_H, 4, 2)
        assert h == [[2, 1], [1, 2]]
        mf = dense(teleportation_matrix, 3, 2)
        assert h[0][0] - mf[0][0] == 1
        assert h[1][1] - mf[1][1] == 0

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_recursion_defect_zero(self, recursion_defect, n, d):
        defect = recursion_defect(n, d)
        assert all(x == 0 for row in defect for x in row)

    def test_recursion_defect_trivial_cases(self, recursion_defect):
        assert recursion_defect(2, 2) == ((0,),)
        assert all(x == 0 for row in recursion_defect(5, 2) for x in row)

    @pytest.mark.parametrize("n,d", [(150, 4), (300, 3)] + SMALL_GRID)
    def test_up_down_identity_from_edge_lists(self, n, d):
        # H(N) = R R^T = M_F(N-1) + I - D, D the 0/1 diagonal of the diagrams
        # of N-1 with height exactly d: Young's lattice has DU - UD = I, less
        # the corner in row d+1 that the cap forbids.  Both sides are sparse
        # (code, count) lists from the edge lists of N and N-1 alone.
        e, below = incidence_edges(n, d), incidence_edges(n - 1, d)
        assert np.array_equal(e.row_basis.rows, below.col_basis.rows)
        size = len(e.row_basis)
        h = sparse_gram(e.child, e.parent, size)
        height = np.count_nonzero(e.row_basis.rows, axis=1)
        lower = np.flatnonzero(height < d)
        mf = sparse_gram(below.parent, below.child, size)
        codes, where = np.unique(np.concatenate([mf[0], lower * size + lower]), return_inverse=True)
        counts = np.bincount(where, weights=np.concatenate([mf[1], np.ones(len(lower))]))
        assert np.array_equal(h[0], codes) and np.array_equal(h[1], counts)
        if size <= 400:
            # and the sparse H is the scatter that gram_H builds
            full = np.zeros(size * size, dtype=np.int64)
            full[h[0]] = h[1]
            assert np.array_equal(full.reshape(size, size), gram_H(e))

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_quadratic_form_identity(self, n, d):
        # sum over parents of (sum of child entries)^2 equals v^T M v, exactly
        basis = enumerate_diagrams(n, d)
        place = places(basis)
        m = dense(teleportation_matrix, n, d)
        rng = random.Random(20240 + 10 * n + d)
        trials = max(1, 100 // len(SMALL_GRID) * 4)
        for _ in range(trials):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(len(basis))]
            lhs = Fraction(0)
            for alpha in _row_tuples(enumerate_diagrams(n - 1, d)):
                inner = sum((v[place[mu]] for mu in _add_box(alpha, d)), Fraction(0))
                lhs += inner * inner
            rhs = sum(
                v[i] * m[i][j] * v[j]
                for i in range(len(basis))
                for j in range(len(basis))
            )
            assert lhs == rhs

    def test_quadratic_form_identity_100_vectors(self):
        n, d = 6, 3
        basis = enumerate_diagrams(n, d)
        place = places(basis)
        m = dense(teleportation_matrix, n, d)
        rng = random.Random(7)
        for _ in range(100):
            v = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(len(basis))]
            lhs = Fraction(0)
            for alpha in _row_tuples(enumerate_diagrams(n - 1, d)):
                inner = sum((v[place[mu]] for mu in _add_box(alpha, d)), Fraction(0))
                lhs += inner * inner
            rhs = sum(
                v[i] * m[i][j] * v[j]
                for i in range(len(basis))
                for j in range(len(basis))
            )
            assert lhs == rhs


class TestSpectralStructure:
    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_positive_semidefinite(self, n, d):
        w = np.linalg.eigvalsh(teleportation_matrix(incidence_edges(n, d)))
        assert w[0] >= -1e-10

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_g_and_h_share_nonzero_spectrum(self, n, d):
        wg = np.linalg.eigvalsh(gram_columns(n, d).astype(float))
        wh = np.linalg.eigvalsh(gram_H(incidence_edges(n, d)))
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
    a = teleportation_matrix(incidence_edges(n, n))
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
        a = teleportation_matrix(incidence_edges(4, 4))
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
                assert teleportation_matrix(incidence_edges(n, d)).sum(axis=1).max() <= d * d

    def test_reducible_detected(self):
        # (4, 2) without the edge [2,1] -> [3,1] splits into two components
        e = incidence_edges(4, 2)
        keep = (e.parent != 1) | (e.child != 1)
        assert keep.sum() == len(e.parent) - 1
        assert connected(e)
        assert not connected(IncidenceEdges(e.row_basis, e.col_basis, e.parent[keep], e.child[keep]))


class TestSerialization:
    """The CLI's CSV and JSON forms of the dense views."""

    @staticmethod
    def emit(argv):
        out = io.StringIO()
        assert run(["matrix", *argv], out=out) == 0
        return out.getvalue()

    # the kind and the (row, column) bases of each dense view
    VIEWS = {
        teleportation_matrix: ("MF", "col_basis", "col_basis"),
        incidence_matrix: ("R", "row_basis", "col_basis"),
        gram_H: ("H", "row_basis", "row_basis"),
    }

    @pytest.mark.parametrize("build", list(VIEWS))
    def test_csv_roundtrip(self, build):
        kind, rows, cols = self.VIEWS[build]
        e = incidence_edges(5, 3)
        text = self.emit(["-N", "5", "-d", "3", "--kind", kind, "--format", "csv"])
        header, *records = csv.reader(io.StringIO(text))
        assert header == ["", *getattr(e, cols).labels()]
        assert [rec[0] for rec in records] == list(getattr(e, rows).labels())
        assert [list(map(int, rec[1:])) for rec in records] == build(e).tolist()

    def test_json_dict(self):
        payload = json.loads(self.emit(["-N", "3", "-d", "2"]))
        assert payload["kind"] == "MF"
        assert payload["N"] == 3
        assert payload["d"] == 2
        assert payload["basis"] == ["[3]", "[2,1]"]
        assert payload["entries"] == [[1, 1], [1, 2]]

    def test_json_dict_rectangular(self):
        payload = json.loads(self.emit(["-N", "3", "-d", "2", "--kind", "R"]))
        assert payload["basis"]["rows"] == ["[2]", "[1,1]"]
        assert payload["basis"]["cols"] == ["[3]", "[2,1]"]
