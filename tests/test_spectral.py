"""Spectral routes: the certified Lanczos solver vs closed forms and eigvalsh;
closed-form vs character spectrum."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dpbt import spectral
from dpbt.diagrams import enumerate_diagrams
from dpbt.oracle import character_spectrum
from dpbt.protocol import fidelity_row, sweep
from dpbt.spectral import (
    LANCZOS_FLOOR,
    PowerIterationError,
    closed_form_d2,
    closed_form_full,
    closed_form_spectrum,
    dominant_eigenpair,
    lanczos_perron,
)
from dpbt.telemat import incidence_edges, teleportation_matrix


class TestPowerIteration:
    def test_full_matrix_radius(self):
        res = lanczos_perron(incidence_edges(3, 3), tol=1e-12)
        assert abs(res.radius - 3.0) < 1e-10
        assert res.method == "lanczos"
        assert res.hi - res.lo <= 1e-12 * res.hi

    def test_golden_ratio_case(self):
        res = lanczos_perron(incidence_edges(3, 2))
        assert abs(res.radius - 4 * math.cos(math.pi / 5) ** 2) < 1e-9

    def test_one_by_one(self):
        res = lanczos_perron(incidence_edges(1, 3))  # M_F(1) = [[1]]
        assert res.radius == 1.0
        assert res.perron.tolist() == [1.0]

    def test_perron_properties(self):
        for n in range(2, 9):
            for d in range(2, n + 1):
                res = lanczos_perron(incidence_edges(n, d))
                assert isinstance(res.perron, np.ndarray) and res.perron.dtype == np.float64
                assert res.perron.shape == (len(res.basis),)
                assert all(x > 0 for x in res.perron.tolist())
                assert abs(sum(res.perron.tolist()) - 1.0) < 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            lanczos_perron(incidence_edges(3, 3), tol=0.0)
        for tol, max_iter in [(1.0, 10), (math.nan, 10), (1e-12, 0), (LANCZOS_FLOOR / 2, 10)]:
            with pytest.raises(ValueError):
                lanczos_perron(incidence_edges(3, 3), tol=tol, max_iter=max_iter)

    def test_non_convergence_carries_last_iterate(self):
        with pytest.raises(PowerIterationError) as info:
            lanczos_perron(incidence_edges(6, 3), tol=LANCZOS_FLOOR, max_iter=2)
        last = info.value.last
        assert last.iterations == 2
        assert len(last.perron) == len(enumerate_diagrams(6, 3))

    def test_unattainable_tol_spends_the_budget_on_positive_steps(self):
        # at the smallest tol Lanczos takes 122 products at (100, 3) and the
        # positive steps finish at 155; a budget of 144 runs out among the
        # positive steps, which have already narrowed [lo, hi] to rounding level
        with pytest.raises(PowerIterationError) as info:
            lanczos_perron(incidence_edges(100, 3), tol=LANCZOS_FLOOR, max_iter=144)
        last = info.value.last
        assert last.iterations == 144 and min(last.perron) > 0
        assert last.lo <= last.hi <= last.lo * (1 + 1e-14)

    @pytest.mark.parametrize("n,d,steps", [(12, 3, 25), (40, 4, 50), (100, 3, 109)])
    def test_regenerated_basis_gives_the_same_bits(self, n, d, steps, monkeypatch):
        # a k-step run that keeps j of its k Lanczos vectors regenerates the
        # other k - j with one product each and sums the same vectors in the
        # same order; one kept vector is the run that regenerates them all
        e = incidence_edges(n, d)
        full = lanczos_perron(e)
        for kept in (1, 2):
            monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", kept * 8 * len(e.col_basis))
            res = lanczos_perron(e)
            assert (res.radius, res.lo, res.hi) == (full.radius, full.lo, full.hi)
            assert np.array_equal(res.perron, full.perron)
            assert res.iterations == full.iterations + steps - kept


def dense_mf(e):
    """M_F = R^T R as a float matrix, from the dense 0/1 incidence matrix of e."""
    r = np.zeros((len(e.row_basis), len(e.col_basis)))
    r[e.parent, e.child] = 1.0
    return r.T @ r


# eigvalsh is itself accurate only to a few ulps: at (28, 3) it lies 1.7e-15
# relative below the exact Rayleigh quotient of the solver's vector, which is a
# rigorous lower bound.  Float references get this relative slack.
ROUNDING = 1e-14

SOLVER_CELLS = [(n, d) for d in (3, 4) for n in range(d + 1, 41)]


class TestCertifiedBracket:
    @pytest.mark.parametrize("n,d", SOLVER_CELLS)
    def test_encloses_eigvalsh(self, n, d):
        e = incidence_edges(n, d)
        res = dominant_eigenpair(e)
        top = np.linalg.eigvalsh(dense_mf(e))[-1]
        assert res.method == "lanczos" and res.radius == res.lo
        assert res.lo - ROUNDING * top <= top <= res.hi + ROUNDING * top
        assert res.hi - res.lo <= 1e-12 * res.hi
        assert abs(res.radius - top) <= 1e-13 * top
        assert min(res.perron) > 0

    @pytest.mark.parametrize("n,d", [(28, 3), (36, 4), (12, 5)])
    def test_bracket_holds_in_exact_arithmetic(self, n, d):
        # for the returned float vector w, the exact Rayleigh quotient and the
        # exact largest ratio (M_F w)/w enclose the radius with no rounding
        e = incidence_edges(n, d)
        res = lanczos_perron(e)
        w = [Fraction(x) for x in res.perron]
        u = [Fraction(0)] * len(e.row_basis)
        for i, j in zip(e.parent.tolist(), e.child.tolist()):
            u[i] += w[j]
        mw = [Fraction(0)] * len(w)
        for i, j in zip(e.parent.tolist(), e.child.tolist()):
            mw[j] += u[i]
        lo = sum(a * b for a, b in zip(w, mw)) / sum(a * a for a in w)
        hi = max(a / b for a, b in zip(mw, w))
        assert hi - lo <= Fraction(1e-12) * hi
        assert abs(Fraction(res.lo) - lo) <= Fraction(1e-15) * hi
        assert abs(Fraction(res.hi) - hi) <= Fraction(1e-15) * hi

    @pytest.mark.parametrize("n", range(3, 41))
    def test_brackets_qubit_closed_form(self, n):
        # lanczos_perron directly, bypassing the d = 2 closed form
        res = lanczos_perron(incidence_edges(n, 2))
        want = 4 * math.cos(math.pi / (n + 2)) ** 2
        assert res.lo - ROUNDING * want <= want <= res.hi + ROUNDING * want
        assert res.hi - res.lo <= 1e-12 * res.hi

    def test_scale_regression_through_fidelity_row(self):
        row = fidelity_row(300, 3)
        res = lanczos_perron(incidence_edges(300, 3))
        assert (row["method"], row["radius"], row["iterations"]) == (
            "lanczos", res.radius, res.iterations
        )
        assert res.hi - res.lo <= 1e-12 * res.hi
        assert row["f_lower"] <= row["f_sqrt_ent"] <= row["f_opt"]

    def test_sweep_product_count(self):
        # a deterministic cost guard: the power iteration needed 21159 products,
        # Lanczos that regenerated its basis for the Ritz vector 4820, one pass 2748
        rows = sweep(range(2, 41), [2, 3, 4])
        solved = [r for r in rows if r["method"] == "lanczos"]
        assert len(solved) == 73
        assert sum(r["iterations"] for r in solved) < 2800


class TestClosedForms:
    def test_full_n2(self):
        res = closed_form_full(enumerate_diagrams(2, 2))
        assert res.radius == 2.0
        assert res.perron.dtype == np.float64 and res.perron.tolist() == [0.5, 0.5]
        assert res.method == "closed_dgeN"

    def test_full_n4_dims(self):
        res = closed_form_full(enumerate_diagrams(4, 4))
        dims = (1, 3, 2, 3, 1)
        assert res.perron.tolist() == [x / 10 for x in dims]

    def test_full_n1(self):
        assert closed_form_full(enumerate_diagrams(1, 1)).radius == 1.0

    def test_full_rejects_capped_basis(self):
        with pytest.raises(ValueError):
            closed_form_full(enumerate_diagrams(5, 3))
        with pytest.raises(ValueError):
            closed_form_full(enumerate_diagrams(0, 1))

    def test_d2_examples(self):
        lam = closed_form_d2(3)
        assert abs(lam[0] - 2.618033988749895) < 1e-12
        assert abs(lam[1] - 0.381966011250105) < 1e-12
        assert abs(sum(lam) - 3) < 1e-12  # trace of [[1,1],[1,2]]
        lam2 = closed_form_d2(2)
        assert abs(lam2[0] - 2) < 1e-12 and abs(lam2[1]) < 1e-12
        lam4 = closed_form_d2(4)
        assert np.allclose(lam4, [3.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_d2_matches_jacobi_eigensolve(self, n):
        w = np.linalg.eigvalsh(teleportation_matrix(incidence_edges(n, 2)))
        assert np.allclose(sorted(w, reverse=True), closed_form_d2(n), atol=1e-10)

    def test_d2_count(self):
        for n in range(1, 20):
            assert len(closed_form_d2(n)) == len(enumerate_diagrams(n, 2))

    def test_d2_integers_are_exact(self):
        # 4 cos^2(k pi/(N+2)) is rational only at k/(N+2) = 1/6, 1/4, 1/3, 1/2
        # (Niven), where it is 3, 2, 1, 0; every other value is the cosine
        # expression, bit for bit
        assert closed_form_d2(1) == [1.0]
        assert closed_form_d2(2) == [2.0, 0.0]
        assert closed_form_d2(4) == [3.0, 1.0, 0.0]
        exact = {Fraction(1, 6): 3.0, Fraction(1, 4): 2.0, Fraction(1, 3): 1.0, Fraction(1, 2): 0.0}
        for n in range(1, 61):
            got = closed_form_d2(n)
            for k, value in enumerate(got, 1):
                want = exact.get(Fraction(k, n + 2), 4.0 * math.cos(math.pi * k / (n + 2)) ** 2)
                assert value == want and type(value) is float, (n, k)
            assert (got[-1] == 0.0) == (n % 2 == 0)

    def test_d2_radius_is_the_first_eigenvalue(self):
        # d >= N at N <= 2: the full closed form, radius N, agrees too
        for n in range(1, 61):
            assert dominant_eigenpair(incidence_edges(n, 2)).radius == closed_form_d2(n)[0], n


class TestAgreementAcrossRoutes:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_matches_closed_full(self, n):
        res = lanczos_perron(incidence_edges(n, n))
        closed = closed_form_full(enumerate_diagrams(n, n))
        assert abs(res.radius - closed.radius) < 1e-9
        for a, b in zip(res.perron, closed.perron):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("n", range(2, 21))
    def test_power_matches_closed_d2(self, n):
        res = lanczos_perron(incidence_edges(n, 2))
        assert abs(res.radius - closed_form_d2(n)[0]) < 1e-9

    def test_radius_nondecreasing_in_d(self):
        for n in range(2, 9):
            radii = []
            for d in range(2, n + 1):
                radii.append(lanczos_perron(incidence_edges(n, d)).radius)
            for lo, hi in zip(radii, radii[1:]):
                assert hi >= lo - 1e-10

    @pytest.mark.parametrize("n,d", [(30, 3), (20, 4), (12, 5)])
    def test_power_matches_eigvalsh(self, n, d):
        res = lanczos_perron(incidence_edges(n, d))
        top = np.linalg.eigvalsh(teleportation_matrix(incidence_edges(n, d)))[-1]
        assert abs(res.radius - top) < 1e-9 * top


class TestDominantEigenpair:
    def test_dispatch(self):
        assert dominant_eigenpair(incidence_edges(4, 4)).method == "closed_dgeN"
        assert dominant_eigenpair(incidence_edges(4, 7)).method == "closed_dgeN"
        assert dominant_eigenpair(incidence_edges(5, 2)).method == "closed_d2"
        res = dominant_eigenpair(incidence_edges(6, 3))
        assert res.method == "lanczos" and res.iterations > 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_cell_at_any_cap(self, n):
        # d = n and d > n both list every diagram: one closed form
        got = [dominant_eigenpair(incidence_edges(n, d)) for d in (n, n + 3)]
        assert len({(r.radius, tuple(r.perron.tolist()), r.method) for r in got}) == 1
        assert got[0].method == "closed_dgeN"

    @pytest.mark.parametrize("n", range(2, 41))
    def test_d2_perron_matches_eigh(self, n):
        res = dominant_eigenpair(incidence_edges(n, 2))
        w, v = np.linalg.eigh(teleportation_matrix(incidence_edges(n, 2)))
        top = np.abs(v[:, -1])  # the Perron vector is positive up to sign
        assert abs(res.radius - w[-1]) < 1e-12 * w[-1]
        assert res.perron.dtype == np.float64
        assert np.max(np.abs(res.perron - top / top.sum())) < 1e-12


class TestSpectrumViaCharacters:
    """The closed-form spectrum against the exact character-table law."""

    def test_examples(self):
        for spectrum in (closed_form_spectrum, character_spectrum):
            assert spectrum(4) == {4: 1, 2: 1, 1: 1, 0: 2}
            assert spectrum(3) == {3: 1, 1: 1, 0: 1}
            assert spectrum(2) == {2: 1, 0: 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_identity_and_gap(self, n):
        mult = character_spectrum(n)  # hard error on any exact failure
        assert (n - 1) not in mult
        assert set(mult) == set(range(0, n - 1)) | {n}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_low_lying_multiplicities(self, n):
        mult = closed_form_spectrum(n)
        assert mult[n] == 1
        assert mult[n - 2] == 1
        if n >= 3:
            assert mult[n - 3] == 1
        if n >= 4:
            assert mult[n - 4] == 2
        if n >= 5:
            assert mult[n - 5] == 2

    def test_total_multiplicity_is_class_count(self):
        for n in range(1, 9):
            assert sum(closed_form_spectrum(n).values()) == len(enumerate_diagrams(n, n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_characters(self, n):
        assert closed_form_spectrum(n) == character_spectrum(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_eigvalsh(self, n):
        w = np.linalg.eigvalsh(teleportation_matrix(incidence_edges(n, n)))
        k = np.rint(w).astype(int)
        assert np.max(np.abs(w - k)) < 1e-9
        values, counts = np.unique(k, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == closed_form_spectrum(n)


class TestExactInertia:
    """The closed forms against conftest's exact count of the eigenvalues
    above a float, which shares no arithmetic with any solver or BLAS."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_qubit_radius_within_two_ulp(self, n, eigenvalues_above):
        m = teleportation_matrix(incidence_edges(n, 2))
        top = closed_form_d2(n)[0]
        step = 2 * math.ulp(top)
        assert eigenvalues_above(m, top - step) == (1, False)
        assert eigenvalues_above(m, top + step) == (0, False)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_radius_is_n(self, n, eigenvalues_above):
        for d in (max(n, 2), n + 3):
            e = incidence_edges(n, d)
            top = closed_form_full(e.col_basis).radius
            m = teleportation_matrix(e)
            assert top == n
            assert eigenvalues_above(m, top - 0.5) == (1, False)
            assert eigenvalues_above(m, top + 0.5) == (0, False)
            assert eigenvalues_above(m, top) == (0, True)
