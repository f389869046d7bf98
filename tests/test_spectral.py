"""Spectral routes: power iteration vs closed forms; closed-form vs character spectrum."""

import math

import numpy as np
import pytest

from dpbt.diagrams import enumerate_diagrams
from dpbt.oracle import character_spectrum
from dpbt.spectral import (
    PowerIterationError,
    closed_form_d2,
    closed_form_full,
    closed_form_spectrum,
    dominant_eigenpair,
    power_iteration,
)
from dpbt.telemat import teleportation_matrix


class TestPowerIteration:
    def test_full_matrix_radius(self):
        res = power_iteration(3, tol=1e-12)
        assert abs(res.radius - 3.0) < 1e-10
        assert res.method == "power"
        assert res.residual < 1e-12

    def test_golden_ratio_case(self):
        res = power_iteration(3, 2)
        assert abs(res.radius - 4 * math.cos(math.pi / 5) ** 2) < 1e-9

    def test_one_by_one(self):
        res = power_iteration(1, 3)  # M_F(1) = [[1]]
        assert res.radius == 1.0
        assert res.perron == (1.0,)

    def test_perron_properties(self):
        for n in range(2, 9):
            for d in range(2, n + 1):
                res = power_iteration(n, d)
                assert all(x > 0 for x in res.perron)
                assert abs(sum(res.perron) - 1.0) < 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            power_iteration(3, tol=0.0)

    def test_non_convergence_carries_last_iterate(self):
        with pytest.raises(PowerIterationError) as info:
            power_iteration(6, 3, tol=1e-15, max_iter=2)
        last = info.value.last
        assert last.iterations == 2
        assert len(last.perron) == len(enumerate_diagrams(6, 3))


class TestClosedForms:
    def test_full_n2(self):
        res = closed_form_full(2)
        assert res.radius == 2.0
        assert res.perron == (0.5, 0.5)
        assert res.method == "closed_dgeN"

    def test_full_n4_dims(self):
        res = closed_form_full(4)
        dims = (1, 3, 2, 3, 1)
        assert res.perron == tuple(x / 10 for x in dims)

    def test_full_n1(self):
        assert closed_form_full(1).radius == 1.0

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
        m = teleportation_matrix(n, 2)
        w = np.linalg.eigvalsh(m.to_float())
        assert np.allclose(sorted(w, reverse=True), closed_form_d2(n), atol=1e-10)

    def test_d2_count(self):
        for n in range(1, 20):
            assert len(closed_form_d2(n)) == len(enumerate_diagrams(n, 2))


class TestAgreementAcrossRoutes:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_matches_closed_full(self, n):
        res = power_iteration(n)
        closed = closed_form_full(n)
        assert abs(res.radius - closed.radius) < 1e-9
        for a, b in zip(res.perron, closed.perron):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("n", range(2, 21))
    def test_power_matches_closed_d2(self, n):
        res = power_iteration(n, 2)
        assert abs(res.radius - closed_form_d2(n)[0]) < 1e-9

    def test_radius_nondecreasing_in_d(self):
        for n in range(2, 9):
            radii = []
            for d in range(2, n + 1):
                radii.append(power_iteration(n, d).radius)
            for lo, hi in zip(radii, radii[1:]):
                assert hi >= lo - 1e-10

    @pytest.mark.parametrize("n,d", [(30, 3), (20, 4), (12, 5)])
    def test_power_matches_eigvalsh(self, n, d):
        res = power_iteration(n, d)
        top = np.linalg.eigvalsh(teleportation_matrix(n, d).to_float())[-1]
        assert abs(res.radius - top) < 1e-9 * top


class TestDominantEigenpair:
    def test_dispatch(self):
        assert dominant_eigenpair(4, 4).method == "closed_dgeN"
        assert dominant_eigenpair(4, 7).method == "closed_dgeN"
        assert dominant_eigenpair(5, 2).method == "closed_d2"
        res = dominant_eigenpair(6, 3)
        assert res.method == "power" and res.iterations > 0

    @pytest.mark.parametrize("n", range(2, 41))
    def test_d2_perron_matches_eigh(self, n):
        res = dominant_eigenpair(n, 2)
        w, v = np.linalg.eigh(teleportation_matrix(n, 2).to_float())
        top = np.abs(v[:, -1])  # the Perron vector is positive up to sign
        assert abs(res.radius - w[-1]) < 1e-12 * w[-1]
        assert np.max(np.abs(np.array(res.perron) - top / top.sum())) < 1e-12


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
            assert sum(closed_form_spectrum(n).values()) == len(enumerate_diagrams(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_characters(self, n):
        assert closed_form_spectrum(n) == character_spectrum(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_eigvalsh(self, n):
        w = np.linalg.eigvalsh(teleportation_matrix(n).to_float())
        k = np.rint(w).astype(int)
        assert np.max(np.abs(w - k)) < 1e-9
        values, counts = np.unique(k, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == closed_form_spectrum(n)
