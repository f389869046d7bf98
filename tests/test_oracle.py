"""Dense-operator oracle: constructions and formula checks by direct algebra."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from dpbt import oracle, protocol
from dpbt.diagrams import (
    EMPTY_DIAGRAM,
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
from dpbt.oracle import (
    CapExceededError,
    character_spectrum,
    dense_cell,
    direct_fidelity,
    dual_witness_check,
    partial_transpose_last,
    permutation_operator,
    primal_constraint_check,
    run_checks,
    young_projector,
)
from dpbt.protocol import optimal_fidelity, sqrt_measurement_fidelity
from dpbt.telemat import incidence_edges

GOLDEN = math.cos(math.pi / 5) ** 2


def port_operator(n, d):
    """The port operator of the dense cell (N, d): d^N times the sum of its
    port states, as run_checks builds it."""
    return d**n * sum(dense_cell(n, d).sigmas)


def digit_permutation_matrix(perm, d):
    """V(perm) entry by entry: input digit string x goes to the row whose
    digit i is x[perm^-1(i)], most significant factor first."""
    k = len(perm)
    inv = [perm.index(i) for i in range(k)]
    mat = np.zeros((d**k, d**k))
    for col, digits in enumerate(itertools.product(range(d), repeat=k)):
        row = sum(digits[inv[i]] * d ** (k - 1 - i) for i in range(k))
        mat[row, col] = 1.0
    return mat


class TestPermutationOperator:
    @pytest.mark.parametrize("k,d", [(4, 3), (5, 2)])
    def test_matches_digit_reference(self, k, d):
        for perm in itertools.permutations(range(k)):
            want = digit_permutation_matrix(perm, d)
            assert np.array_equal(permutation_operator(perm, d), want), perm

    def test_identity(self):
        v = permutation_operator((0, 1, 2), 2)
        assert np.array_equal(v, np.eye(8))

    def test_swap(self):
        v = permutation_operator((1, 0), 2)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
        assert np.array_equal(v.real, swap)

    def test_composition_three_cycle(self):
        # applying (2 3) then (1 2) equals the 3-cycle 1->2->3->1
        s = (1, 0, 2)
        t = (0, 2, 1)
        st = tuple(s[t[i]] for i in range(3))
        assert st == (1, 2, 0)
        lhs = permutation_operator(s, 2) @ permutation_operator(t, 2)
        assert np.array_equal(lhs, permutation_operator(st, 2))

    def test_unitary_and_inverse(self):
        perm = (2, 0, 1)
        v = permutation_operator(perm, 3)
        assert np.allclose(v @ v.conj().T, np.eye(27))

    def test_float64(self):
        assert permutation_operator((1, 2, 0), 3).dtype == np.float64

    @pytest.mark.parametrize("n,d", oracle.DEFAULT_CHECK_CELLS)
    def test_composition_residual_is_exact(self, n, d):
        assert oracle._composition_residual(n, d) == 0.0

    def test_composition_residual_sees_a_wrong_operator(self, monkeypatch):
        # V(s^-1) in place of V(s) composes in the opposite order
        real = oracle.permutation_operator
        monkeypatch.setattr(oracle, "permutation_operator", lambda perm, d: real(perm, d).T)
        assert oracle._composition_residual(3, 2) >= 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            permutation_operator((0, 0, 1), 2)
        with pytest.raises(CapExceededError):
            permutation_operator(tuple(range(11)), 2)


class TestYoungProjector:
    def test_symmetric_and_antisymmetric_qubits(self):
        sym = young_projector(YoungDiagram((2,)), 2)
        anti = young_projector(YoungDiagram((1, 1)), 2)
        assert abs(np.trace(sym).real - 3) < 1e-12
        assert abs(np.trace(anti).real - 1) < 1e-12
        assert np.allclose(sym + anti, np.eye(4), atol=1e-12)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(anti.real, np.outer(singlet, singlet), atol=1e-12)

    def test_resolution_with_vanishing_projector(self):
        # the height-3 diagram contributes the zero operator at d=2
        total = sum(
            young_projector(mu, 2) for mu in enumerate_diagrams(3)
        )
        assert np.allclose(total, np.eye(8), atol=1e-12)
        tall = young_projector(YoungDiagram((1, 1, 1)), 2)
        assert np.allclose(tall, 0, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_idempotent_hermitian_trace(self, n, d):
        for mu in enumerate_diagrams(n):
            p = young_projector(mu, d)
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert abs(np.trace(p).real - irrep_dim(mu) * multiplicity(mu, d)) < 1e-10

    def test_empty_diagram(self):
        p = young_projector(EMPTY_DIAGRAM, 3)
        assert p.shape == (1, 1) and p[0, 0] == 1


class TestPartialTranspose:
    def test_involution_and_trace(self):
        eta = port_operator(3, 2)
        pt = partial_transpose_last(eta, 2)
        back = partial_transpose_last(pt, 2)
        assert np.allclose(back, eta, atol=1e-15)
        assert abs(np.trace(pt) - np.trace(eta)) < 1e-12

    def test_known_swap_transpose(self):
        swap = permutation_operator((1, 0), 2)
        pt = partial_transpose_last(swap, 2)
        # the partially transposed swap is the unnormalised entangled projector
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = expect[0, 3] = expect[3, 0] = 1
        assert np.allclose(pt.real, expect, atol=1e-15)


class TestEtaOperator:
    def test_two_ports_qubits(self):
        eta = port_operator(2, 2)
        assert eta.shape == (8, 8)
        assert abs(np.trace(eta).real - 8) < 1e-12
        eigs = np.linalg.eigvalsh(eta.real)
        top = sorted(eigs, reverse=True)
        assert np.allclose(top[:4], [3, 3, 1, 1], atol=1e-10)
        assert np.allclose(top[4:], 0, atol=1e-10)

    def test_single_port(self):
        eta = port_operator(1, 2)
        eigs = sorted(np.linalg.eigvalsh(eta.real), reverse=True)
        assert np.allclose(eigs, [2, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_psd_and_hermitian(self, n, d):
        eta = port_operator(n, d)
        assert np.allclose(eta, eta.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(eta.real).min() > -1e-10

    def test_eigenvalues_match_gamma_with_multiplicity(self, gamma_table):
        n, d = 3, 2
        eta = port_operator(n, d)
        expected = []
        for (alpha, mu), gamma in gamma_table(n, d).items():
            expected += [float(gamma)] * (irrep_dim(mu) * multiplicity(alpha, d))
        expected += [0.0] * (2**4 - len(expected))
        actual = sorted(np.linalg.eigvalsh(eta.real), reverse=True)
        assert np.allclose(actual, sorted(expected, reverse=True), atol=1e-8)


class TestFProjector:
    """The eigenprojector family F_mu(alpha) of a dense cell."""

    def test_two_ports_symmetric(self):
        alpha, mu = YoungDiagram((1,)), YoungDiagram((2,))
        f = dense_cell(2, 2).family[(alpha, mu)]
        assert abs(np.trace(f).real - 2) < 1e-10  # d_mu * m_alpha = 1 * 2
        eta = port_operator(2, 2)
        assert np.allclose(eta @ f, 3 * f, atol=1e-10)

    def test_family_orthogonal_projectors(self, gamma_table):
        n, d = 3, 2
        fams = dense_cell(n, d).family
        assert fams.keys() == gamma_table(n, d).keys()
        keys = list(fams)
        for i, k1 in enumerate(keys):
            f1 = fams[k1]
            assert np.allclose(f1 @ f1, f1, atol=1e-10)
            for k2 in keys[i + 1 :]:
                assert np.allclose(f1 @ fams[k2], 0, atol=1e-10)

    def test_reconstruction(self, gamma_table):
        for n, d in [(2, 2), (3, 2), (2, 3)]:
            cell = dense_cell(n, d)
            eta = d**n * sum(cell.sigmas)
            recon = np.zeros_like(eta)
            for key, gamma in gamma_table(n, d).items():
                recon += float(gamma) * cell.family[key]
            assert np.abs(recon - eta).max() < 1e-9

    def test_inner_product_identity(self):
        # sandwiching by P_alpha (x) P+ rescales the projector by m_mu/(d m_alpha)
        n, d = 2, 2
        for (alpha, mu), f in dense_cell(n, d).family.items():
            p_alpha = young_projector(alpha, d)
            p_plus = np.zeros((4, 4))
            for i in range(2):
                for j in range(2):
                    p_plus[i * 2 + i, j * 2 + j] = 0.5
            wall = np.kron(p_alpha, p_plus)
            lhs = wall @ f @ wall
            ratio = multiplicity(mu, d) / (d * multiplicity(alpha, d))
            assert np.abs(lhs - ratio * wall).max() < 1e-10


class TestDenseCell:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3), (3, 3)])
    def test_operators_are_float64_and_symmetric(self, n, d):
        cell = dense_cell(n, d)
        ops = [*cell.projectors.values(), *cell.family.values(), *cell.sigmas, cell.povm]
        for op in ops:
            assert op.dtype == np.float64
            assert np.abs(op - op.T).max() <= 1e-12


class TestDirectFidelity:
    def test_sqrt_measurement_values(self):
        got = direct_fidelity(dense_cell(2, 2), "sqrt_measurement")
        assert abs(got - (math.sqrt(3) + 1) ** 2 / 16) < 1e-8
        got32 = direct_fidelity(dense_cell(3, 2), "sqrt_measurement")
        assert abs(got32 - sqrt_measurement_fidelity(incidence_edges(3, 2))) < 1e-8

    def test_optimal_values(self):
        assert abs(direct_fidelity(dense_cell(2, 2), "optimal") - 0.5) < 1e-8
        assert abs(direct_fidelity(dense_cell(3, 2), "optimal") - GOLDEN) < 1e-8

    def test_single_port_degenerate(self):
        for d in (2, 3):
            assert abs(direct_fidelity(dense_cell(1, d), "sqrt_measurement") - 1 / d**2) < 1e-8

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            direct_fidelity(dense_cell(2, 2), "bogus")


class TestSdpChecks:
    def test_primal_2_2(self):
        res = primal_constraint_check(dense_cell(2, 2))
        assert res["min_eig"] >= -1e-8
        assert abs(res["trace_XA"] - 4) < 1e-8

    def test_primal_3_2_and_3_3(self):
        res = primal_constraint_check(dense_cell(3, 2))
        assert res["min_eig"] >= -1e-8
        assert abs(res["trace_XA"] - 8) < 1e-8
        res33 = primal_constraint_check(dense_cell(3, 3))
        assert abs(res33["trace_XA"] - 27) < 1e-8

    def test_dual_values(self):
        res = dual_witness_check(dense_cell(2, 2))
        assert res["min_slack"] >= -1e-8
        assert abs(res["objective"] - 0.5) < 1e-8
        res32 = dual_witness_check(dense_cell(3, 2))
        assert abs(res32["objective"] - GOLDEN) < 1e-8
        res33 = dual_witness_check(dense_cell(3, 3))
        assert abs(res33["objective"] - 1 / 3) < 1e-8

    def test_strong_duality_triangle_small(self):
        for n, d in [(2, 2), (2, 3)]:
            cell = dense_cell(n, d)
            primal = direct_fidelity(cell, "optimal")
            dual = dual_witness_check(cell)["objective"]
            radius = optimal_fidelity(incidence_edges(n, d))
            assert abs(primal - radius) < 1e-8
            assert abs(dual - radius) < 1e-8


class TestRunChecks:
    def test_all_pass_at_2_2(self):
        results = run_checks(2, 2)
        assert results, "battery must not be empty"
        failures = [r for r in results if not r.passed]
        assert not failures, failures

    def test_cap_respected(self):
        with pytest.raises(CapExceededError):
            run_checks(10, 2)

    @pytest.mark.parametrize("n,d", [(3, 3), (4, 2)])
    def test_each_operator_built_once(self, monkeypatch, n, d):
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("_perm_table", "_young_projector", "_f_operator", "optimal_solution"):
            count(oracle, name)
        # the fast path's edge builds and Perron solves, at every binding the
        # oracle can reach them through
        for module in (oracle, protocol):
            for name in ("incidence_edges", "dominant_eigenpair"):
                if hasattr(module, name):
                    count(module, name)
        run_checks(n, d)
        parents = enumerate_diagrams(n - 1, d)
        assert calls == {
            "_perm_table": 2,
            "_young_projector": len(enumerate_diagrams(n)) + len(parents),
            "_f_operator": sum(len(add_box(alpha, d)) for alpha in parents),
            "optimal_solution": 1,
            "incidence_edges": 1,
            # one solve per cell: optimal_solution's, which the optimality
            # checks read too
            "dominant_eigenpair": 1,
        }

    def test_edge_list_disagreement_is_a_failed_check(self, monkeypatch):
        # the fast edge list loses its first edge, and the cell's pairs with it,
        # so pairs and gammas stay aligned and the walk has one pair more
        real = oracle.dense_cell

        def short(n, d):
            cell = real(n, d)
            e = cell.edges
            edges = dataclasses.replace(e, parent=e.parent[1:], child=e.child[1:])
            return dataclasses.replace(cell, edges=edges, pairs=cell.pairs[1:])

        monkeypatch.setattr(oracle, "dense_cell", short)
        results = {r.name: r for r in run_checks(3, 2)}
        assert len(results) == 29
        assert results["edge_pairs"].residual == 1 and not results["edge_pairs"].passed
        assert results["f_idempotent"].passed and results["dual_objective"].passed


    def test_overlapping_family_fails_f_orthogonal(self, monkeypatch):
        # adding one member into another keeps every member a symmetric
        # projector, so only the check on the sum can see the overlap
        real = oracle.dense_cell

        def overlapping(n, d):
            cell = real(n, d)
            (_, f1), (k2, f2), *_ = cell.family.items()
            return dataclasses.replace(cell, family={**cell.family, k2: f1 + f2})

        monkeypatch.setattr(oracle, "dense_cell", overlapping)
        results = {r.name: r for r in run_checks(3, 2)}
        assert len(results) == 29
        assert not results["f_orthogonal"].passed
        assert results["f_idempotent"].passed and results["f_hermitian"].passed


class TestCharacterSpectrum:
    def test_broken_walk_is_a_hard_error(self, monkeypatch):
        # a walk that never lengthens the first row gives a wrong M_F
        def walk(alpha, d=None):
            return frozenset(mu for mu in add_box(alpha, d) if mu.rows[0] == alpha.rows[0])

        monkeypatch.setattr(oracle, "add_box", walk)
        with pytest.raises(ArithmeticError, match="not eigenvectors at N=3"):
            character_spectrum(3)
