"""Protocol-layer fidelities, coefficients, identities, and sweeps."""

import math
from fractions import Fraction

import pytest

from dpbt.diagrams import (
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
from dpbt.protocol import (
    _sqrt_ratio,
    general_povm_fidelity,
    lower_bound_fidelity,
    optimal_fidelity,
    optimal_solution,
    protocol_eigenvalues,
    sqrt_measurement_fidelity,
    sweep,
)
from dpbt.telemat import incidence_edges

GOLDEN = math.cos(math.pi / 5) ** 2  # optimal qubit fidelity at three ports


@pytest.mark.parametrize(
    "evaluate",
    [
        protocol_eigenvalues,
        optimal_fidelity,
        optimal_solution,
        sqrt_measurement_fidelity,
        lambda e: general_povm_fidelity(e, 1, 2),
    ],
    ids=[
        "protocol_eigenvalues",
        "optimal_fidelity",
        "optimal_solution",
        "sqrt_measurement_fidelity",
        "general_povm_fidelity",
    ],
)
def test_rejects_uncapped_edge_list(evaluate):
    # every per-cell function reads d from the edge list, and the fidelities,
    # multiplicities and d^N need an integer d
    with pytest.raises(ValueError):
        evaluate(incidence_edges(4))


class TestProtocolEigenvalues:
    def test_two_ports_qubits(self):
        eigs = protocol_eigenvalues(incidence_edges(2, 2))
        table = {(e.alpha.rows, e.mu.rows): e.gamma for e in eigs}
        assert table == {
            ((1,), (2,)): Fraction(3),
            ((1,), (1, 1)): Fraction(1),
        }
        lams = {e.mu.rows: e.gamma / 2**2 for e in eigs}
        assert lams[(2,)] == 0.75 and lams[(1, 1)] == 0.25

    def test_three_ports_qubits(self):
        # the height-3 child of [1,1] has zero multiplicity and is excluded
        eigs = protocol_eigenvalues(incidence_edges(3, 2))
        table = {(e.alpha.rows, e.mu.rows): e.gamma for e in eigs}
        assert table == {
            ((2,), (3,)): Fraction(4),
            ((2,), (2, 1)): Fraction(1),
            ((1, 1), (2, 1)): Fraction(3),
        }

    def test_single_row_chain(self):
        for n in range(1, 8):
            for d in (2, 3):
                eigs = protocol_eigenvalues(incidence_edges(n, d))
                top = next(
                    e for e in eigs if e.alpha.rows in ((n - 1,), ()) and e.mu.rows == (n,)
                )
                expected = Fraction(
                    n * multiplicity(YoungDiagram((n,)), d),
                    multiplicity(YoungDiagram((n - 1,)) if n > 1 else YoungDiagram(()), d),
                )
                assert top.gamma == expected

    def test_gamma_positive(self):
        for n in range(1, 7):
            for d in (2, 3, 4):
                assert all(e.gamma > 0 for e in protocol_eigenvalues(incidence_edges(n, d)))


class TestOptimalFidelity:
    def test_examples(self):
        assert optimal_fidelity(incidence_edges(2, 2)).fidelity == 0.5
        assert abs(optimal_fidelity(incidence_edges(3, 4)).fidelity - 3 / 16) < 1e-15
        assert abs(optimal_fidelity(incidence_edges(3, 3)).fidelity - 1 / 3) < 1e-15
        assert abs(optimal_fidelity(incidence_edges(3, 2)).fidelity - GOLDEN) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_qubit_closed_form(self, n):
        rep = optimal_fidelity(incidence_edges(n, 2))
        assert abs(rep.fidelity - math.cos(math.pi / (n + 2)) ** 2) < 1e-12

    def test_method_dispatch(self):
        assert optimal_fidelity(incidence_edges(3, 4)).method == "closed_dgeN"
        assert optimal_fidelity(incidence_edges(5, 2)).method == "closed_d2"
        assert optimal_fidelity(incidence_edges(5, 3)).method == "lanczos"
        assert optimal_fidelity(incidence_edges(2, 2)).method == "closed_dgeN"

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_fidelity(incidence_edges(0, 2))
        with pytest.raises(ValueError):
            optimal_fidelity(incidence_edges(3, 1))

    def test_degenerate_single_port(self):
        for d in (2, 3, 4):
            assert abs(optimal_fidelity(incidence_edges(1, d)).fidelity - 1 / d**2) < 1e-15

    def test_radius_report(self):
        rep = optimal_fidelity(incidence_edges(6, 3))
        assert rep.radius is not None
        assert abs(rep.fidelity - rep.radius / 9) < 1e-15
        assert rep.iterations > 0


class TestOptimalSolution:
    def test_two_ports_qubits(self):
        sol = optimal_solution(incidence_edges(2, 2))
        sym, anti = YoungDiagram((2,)), YoungDiagram((1, 1))
        inv_sqrt2 = 1 / math.sqrt(2)
        assert abs(sol.v[sym] - inv_sqrt2) < 1e-12
        assert abs(sol.v[anti] - inv_sqrt2) < 1e-12
        assert abs(sol.o_coeffs[sym] - math.sqrt(2) / math.sqrt(3)) < 1e-12
        assert abs(sol.o_coeffs[anti] - math.sqrt(2)) < 1e-12

    def test_full_regime_vector_is_dims(self):
        for n in range(2, 7):
            sol = optimal_solution(incidence_edges(n, n + 1))
            norm = math.sqrt(math.factorial(n))
            for mu in sol.basis:
                assert abs(sol.v[mu] - irrep_dim(mu) / norm) < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 3), (4, 4), (6, 4)])
    def test_sdp_identities(self, n, d):
        sol = optimal_solution(incidence_edges(n, d))
        assert abs(sum(x * x for x in sol.v.values()) - 1.0) < 1e-10
        trace = sum(
            sol.c_coeffs[mu] * irrep_dim(mu) * multiplicity(mu, d) for mu in sol.basis
        )
        assert abs(trace - d**n) < 1e-10 * d**n
        lam = {(e.alpha, e.mu): e.gamma / d**n for e in protocol_eigenvalues(incidence_edges(n, d))}
        for (alpha, mu), p in sol.p_coeffs.items():
            c = sol.c_coeffs[mu]
            assert abs(p * p * lam[(alpha, mu)] - c) < 1e-10 * max(1.0, c)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (5, 2), (4, 3), (5, 3), (4, 4)])
    def test_quadratic_form_gives_fidelity(self, n, d):
        sol = optimal_solution(incidence_edges(n, d))
        total = math.fsum(
            math.fsum(sol.v[mu] for mu in add_box(alpha, d) if mu in sol.basis) ** 2
            for alpha in enumerate_diagrams(n - 1, d)
        )
        assert abs(total / d**2 - optimal_fidelity(incidence_edges(n, d)).fidelity) < 1e-10

    def test_positive_entries(self):
        for n, d in [(4, 2), (5, 3), (4, 4)]:
            sol = optimal_solution(incidence_edges(n, d))
            assert all(x > 0 for x in sol.v.values())
            assert all(x > 0 for x in sol.p_coeffs.values())


class TestSqrtRatio:
    def test_exact_cases(self):
        assert _sqrt_ratio(2, 1) == math.sqrt(2)
        assert _sqrt_ratio(1, 3) == math.sqrt(1 / 3)
        assert _sqrt_ratio(2**2001, 2) == 2.0**1000
        assert _sqrt_ratio(9 * 3**1400, 4 * 3**1400) == 1.5
        assert _sqrt_ratio(3, 3 * 2**2000) == 2.0**-1000

    def test_raises_only_when_the_result_overflows(self):
        assert _sqrt_ratio(2**2046, 1) == 2.0**1023
        with pytest.raises(OverflowError):
            _sqrt_ratio(2**2048, 1)


class TestSqrtMeasurementFidelity:
    def test_examples(self):
        assert abs(
            sqrt_measurement_fidelity(incidence_edges(2, 2)).fidelity
            - (math.sqrt(3) + 1) ** 2 / 16
        ) < 1e-14
        f32 = sqrt_measurement_fidelity(incidence_edges(3, 2)).fidelity
        assert f32 == pytest.approx(0.625, abs=1e-14)
        for d in (2, 3, 4):
            f1 = sqrt_measurement_fidelity(incidence_edges(1, d)).fidelity
            assert abs(f1 - 1 / d**2) < 1e-14

    def test_resource_tag(self):
        rep = sqrt_measurement_fidelity(incidence_edges(4, 3))
        assert rep.resource == "sqrt_entangled"
        assert 0 < rep.fidelity <= 1


class TestGeneralPovmFidelity:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_z1_y2_reproduces_sqrt_measurement(self, n, d):
        got = general_povm_fidelity(incidence_edges(n, d), 1, 2)
        want = sqrt_measurement_fidelity(incidence_edges(n, d)).fidelity
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", [1023, 1030, 2000])
    def test_finite_where_d_to_the_n_overflows(self, n):
        # d^(n+1) exceeds double range here, and so do the terms scaled by it
        got = general_povm_fidelity(incidence_edges(n, 2), 1, 2)
        want = sqrt_measurement_fidelity(incidence_edges(n, 2)).fidelity
        assert abs(got - want) <= 1e-12 * want

    def test_two_ports_value(self):
        assert abs(
            general_povm_fidelity(incidence_edges(2, 2), 1, 2) - (math.sqrt(3) + 1) ** 2 / 16
        ) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            general_povm_fidelity(incidence_edges(3, 2), 1, 0)
        with pytest.raises(ValueError):
            general_povm_fidelity(incidence_edges(3, 2), -1.0, 2)

    @pytest.mark.parametrize(
        "z_spec,y_spec",
        [
            (1.0, 2.0),
            (0.7, 3.0),
            (lambda a: 1.0 + 0.1 * a.height, 2.0),
            (lambda a: 0.5 + a.boxes / 10, lambda a: 2.0 + a.height),
        ],
    )
    def test_matches_quadratic_form_with_matched_coefficients(self, z_spec, y_spec):
        # the same POVM written in the projector expansion, p = sqrt(z) lam^(-1/y),
        # must give the same fidelity through the quadratic-form route
        n, d = 4, 3
        eigs = protocol_eigenvalues(incidence_edges(n, d))
        by_alpha = {}
        for e in eigs:
            by_alpha.setdefault(e.alpha, []).append(e)
        total = 0.0
        for alpha, group in by_alpha.items():
            za = z_spec(alpha) if callable(z_spec) else z_spec
            ya = y_spec(alpha) if callable(y_spec) else y_spec
            inner = math.fsum(
                math.sqrt(za) * (e.gamma / d**n) ** (-1.0 / ya) * multiplicity(e.mu, d)
                for e in group
            )
            total += irrep_dim(alpha) / multiplicity(alpha, d) * inner**2
        quad = n / d ** (2 * n + 2) * total
        assert abs(quad - general_povm_fidelity(incidence_edges(n, d), z_spec, y_spec)) < 1e-12

    def test_mapping_parameters(self):
        n, d = 3, 2
        alphas = list(enumerate_diagrams(n - 1, d))
        z = {a: 1.0 for a in alphas}
        y = {a: 2.0 for a in alphas}
        assert abs(
            general_povm_fidelity(incidence_edges(n, d), z, y)
            - sqrt_measurement_fidelity(incidence_edges(n, d)).fidelity
        ) < 1e-12


class TestLowerBound:
    def test_examples(self):
        assert lower_bound_fidelity(2, 2).fidelity == 0.4
        for d in (2, 3, 5):
            assert lower_bound_fidelity(1, d).fidelity == pytest.approx(1 / d**2)

    def test_monotone_to_one(self):
        values = [lower_bound_fidelity(n, 3).fidelity for n in range(1, 200, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert lower_bound_fidelity(10_000, 3).fidelity > 0.999


class TestOrderingAndConsistency:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fidelity_chain(self, d):
        for n in range(1, 13):
            low = lower_bound_fidelity(n, d).fidelity
            ent = sqrt_measurement_fidelity(incidence_edges(n, d)).fidelity
            opt = optimal_fidelity(incidence_edges(n, d)).fidelity
            assert low <= ent + 1e-10
            assert ent <= opt + 1e-10
            assert opt <= 1 + 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_monotone_in_ports(self, d):
        prev = 0.0
        for n in range(1, 13):
            cur = optimal_fidelity(incidence_edges(n, d), tol=1e-13).fidelity
            assert cur >= prev - 1e-10
            prev = cur

    def test_three_paths_agree_in_full_regime(self):
        from dpbt.spectral import lanczos_perron

        for n, d in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            closed = optimal_fidelity(incidence_edges(n, d)).fidelity
            assert closed == n / d**2
            iterated = lanczos_perron(incidence_edges(n, d)).radius / d**2
            assert abs(iterated - closed) < 1e-10


class TestSweep:
    def test_grid_shape_and_order(self):
        rows = sweep(range(2, 6), [2, 3])
        assert len(rows) == 8
        assert [(r["N"], r["d"]) for r in rows] == sorted(
            (n, d) for n in range(2, 6) for d in (2, 3)
        )
        for r in rows:
            assert r["f_lower"] <= r["f_sqrt_ent"] + 1e-10 <= r["f_opt"] + 2e-10

    def test_cell_failure_recorded(self):
        rows = sweep([2], [1, 2])
        by_d = {r["d"]: r for r in rows}
        assert "error" in by_d[1] and "f_opt" not in by_d[1]
        assert by_d[2]["f_opt"] == 0.5
