"""Protocol-layer fidelities, coefficients, identities, and sweeps."""

import math
import warnings
from fractions import Fraction

import numpy as np
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
    fidelity_row,
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

SMALL_GRID = [(n, d) for n in range(2, 9) for d in range(2, n + 1)]


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


def rows_table(gammas):
    """A gamma_table keyed by (alpha rows, mu rows)."""
    return {(alpha.rows, mu.rows): g for (alpha, mu), g in gammas.items()}


class TestProtocolEigenvalues:
    def test_two_ports_qubits(self, gamma_table):
        table = rows_table(gamma_table(2, 2))
        assert table == {
            ((1,), (2,)): Fraction(3),
            ((1,), (1, 1)): Fraction(1),
        }
        lams = {mu: gamma / 2**2 for (_, mu), gamma in table.items()}
        assert lams[(2,)] == 0.75 and lams[(1, 1)] == 0.25

    def test_three_ports_qubits(self, gamma_table):
        # the height-3 child of [1,1] has zero multiplicity and is excluded
        table = rows_table(gamma_table(3, 2))
        assert table == {
            ((2,), (3,)): Fraction(4),
            ((2,), (2, 1)): Fraction(1),
            ((1, 1), (2, 1)): Fraction(3),
        }

    def test_single_row_chain(self, gamma_table):
        for n in range(1, 8):
            for d in (2, 3):
                table = rows_table(gamma_table(n, d))
                top = table[((n - 1,) if n > 1 else (), (n,))]
                expected = Fraction(
                    n * multiplicity(YoungDiagram((n,)), d),
                    multiplicity(YoungDiagram((n - 1,)) if n > 1 else YoungDiagram(()), d),
                )
                assert top == expected

    def test_gamma_positive(self):
        for n in range(1, 7):
            for d in (2, 3, 4):
                num, den = protocol_eigenvalues(incidence_edges(n, d))
                assert all(p > 0 for p in num.tolist()) and all(q > 0 for q in den.tolist())

    @pytest.mark.parametrize("n,d", SMALL_GRID)
    def test_exact_arrays_in_edge_order(self, n, d):
        # edge by edge, the reduced fraction of (num, den) is
        # N m_mu d_alpha / (m_alpha d_mu) from the single-diagram kernels
        e = incidence_edges(n, d)
        num, den = protocol_eigenvalues(e)
        assert num.dtype == den.dtype == object and len(num) == len(den) == len(e.parent)
        for i, j, p, q in zip(e.parent.tolist(), e.child.tolist(), num.tolist(), den.tolist()):
            alpha, mu = e.row_basis[i], e.col_basis[j]
            want = Fraction(
                n * multiplicity(mu, d) * irrep_dim(alpha), multiplicity(alpha, d) * irrep_dim(mu)
            )
            assert type(p) is int and type(q) is int
            assert Fraction(p, q) == want
            # the float every caller reads has the bits of the exact fraction
            assert p / q == float(want)


class TestOptimalFidelity:
    def test_examples(self):
        assert optimal_fidelity(incidence_edges(2, 2)) == 0.5
        assert abs(optimal_fidelity(incidence_edges(3, 4)) - 3 / 16) < 1e-15
        assert abs(optimal_fidelity(incidence_edges(3, 3)) - 1 / 3) < 1e-15
        assert abs(optimal_fidelity(incidence_edges(3, 2)) - GOLDEN) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_qubit_closed_form(self, n):
        f = optimal_fidelity(incidence_edges(n, 2))
        assert abs(f - math.cos(math.pi / (n + 2)) ** 2) < 1e-12

    def test_method_dispatch(self):
        assert fidelity_row(3, 4)["method"] == "closed_dgeN"
        assert fidelity_row(5, 2)["method"] == "closed_d2"
        assert fidelity_row(5, 3)["method"] == "lanczos"
        assert fidelity_row(2, 2)["method"] == "closed_dgeN"

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_fidelity(incidence_edges(0, 2))
        with pytest.raises(ValueError):
            optimal_fidelity(incidence_edges(3, 1))

    def test_degenerate_single_port(self):
        for d in (2, 3, 4):
            assert abs(optimal_fidelity(incidence_edges(1, d)) - 1 / d**2) < 1e-15

    def test_radius_report(self):
        row = fidelity_row(6, 3)
        assert row["f_opt"] == optimal_fidelity(incidence_edges(6, 3))
        assert abs(row["f_opt"] - row["radius"] / 9) < 1e-15
        assert row["iterations"] > 0



ASYMPTOTIC_PORTS = [60, 80, 100, 120, 150]


def limit_at_zero(xs, ys):
    """Value at x = 0 of the polynomial through the points (x, y) (Lagrange)."""
    return math.fsum(
        y * math.prod(xj / (xj - xi) for xj in xs if xj != xi) for xi, y in zip(xs, ys)
    )


def asymptotic_constant(d):
    """(N+d)^2 (1 - F_opt) at ASYMPTOTIC_PORTS, extrapolated to N -> oo by a
    degree-4 polynomial in 1/(N+d)."""
    xs = [1 / (n + d) for n in ASYMPTOTIC_PORTS]
    ys = [
        (n + d) ** 2 * (1 - optimal_fidelity(incidence_edges(n, d)))
        for n in ASYMPTOTIC_PORTS
    ]
    return limit_at_zero(xs, ys)


class TestAsymptoticConstant:
    """1 - F_opt = c_d / (N+d)^2 + O(1/N^3), checked without a dense reference.

    At d = 2 the closed form is (N+2)^2 sin^2(pi/(N+2)), whose limit is pi^2;
    this fit lands 4.3e-10 from it.  At d = 3 the limit 56 pi^2 / 9 is a
    conjecture fitted to certified radii up to N = 1200 (c_d = lambda_1(S_d)/d
    for the Dirichlet Laplacian on the simplex of sorted frequency vectors),
    not a theorem.  Here the fit gives 61.4108768, 5.0e-6 above it: the
    truncation of the fit at these N.  The radius brackets are at most
    9.7e-13 relative wide, and the Lagrange weights (absolute sum 404) carry
    them to at most 5.2e-6 in the limit.  The tolerance 5e-5 covers both
    with a margin, and still flags an error of about 2e-11 in F_opt at
    N = 120, where the weight is largest.
    """

    def test_qubit_limit_is_pi_squared(self):
        assert abs(asymptotic_constant(2) - math.pi**2) < 1e-8

    def test_qutrit_limit_matches_the_conjectured_closed_form(self):
        assert abs(asymptotic_constant(3) - 56 * math.pi**2 / 9) < 5e-5


class TestOptimalSolution:
    def test_two_ports_qubits(self):
        sol = optimal_solution(incidence_edges(2, 2))
        sym, anti = (sol.basis.index(YoungDiagram(rows)) for rows in [(2,), (1, 1)])
        inv_sqrt2 = 1 / math.sqrt(2)
        assert abs(sol.v[sym] - inv_sqrt2) < 1e-12
        assert abs(sol.v[anti] - inv_sqrt2) < 1e-12
        assert abs(sol.o_coeffs[sym] - math.sqrt(2) / math.sqrt(3)) < 1e-12
        assert abs(sol.o_coeffs[anti] - math.sqrt(2)) < 1e-12

    def test_full_regime_vector_is_dims(self):
        for n in range(2, 7):
            sol = optimal_solution(incidence_edges(n, n + 1))
            norm = math.sqrt(math.factorial(n))
            for mu, v_mu in zip(sol.basis, sol.v.tolist()):
                assert abs(v_mu - irrep_dim(mu) / norm) < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (5, 3), (4, 4), (6, 4)])
    def test_sdp_identities(self, n, d, gamma_table):
        sol = optimal_solution(incidence_edges(n, d))
        assert abs(sum(x * x for x in sol.v.tolist()) - 1.0) < 1e-10
        c_coeffs = sol.c_coeffs.tolist()
        trace = sum(
            c * irrep_dim(mu) * multiplicity(mu, d) for mu, c in zip(sol.basis, c_coeffs)
        )
        assert abs(trace - d**n) < 1e-10 * d**n
        lam = {key: gamma / d**n for key, gamma in gamma_table(n, d).items()}
        edges = zip(sol.edges.parent.tolist(), sol.edges.child.tolist(), sol.p_coeffs.tolist())
        for i, j, p in edges:
            alpha, mu, c = sol.edges.row_basis[i], sol.basis[j], c_coeffs[j]
            assert abs(p * p * lam[(alpha, mu)] - c) < 1e-10 * max(1.0, c)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (5, 2), (4, 3), (5, 3), (4, 4)])
    def test_quadratic_form_gives_fidelity(self, n, d):
        sol = optimal_solution(incidence_edges(n, d))
        v = dict(zip(sol.basis, sol.v.tolist()))
        total = math.fsum(
            math.fsum(v[mu] for mu in add_box(alpha, d) if mu in sol.basis) ** 2
            for alpha in enumerate_diagrams(n - 1, d)
        )
        assert abs(total / d**2 - optimal_fidelity(incidence_edges(n, d))) < 1e-10

    def test_positive_entries(self):
        for n, d in [(4, 2), (5, 3), (4, 4)]:
            sol = optimal_solution(incidence_edges(n, d))
            assert all(x > 0 for x in sol.v.tolist())
            assert all(x > 0 for x in sol.p_coeffs.tolist())


def sqrt_ratio(num, den):
    """_sqrt_ratio of one ratio, raising any warning as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _sqrt_ratio(np.array([num], dtype=object), np.array([den], dtype=object))[0]


class TestSqrtRatio:
    def test_exact_cases(self):
        assert sqrt_ratio(2, 1) == math.sqrt(2)
        assert sqrt_ratio(1, 3) == math.sqrt(1 / 3)
        assert sqrt_ratio(2**2001, 2) == 2.0**1000
        assert sqrt_ratio(9 * 3**1400, 4 * 3**1400) == 1.5
        assert sqrt_ratio(3, 3 * 2**2000) == 2.0**-1000

    def test_inf_only_when_the_result_overflows(self):
        assert sqrt_ratio(2**2046, 1) == 2.0**1023
        assert sqrt_ratio(2**2048, 1) == math.inf


class TestSqrtMeasurementFidelity:
    def test_examples(self):
        assert abs(
            sqrt_measurement_fidelity(incidence_edges(2, 2))
            - (math.sqrt(3) + 1) ** 2 / 16
        ) < 1e-14
        f32 = sqrt_measurement_fidelity(incidence_edges(3, 2))
        assert f32 == pytest.approx(0.625, abs=1e-14)
        for d in (2, 3, 4):
            f1 = sqrt_measurement_fidelity(incidence_edges(1, d))
            assert abs(f1 - 1 / d**2) < 1e-14

    def test_resource_tag(self):
        # a fidelity row tags this value as the square-root-measurement one
        f = sqrt_measurement_fidelity(incidence_edges(4, 3))
        assert fidelity_row(4, 3)["f_sqrt_ent"] == f
        assert 0 < f <= 1


class TestGeneralPovmFidelity:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_z1_y2_reproduces_sqrt_measurement(self, n, d):
        got = general_povm_fidelity(incidence_edges(n, d), 1, 2)
        want = sqrt_measurement_fidelity(incidence_edges(n, d))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", [1023, 1030, 2000])
    def test_finite_where_d_to_the_n_overflows(self, n):
        # d^(n+1) exceeds double range here, and so do the terms scaled by it
        got = general_povm_fidelity(incidence_edges(n, 2), 1, 2)
        want = sqrt_measurement_fidelity(incidence_edges(n, 2))
        assert abs(got - want) <= 1e-12 * want

    def test_two_ports_value(self):
        assert abs(
            general_povm_fidelity(incidence_edges(2, 2), 1, 2) - (math.sqrt(3) + 1) ** 2 / 16
        ) < 1e-12

    def test_validation(self):
        # the message names the first parent at fault, in basis order
        e = incidence_edges(3, 2)
        with pytest.raises(ValueError, match=r"^exponent y\(\[2\]\) must be nonzero$"):
            general_povm_fidelity(e, 1, 0)
        with pytest.raises(ValueError, match=r"^weight z\(\[2\]\) must be nonnegative, got -1.0$"):
            general_povm_fidelity(e, -1.0, 2)
        with pytest.raises(ValueError, match=r"^weight z\(\[1,1\]\) must be nonnegative, got -0.5$"):
            general_povm_fidelity(e, np.array([1.0, -0.5]), np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match=r"^exponent y\(\[2\]\) must be nonzero$"):
            general_povm_fidelity(e, np.array([1.0, -0.5]), np.array([0.0, 2.0]))

    @pytest.mark.parametrize(
        "z_spec,y_spec",
        [
            (1.0, 2.0),
            (0.7, 3.0),
            (lambda a: 1.0 + 0.1 * a.height, 2.0),
            (lambda a: 0.5 + a.boxes / 10, lambda a: 2.0 + a.height),
        ],
    )
    def test_matches_quadratic_form_with_matched_coefficients(self, z_spec, y_spec, gamma_table):
        # the same POVM written in the projector expansion, p = sqrt(z) lam^(-1/y),
        # must give the same fidelity through the quadratic-form route
        n, d = 4, 3
        by_alpha = {}
        for (alpha, mu), gamma in gamma_table(n, d).items():
            by_alpha.setdefault(alpha, []).append((mu, gamma))
        total = 0.0
        for alpha, group in by_alpha.items():
            za = z_spec(alpha) if callable(z_spec) else z_spec
            ya = y_spec(alpha) if callable(y_spec) else y_spec
            inner = math.fsum(
                math.sqrt(za) * (gamma / d**n) ** (-1.0 / ya) * multiplicity(mu, d)
                for mu, gamma in group
            )
            total += irrep_dim(alpha) / multiplicity(alpha, d) * inner**2
        quad = n / d ** (2 * n + 2) * total
        # per-parent parameters go in as arrays over the row basis
        e = incidence_edges(n, d)
        z = np.array([z_spec(a) for a in e.row_basis]) if callable(z_spec) else z_spec
        y = np.array([y_spec(a) for a in e.row_basis]) if callable(y_spec) else y_spec
        assert abs(quad - general_povm_fidelity(e, z, y)) < 1e-12

    def test_mapping_parameters(self):
        # a table of per-parent values goes in as an array over the row basis
        n, d = 3, 2
        e = incidence_edges(n, d)
        z = np.ones(len(e.row_basis))
        y = np.full(len(e.row_basis), 2.0)
        assert abs(
            general_povm_fidelity(e, z, y) - sqrt_measurement_fidelity(incidence_edges(n, d))
        ) < 1e-12

    @pytest.mark.parametrize("n,d", SMALL_GRID + [(60, 4), (100, 3)])
    @pytest.mark.parametrize("params", ["1-2", "0.7-3.0", "per-parent"])
    def test_bits_match_the_grouped_loop(self, n, d, params):
        # the array form sums the same terms in the same order as the
        # dict-of-lists loop it replaced, so the result has the same bits
        e = incidence_edges(n, d)
        rng = np.random.default_rng([n, d])
        rows = len(e.row_basis)
        z, y = {
            "1-2": (1, 2),
            "0.7-3.0": (0.7, 3.0),
            "per-parent": (rng.uniform(0.1, 2.0, rows), rng.uniform(0.5, 4.0, rows)),
        }[params]
        assert general_povm_fidelity(e, z, y) == grouped_povm_fidelity(e, z, y)

    def test_power_beyond_double_range_raises(self):
        # d^(n (2/y - 1)) = 3^700 at y = 0.25 overflows a double
        e = incidence_edges(100, 3)
        with pytest.raises(ArithmeticError):
            grouped_povm_fidelity(e, 1, 0.25)
        with pytest.raises(ArithmeticError):
            general_povm_fidelity(e, 1, 0.25)


def grouped_povm_fidelity(e, z, y):
    """The reference for general_povm_fidelity: the edges grouped by parent in
    a dict of lists, then one loop per parent with Python float arithmetic.
    z and y are numbers or float arrays over e.row_basis."""

    def param(value, i):
        return float(value[i] if isinstance(value, np.ndarray) else value)

    n, d = e.col_basis.n, e.col_basis.d
    (_, mult_a), (dim_m, mult_m) = e.row_basis.numbers, e.col_basis.numbers
    num, den = protocol_eigenvalues(e)
    by_alpha = {}
    # each gamma is the correctly rounded quotient of its exact integers
    for i, j, gamma in zip(e.parent.tolist(), e.child.tolist(), (num / den).tolist()):
        by_alpha.setdefault(i, []).append((gamma, j))
    dn = d**n
    terms = []
    for i, group in by_alpha.items():
        alpha = e.row_basis[i]
        za = param(z, i)
        ya = param(y, i)
        if za < 0:
            raise ValueError(f"weight z({alpha}) must be nonnegative, got {za}")
        if ya == 0:
            raise ValueError(f"exponent y({alpha}) must be nonzero")
        m_a = mult_a[i]
        c_val = math.fsum(g ** (-1.0 / ya) * (mult_m[j] / m_a) for g, j in group) / d
        tr_val = math.fsum(g ** (1.0 - 1.0 / ya) * (dim_m[j] * m_a / dn) for g, j in group)
        terms.append(za * c_val * tr_val * float(d) ** (n * (2.0 / ya - 1.0)))
    return math.fsum(terms) / d


class TestLowerBound:
    def test_examples(self):
        assert lower_bound_fidelity(2, 2) == 0.4
        for d in (2, 3, 5):
            assert lower_bound_fidelity(1, d) == pytest.approx(1 / d**2)

    def test_monotone_to_one(self):
        values = [lower_bound_fidelity(n, 3) for n in range(1, 200, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert lower_bound_fidelity(10_000, 3) > 0.999


class TestOrderingAndConsistency:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fidelity_chain(self, d):
        for n in range(1, 13):
            low = lower_bound_fidelity(n, d)
            ent = sqrt_measurement_fidelity(incidence_edges(n, d))
            opt = optimal_fidelity(incidence_edges(n, d))
            assert low <= ent + 1e-10
            assert ent <= opt + 1e-10
            assert opt <= 1 + 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_monotone_in_ports(self, d):
        prev = 0.0
        for n in range(1, 13):
            cur = optimal_fidelity(incidence_edges(n, d), tol=1e-13)
            assert cur >= prev - 1e-10
            prev = cur

    def test_three_paths_agree_in_full_regime(self):
        from dpbt.spectral import lanczos_perron

        for n, d in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            closed = optimal_fidelity(incidence_edges(n, d))
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
