"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here.
"""

import io
import math
import time

import numpy as np
import pytest

from dpbt.characters import cycle_types
from dpbt.cli import run
from dpbt.oracle import (
    character_spectrum,
    dense_cell,
    direct_fidelity,
    dual_witness_check,
    primal_constraint_check,
)
from dpbt.protocol import (
    general_povm_fidelity,
    lower_bound_fidelity,
    optimal_fidelity,
    sqrt_measurement_fidelity,
)
from dpbt.spectral import closed_form_spectrum, lanczos_perron
from dpbt.telemat import incidence_edges, incidence_matrix, teleportation_matrix

ORACLE_CELLS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


def report(number, description):
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_exact_spectrum_law():
    """Exact integer eigenvalue law of the character columns, N = 2..8."""
    start = time.time()
    for n in range(2, 9):
        mult = character_spectrum(n)  # hard error on any exact failure
        assert (n - 1) not in mult
        assert set(mult) == set(range(0, n - 1)) | {n}
        expected = {}
        for cls in cycle_types(n):
            expected[cls.fixed_points] = expected.get(cls.fixed_points, 0) + 1
        assert mult == expected
        assert closed_form_spectrum(n) == expected
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"
    report(1, f"exact spectrum law for N=2..8 in {elapsed:.2f}s")


def test_criterion_2_maximal_eigenvalue(hook_dim):
    """The Lanczos solver reaches radius N with Perron vector ~ irrep dims, N = 2..10."""
    for n in range(2, 11):
        res = lanczos_perron(incidence_edges(n))
        assert abs(res.radius - n) < 1e-10, f"radius off at N={n}: {res.radius}"
        dims = [hook_dim(mu.rows) for mu in res.basis]
        total = sum(dims)
        for got, dim in zip(res.perron, dims):
            assert abs(got - dim / total) < 1e-9, f"Perron entry off at N={n}"
    report(2, "radius N and dimension-proportional Perron vector for N=2..10")


def test_criterion_3_qubit_closed_form():
    """Lanczos-solver radius of the d=2 matrix equals 4cos^2(pi/(N+2)), N = 2..50."""
    for n in range(2, 51):
        res = lanczos_perron(incidence_edges(n, 2), tol=1e-12)
        want = 4 * math.cos(math.pi / (n + 2)) ** 2
        assert abs(res.radius - want) < 1e-9, f"d=2 radius off at N={n}"
        fid = optimal_fidelity(incidence_edges(n, 2))
        assert abs(fid - math.cos(math.pi / (n + 2)) ** 2) < 1e-9
    report(3, "qubit cosine closed form matched by the Lanczos solver for N=2..50")


def test_criterion_4_gram_and_recursion(recursion_defect):
    """Gram identity, recursion identity, and the printed incidence example."""
    for n in range(2, 9):
        for d in range(2, n + 1):
            e = incidence_edges(n, d)
            r = incidence_matrix(e)
            assert (r.T @ r).tolist() == teleportation_matrix(e).tolist(), (
                f"Gram identity failed at ({n},{d})"
            )
            defect = recursion_defect(n, d)
            assert all(x == 0 for row in defect for x in row), (
                f"recursion defect nonzero at ({n},{d})"
            )
    r44 = incidence_matrix(incidence_edges(4, 4))
    assert r44.tolist() == [[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]]
    expected_csv = (
        ',[4],"[3,1]","[2,2]","[2,1,1]","[1,1,1,1]"\n'
        "[3],1,1,0,0,0\n"
        '"[2,1]",0,1,1,1,0\n'
        '"[1,1,1]",0,0,0,1,1\n'
    )
    out = io.StringIO()
    assert run(["matrix", "-N", "4", "-d", "4", "--kind", "R", "--format", "csv"], out=out) == 0
    assert out.getvalue() == expected_csv
    report(4, "Gram and recursion identities for 2<=d<=N<=8; incidence example byte-exact")


def test_criterion_5_oracle_strong_duality(gamma_table, hook_dim, hook_mult, dense):
    """Dense-oracle eigenvalues, primal fidelity, constraints, and dual witness."""
    start = time.time()
    for n, d in ORACLE_CELLS:
        dim = d ** (n + 1)
        cell = dense_cell(n, d)
        eta = dense(d**n * sum(cell.sigmas))
        w = np.linalg.eigvalsh(eta)
        expected = []
        for (alpha, mu), gamma in gamma_table(n, d).items():
            expected += [float(gamma)] * (hook_dim(mu.rows) * hook_mult(alpha.rows, d))
        expected += [0.0] * (dim - len(expected))
        actual = sorted((float(x) for x in w), reverse=True)
        gap = max(abs(a - b) for a, b in zip(actual, sorted(expected, reverse=True)))
        assert gap < 1e-8, f"eta eigenvalues off at ({n},{d}): {gap}"

        radius_fid = optimal_fidelity(incidence_edges(n, d))
        primal_fid = direct_fidelity(cell, "optimal")
        assert abs(primal_fid - radius_fid) < 1e-8, f"primal fidelity off at ({n},{d})"

        primal = primal_constraint_check(cell)
        assert primal["min_eig"] >= -1e-8, f"primal infeasible at ({n},{d})"
        assert abs(primal["trace_XA"] - d**n) < 1e-8, f"trace constraint off at ({n},{d})"

        dual = dual_witness_check(cell)
        assert dual["min_slack"] >= -1e-8, f"dual infeasible at ({n},{d})"
        assert abs(dual["objective"] - radius_fid) < 1e-8, f"dual objective off at ({n},{d})"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s, budget 60s"
    report(5, f"strong-duality triangle closed at {ORACLE_CELLS} in {elapsed:.1f}s")


def test_criterion_6_square_root_measurement_recovery():
    """The z=1, y=2 member of the POVM family is the square-root measurement."""
    for n, d in ORACLE_CELLS:
        family = general_povm_fidelity(incidence_edges(n, d), 1, 2)
        formula = sqrt_measurement_fidelity(incidence_edges(n, d))
        assert abs(family - formula) < 1e-12, f"family vs formula at ({n},{d})"
        direct = direct_fidelity(dense_cell(n, d), "sqrt_measurement")
        assert abs(family - direct) < 1e-8, f"family vs dense oracle at ({n},{d})"
    assert abs(
        general_povm_fidelity(incidence_edges(2, 2), 1, 2) - (math.sqrt(3) + 1) ** 2 / 16
    ) < 1e-12
    report(6, "square-root measurement recovered from the POVM family at oracle scale")


def test_criterion_7_ordering_and_bounds():
    """Fidelity ordering, upper bound, and monotonicity over N <= 20, d = 2..6."""
    for d in range(2, 7):
        previous = 0.0
        for n in range(1, 21):
            lower = lower_bound_fidelity(n, d)
            entangled = sqrt_measurement_fidelity(incidence_edges(n, d))
            optimal = optimal_fidelity(incidence_edges(n, d), tol=1e-13)
            assert n / (d * d + n - 1) == pytest.approx(lower, abs=1e-15)
            assert lower <= entangled + 1e-10, f"lower>sqrt at ({n},{d})"
            assert entangled <= optimal + 1e-10, f"sqrt>opt at ({n},{d})"
            assert optimal <= 1 + 1e-10, f"opt>1 at ({n},{d})"
            assert optimal >= previous - 1e-10, f"not monotone at ({n},{d})"
            previous = optimal
            # closed-form anchor points of the fidelity curves
            if d >= n:
                assert optimal == n / d**2
            if d == 2:
                assert abs(optimal - math.cos(math.pi / (n + 2)) ** 2) < 1e-9
    report(7, "bounds, ordering and monotonicity verified for N<=20, d=2..6")
