"""Deterministic port-based teleportation: fidelities, coefficients, sweeps.

The optimal fidelity with a simultaneously optimised measurement and resource
state is the spectral radius of the height-restricted teleportation matrix
divided by d^2.  This module takes that radius and the Perron eigenvector
from spectral.dominant_eigenpair (a closed form, or the certified Lanczos
solve, whose radius lies in a bracket of relative width tol and whose
`iterations` count its products by M_F), derives the optimal POVM and
resource-state coefficients from the eigenvector, evaluates the
square-root-measurement fidelity of the plain maximally entangled resource,
the generalised one-parameter POVM family, and a closed-form lower bound,
and drives (N, d) sweeps.

A cell is one edge list, telemat.incidence_edges(n, d), which the caller builds
once.  Every per-cell function here takes it and reads N and d from its column
basis (an uncapped list is a ValueError), and hands the same list to the
solver; every sum over parent-child pairs (alpha, mu) runs over it.
Eigenvalues are exact rationals, and coefficients are roots of exact integer
ratios, so d^N never becomes a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .diagrams import DiagramBasis, YoungDiagram, dim_mult_products, dims_and_multiplicities
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, dominant_eigenpair
from .telemat import IncidenceEdges, incidence_edges

__all__ = [
    "ProtocolEigen",
    "FidelityReport",
    "OptimalSolution",
    "protocol_eigenvalues",
    "optimal_fidelity",
    "optimal_solution",
    "sqrt_measurement_fidelity",
    "general_povm_fidelity",
    "lower_bound_fidelity",
    "fidelity_row",
    "sweep",
]


def _check_nd(n: int, d: int | None) -> None:
    if n < 1:
        raise ValueError("port count must be >= 1")
    if d is None or d < 2:
        raise ValueError("local dimension must be >= 2")


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for positive integers of any size.

    The ratio is shifted near 1 by an even power of two, divided with correct
    rounding, rooted and shifted back; OverflowError only when the result
    itself exceeds double range.
    """
    half = (num.bit_length() - den.bit_length()) // 2
    q = num / (den << 2 * half) if half > 0 else (num << -2 * half) / den
    return math.ldexp(math.sqrt(q), half)


@dataclass(frozen=True)
class ProtocolEigen:
    """One port-operator eigenvalue, labelled by (parent alpha, child mu).

    gamma = N * m_mu * d_alpha / (m_alpha * d_mu) as an exact rational.
    """

    alpha: YoungDiagram
    mu: YoungDiagram
    gamma: Fraction


@dataclass(frozen=True)
class FidelityReport:
    n: int
    d: int
    resource: str  # "optimal" | "sqrt_entangled" | "lower_bound"
    fidelity: float
    method: str
    radius: float | None = None
    iterations: int = 0


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal POVM and resource-state coefficients from the Perron vector.

    v is l2-normalised with positive entries; p maps (alpha, mu) to the POVM
    expansion coefficient, o gives the resource-operator coefficient per
    diagram, and c the coefficients of the positive operator constraining the
    POVM sum.  `method` names the route that produced the Perron vector.
    """

    n: int
    d: int
    basis: DiagramBasis
    v: dict[YoungDiagram, float]
    p_coeffs: dict[tuple[YoungDiagram, YoungDiagram], float]
    o_coeffs: dict[YoungDiagram, float]
    c_coeffs: dict[YoungDiagram, float]
    method: str


def _gammas(
    e: IncidenceEdges, row: tuple[list[int], list[int]], col: tuple[list[int], list[int]]
) -> list[Fraction]:
    """gamma = N m_mu d_alpha / (m_alpha d_mu) of every edge (alpha, mu) of e,
    in edge order, from the (dims, multiplicities) of its row and column bases."""
    (dim_a, mult_a), (dim_m, mult_m) = row, col
    n = e.col_basis.n
    return [
        Fraction(n * mult_m[j] * dim_a[i], mult_a[i] * dim_m[j])
        for i, j in zip(e.parent.tolist(), e.child.tolist())
    ]


def _basis_numbers(e: IncidenceEdges) -> tuple[tuple[list[int], list[int]], ...]:
    """(dims, multiplicities) of the row basis and of the column basis of e."""
    d = e.col_basis.d
    return dims_and_multiplicities(e.row_basis, d), dims_and_multiplicities(e.col_basis, d)


def protocol_eigenvalues(e: IncidenceEdges) -> list[ProtocolEigen]:
    """All (alpha, mu) port-operator eigenvalues of the cell of the edge list
    e, in edge order."""
    _check_nd(e.col_basis.n, e.col_basis.d)
    alphas, mus = e.row_basis.entries, e.col_basis.entries
    gammas = _gammas(e, *_basis_numbers(e))
    return [
        ProtocolEigen(alphas[i], mus[j], gamma)
        for i, j, gamma in zip(e.parent.tolist(), e.child.tolist(), gammas)
    ]


def optimal_fidelity(
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FidelityReport:
    """Best achievable fidelity at the cell of the edge list e: the spectral
    radius of its teleportation matrix from dominant_eigenpair, over d^2."""
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    r = dominant_eigenpair(e, tol, max_iter)
    return FidelityReport(n, d, "optimal", r.radius / d**2, r.method, r.radius, r.iterations)


def optimal_solution(
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimalSolution:
    """Optimal POVM / resource-state coefficients at the cell of the edge list e.

    p_mu(alpha) = v_mu sqrt(d^(2n) m_alpha / (n d_alpha m_mu^2)),
    o_mu = v_mu sqrt(d^n / (d_mu m_mu)),
    c_mu = o_mu^2,
    with v the l2-normalised Perron eigenvector.  Each is one correctly rounded
    operation on exact integers (v_mu^2 is an exact ratio), so it is finite
    whenever it fits a double; otherwise ArithmeticError names it.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    eigenpair = dominant_eigenpair(e, tol, max_iter)
    basis = eigenpair.basis
    norm = math.sqrt(math.fsum(x * x for x in eigenpair.perron))
    ratios = [(x / norm).as_integer_ratio() for x in eigenpair.perron]
    (dim_a, mult_a), (dim_m, mult_m) = _basis_numbers(e)
    alphas, mus = e.row_basis.entries, basis.entries
    dn = d**n
    at = (None, 0)  # (alpha, mu) indices of the coefficient in the making
    o_coeffs, c_coeffs, p_coeffs = {}, {}, {}
    try:
        for j, (mu, (a, b)) in enumerate(zip(mus, ratios)):
            at = (None, j)
            num, den = a * a * dn, b * b * dim_m[j] * mult_m[j]
            o_coeffs[mu] = _sqrt_ratio(num, den)
            c_coeffs[mu] = num / den
        for i, j in zip(e.parent.tolist(), e.child.tolist()):
            at = (i, j)
            a, b = ratios[j]
            p_coeffs[(alphas[i], mus[j])] = _sqrt_ratio(
                a * a * dn * dn * mult_a[i],
                b * b * n * dim_a[i] * mult_m[j] ** 2,
            )
    except OverflowError:
        i, j = at
        name = (
            f"o_mu, c_mu at mu={mus[j]}"
            if i is None
            else f"p_mu(alpha) at alpha={alphas[i]}, mu={mus[j]}"
        )
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}") from None
    v = {mu: x / norm for mu, x in zip(mus, eigenpair.perron)}
    return OptimalSolution(
        n, d, basis, v, p_coeffs, o_coeffs, c_coeffs, eigenpair.method
    )


def sqrt_measurement_fidelity(e: IncidenceEdges) -> FidelityReport:
    """Fidelity of the maximally entangled resource with square-root measurement.

    The Rayleigh quotient ||R w||^2 / d^2 of the teleportation matrix R^T R
    of e with the unit vector w_mu = sqrt(d_mu m_mu / d^n), one gather over
    the edges; so it never exceeds the optimal fidelity.  Each w_mu is the
    square root of an exact integer ratio, so nothing overflows at large n.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    dn = d**n
    w = np.array([_sqrt_ratio(dm, dn) for dm in dim_mult_products(e.col_basis, d)])
    rw = np.bincount(e.parent, weights=w[e.child], minlength=len(e.row_basis))
    total = math.fsum(rw * rw) / d**2
    return FidelityReport(n, d, "sqrt_entangled", total, "sqrt_measurement_sum")


ParamMap = Callable[[YoungDiagram], float] | float | int


def _param(value: ParamMap, alpha: YoungDiagram) -> float:
    return float(value(alpha) if callable(value) else value)


def general_povm_fidelity(e: IncidenceEdges, z: ParamMap, y: ParamMap) -> float:
    """Fidelity of the POVM family with per-parent weight z and exponent y, at
    the cell of the edge list e.

    For each parent alpha the family contributes
    z(alpha) * c(alpha, y) * tr[rho(alpha)^(1 - 1/y)] with
    c(alpha, y) = (1/d) sum_mu lam^(-1/y) m_mu / m_alpha and
    tr[rho(alpha)^(1-1/y)] = sum_mu lam^(1-1/y) d_mu m_alpha; the total is
    divided by d^(n+1).  z = 1, y = 2 reproduces the square-root measurement.
    With lam = gamma/d^n, each parent's term carries d^(n (2/y - 1)), which is
    1 at y = 2, times the exact integer ratios m_mu/m_alpha and d_mu m_alpha/d^n.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    row, col = _basis_numbers(e)
    (_, mult_a), (dim_m, mult_m) = row, col
    by_alpha: dict[int, list[tuple[float, int]]] = {}
    for i, j, gamma in zip(e.parent.tolist(), e.child.tolist(), _gammas(e, row, col)):
        by_alpha.setdefault(i, []).append((float(gamma), j))
    dn = d**n
    terms = []
    for i, group in by_alpha.items():
        alpha = e.row_basis[i]
        za = _param(z, alpha)
        ya = _param(y, alpha)
        if za < 0:
            raise ValueError(f"weight z({alpha}) must be nonnegative, got {za}")
        if ya == 0:
            raise ValueError(f"exponent y({alpha}) must be nonzero")
        m_a = mult_a[i]
        c_val = math.fsum(g ** (-1.0 / ya) * (mult_m[j] / m_a) for g, j in group) / d
        tr_val = math.fsum(g ** (1.0 - 1.0 / ya) * (dim_m[j] * m_a / dn) for g, j in group)
        terms.append(za * c_val * tr_val * float(d) ** (n * (2.0 / ya - 1.0)))
    return math.fsum(terms) / d


def lower_bound_fidelity(n: int, d: int) -> FidelityReport:
    """Fidelity lower bound of the non-optimised entangled resource: N/(d^2+N-1)."""
    _check_nd(n, d)
    value = float(Fraction(n, d * d + n - 1))
    return FidelityReport(n, d, "lower_bound", value, "closed_form")


def fidelity_row(
    n: int,
    d: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict:
    """The lower-bound, square-root-measurement and optimal fidelities at one
    cell, with the method, radius and iterations of the optimal one."""
    lower = lower_bound_fidelity(n, d)
    e = incidence_edges(n, d)
    entangled = sqrt_measurement_fidelity(e)
    optimal = optimal_fidelity(e, tol, max_iter)
    return {
        "N": n,
        "d": d,
        "f_lower": lower.fidelity,
        "f_sqrt_ent": entangled.fidelity,
        "f_opt": optimal.fidelity,
        "method": optimal.method,
        "radius": optimal.radius,
        "iterations": optimal.iterations,
    }


def sweep(
    n_values: Iterable[int],
    d_values: Iterable[int],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[dict]:
    """Fidelity table over the (N, d) grid, ordered by (N, d).

    Cells are independent; a failing cell records an "error" field and the
    sweep continues.
    """
    rows = []
    for n, d in sorted({(int(n), int(d)) for n in n_values for d in d_values}):
        try:
            rows.append(fidelity_row(n, d, tol, max_iter))
        except Exception as exc:  # per-cell failure: record, keep sweeping
            rows.append({"N": n, "d": d, "error": f"{type(exc).__name__}: {exc}"})
    return rows
