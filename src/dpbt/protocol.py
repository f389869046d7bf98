"""Deterministic port-based teleportation: fidelities, coefficients, sweeps.

The optimal fidelity with a simultaneously optimised measurement and resource
state is the spectral radius of the height-restricted teleportation matrix
divided by d^2.  This module takes that radius and the Perron eigenvector
from spectral.dominant_eigenpair, derives the optimal POVM and resource-state
coefficients from the eigenvector, evaluates the square-root-measurement
fidelity of the plain maximally entangled resource, the generalised
one-parameter POVM family, and a closed-form lower bound, and drives (N, d)
sweeps.

A cell is one edge list, telemat.incidence_edges(n, d), built once and shared
with the solver; every sum over parent-child pairs (alpha, mu) runs over it.
Eigenvalues are exact rationals, and coefficients are roots of exact integer
ratios, so d^N never becomes a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .diagrams import DiagramBasis, YoungDiagram, irrep_dim, multiplicity
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


def protocol_eigenvalues(n: int, d: int) -> list[ProtocolEigen]:
    """All (alpha, mu) port-operator eigenvalues, in incidence-edge order."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    e = incidence_edges(n, d)
    out: list[ProtocolEigen] = []
    for i, j in zip(e.parent.tolist(), e.child.tolist()):
        alpha, mu = e.row_basis[i], e.col_basis[j]
        m_m, m_a = multiplicity(mu, d), multiplicity(alpha, d)
        gamma = Fraction(n * m_m * irrep_dim(alpha), m_a * irrep_dim(mu))
        out.append(ProtocolEigen(alpha, mu, gamma))
    return out


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
    n: int,
    d: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimalSolution:
    """Optimal POVM / resource-state coefficients at (n, d).

    p_mu(alpha) = v_mu sqrt(d^(2n) m_alpha / (n d_alpha m_mu^2)),
    o_mu = v_mu sqrt(d^n / (d_mu m_mu)),
    c_mu = o_mu^2,
    with v the l2-normalised Perron eigenvector.  Each is one correctly rounded
    operation on exact integers (v_mu^2 is an exact ratio), so it is finite
    whenever it fits a double; otherwise ArithmeticError names it.
    """
    _check_nd(n, d)
    e = incidence_edges(n, d)
    eigenpair = dominant_eigenpair(e, tol, max_iter)
    basis = eigenpair.basis
    norm = math.sqrt(math.fsum(x * x for x in eigenpair.perron))
    v = {mu: x / norm for mu, x in zip(basis, eigenpair.perron)}
    dn = d**n
    name = "o_mu"
    o_coeffs, c_coeffs, p_coeffs = {}, {}, {}
    try:
        for mu in basis:
            a, b = v[mu].as_integer_ratio()
            num, den = a * a * dn, b * b * irrep_dim(mu) * multiplicity(mu, d)
            name = f"o_mu, c_mu at mu={mu}"
            o_coeffs[mu] = _sqrt_ratio(num, den)
            c_coeffs[mu] = num / den
        for i, j in zip(e.parent.tolist(), e.child.tolist()):
            alpha, mu = e.row_basis[i], e.col_basis[j]
            a, b = v[mu].as_integer_ratio()
            name = f"p_mu(alpha) at alpha={alpha}, mu={mu}"
            p_coeffs[(alpha, mu)] = _sqrt_ratio(
                a * a * dn * dn * multiplicity(alpha, d),
                b * b * n * irrep_dim(alpha) * multiplicity(mu, d) ** 2,
            )
    except OverflowError:
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}") from None
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
    w = np.array(
        [_sqrt_ratio(irrep_dim(mu) * multiplicity(mu, d), dn) for mu in e.col_basis]
    )
    rw = np.bincount(e.parent, weights=w[e.child], minlength=len(e.row_basis))
    total = math.fsum(rw * rw) / d**2
    return FidelityReport(n, d, "sqrt_entangled", total, "sqrt_measurement_sum")


ParamMap = Mapping[YoungDiagram, float] | Callable[[YoungDiagram], float] | float | int


def _param(value: ParamMap, alpha: YoungDiagram) -> float:
    if isinstance(value, Mapping):
        return float(value[alpha])
    if callable(value):
        return float(value(alpha))
    return float(value)


def general_povm_fidelity(n: int, d: int, z: ParamMap, y: ParamMap) -> float:
    """Fidelity of the POVM family with per-parent weight z and exponent y.

    For each parent alpha the family contributes
    z(alpha) * c(alpha, y) * tr[rho(alpha)^(1 - 1/y)] with
    c(alpha, y) = (1/d) sum_mu lam^(-1/y) m_mu / m_alpha and
    tr[rho(alpha)^(1-1/y)] = sum_mu lam^(1-1/y) d_mu m_alpha; the total is
    divided by d^(n+1).  z = 1, y = 2 reproduces the square-root measurement.
    With lam = gamma/d^n, each parent's term carries d^(n (2/y - 1)), which is
    1 at y = 2, times the exact integer ratios m_mu/m_alpha and d_mu m_alpha/d^n.
    """
    _check_nd(n, d)
    by_alpha: dict[YoungDiagram, list[ProtocolEigen]] = {}
    for e in protocol_eigenvalues(n, d):
        by_alpha.setdefault(e.alpha, []).append(e)
    dn = d**n
    terms = []
    for alpha, group in by_alpha.items():
        za = _param(z, alpha)
        ya = _param(y, alpha)
        if za < 0:
            raise ValueError(f"weight z({alpha}) must be nonnegative, got {za}")
        if ya == 0:
            raise ValueError(f"exponent y({alpha}) must be nonzero")
        m_a = multiplicity(alpha, d)
        c_val = math.fsum(
            float(e.gamma) ** (-1.0 / ya) * (multiplicity(e.mu, d) / m_a) for e in group
        ) / d
        tr_val = math.fsum(
            float(e.gamma) ** (1.0 - 1.0 / ya) * (irrep_dim(e.mu) * m_a / dn) for e in group
        )
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
