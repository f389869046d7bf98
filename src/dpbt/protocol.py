"""Deterministic port-based teleportation: fidelities, coefficients, sweeps.

The optimal fidelity with a simultaneously optimised measurement and resource
state is the spectral radius of the height-restricted teleportation matrix
divided by d^2.  This module takes that radius and the Perron eigenvector
from spectral.dominant_eigenpair, derives the optimal POVM and resource-state
coefficients from the eigenvector, evaluates the square-root-measurement
fidelity of the plain maximally entangled resource, the generalised
one-parameter POVM family, and a closed-form lower bound, and drives (N, d)
sweeps.

Port-operator eigenvalues are kept as exact rationals; fidelity arithmetic is
double precision with compensated summation.  Diagrams of height above d have
zero multiplicity and are excluded from every sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .diagrams import (
    DiagramBasis,
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, dominant_eigenpair

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
    "sweep",
]


def _check_nd(n: int, d: int) -> None:
    if n < 1:
        raise ValueError("port count must be >= 1")
    if d < 2:
        raise ValueError("local dimension must be >= 2")


@dataclass(frozen=True)
class ProtocolEigen:
    """One port-operator eigenvalue, labelled by (parent alpha, child mu).

    gamma = N * m_mu * d_alpha / (m_alpha * d_mu) as an exact rational;
    lam = gamma / d^N in double precision.
    """

    alpha: YoungDiagram
    mu: YoungDiagram
    gamma: Fraction
    lam: float


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
    """All (alpha, mu) port-operator eigenvalues with nonzero multiplicities."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    out: list[ProtocolEigen] = []
    dn = d**n
    for alpha in enumerate_diagrams(n - 1, d):
        m_a = multiplicity(alpha, d)
        d_a = irrep_dim(alpha)
        for mu in sorted(add_box(alpha, d), key=lambda x: x.rows, reverse=True):
            m_m = multiplicity(mu, d)
            if m_m == 0:
                continue
            gamma = Fraction(n * m_m * d_a, m_a * irrep_dim(mu))
            out.append(ProtocolEigen(alpha, mu, gamma, float(gamma / dn)))
    return out


def optimal_fidelity(
    n: int,
    d: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FidelityReport:
    """Best achievable fidelity: spectral radius of the restricted matrix / d^2.

    The radius is n exactly when d >= n (all irreps occur), taken without
    enumerating the diagrams; otherwise it comes from dominant_eigenpair.
    """
    _check_nd(n, d)
    if d >= n:
        radius, method, iterations = float(n), "closed_dgeN", 0
    else:
        res = dominant_eigenpair(n, d, tol, max_iter)
        radius, method, iterations = res.radius, res.method, res.iterations
    return FidelityReport(n, d, "optimal", radius / d**2, method, radius, iterations)


def optimal_solution(
    n: int,
    d: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimalSolution:
    """Optimal POVM / resource-state coefficients at (n, d).

    p_mu(alpha) = (d^n/sqrt(n)) sqrt(m_alpha/d_alpha) v_mu / m_mu,
    o_mu = sqrt(d^n) v_mu / sqrt(d_mu m_mu),
    c_mu = d^n v_mu^2 / (d_mu m_mu),
    with v the l2-normalised Perron eigenvector.
    """
    _check_nd(n, d)
    eigenpair = dominant_eigenpair(n, d, tol, max_iter)
    basis = eigenpair.basis
    norm = math.sqrt(math.fsum(x * x for x in eigenpair.perron))
    v = {mu: x / norm for mu, x in zip(basis, eigenpair.perron)}
    dn = d**n
    o_coeffs = {}
    c_coeffs = {}
    for mu in basis:
        dm = irrep_dim(mu) * multiplicity(mu, d)
        o_coeffs[mu] = math.sqrt(dn) * v[mu] / math.sqrt(dm)
        c_coeffs[mu] = dn * v[mu] ** 2 / dm
    p_coeffs = {}
    for alpha in enumerate_diagrams(n - 1, d):
        factor = dn / math.sqrt(n) * math.sqrt(multiplicity(alpha, d) / irrep_dim(alpha))
        for mu in sorted(add_box(alpha, d), key=lambda x: x.rows, reverse=True):
            m_m = multiplicity(mu, d)
            if m_m == 0:
                continue
            p_coeffs[(alpha, mu)] = factor * v[mu] / m_m
    return OptimalSolution(
        n, d, basis, v, p_coeffs, o_coeffs, c_coeffs, eigenpair.method
    )


def sqrt_measurement_fidelity(n: int, d: int) -> FidelityReport:
    """Fidelity of the maximally entangled resource with square-root measurement.

    Sum over parents of the squared sum of sqrt(d_mu * m_mu / d^(n+2)) over
    children.  Each ratio of exact integers is divided with correct rounding
    before the one floating square root per term, so nothing overflows at
    large n.
    """
    _check_nd(n, d)
    dn2 = d ** (n + 2)
    total = math.fsum(
        math.fsum(
            math.sqrt(irrep_dim(mu) * multiplicity(mu, d) / dn2)
            for mu in add_box(alpha, d)
            if multiplicity(mu, d) > 0
        )
        ** 2
        for alpha in enumerate_diagrams(n - 1, d)
    )
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
    """
    _check_nd(n, d)
    eigs = protocol_eigenvalues(n, d)
    by_alpha: dict[YoungDiagram, list[ProtocolEigen]] = {}
    for e in eigs:
        by_alpha.setdefault(e.alpha, []).append(e)
    terms = []
    for alpha in enumerate_diagrams(n - 1, d):
        za = _param(z, alpha)
        ya = _param(y, alpha)
        if za < 0:
            raise ValueError(f"weight z({alpha}) must be nonnegative, got {za}")
        if ya == 0:
            raise ValueError(f"exponent y({alpha}) must be nonzero")
        m_a = multiplicity(alpha, d)
        group = by_alpha[alpha]
        c_val = (
            math.fsum(
                e.lam ** (-1.0 / ya) * multiplicity(e.mu, d) / m_a for e in group
            )
            / d
        )
        tr_val = math.fsum(
            e.lam ** (1.0 - 1.0 / ya) * irrep_dim(e.mu) * m_a for e in group
        )
        terms.append(za * c_val * tr_val)
    return math.fsum(terms) / d ** (n + 1)


def lower_bound_fidelity(n: int, d: int) -> FidelityReport:
    """Fidelity lower bound of the non-optimised entangled resource: N/(d^2+N-1)."""
    _check_nd(n, d)
    value = float(Fraction(n, d * d + n - 1))
    return FidelityReport(n, d, "lower_bound", value, "closed_form")


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
    cells = sorted({(int(n), int(d)) for n in n_values for d in d_values})

    def one_cell(nd: tuple[int, int]) -> dict:
        n, d = nd
        row: dict = {"N": n, "d": d}
        try:
            lower = lower_bound_fidelity(n, d)
            entangled = sqrt_measurement_fidelity(n, d)
            optimal = optimal_fidelity(n, d, tol=tol, max_iter=max_iter)
        except Exception as exc:  # per-cell failure: record, keep sweeping
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row
        row.update(
            f_lower=lower.fidelity,
            f_sqrt_ent=entangled.fidelity,
            f_opt=optimal.fidelity,
            method=optimal.method,
            radius=optimal.radius,
            iterations=optimal.iterations,
        )
        return row

    return [one_cell(c) for c in cells]
