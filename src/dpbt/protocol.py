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

from .diagrams import DiagramBasis, YoungDiagram
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


_bit_length = np.frompyfunc(int.bit_length, 1, 1)

# the least integer whose float rounds to inf: 2^1024 less half a unit in the last place
_DOUBLE_LIMIT = (1 << 1024) - (1 << 970)


def _sqrt_ratio(num: np.ndarray, den: np.ndarray | int) -> np.ndarray:
    """sqrt(num / den) for object arrays of positive integers of any size (den
    may be one int), as float64; inf where the result exceeds double range.

    Each ratio is shifted near 1 by an even power of two, divided with correct
    rounding, rooted and shifted back.  The shift is exact, so equal ratios
    give the same bits whatever their numerators and denominators.
    """
    den = np.asarray(den, dtype=object)
    half = (_bit_length(num) - _bit_length(den)).astype(np.int64) // 2
    q = (num << np.maximum(-2 * half, 0)) / (den << np.maximum(2 * half, 0))
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(q.astype(np.float64)), half)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, correctly rounded, for object arrays of positive integers of
    any size, as float64; inf where it exceeds double range."""
    over = np.zeros(len(num), dtype=bool)
    # below 1023 bits of difference num / den < 2^1023 always fits
    big = np.flatnonzero(_bit_length(num) - _bit_length(den) >= 1023)
    over[big] = num[big] >= den[big] * _DOUBLE_LIMIT
    out = (np.where(over, 0, num) / den).astype(np.float64)
    out[over] = np.inf
    return out


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


@dataclass(frozen=True, eq=False)
class OptimalSolution:
    """Optimal POVM and resource-state coefficients from the Perron vector.

    Float64 arrays: v (l2-normalised, positive), the resource-operator
    coefficients o and the coefficients c of the positive operator
    constraining the POVM sum, in the order of the column basis; the POVM
    expansion coefficients p_mu(alpha), in the order of the edges (alpha, mu)
    of the cell's edge list `edges`.  `method` names the route that produced
    the Perron vector.
    """

    n: int
    d: int
    edges: IncidenceEdges
    v: np.ndarray
    p_coeffs: np.ndarray
    o_coeffs: np.ndarray
    c_coeffs: np.ndarray
    method: str

    @property
    def basis(self) -> DiagramBasis:
        return self.edges.col_basis


Numbers = tuple[np.ndarray, np.ndarray]  # exact (dims, multiplicities) of a basis


def _gammas(e: IncidenceEdges, row: Numbers, col: Numbers) -> list[Fraction]:
    """gamma = N m_mu d_alpha / (m_alpha d_mu) of every edge (alpha, mu) of e,
    in edge order, from the (dims, multiplicities) of its row and column bases."""
    (dim_a, mult_a), (dim_m, mult_m) = row, col
    num = e.col_basis.n * mult_m[e.child] * dim_a[e.parent]
    return list(map(Fraction, num.tolist(), (mult_a[e.parent] * dim_m[e.child]).tolist()))


def _basis_numbers(e: IncidenceEdges) -> tuple[Numbers, Numbers]:
    """(dims, multiplicities) of the row basis and of the column basis of e."""
    return e.row_basis.numbers, e.col_basis.numbers


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
    whenever it fits a double; otherwise ArithmeticError names the first that
    does not: o and c over the basis, then p over the edges.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    eigenpair = dominant_eigenpair(e, tol, max_iter)
    perron = np.array(eigenpair.perron)
    v = perron / math.sqrt(math.fsum(perron * perron))
    # v = mant 2^(exp - 53) exactly, so v^2 = mant^2 / 2^shift
    frac, exp = np.frexp(v)
    v2 = np.ldexp(frac, 53).astype(np.int64).astype(object) ** 2
    shift = 2 * (53 - exp)
    (dim_a, mult_a), (dim_m, mult_m) = _basis_numbers(e)
    dn = d**n
    num = v2 * dn
    den = (dim_m * mult_m) << shift
    o_coeffs, c_coeffs = _sqrt_ratio(num, den), _ratio(num, den)
    bad = np.isinf(o_coeffs) | np.isinf(c_coeffs)
    if bad.any():
        name = f"o_mu, c_mu at mu={e.col_basis[int(bad.argmax())]}"
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}")
    p_coeffs = _sqrt_ratio(
        (dn * dn * mult_a)[e.parent] * v2[e.child],
        (n * dim_a)[e.parent] * (mult_m * mult_m << shift)[e.child],
    )
    bad = np.isinf(p_coeffs)
    if bad.any():
        k = int(bad.argmax())
        alpha, mu = e.row_basis[int(e.parent[k])], e.col_basis[int(e.child[k])]
        name = f"p_mu(alpha) at alpha={alpha}, mu={mu}"
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}")
    return OptimalSolution(n, d, e, v, p_coeffs, o_coeffs, c_coeffs, eigenpair.method)


def sqrt_measurement_fidelity(e: IncidenceEdges) -> FidelityReport:
    """Fidelity of the maximally entangled resource with square-root measurement.

    The Rayleigh quotient ||R w||^2 / d^2 of the teleportation matrix R^T R
    of e with the unit vector w_mu = sqrt(d_mu m_mu / d^n), one gather over
    the edges; so it never exceeds the optimal fidelity.  Each w_mu is the
    square root of an exact integer ratio, so nothing overflows at large n.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    dims, mults = e.col_basis.numbers
    w = _sqrt_ratio(dims * mults, d**n)
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
