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
basis (d = 1 is a ValueError), and hands the same list to the solver; every
sum over parent-child pairs (alpha, mu) runs over it, and every per-edge
quantity is an array in edge order.  Eigenvalues are exact
integer (numerator, denominator) arrays, and coefficients are roots of exact
integer ratios, so d^N never becomes a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .diagrams import DiagramBasis, _label
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, SpectralResult, dominant_eigenpair
from .telemat import IncidenceEdges, incidence_edges

__all__ = [
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


def _check_nd(n: int, d: int) -> None:
    if n < 1:
        raise ValueError("port count must be >= 1")
    if d < 2:
        raise ValueError("local dimension must be >= 2")


def _over_d2(x: float, d: int) -> float:
    """x / d^2 rounded once, as the exact ratio of x over the integer d^2 (a
    float quotient rounds twice once d^2 exceeds 2^53)."""
    p, q = x.as_integer_ratio()
    return p / (q * d * d)


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


@dataclass(frozen=True, eq=False)
class OptimalSolution:
    """Optimal POVM and resource-state coefficients from the Perron vector.

    Float64 arrays: v (l2-normalised, positive), the resource-operator
    coefficients o and the coefficients c of the positive operator
    constraining the POVM sum, in the order of the column basis; the POVM
    expansion coefficients p_mu(alpha), in the order of the edges (alpha, mu)
    of the cell's edge list `edges`.  `eigenpair` is the solve that produced
    the Perron vector: its method, radius, bracket and product count.
    """

    edges: IncidenceEdges
    eigenpair: SpectralResult
    v: np.ndarray
    p_coeffs: np.ndarray
    o_coeffs: np.ndarray
    c_coeffs: np.ndarray

    @property
    def basis(self) -> DiagramBasis:
        return self.edges.col_basis


def protocol_eigenvalues(e: IncidenceEdges) -> tuple[np.ndarray, np.ndarray]:
    """The port-operator eigenvalue gamma = N m_mu d_alpha / (m_alpha d_mu) of
    every edge (alpha, mu) of e, in edge order, as exact integer object arrays
    (numerator, denominator); num / den is each gamma correctly rounded."""
    _check_nd(e.col_basis.n, e.col_basis.d)
    (dim_a, mult_a), (dim_m, mult_m) = e.row_basis.numbers, e.col_basis.numbers
    return e.col_basis.n * mult_m[e.child] * dim_a[e.parent], mult_a[e.parent] * dim_m[e.child]


def optimal_fidelity(
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Best achievable fidelity at the cell of the edge list e: the spectral
    radius of its teleportation matrix from dominant_eigenpair, over d^2."""
    d = e.col_basis.d
    _check_nd(e.col_basis.n, d)
    return _over_d2(dominant_eigenpair(e, tol, max_iter).radius, d)


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
    perron = eigenpair.perron
    v = perron / math.sqrt(math.fsum(perron * perron))
    # v = mant 2^(exp - 53) exactly, so v^2 = mant^2 / 2^shift
    frac, exp = np.frexp(v)
    v2 = np.ldexp(frac, 53).astype(np.int64).astype(object) ** 2
    shift = 2 * (53 - exp)
    (dim_a, mult_a), (dim_m, mult_m) = e.row_basis.numbers, e.col_basis.numbers
    dn = d**n
    num = v2 * dn
    den = (dim_m * mult_m) << shift
    o_coeffs, c_coeffs = _sqrt_ratio(num, den), _ratio(num, den)
    bad = np.isinf(o_coeffs) | np.isinf(c_coeffs)
    if bad.any():
        name = f"o_mu, c_mu at mu={_label(e.col_basis.rows[bad.argmax()].tolist())}"
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}")
    p_coeffs = _sqrt_ratio(
        (dn * dn * mult_a)[e.parent] * v2[e.child],
        (n * dim_a)[e.parent] * (mult_m * mult_m << shift)[e.child],
    )
    bad = np.isinf(p_coeffs)
    if bad.any():
        k = int(bad.argmax())
        alpha = _label(e.row_basis.rows[e.parent[k]].tolist())
        mu = _label(e.col_basis.rows[e.child[k]].tolist())
        name = f"p_mu(alpha) at alpha={alpha}, mu={mu}"
        raise ArithmeticError(f"{name} exceeds double range at N={n}, d={d}")
    return OptimalSolution(e, eigenpair, v, p_coeffs, o_coeffs, c_coeffs)


def sqrt_measurement_fidelity(e: IncidenceEdges) -> float:
    """Fidelity of the maximally entangled resource with square-root measurement.

    The Rayleigh quotient ||R w||^2 / d^2 of the teleportation matrix R^T R
    of e with the unit vector w_mu = sqrt(d_mu m_mu / d^n), one gather over
    the edges; so it is not above the optimal fidelity, up to a few ulp of
    rounding: at d >= N from d ~ 10^9 on, the true value lies within an ulp
    of the optimum N/d^2, and the rounded roots and their sum can land 1-2
    ulp above it.
    Each w_mu is the square root of an exact integer ratio, so nothing
    overflows at large n.
    """
    n, d = e.col_basis.n, e.col_basis.d
    _check_nd(n, d)
    dims, mults = e.col_basis.numbers
    w = _sqrt_ratio(dims * mults, d**n)
    rw = np.bincount(e.parent, weights=w[e.child], minlength=len(e.row_basis))
    return _over_d2(math.fsum(rw * rw), d)


def _pow(base: list[float], exponent: np.ndarray) -> np.ndarray:
    """base ** exponent elementwise by Python's float pow, which has libm's bits
    (numpy's SIMD power kernels can differ by an ulp) and raises OverflowError
    past double range."""
    return np.array(list(map(pow, base, exponent.tolist())), dtype=np.float64)


def _fsum_runs(terms: np.ndarray, stops: list[int]) -> np.ndarray:
    """math.fsum of each run of terms, the runs ending at the ascending stops."""
    t = terms.tolist()
    return np.array([math.fsum(t[a:b]) for a, b in zip([0, *stops], stops)], dtype=np.float64)


def general_povm_fidelity(
    e: IncidenceEdges, z: float | np.ndarray, y: float | np.ndarray
) -> float:
    """Fidelity of the POVM family with per-parent weight z and exponent y, at
    the cell of the edge list e; z and y are numbers or float arrays over
    e.row_basis.

    For each parent alpha the family contributes
    z(alpha) * c(alpha, y) * tr[rho(alpha)^(1 - 1/y)] with
    c(alpha, y) = (1/d) sum_mu lam^(-1/y) m_mu / m_alpha and
    tr[rho(alpha)^(1-1/y)] = sum_mu lam^(1-1/y) d_mu m_alpha; the total is
    divided by d^(n+1).  z = 1, y = 2 reproduces the square-root measurement.
    With lam = gamma/d^n, each parent's term carries d^(n (2/y - 1)), which is
    1 at y = 2, times the exact integer ratios m_mu/m_alpha and d_mu m_alpha/d^n.
    Each sum over mu is one math.fsum over the parent's run of the edge list;
    a power or product beyond double range is an ArithmeticError; z < 0, z
    infinite, y = 0 or a NaN is a ValueError (y = +-inf is the large-y limit).
    """
    n, d = e.col_basis.n, e.col_basis.d
    num, den = protocol_eigenvalues(e)
    rows = len(e.row_basis)
    z = np.broadcast_to(np.asarray(z, dtype=np.float64), rows)
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), rows)
    with np.errstate(invalid="ignore"):  # NaN compares False
        bad = ~(z >= 0) | (z == np.inf) | (y == 0) | np.isnan(y)
    if bad.any():
        i = int(bad.argmax())
        alpha = _label(e.row_basis.rows[i].tolist())
        zi, yi = float(z[i]), float(y[i])
        if not zi >= 0:
            raise ValueError(f"weight z({alpha}) must be nonnegative, got {zi}")
        if zi == math.inf:
            raise ValueError(f"weight z({alpha}) must be finite, got inf")
        if yi == 0:
            raise ValueError(f"exponent y({alpha}) must be nonzero")
        raise ValueError(f"exponent y({alpha}) must be a number, got nan")
    (_, mult_a), (dim_m, mult_m) = e.row_basis.numbers, e.col_basis.numbers
    gamma = (num / den).tolist()  # each the correctly rounded quotient
    gamma_c = _pow(gamma, (-1.0 / y)[e.parent])
    gamma_tr = _pow(gamma, (1.0 - 1.0 / y)[e.parent])
    scale = _pow([float(d)] * rows, n * (2.0 / y - 1.0))
    stops = np.cumsum(np.bincount(e.parent, minlength=rows)).tolist()
    with np.errstate(over="raise"):
        c_terms = gamma_c * (mult_m[e.child] / mult_a[e.parent]).astype(np.float64)
        tr_terms = gamma_tr * (dim_m[e.child] * mult_a[e.parent] / d**n).astype(np.float64)
        c_val = _fsum_runs(c_terms, stops) / float(d)
        tr_val = _fsum_runs(tr_terms, stops)
        terms = z * c_val * tr_val * scale
    return math.fsum(terms.tolist()) / d


def lower_bound_fidelity(n: int, d: int) -> float:
    """Fidelity lower bound of the non-optimised entangled resource: N/(d^2+N-1)."""
    _check_nd(n, d)
    return n / (d * d + n - 1)


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
    optimal = dominant_eigenpair(e, tol, max_iter)
    return {
        "N": n,
        "d": d,
        "f_lower": lower,
        "f_sqrt_ent": entangled,
        "f_opt": _over_d2(optimal.radius, d),
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
