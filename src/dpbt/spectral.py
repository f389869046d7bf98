"""Spectral radius and Perron eigenvector of the teleportation matrices.

`dominant_eigenpair` is the one dispatch between three routes: an exact
closed form when every diagram height fits (d >= N), the tridiagonal cosine
closed form at d = 2, and a normalised power iteration on the incidence edge
list, M_F w = R^T (R w), for everything in between.  The character table
provides an exact integer diagonalisation of the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import character_matrix
from .diagrams import DiagramBasis, YoungDiagram, enumerate_diagrams, irrep_dim
from .telemat import incidence_edges

__all__ = [
    "SpectralResult",
    "PowerIterationError",
    "dominant_eigenpair",
    "power_iteration",
    "closed_form_full",
    "closed_form_d2",
    "spectrum_via_characters",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its diagram-indexed Perron eigenvector.

    The Perron vector is sum-normalised with strictly positive entries;
    `residual` is the last successive-normaliser difference (0 for closed
    forms).
    """

    radius: float
    basis: DiagramBasis
    perron: tuple[float, ...]
    iterations: int
    residual: float
    method: str  # "closed_dgeN" | "closed_d2" | "power"

    def perron_entry(self, mu: YoungDiagram) -> float:
        return self.perron[self.basis.index(mu)]


class PowerIterationError(RuntimeError):
    """Power iteration did not converge; `last` holds the final iterate."""

    def __init__(self, message: str, last: SpectralResult):
        super().__init__(message)
        self.last = last


def power_iteration(
    n: int,
    d: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Spectral radius and Perron vector of the teleportation matrix at (n, d).

    From the uniform positive start, iterate v <- M_F w, w <- v / sum(v) and
    stop once two successive normalisers differ by less than tol; the
    normaliser then estimates the radius and w the Perron vector.  Each
    product is R^T (R w), two gathers over the incidence edge list.  M_F is
    primitive (positive diagonal, connected), so the iteration converges.
    The sums use numpy's pairwise summation, so runs are deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = incidence_edges(n, d)
    rows, size = len(e.row_basis), len(e.col_basis)
    w = np.full(size, 1.0 / size)
    s_prev: float | None = None
    s = 0.0
    diff = math.inf
    for it in range(1, max_iter + 1):
        u = np.bincount(e.parent, weights=w[e.child], minlength=rows)
        v = np.bincount(e.child, weights=u[e.parent], minlength=size)
        s = float(v.sum())
        w = v / s
        if s_prev is not None:
            diff = abs(s - s_prev)
            if diff < tol:
                return SpectralResult(s, e.col_basis, tuple(w), it, diff, "power")
        s_prev = s
    last = SpectralResult(s, e.col_basis, tuple(w), max_iter, diff, "power")
    raise PowerIterationError(
        f"no convergence after {max_iter} iterations (last diff {diff:.3e})", last
    )


def dominant_eigenpair(
    n: int,
    d: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Perron eigenpair of the teleportation matrix with heights <= d.

    d >= n: the exact full-matrix closed form.  d = 2: radius
    4 cos^2(pi/(n+2)) and Perron entry sin((n+1-2k) pi/(n+2)) on the diagram
    [n-k, k] (sum-normalised).  Otherwise: the power iteration.
    """
    if d >= n:
        return closed_form_full(n)
    if d == 2:
        basis = enumerate_diagrams(n, 2)
        x = [math.sin((2 * mu.rows[0] - n + 1) * math.pi / (n + 2)) for mu in basis]
        total = math.fsum(x)
        perron = tuple(v / total for v in x)
        return SpectralResult(closed_form_d2(n)[0], basis, perron, 0, 0.0, "closed_d2")
    return power_iteration(n, d, tol, max_iter)


def closed_form_full(n: int) -> SpectralResult:
    """Exact dominant eigenpair of the full matrix (any d >= n).

    The radius is n and the Perron vector is proportional to the irrep
    dimensions.
    """
    if n < 1:
        raise ValueError("port count must be >= 1")
    basis = enumerate_diagrams(n)
    dims = [irrep_dim(mu) for mu in basis]
    total = sum(dims)
    perron = tuple(x / total for x in dims)
    return SpectralResult(float(n), basis, perron, 0, 0.0, "closed_dgeN")


def closed_form_d2(n: int) -> list[float]:
    """All eigenvalues of the integer d=2 matrix, sorted descending.

    The d=2 matrix is tridiagonal and its eigenvalues are 4 cos^2(k pi/(N+2))
    for k = 1..(N//2 + 1).  (The factor 4 rescales to the integer matrix; the
    division by d^2 happens exactly once, in the protocol layer.)
    """
    if n < 1:
        raise ValueError("port count must be >= 1")
    t = n // 2 + 1
    return [4.0 * math.cos(math.pi * k / (n + 2)) ** 2 for k in range(1, t + 1)]


def spectrum_via_characters(n: int) -> dict[int, int]:
    """Exact integer diagonalisation of the full matrix by character columns.

    Verifies R^T (R T(C)) = k T(C) for every class C with k fixed points,
    in exact integers on the incidence edge list, then returns {eigenvalue k:
    number of classes with k fixed points}.  The eigenvalues are 0..n-2 and
    n, with n-1 absent.  Any failure of the exact identity is a hard error.
    """
    e = incidence_edges(n)
    table = character_matrix(n)
    if e.col_basis.entries != table.basis.entries:
        raise AssertionError("diagram bases of the matrix and the table disagree")
    edges = list(zip(e.parent.tolist(), e.child.tolist()))
    multiplicities: dict[int, int] = {}
    for j, cls in enumerate(table.classes):
        k = cls.fixed_points
        col = table.column(j)
        r_col = [0] * len(e.row_basis)
        for p, c in edges:
            r_col[p] += col[c]
        product = [0] * len(col)
        for p, c in edges:
            product[c] += r_col[p]
        if product != [k * x for x in col]:
            raise ArithmeticError(
                f"character column {cls.label()} is not an eigenvector with "
                f"eigenvalue {k} for N={n}"
            )
        multiplicities[k] = multiplicities.get(k, 0) + 1
    expected = set(range(0, n - 1)) | {n}
    if set(multiplicities) != expected:
        raise ArithmeticError(
            f"spectrum {sorted(multiplicities)} != expected {sorted(expected)} for N={n}"
        )
    return multiplicities
