"""Spectral radius and Perron eigenvector of the teleportation matrices.

`dominant_eigenpair(e)` takes one cell, the edge list e from
telemat.incidence_edges(n, d), and dispatches between an exact closed form
when every diagram height fits (d >= N or no cap), the tridiagonal cosine
closed form at d = 2, and a normalised power iteration M_F w = R^T (R w) on
e for everything in between.  The full spectrum of the uncapped matrix is
the closed form `closed_form_spectrum`, counted from partition numbers; the
dense oracle proves it from the character table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, YoungDiagram, irrep_dim, partition_counts
from .telemat import IncidenceEdges

__all__ = [
    "SpectralResult",
    "PowerIterationError",
    "dominant_eigenpair",
    "power_iteration",
    "closed_form_full",
    "closed_form_d2",
    "closed_form_spectrum",
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
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Spectral radius and Perron vector of the teleportation matrix R^T R.

    From the uniform positive start, iterate v <- M_F w, w <- v / sum(v) and
    stop once two successive normalisers differ by less than tol; the
    normaliser then estimates the radius and w the Perron vector.  Each
    product is R^T (R w), two gathers over the edge list e.  M_F is
    primitive (positive diagonal, connected), so the iteration converges.
    The sums use numpy's pairwise summation, so runs are deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Perron eigenpair of the teleportation matrix R^T R of the edge list e.

    d >= n or no cap: the exact full-matrix closed form.  d = 2: radius
    4 cos^2(pi/(n+2)) and Perron entry sin((n+1-2k) pi/(n+2)) on the diagram
    [n-k, k] (sum-normalised).  Otherwise: the power iteration.
    """
    basis = e.col_basis
    n, d = basis.n, basis.d
    if d is None or d >= n:
        return closed_form_full(basis)
    if d == 2:
        x = [math.sin((2 * mu.rows[0] - n + 1) * math.pi / (n + 2)) for mu in basis]
        total = math.fsum(x)
        perron = tuple(v / total for v in x)
        return SpectralResult(closed_form_d2(n)[0], basis, perron, 0, 0.0, "closed_d2")
    return power_iteration(e, tol, max_iter)


def closed_form_full(basis: DiagramBasis) -> SpectralResult:
    """Exact dominant eigenpair of the full matrix (basis with any d >= n).

    The radius is n and the Perron vector is proportional to the irrep
    dimensions.
    """
    n = basis.n
    if n < 1 or (basis.d is not None and basis.d < n):
        raise ValueError(f"need every diagram of n >= 1 boxes, got n={n}, d={basis.d}")
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


def closed_form_spectrum(n: int) -> dict[int, int]:
    """Eigenvalue multiplicities {k: count} of the full matrix (any d >= n).

    The class column of the character table with k fixed points has eigenvalue
    k (oracle.character_spectrum checks this exactly), so k has multiplicity
    p(n-k) - p(n-k-1), the partitions of n - k without a part 1 (zero for k = n-1).
    """
    if n < 1:
        raise ValueError("port count must be >= 1")
    p = partition_counts(n)
    return {n: 1} | {k: p[n - k] - p[n - k - 1] for k in range(n - 2, -1, -1)}
