"""Spectral radius and Perron eigenvector of the teleportation matrices.

`dominant_eigenpair(e)` takes one cell, the edge list e from
telemat.incidence_edges(n, d), and dispatches between an exact closed form
when every diagram height fits (d >= N), the tridiagonal cosine closed form
at d = 2, and the certified solver `lanczos_perron` for everything in
between.  The solver multiplies by M_F w = R^T (R w) on e and returns an
enclosure [lo, hi] of the radius whose relative width is at most tol.  The
full spectrum of the matrix at d >= N is the closed form
`closed_form_spectrum`, counted from partition numbers; the dense oracle
proves it from the character table, whose classes, the cycle types of S(N),
`cycle_types` lists as weakly decreasing tuples of cycle lengths, the same
form as a diagram's rows.

The solver keeps its Lanczos basis while it fits LANCZOS_BASIS_BYTES (32 MiB),
so it can add up to that much memory to a solve; past the budget the rest of
the basis is regenerated, one product per vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, _row_tuples, enumerate_diagrams, partition_counts
from .telemat import IncidenceEdges

__all__ = [
    "SpectralResult",
    "PowerIterationError",
    "dominant_eigenpair",
    "lanczos_perron",
    "closed_form_full",
    "closed_form_d2",
    "closed_form_spectrum",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000
# Smallest accepted tol.  |beta_k s_k| first falls to O(eps) * radius when
# the top Ritz pair converges; asked for less, the run goes on while ghost
# copies of that Ritz value appear (k = 786 at (100, 3) with tol 1e-30, against
# 122 at 1e-15), and a bracket much narrower than this is out of reach in double
# precision: at tol 1e-16, (100, 3) spent 10^6 products at rounding level.
LANCZOS_FLOOR = 1e-14
# Bytes of Lanczos vectors q_0, q_1, ... kept for the Ritz vector; the rest are
# regenerated by running the recurrence again.  (300, 3) keeps all of its 309
# vectors of 7651 entries (19 MB); (1000, 3) keeps the first 50 of 994.
LANCZOS_BASIS_BYTES = 32 * 2**20


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Spectral radius with its enclosure and diagram-indexed Perron vector.

    The Perron vector is a float64 array in the order of `basis`,
    sum-normalised with strictly positive entries.  Up to rounding,
    lo <= true radius <= hi: lo is the Rayleigh quotient of the Perron vector
    and equals `radius`, hi is its largest Collatz-Wielandt ratio
    (M_F w)_mu / w_mu; the closed forms have lo = hi = radius.
    `iterations` counts the products by M_F (0 for closed forms).
    """

    radius: float
    basis: DiagramBasis
    perron: np.ndarray
    iterations: int
    lo: float
    hi: float
    method: str  # "closed_dgeN" | "closed_d2" | "lanczos"


class PowerIterationError(RuntimeError):
    """The solver ran out of products; `last` holds the last positive iterate
    with its (uncertified) bracket."""

    def __init__(self, message: str, last: SpectralResult):
        super().__init__(message)
        self.last = last


def lanczos_perron(
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Perron eigenpair of the teleportation matrix M_F = R^T R of e, with
    a certified enclosure hi - lo <= tol * hi of its radius.

    Every product M_F w = R^T (R w) is two gathers over e.  Three stages:
    1. Lanczos from the normalised uniform vector (three-term recurrence, no
       reorthogonalisation) until the top Ritz pair (theta, s) of the k x k
       tridiagonal has |beta_k s_k| < tol theta, checked
       every max(5, k // 8) steps;
    2. the Ritz vector x = sum_j s_j q_j from the q_j kept in stage 1, as
       many as fit LANCZOS_BASIS_BYTES; the q_j past that are regenerated
       from the last two kept ones by running the same recurrence again
       with the stored coefficients (Parlett, The Symmetric Eigenvalue
       Problem, ch. 13), one product each.  Memory is O(size) plus at most
       the budget; radius, bracket and Perron vector are bit-identical for
       any budget, and only the product count changes;
    3. positive power steps from w = |x| / sum |x| until w > 0 and the
       Collatz-Wielandt ratios r = M_F w / w have max r - min r <= tol max r
       (Meyer, Matrix Analysis, 8.3).  M_F is symmetric, nonnegative and
       irreducible, so the Rayleigh quotient of w (a weighted mean of r) and
       max r enclose the radius; the Lanczos stages only supply a start
       whose tail the positive steps make accurate entry by entry.
    max_iter bounds the products of all three stages; running out raises
    PowerIterationError with the last positive iterate; tol below LANCZOS_FLOOR
    is a ValueError.
    """
    if not LANCZOS_FLOOR <= tol < 1:
        raise ValueError(f"tol must satisfy {LANCZOS_FLOOR} <= tol < 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rows, size = len(e.row_basis), len(e.col_basis)
    products = 0
    last = None  # (w, M_F w) of the latest positive iterate

    def result(w: np.ndarray, v: np.ndarray) -> SpectralResult:
        lo, hi = float(w @ v / (w @ w)), float(np.max(v / w))
        return SpectralResult(lo, e.col_basis, w / w.sum(), products, lo, hi, "lanczos")

    def matvec(w: np.ndarray) -> np.ndarray:
        nonlocal products
        if products == max_iter:
            res = result(*last)
            raise PowerIterationError(
                f"no certified radius within {max_iter} products by M_F "
                f"(bracket [{res.lo!r}, {res.hi!r}], tol {tol!r})",
                res,
            )
        products += 1
        u = np.bincount(e.parent, weights=w[e.child], minlength=rows)
        return np.bincount(e.child, weights=u[e.parent], minlength=size)

    # 1. Lanczos: the tridiagonal (alphas, betas) and the basis while it fits
    start = np.full(size, 1.0 / math.sqrt(size))
    keep = LANCZOS_BASIS_BYTES // start.nbytes
    basis = [start]
    q_prev, q, b = np.zeros(size), start, 0.0
    alphas: list[float] = []
    betas: list[float] = []
    check, amax = 5, 0.0
    while True:
        mq = matvec(q)
        if last is None:
            last = (q, mq)
        a = float(q @ mq)
        v = mq - a * q - b * q_prev
        b = math.sqrt(v @ v)
        alphas.append(a)
        amax = max(amax, a)
        k = len(alphas)
        if k == check or b < tol * amax:  # theta >= max alpha: converged
            t = np.zeros((k, k))
            t.flat[:: k + 1] = alphas
            t.flat[1 :: k + 1] = betas
            t.flat[k :: k + 1] = betas
            theta, s = np.linalg.eigh(t)
            theta, s = theta[-1], s[:, -1]
            if abs(b * s[-1]) < tol * theta:
                break
            check = k + max(5, k // 8)
        betas.append(b)
        q_prev, q = q, v / b
        if len(basis) < keep:
            basis.append(q)

    # 2. Ritz vector: the kept q_j, then the rest regenerated from the last two
    m = len(basis)
    x = s[0] * start
    for j in range(1, m):
        x += s[j] * basis[j]
    q_prev, b = (basis[-2], betas[m - 2]) if m > 1 else (np.zeros(size), 0.0)
    q = basis[-1]
    for j in range(m - 1, k - 1):
        v = matvec(q) - alphas[j] * q - b * q_prev
        b = betas[j]
        q_prev, q = q, v / b
        x += s[j + 1] * q

    # 3. Positive power steps to a Collatz-Wielandt bracket
    w = np.abs(x)
    w /= w.sum()
    while True:
        v = matvec(w)
        if w.min() > 0:
            last = (w, v)
            r = v / w
            hi = r.max()
            if hi - r.min() <= tol * hi:
                return result(w, v)
        w = v / v.sum()


def dominant_eigenpair(
    e: IncidenceEdges,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Perron eigenpair of the teleportation matrix R^T R of the edge list e.

    d >= n: the exact full-matrix closed form.  d = 2: radius
    4 cos^2(pi/(n+2)), the first of closed_form_d2(n), and Perron entry
    sin((n+1-2k) pi/(n+2)) on the diagram [n-k, k] (sum-normalised).
    Otherwise: the certified lanczos_perron.
    """
    basis = e.col_basis
    n, d = basis.n, basis.d
    if d >= n:
        return closed_form_full(basis)
    if d == 2:
        x = [math.sin((2 * r - n + 1) * math.pi / (n + 2)) for r in basis.rows[:, 0].tolist()]
        perron = np.array(x) / math.fsum(x)
        radius = _d2_eigenvalues(n, 1)[0]
        return SpectralResult(radius, basis, perron, 0, radius, radius, "closed_d2")
    return lanczos_perron(e, tol, max_iter)


def closed_form_full(basis: DiagramBasis) -> SpectralResult:
    """Exact dominant eigenpair of the full matrix (basis with any d >= n).

    The radius is n and the Perron vector is proportional to the irrep
    dimensions.
    """
    n = basis.n
    if n < 1 or basis.d < n:
        raise ValueError(f"need every diagram of n >= 1 boxes, got n={n}, d={basis.d}")
    dims = basis.numbers[0]
    perron = (dims / dims.sum()).astype(np.float64)
    return SpectralResult(float(n), basis, perron, 0, float(n), float(n), "closed_dgeN")


def closed_form_d2(n: int) -> list[float]:
    """All eigenvalues of the integer d=2 matrix, sorted descending.

    The d=2 matrix is tridiagonal and its eigenvalues are 4 cos^2(k pi/(N+2))
    for k = 1..(N//2 + 1), given exactly where they are integers (3, 2, 1 and
    0; see _NIVEN).  (The factor 4 rescales to the integer matrix; the
    division by d^2 happens exactly once, in the protocol layer.)
    """
    if n < 1:
        raise ValueError("port count must be >= 1")
    return _d2_eigenvalues(n, n // 2 + 1)


# By Niven's theorem 4 cos^2(pi k / m) is rational only where k / m is 1/6,
# 1/4, 1/3 or 1/2 (k <= m / 2), and there it is the integer below: m / k -> value.
_NIVEN = {6: 3.0, 4: 2.0, 3: 1.0, 2: 0.0}


def _d2_eigenvalues(n: int, count: int) -> list[float]:
    """4 cos^2(k pi/(n+2)) for k = 1..count (count <= n//2 + 1), exact where
    it is an integer."""
    m = n + 2
    values = [4.0 * math.cos(math.pi * k / m) ** 2 for k in range(1, count + 1)]
    for q, exact in _NIVEN.items():
        if m % q == 0 and m // q <= count:
            values[m // q - 1] = exact
    return values


def closed_form_spectrum(n: int) -> dict[int, int]:
    """Eigenvalue multiplicities {k: count} of the full matrix (any d >= n).

    The class column of the character table with k fixed points has eigenvalue
    k (oracle.character_spectrum checks this exactly), so k has multiplicity
    p(n-k) - p(n-k-1), the partitions of n - k without a part 1 (zero for k = n-1).
    """
    if n < 1:
        raise ValueError("port count must be >= 1")
    p = partition_counts(n, n)
    return {n: 1} | {k: p[n - k] - p[n - k - 1] for k in range(n - 2, -1, -1)}


def cycle_types(n: int) -> list[tuple[int, ...]]:
    """The conjugacy classes of S(n), each the weakly decreasing tuple of its
    cycle lengths: fixed points descending, then by parts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sorted(_row_tuples(enumerate_diagrams(n, n)), key=lambda c: (-c.count(1), c))


def cycle_label(parts: tuple[int, ...]) -> str:
    """Text form "1^k 2^x ..." of a cycle type: each cycle length, ascending,
    with its multiplicity."""
    counts = Counter(parts)
    return " ".join(f"{length}^{counts[length]}" for length in sorted(counts))
