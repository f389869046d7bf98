"""Young-diagram combinatorics for the symmetric group and Schur-Weyl duality.

Diagrams are integer partitions; they label the irreps of S(N) and index the
rows and columns of every matrix built downstream.  Every list of them takes a
height cap d >= 1, and any d >= N lists every diagram of N.  A DiagramBasis
holds its diagrams as one read-only integer array of rows, zero padded; a
single diagram is a row of that array, or the tuple of its positive rows (the
form its label prints, () for the empty diagram).
Dimension and multiplicity arithmetic is exact and shares one kernel over a
whole array of rows: for the k rows of a diagram and l_i = mu_i + k - 1 - i,
one Vandermonde product V = prod_{i<j} (l_i - l_j) gives both the Frobenius
formula for the S(N) dimension and the Weyl formula for the Schur-Weyl
multiplicity.  It works column by column on the diagrams of each height, at
O(k^2) array operations per height.  The values overflow 64-bit integers near
N = 30, so the results are numpy object arrays of arbitrary-width Python
integers.  DiagramBasis.numbers is the one entry point: a diagram's d_mu and
m_mu are read at its place in a basis, at the basis's own cap, which no
diagram of the basis is taller than.  Floats appear only in the spectral and
protocol layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "DiagramBasis",
    "enumerate_diagrams",
    "partition_counts",
]


def _label(rows: Sequence[int]) -> str:
    """Bracketed text form of a diagram's rows used in CSV/JSON output and
    messages, e.g. "[3,1]"; zero rows are left out."""
    return "[" + ",".join(str(r) for r in rows if r) + "]"


@lru_cache(maxsize=None)
def _partition_rows(m: int, parts: int) -> np.ndarray:
    """Partitions of m into at most `parts` <= m parts, one per row of a
    read-only array of the narrowest unsigned dtype that holds m, zero
    padded to `parts` columns.

    Rows are in strongly decreasing lexicographic order: one block per first
    part f, from m down, each block f followed by the partitions of m - f
    whose first part is at most f (a suffix of that ordered list).
    """
    dtype = np.min_scalar_type(m)
    if parts <= 2:
        first = np.arange(m, (m - 1) // max(parts, 1), -1, dtype=dtype)
        out = np.stack([first, m - first], axis=1)[:, :parts]
    else:
        blocks = []
        # a first part below ceil(m / parts) leaves more than the other rows hold
        for f in range(m, (m - 1) // parts, -1):
            rest = _partition_rows(m - f, min(parts - 1, m - f))
            # rows of rest with first part <= f: all of them when f >= m - f,
            # else a suffix, since rest[:, 0] is decreasing
            start = 0 if 2 * f >= m else len(rest) - np.searchsorted(rest[::-1, 0], f, "right")
            block = np.zeros((len(rest) - start, parts), dtype=dtype)
            block[:, 0] = f
            block[:, 1 : 1 + rest.shape[1]] = rest[start:]
            blocks.append(block)
        out = np.concatenate(blocks)
    out.flags.writeable = False
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of an unsigned array whose byte order is the
    reverse of the lexicographic order of the rows: complemented big-endian
    words viewed as one np.void each, so sorting and searchsorted compare
    rows exactly at any width and any value."""
    words = np.ascontiguousarray(~rows, dtype=rows.dtype.newbyteorder(">"))
    return words.view(np.dtype((np.void, words.itemsize * rows.shape[1]))).reshape(-1)


@dataclass(frozen=True, eq=False)
class DiagramBasis:
    """Ordered basis of all diagrams with n boxes and height <= d.

    The order is strongly decreasing lexicographic starting at the single-row
    diagram.  Any d >= n lists every diagram.  `rows` holds the diagrams as a
    read-only array of the narrowest unsigned dtype that holds n, one
    zero-padded row each, min(n, d) columns wide; `numbers` builds the exact
    d_mu and m_mu on first use.
    """

    n: int
    d: int
    rows: np.ndarray

    @cached_property
    def numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only _frobenius_weyl(self.rows, self.d), in basis order."""
        out = _frobenius_weyl(self.rows, self.d)
        for x in out:
            x.flags.writeable = False
        return out

    @cached_property
    def _keys(self) -> np.ndarray:
        return _row_keys(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def search(self, rows: np.ndarray) -> np.ndarray:
        """Positions in this basis of the diagrams given as rows of the same
        width; every row must be one of the basis."""
        if not self.rows.shape[1]:
            return np.zeros(len(rows), dtype=np.intp)
        return np.searchsorted(self._keys, _row_keys(rows.astype(self.rows.dtype, copy=False)))

    def labels(self) -> tuple[str, ...]:
        return tuple(map(_label, self.rows.tolist()))


def _row_tuples(basis: DiagramBasis) -> list[tuple[int, ...]]:
    """Each diagram of the basis as the tuple of its positive rows, in basis order."""
    return [tuple(r for r in row if r) for row in basis.rows.tolist()]


def enumerate_diagrams(n: int, d: int) -> DiagramBasis:
    """All diagrams with n boxes and height <= d, canonically ordered."""
    if n < 0:
        raise ValueError("box count must be >= 0")
    if d < 1:
        raise ValueError("height cap must be >= 1")
    return DiagramBasis(n, d, _partition_rows(n, min(n, d)))


def partition_counts(n: int, d: int) -> list[int]:
    """len(enumerate_diagrams(m, d)) for m = 0..n, by coin change over the part
    sizes 1..min(n, d) (conjugation maps height <= d to parts <= d)."""
    if n < 0:
        raise ValueError("box count must be >= 0")
    if d < 1:
        raise ValueError("height cap must be >= 1")
    counts = [1] + [0] * n
    for part in range(1, min(n, d) + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


_comb = np.frompyfunc(math.comb, 2, 1)


def _product(factors: np.ndarray, top: int) -> np.ndarray:
    """Exact product along each row of a 2-D int64 array with entries in
    0..top, as an object array of Python ints: as many columns at a time as
    stay below 2^62 are multiplied in int64, then each group in Python ints."""
    per = 62 // max(top, 1).bit_length()
    out = factors[:, :per].prod(axis=1).astype(object)
    for start in range(per, factors.shape[1], per):
        out = out * factors[:, start : start + per].prod(axis=1)
    return out


def _frobenius_weyl(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact d_mu and m_mu of zero-padded rows none taller than d, as object
    arrays of Python ints in row order; DiagramBasis.numbers is its one caller.

    The diagrams are taken by height k, over their k positive rows only.  Over
    the pairs i < j < k, V = prod (mu_i - mu_j + j - i) is the Vandermonde
    product of l_i = mu_i + k - 1 - i, and c = prod (mu_i + j - i) =
    prod_i l_i! / mu_i!.  Then d_mu = V prod_i C(mu_0 + ... + mu_i, mu_i) / c
    (the Frobenius formula N! V / prod_i l_i!), and m_mu =
    V prod_i C(mu_i + d - 1 - i, mu_i) / c (the Weyl formula: the pairs of rows
    within the diagram give V over prod_{i<k} i!, the pairs with the empty rows
    k..d-1 the rest).  V and c are products of small integers, and nothing of
    size N! or d! is formed.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = rows.shape[1]
    top = int(rows[:, :1].max(initial=0)) + width  # bounds every factor
    # the pairs i < j ordered by j, so those within height k come first
    j, i = np.nonzero(np.arange(width)[:, None] > np.arange(width))
    gap = j - i
    dims = np.empty(len(rows), dtype=object)
    mults = np.empty(len(rows), dtype=object)
    heights = np.count_nonzero(rows, axis=1)
    by_height = np.argsort(heights, kind="stable")
    ends = np.cumsum(np.bincount(heights)).tolist()
    for k, (start, end) in enumerate(zip([0] + ends, ends)):
        if start == end:
            continue
        at = by_height[start:end]
        mu = rows[at, :k]
        pairs = k * (k - 1) // 2
        upper = mu[:, i[:pairs]]
        v = _product(upper - mu[:, j[:pairs]] + gap[:pairs], top)
        c = _product(upper + gap[:pairs], top)
        dims[at] = v * _comb(mu.cumsum(axis=1)[:, 1:], mu[:, 1:]).prod(axis=1) // c
        # Python ints, since d itself may exceed int64
        mults[at] = v * _comb(mu + (d - 1 - np.arange(k, dtype=object)), mu).prod(axis=1) // c
    return dims, mults
