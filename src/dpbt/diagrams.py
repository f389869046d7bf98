"""Young-diagram combinatorics for the symmetric group and Schur-Weyl duality.

Diagrams are integer partitions; they label the irreps of S(N) and index the
rows and columns of every matrix built downstream.  A DiagramBasis holds its
diagrams as one read-only integer array of rows, zero padded, and builds
YoungDiagram objects only when they are asked for (labels come from the rows).
Dimension and multiplicity arithmetic is exact and shares one kernel: for the
k rows of a diagram and l_i = mu_i + k - 1 - i, one Vandermonde product
V = prod_{i<j} (l_i - l_j) gives both the Frobenius formula for the S(N)
dimension and the Weyl formula for the Schur-Weyl multiplicity, at O(k^2)
integer operations per diagram.  The values overflow 64-bit integers near
N = 30, so everything here stays in arbitrary-width Python integers.  Floats
appear only in the spectral and protocol layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, starmap
from operator import add, sub
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "YoungDiagram",
    "DiagramBasis",
    "EMPTY_DIAGRAM",
    "enumerate_diagrams",
    "partition_counts",
    "add_box",
    "remove_box",
    "box_move_related",
    "irrep_dim",
    "multiplicity",
    "dims_and_multiplicities",
    "dim_mult_products",
]


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """Integer partition: weakly decreasing positive row lengths.

    The empty diagram () is valid; it is the unique parent of [1] and its
    dimension and multiplicity are both defined as 1.
    """

    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for i, r in enumerate(rows):
            if r <= 0:
                raise ValueError(f"row lengths must be positive: {rows}")
            if i > 0 and rows[i - 1] < r:
                raise ValueError(f"row lengths must be weakly decreasing: {rows}")

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    @property
    def height(self) -> int:
        return len(self.rows)

    def conjugate_rows(self) -> tuple[int, ...]:
        """Column lengths, i.e. the transposed partition."""
        if not self.rows:
            return ()
        cols = [0] * self.rows[0]
        for r in self.rows:
            for j in range(r):
                cols[j] += 1
        return tuple(cols)

    def label(self) -> str:
        """Bracketed text form used in CSV/JSON output, e.g. "[3,1]"."""
        return _label(self.rows)

    @classmethod
    def from_label(cls, text: str) -> "YoungDiagram":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"not a diagram label: {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return cls(())
        return cls(tuple(int(part) for part in inner.split(",")))

    def __str__(self) -> str:
        return self.label()


EMPTY_DIAGRAM = YoungDiagram(())


def _label(rows: Sequence[int]) -> str:
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
    diagram.  d=None means no height cap.  `rows` holds the diagrams as a
    read-only array of the narrowest unsigned dtype that holds n, one
    zero-padded row each, min(n, d) columns wide; `entries` builds the
    YoungDiagram objects on first use.
    """

    n: int
    d: int | None
    rows: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagramBasis):
            return NotImplemented
        return (self.n, self.d, self.rows.shape) == (other.n, other.d, other.rows.shape) and (
            self.rows.tobytes() == other.rows.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    @cached_property
    def entries(self) -> tuple[YoungDiagram, ...]:
        return tuple(YoungDiagram(tuple(r for r in row if r)) for row in self.rows.tolist())

    @cached_property
    def _keys(self) -> np.ndarray:
        return _row_keys(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[YoungDiagram]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> YoungDiagram:
        return self.entries[i]

    def __contains__(self, mu: object) -> bool:
        # the basis lists every partition of n up to its width
        return (
            isinstance(mu, YoungDiagram) and mu.boxes == self.n and mu.height <= self.rows.shape[1]
        )

    def index(self, mu: YoungDiagram) -> int:
        if mu not in self:
            raise KeyError(f"{mu} is not in this basis (n={self.n}, d={self.d})")
        return int(self.search(np.array([mu.rows + (0,) * (self.rows.shape[1] - mu.height)]))[0])

    def search(self, rows: np.ndarray) -> np.ndarray:
        """Positions in this basis of the diagrams given as rows of the same
        width; every row must be one of the basis."""
        if not self.rows.shape[1]:
            return np.zeros(len(rows), dtype=np.intp)
        return np.searchsorted(self._keys, _row_keys(rows.astype(self.rows.dtype, copy=False)))

    def labels(self) -> tuple[str, ...]:
        return tuple(map(_label, self.rows.tolist()))


def enumerate_diagrams(n: int, d: int | None = None) -> DiagramBasis:
    """All diagrams with n boxes and height <= d, canonically ordered."""
    if n < 0:
        raise ValueError("box count must be >= 0")
    if d is not None and d < 1:
        raise ValueError("height cap must be >= 1")
    return DiagramBasis(n, d, _partition_rows(n, n if d is None else min(n, d)))


def partition_counts(n: int, d: int | None = None) -> list[int]:
    """len(enumerate_diagrams(m, d)) for m = 0..n, by coin change over the part
    sizes 1..min(n, d) (conjugation maps height <= d to parts <= d)."""
    if n < 0:
        raise ValueError("box count must be >= 0")
    if d is not None and d < 1:
        raise ValueError("height cap must be >= 1")
    counts = [1] + [0] * n
    for part in range(1, (n if d is None else min(n, d)) + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


def add_box(alpha: YoungDiagram, d: int | None = None) -> frozenset[YoungDiagram]:
    """Diagrams obtained from alpha by adding a single box, heights <= d."""
    rows = alpha.rows
    grown = []
    for i in range(len(rows)):
        if i == 0 or rows[i] < rows[i - 1]:
            grown.append(tuple(r + 1 if j == i else r for j, r in enumerate(rows)))
    grown.append(rows + (1,))
    return frozenset(
        YoungDiagram(g) for g in grown if d is None or len(g) <= d
    )


def remove_box(mu: YoungDiagram) -> frozenset[YoungDiagram]:
    """Diagrams obtained from mu by removing a single box.

    The count equals the number of distinct row lengths of mu.
    """
    if mu.boxes == 0:
        raise ValueError("cannot remove a box from the empty diagram")
    rows = mu.rows
    parents = set()
    for i in range(len(rows)):
        if i == len(rows) - 1 or rows[i] > rows[i + 1]:
            shrunk = tuple(r - 1 if j == i else r for j, r in enumerate(rows))
            parents.add(YoungDiagram(tuple(r for r in shrunk if r > 0)))
    return frozenset(parents)


def box_move_related(mu: YoungDiagram, nu: YoungDiagram) -> bool:
    """True iff mu != nu and one is obtained from the other by moving one box.

    Equivalent to the two diagrams sharing a single-box-removal parent.
    """
    if mu.boxes != nu.boxes:
        raise ValueError(f"box counts differ: {mu.boxes} vs {nu.boxes}")
    if mu == nu:
        return False
    return bool(remove_box(mu) & remove_box(nu))


def _frobenius_weyl(rows: Sequence[int], d: int | None) -> tuple[int, int, int]:
    """Exact (a, b, c) with d_mu = a // c and m_mu = b // c for the positive
    rows of mu, sharing one Vandermonde product.

    With k rows, l_i = mu_i + k - 1 - i and V = prod_{i<j} (l_i - l_j):
    c = prod_i l_i! / mu_i!, a = V prod_i C(mu_0 + ... + mu_i, mu_i) (so a / c
    is the Frobenius formula N! V / prod_i l_i!), and b = V prod_i
    C(mu_i + d - 1 - i, mu_i) (so b / c is the Weyl formula V prod_i
    (mu_i + d - 1 - i)! / ((d - 1 - i)! l_i!): the pairs of rows within the
    diagram give V over prod_{i<k} i!, the pairs with the empty rows k..d-1
    the rest).  b = 0 when mu is taller than d, or d is None.  Every factor
    is a binomial or a product of fewer than k terms, so nothing of size N!
    is formed, and d_mu m_mu = a b // c^2 is one exact division.
    """
    k = len(rows)
    below = range(k - 1, -1, -1)  # k - 1 - i
    shifted = list(map(add, rows, below))
    v = math.prod(starmap(sub, combinations(shifted, 2)))
    c = math.prod(map(math.perm, shifted, below))
    a = v * math.prod(map(math.comb, accumulate(rows), rows))
    if d is None or k > d:
        return a, 0, c
    return a, v * math.prod(map(math.comb, map(add, rows, range(d - 1, d - 1 - k, -1)), rows)), c


def _basis_kernel(basis: DiagramBasis, d: int | None) -> Iterator[tuple[int, int, int]]:
    """_frobenius_weyl of every diagram of the basis, in basis order."""
    for row in basis.rows.tolist():
        yield _frobenius_weyl(row[: len(row) - row.count(0)], d)


def dims_and_multiplicities(
    basis: DiagramBasis, d: int | None
) -> tuple[list[int], list[int]]:
    """Exact d_mu and m_mu (at local dimension d; all 0 for d=None) of every
    diagram of the basis, in basis order."""
    if d is not None and d < 1:
        raise ValueError("local dimension must be >= 1")
    dims, mults = [], []
    for a, b, c in _basis_kernel(basis, d):
        dims.append(a // c)
        mults.append(b // c)
    return dims, mults


def dim_mult_products(basis: DiagramBasis, d: int) -> list[int]:
    """Exact d_mu m_mu of every diagram of the basis, in basis order."""
    if d < 1:
        raise ValueError("local dimension must be >= 1")
    return [a * b // (c * c) for a, b, c in _basis_kernel(basis, d)]


def irrep_dim(mu: YoungDiagram) -> int:
    """Dimension of the S(N) irrep labelled by mu, by the Frobenius formula
    N! prod_{i<j} (l_i - l_j) / prod_i l_i!."""
    a, _, c = _frobenius_weyl(mu.rows, None)
    return a // c


def multiplicity(mu: YoungDiagram, d: int) -> int:
    """Schur-Weyl multiplicity of mu in (C^d)^(boxes of mu).

    Counts semistandard tableaux of shape mu with entries in 1..d by the Weyl
    dimension formula, prod_{i<j<d} (mu_i - mu_j + j - i) / (j - i), exactly;
    0 whenever the diagram is taller than d.
    """
    if d < 1:
        raise ValueError("local dimension must be >= 1")
    _, b, c = _frobenius_weyl(mu.rows, d)
    return b // c
