"""Young-diagram combinatorics for the symmetric group and Schur-Weyl duality.

Diagrams are integer partitions; they label the irreps of S(N) and index the
rows and columns of every matrix built downstream.  Dimension and multiplicity
arithmetic is exact and costs O(height^2) integer operations per diagram: the
Frobenius formula for the S(N) dimension and the Weyl dimension formula for
the Schur-Weyl multiplicity, each written as binomials of the row lengths.
The values overflow 64-bit integers near N = 30, so everything here stays in
arbitrary-width Python integers.  Floats appear only in the spectral and
protocol layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterator

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
        return "[" + ",".join(map(str, self.rows)) + "]"

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


def _partition_tuples(n: int, max_part: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts <= max_part and at most max_len parts.

    Yielded in strongly decreasing lexicographic order, largest first.
    """
    if n == 0:
        yield ()
        return
    # a first part below ceil(n / max_len) leaves more than the other rows hold
    for first in range(min(n, max_part), (n - 1) // max_len, -1):
        for rest in _partition_tuples(n - first, first, max_len - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class DiagramBasis:
    """Ordered basis of all diagrams with n boxes and height <= d.

    The order is strongly decreasing lexicographic starting at the single-row
    diagram; heights weakly increase along it.  d=None means no height cap.
    """

    n: int
    d: int | None
    entries: tuple[YoungDiagram, ...]
    _pos: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._pos.update({mu: i for i, mu in enumerate(self.entries)})

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[YoungDiagram]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> YoungDiagram:
        return self.entries[i]

    def __contains__(self, mu: object) -> bool:
        return mu in self._pos

    def index(self, mu: YoungDiagram) -> int:
        try:
            return self._pos[mu]
        except KeyError:
            raise KeyError(f"{mu} is not in this basis (n={self.n}, d={self.d})") from None

    def labels(self) -> tuple[str, ...]:
        return tuple(mu.label() for mu in self.entries)


def enumerate_diagrams(n: int, d: int | None = None) -> DiagramBasis:
    """All diagrams with n boxes and height <= d, canonically ordered."""
    if n < 0:
        raise ValueError("box count must be >= 0")
    if d is not None and d < 1:
        raise ValueError("height cap must be >= 1")
    max_len = n if d is None else min(n, d)
    entries = tuple(YoungDiagram(rows) for rows in _partition_tuples(n, n, max_len))
    return DiagramBasis(n, d, entries)


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


def _shifted_rows(rows: tuple[int, ...]) -> tuple[list[int], int]:
    """Strictly decreasing l_i = rows[i] + k - 1 - i (k rows) and their
    Vandermonde product over i < j of l_i - l_j."""
    k = len(rows)
    shifted = [r + k - 1 - i for i, r in enumerate(rows)]
    return shifted, math.prod(a - b for a, b in combinations(shifted, 2))


@lru_cache(maxsize=None)
def irrep_dim(mu: YoungDiagram) -> int:
    """Dimension of the S(N) irrep labelled by mu, by the Frobenius formula.

    N! prod_{i<j} (l_i - l_j) / prod_i l_i!, written as the multinomial of the
    rows, prod_i C(mu_0 + ... + mu_i, mu_i), times the Vandermonde product
    over prod_i l_i! / mu_i!.
    """
    rows = mu.rows
    k = len(rows)
    shifted, vandermonde = _shifted_rows(rows)
    num = vandermonde * math.prod(
        math.comb(top, r) for top, r in zip(accumulate(rows), rows)
    )
    return num // math.prod(math.perm(l, k - 1 - i) for i, l in enumerate(shifted))


@lru_cache(maxsize=None)
def multiplicity(mu: YoungDiagram, d: int) -> int:
    """Schur-Weyl multiplicity of mu in (C^d)^(boxes of mu).

    Counts semistandard tableaux of shape mu with entries in 1..d by the Weyl
    dimension formula, prod_{i<j<d} (mu_i - mu_j + j - i) / (j - i), exactly;
    0 whenever the diagram is taller than d.  The pairs within the k rows of
    mu give the Vandermonde product over prod_{i<j<k} (j - i); the empty rows
    k..d-1 give C(mu_i + d - 1 - i, mu_i) / C(mu_i + k - 1 - i, mu_i) for
    each row i.
    """
    if d < 1:
        raise ValueError("local dimension must be >= 1")
    rows = mu.rows
    k = len(rows)
    if k > d:
        return 0
    _, vandermonde = _shifted_rows(rows)
    num = vandermonde * math.prod(
        math.comb(r + d - 1 - i, r) for i, r in enumerate(rows)
    )
    den = math.prod(math.factorial(i) for i in range(k)) * math.prod(
        math.comb(r + k - 1 - i, r) for i, r in enumerate(rows)
    )
    return num // den
