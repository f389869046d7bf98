"""Exact characters of the symmetric group via the Murnaghan-Nakayama rule.

Conjugacy classes are cycle types.  Characters are computed recursively by
border-strip removal, with strips located through first-column hook lengths
(beta numbers) and the largest remaining cycle consumed first, memoised on
(diagram, remaining cycles).  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagrams import DiagramBasis, YoungDiagram, enumerate_diagrams

__all__ = [
    "CycleType",
    "CharacterMatrix",
    "cycle_types",
    "character",
    "character_matrix",
]


@dataclass(frozen=True, order=True)
class CycleType:
    """Conjugacy class of S(N): a multiset of cycle lengths, stored weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(sorted((int(p) for p in self.parts), reverse=True))
        object.__setattr__(self, "parts", parts)
        if parts and parts[-1] < 1:
            raise ValueError(f"cycle lengths must be positive: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def fixed_points(self) -> int:
        return sum(1 for p in self.parts if p == 1)

    @property
    def counts(self) -> dict[int, int]:
        """Map from cycle length to its multiplicity."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def label(self) -> str:
        """Text form "1^k 2^x ..." listing only nonzero multiplicities."""
        c = self.counts
        return " ".join(f"{length}^{c[length]}" for length in sorted(c))

    def __str__(self) -> str:
        return self.label()


def cycle_types(n: int) -> tuple[CycleType, ...]:
    """All conjugacy classes of S(n), fixed points descending, then lexicographic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    classes = [
        CycleType(tuple(p for p in parts if p)) for parts in enumerate_diagrams(n).rows.tolist()
    ]
    classes.sort(key=lambda c: (-c.fixed_points, c.parts))
    return tuple(classes)


def character(mu: YoungDiagram, cycle: CycleType) -> int:
    """Character of the irrep mu evaluated on the class `cycle`, exact."""
    if mu.boxes != cycle.n:
        raise ValueError(f"diagram has {mu.boxes} boxes but class permutes {cycle.n}")
    return _mn(mu.rows, cycle.parts)


@lru_cache(maxsize=None)
def _mn(rows: tuple[int, ...], parts: tuple[int, ...]) -> int:
    if not parts:
        return 1 if not rows else 0
    t, rest = parts[0], parts[1:]
    k = len(rows)
    beta = [rows[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        # parity of the strip height = count of beta numbers jumped over
        crossings = sum(1 for c in beta if nb < c < b)
        nbeta = sorted((bset - {b}) | {nb}, reverse=True)
        nrows = tuple(x - (k - 1 - j) for j, x in enumerate(nbeta))
        nrows = tuple(r for r in nrows if r > 0)
        total += (-1) ** crossings * _mn(nrows, rest)
    return total


@dataclass(frozen=True)
class CharacterMatrix:
    """Square table chi_mu(C) over canonical diagrams (rows) and classes (columns)."""

    n: int
    basis: DiagramBasis
    classes: tuple[CycleType, ...]
    entries: tuple[tuple[int, ...], ...]


def character_matrix(n: int) -> CharacterMatrix:
    """Full character table of S(n), rows in canonical diagram order."""
    basis = enumerate_diagrams(n)
    classes = cycle_types(n)
    entries = tuple(tuple(character(mu, c) for c in classes) for mu in basis)
    return CharacterMatrix(n, basis, classes, entries)
