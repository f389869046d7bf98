"""The teleportation matrix and the branching-graph matrices tied to it.

The teleportation matrix over the diagrams of N has diagonal entries counting
single-box-removal parents and off-diagonal 1 for pairs related by moving one
box.  Restricting to heights <= d gives the principal submatrix governing
local dimension d.  Every matrix here derives from one representation, the
parent-child edge list of the 0/1 incidence matrix R: the Gram matrix of its
columns is the teleportation matrix, and the Gram matrix of its rows obeys a
recursion that steps N down by one.  All entries are exact integers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, enumerate_diagrams

__all__ = [
    "LabeledIntMatrix",
    "IncidenceEdges",
    "incidence_edges",
    "teleportation_matrix",
    "incidence_matrix",
    "gram_H",
    "to_csv",
    "to_json_dict",
]

KINDS = ("MF", "R", "H")


@dataclass(frozen=True)
class LabeledIntMatrix:
    """Exact-integer matrix whose rows and columns are indexed by diagram bases."""

    row_basis: DiagramBasis
    col_basis: DiagramBasis
    entries: tuple[tuple[int, ...], ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if len(self.entries) != len(self.row_basis):
            raise ValueError("entry rows do not match the row basis")
        if any(len(row) != len(self.col_basis) for row in self.entries):
            raise ValueError("entry columns do not match the column basis")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))

@dataclass(frozen=True)
class IncidenceEdges:
    """Parent-child edge list of the 0/1 incidence matrix R.

    Edge k joins row parent[k] (a diagram of n-1) to column child[k] (a
    diagram of n that grows from it by one box within the height cap).
    Edges are sorted by (parent, child); a parent has at most d+1 children.
    """

    row_basis: DiagramBasis
    col_basis: DiagramBasis
    parent: np.ndarray
    child: np.ndarray


def incidence_edges(n: int, d: int | None = None) -> IncidenceEdges:
    """Edge list of R for the diagrams of n with height <= d (None: no cap)."""
    if n < 1:
        raise ValueError("port count must be >= 1")
    row_basis = enumerate_diagrams(n - 1, d)
    col_basis = enumerate_diagrams(n, d)
    width = col_basis.rows.shape[1]
    rows = np.zeros((len(row_basis), width), dtype=col_basis.rows.dtype)
    rows[:, : row_basis.rows.shape[1]] = row_basis.rows
    parent, child = [], []
    # a box fits in row k when k = 0 or row k is shorter than row k-1 (a
    # zero row below the last one starts a new row within the cap)
    for k in range(width):
        fits = np.flatnonzero(rows[:, k] < rows[:, k - 1] if k else np.ones(len(rows), bool))
        grown = rows[fits]
        grown[:, k] += 1
        parent.append(fits)
        child.append(col_basis.search(grown))
    # a box in a lower row gives a lexicographically smaller child, so a
    # stable sort by parent keeps each parent's children in basis order
    parent, child = np.concatenate(parent), np.concatenate(child)
    order = np.argsort(parent, kind="stable")
    return IncidenceEdges(row_basis, col_basis, parent[order], child[order])


def _gram(
    basis: DiagramBasis, key: np.ndarray, member: np.ndarray, groups: int, kind: str
) -> LabeledIntMatrix:
    """Exact Gram matrix over `basis`: edges sharing a key form a group, and
    each group adds 1 to every (a, b) pair of its members."""
    members: list[list[int]] = [[] for _ in range(groups)]
    for k, i in zip(key.tolist(), member.tolist()):
        members[k].append(i)
    m = len(basis)
    g = [[0] * m for _ in range(m)]
    for group in members:
        for a in group:
            for b in group:
                g[a][b] += 1
    return LabeledIntMatrix(basis, basis, tuple(map(tuple, g)), kind)


def teleportation_matrix(n: int, d: int | None = None) -> LabeledIntMatrix:
    """Teleportation matrix over the diagrams of n with height <= d: R^T R.

    Diagonal at mu counts all parents of mu (removing a box never increases
    height, so no extra filter applies); off-diagonal entries are 1 for pairs
    sharing a parent, which two distinct diagrams do at most once.  d=None
    (or d >= n) gives the full matrix.
    """
    e = incidence_edges(n, d)
    return _gram(e.col_basis, e.parent, e.child, len(e.row_basis), "MF")


def incidence_matrix(n: int, d: int | None = None) -> LabeledIntMatrix:
    """0/1 parent-child matrix: rows are diagrams of n-1, columns diagrams of n.

    Entry 1 iff the column diagram grows from the row diagram by one box and
    fits the height cap.
    """
    e = incidence_edges(n, d)
    rows = [[0] * len(e.col_basis) for _ in e.row_basis]
    for p, c in zip(e.parent.tolist(), e.child.tolist()):
        rows[p][c] = 1
    return LabeledIntMatrix(e.row_basis, e.col_basis, tuple(map(tuple, rows)), "R")


def gram_H(n: int, d: int | None = None) -> LabeledIntMatrix:
    """Gram matrix of the rows of the incidence matrix: R R^T, exact."""
    e = incidence_edges(n, d)
    return _gram(e.row_basis, e.child, e.parent, len(e.col_basis), "H")


def to_csv(m: LabeledIntMatrix) -> str:
    """CSV text with a header row/column of diagram labels and integer entries."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(m.col_basis.labels()))
    for label, row in zip(m.row_basis.labels(), m.entries):
        writer.writerow([label] + list(row))
    return buf.getvalue()


def to_json_dict(m: LabeledIntMatrix) -> dict:
    """JSON-ready form: {kind, N, d, basis, entries} (split bases for R).

    N is the port count of the cell; H = R R^T lives on the diagrams of N-1,
    one box fewer than N.
    """
    if m.row_basis == m.col_basis:
        basis = list(m.row_basis.labels())
    else:
        basis = {"rows": list(m.row_basis.labels()), "cols": list(m.col_basis.labels())}
    return {
        "kind": m.kind,
        "N": m.col_basis.n + (m.kind == "H"),
        "d": m.col_basis.d,
        "basis": basis,
        "entries": [list(row) for row in m.entries],
    }
