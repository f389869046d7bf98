"""The teleportation matrix and the branching-graph matrices tied to it.

The teleportation matrix over the diagrams of N has diagonal entries counting
single-box-removal parents and off-diagonal 1 for pairs related by moving one
box.  Restricting to heights <= d gives the principal submatrix governing
local dimension d; any d >= N keeps the full matrix.  Every matrix here
derives from one representation, the parent-child edge list of the 0/1
incidence matrix R: the Gram matrix of its columns is the teleportation
matrix, and the Gram matrix of its rows obeys a recursion that steps N down
by one.  The dense views of an edge list (R, M_F = R^T R and H = R R^T) are
exact int64 arrays, each one scatter over the edges: no integer matmul,
which skips BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, enumerate_diagrams

__all__ = [
    "IncidenceEdges",
    "incidence_edges",
    "teleportation_matrix",
    "incidence_matrix",
    "gram_H",
]


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


def incidence_edges(n: int, d: int) -> IncidenceEdges:
    """Edge list of R for the diagrams of n with height <= d."""
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


def _gram(key: np.ndarray, member: np.ndarray, size: int) -> np.ndarray:
    """Exact int64 Gram matrix over `size` members: the edges sharing a key
    form a group, and each group adds 1 to every (a, b) pair of its members.

    One scatter over all pairs of edges within a group: an edge's partners
    are the edges of its key's run in key order.
    """
    order = np.argsort(key, kind="stable")
    key, member = key[order], member[order]
    counts = np.bincount(key)
    starts = np.cumsum(counts) - counts
    group = counts[key]  # the group size of each edge, its partner count
    edge = np.repeat(np.arange(len(key)), group)
    offset = np.arange(len(edge)) - np.repeat(np.cumsum(group) - group, group)
    partner = starts[key[edge]] + offset
    flat = np.bincount(member[edge] * size + member[partner], minlength=size * size)
    return flat.astype(np.int64, copy=False).reshape(size, size)


def teleportation_matrix(e: IncidenceEdges) -> np.ndarray:
    """Teleportation matrix M_F = R^T R over the column basis of e, exact int64.

    Diagonal at mu counts all parents of mu (removing a box never increases
    height, so no extra filter applies); off-diagonal entries are 1 for pairs
    sharing a parent, which two distinct diagrams do at most once.  An edge
    list with d >= n gives the full matrix.
    """
    return _gram(e.parent, e.child, len(e.col_basis))


def incidence_matrix(e: IncidenceEdges) -> np.ndarray:
    """0/1 parent-child matrix R of e, exact int64: rows are the diagrams of
    n-1, columns the diagrams of n; entry 1 iff the column diagram grows
    from the row diagram by one box and fits the height cap."""
    r = np.zeros((len(e.row_basis), len(e.col_basis)), dtype=np.int64)
    r[e.parent, e.child] = 1
    return r


def gram_H(e: IncidenceEdges) -> np.ndarray:
    """Gram matrix of the rows of the incidence matrix: H = R R^T over the row
    basis of e, exact int64."""
    return _gram(e.child, e.parent, len(e.row_basis))
