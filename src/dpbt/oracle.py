"""Brute-force operator verification at small port counts.

Everything the fast modules compute through diagram combinatorics is rebuilt
here directly in the computational basis of (C^d)^(N+1): permutation
operators (index maps of that basis), Young projectors, the port operator and
its eigenprojectors, the measurement operators, the optimal resource operator
and the dual certificate.  Each formula is then checked by plain linear algebra;
the character-table spectrum of the full teleportation matrix, in exact integers.
run_checks builds each operator of one (N, d) once, in a DenseCell that also
holds the fast path's one edge list, and runs its 29 checks on that cell.
The Young projectors take d_mu as the character at the identity, from the
character table, so they share no code with the exact d_mu, m_mu kernel; the
eigenvalues, traces and ranks the checks compare with read those integers
from the cell, one kernel call per basis.

Every operator is real in this basis, so Hermiticity is symmetry.  Each is
built from factor permutations and partial transposes, so it commutes with
U^(x N) (x) conj(U) for diagonal U (with U^(x k) on k factors for the Young
projectors, the class sums, the partial trace and the partial transpose of
the port operator) and maps each weight sector
(basis states with equal digit counts over the ports, minus the last digit;
see _sectors) into itself.  So no operator is ever stored as a d^k-square
array: a SectorOperator is one flat float64 array of its sector blocks, over
a layout shared by every operator of one (d^k, d, last).  Sums and norms are
one numpy call on the flat arrays, products one stacked matmul per block
size, and eigensolves go through LAPACK on the stacked blocks
(numpy.linalg.eigvalsh where only the spectrum is read, numpy.linalg.eigh for
the inverse square root); LAPACK shares no code with the fast spectral path.
Every index map that places an entry (the permutations of the class sums and
of the commutation check, P (x) 1, the port maps, the partial trace and the
partial transpose) is checked, in exact integers, to keep each entry inside
one sector.

The Young projectors are character sums of the class sums of S(N), each
class scattered in chunked bincount calls.  Each F_mu(alpha) is C C^T with
C = (P_mu (x) 1) [E_a P_alpha]_a / sqrt(gamma), one block of C per sector of
its rows; the direct fidelities and the sandwiches by P (x) P+ are gathers
over the port maps E_a.

A cell is refused (CapExceededError) when one operator on its N+1 factors
would store more than MAX_ENTRIES sector entries, or the class sums of S(N)
would scatter more than MAX_SCATTER = N! d^N index-map entries.  Both bounds
admit the DEFAULT_CHECK_CELLS, (4,4), (9,2), (5,4), (6,3) and (7,3); they
refuse (10,2), (6,4) and (8,3).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import CycleType, character, character_matrix, cycle_types
from .diagrams import YoungDiagram, add_box, dims_and_multiplicities, enumerate_diagrams
from .protocol import (
    OptimalSolution,
    general_povm_fidelity,
    optimal_solution,
    protocol_eigenvalues,
    sqrt_measurement_fidelity,
)
from .spectral import closed_form_spectrum
from .telemat import IncidenceEdges, incidence_edges

__all__ = [
    "MAX_ENTRIES",
    "MAX_SCATTER",
    "DEFAULT_CHECK_CELLS",
    "CapExceededError",
    "CheckResult",
    "DenseCell",
    "SectorOperator",
    "permutation_operator",
    "transposition",
    "young_projector",
    "partial_transpose_last",
    "dense_cell",
    "direct_fidelity",
    "primal_constraint_check",
    "dual_witness_check",
    "character_spectrum",
    "run_checks",
]

# sector entries stored by one operator on the N+1 factors of a cell (32 MB of
# float64), and index-map entries N! d^N scattered by the class sums of S(N)
MAX_ENTRIES = 2**22
MAX_SCATTER = 2**30

DEFAULT_CHECK_CELLS = (
    (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (6, 2), (5, 3), (7, 2)
)

# bound on trace, eigenvalue and fidelity residuals; operator identities use 1e-10, 1e-12
_TOL = 1e-8

# index-map entries per bincount call of the class sums
_CHUNK = 2**16


class CapExceededError(RuntimeError):
    """A construction lies above MAX_ENTRIES or MAX_SCATTER."""


def _require_scatter(n: int, d: int) -> None:
    """Refuse class sums of S(n) on n factors that scatter more than
    MAX_SCATTER = n! d^n entries; the logarithm decides first, so that a huge
    d^n is never formed."""
    bits = (math.lgamma(n + 1) + n * math.log(d)) / math.log(2)
    if bits > 40 or math.factorial(n) * d**n > MAX_SCATTER:
        raise CapExceededError(
            f"the class sums of S({n}) at d={d} scatter N! d^N = 2^{bits:.1f} entries, "
            f"above the cap MAX_SCATTER = 2^{MAX_SCATTER.bit_length() - 1}"
        )


def _entry_count(k: int, d: int) -> int:
    """Sector entries of an operator on k factors: the sum of multinomial(k; c)^2
    over the digit counts c, taken by partition shape.  The same for last = 1
    and last = -1, which the partial transpose maps onto each other."""
    total = 0
    for row in enumerate_diagrams(k, d).rows.tolist():
        parts = [p for p in row if p]
        shape = math.factorial(k) // math.prod(map(math.factorial, parts))
        places = math.perm(d, len(parts)) // math.prod(map(math.factorial, Counter(parts).values()))
        total += shape * shape * places
    return total


def _require_entries(k: int, d: int) -> None:
    """Refuse operators on k factors that store more than MAX_ENTRIES sector
    entries; every state lies in a block, so d^k above it is refused at once."""
    entries = _entry_count(k, d) if k * math.log2(d) <= 40 else None
    if entries is None or entries > MAX_ENTRIES:
        size = f"{entries}" if entries is not None else f"at least d^k = 2^{k * math.log2(d):.1f}"
        raise CapExceededError(
            f"an operator on {k} factors at d={d} stores {size} sector entries, "
            f"above the cap MAX_ENTRIES = {MAX_ENTRIES}"
        )


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # cached: every caller shares it
    return arr


def _factors(dim: int, d: int) -> int:
    """k with dim = d^k."""
    return round(math.log(dim, d)) if dim > 1 else 0


@functools.lru_cache(maxsize=None)
def _digits(k: int, d: int) -> np.ndarray:
    """(k, d^k) digits of the basis states of k factors, most significant first."""
    places = d ** np.arange(k - 1, -1, -1)
    return _readonly(np.arange(d**k)[None, :] // places[:, None] % d)


@functools.lru_cache(maxsize=None)
def _sectors(dim: int, d: int, last: int) -> list[np.ndarray]:
    """Weight sectors of the basis of (C^d)^k, dim = d^k, as one (sectors,
    size) index array per sector size, sizes ascending.

    A state's weight is the digit counts of its first k-1 factors plus last
    times the count of its last digit: last = -1 labels the eigenspaces of
    U^(x k-1) (x) conj(U) for diagonal U, last = 1 those of U^(x k).  Each
    weight is keyed by sorted digits: with last = 1 all k of them; with
    last = -1 the first k-1 with one copy of the last digit struck out (the
    sentinel d takes its place and ends the key), or, if it has no copy, the
    first k-1 followed by the last digit.
    """
    k = _factors(dim, d)
    if k == 0:
        return [_readonly(np.zeros((1, 1), dtype=np.intp))]
    digits = _digits(k, d)
    if last == 1 or k == 1:
        key = np.sort(digits, axis=0)
    else:
        head, tail = np.sort(digits[:-1], axis=0), digits[-1]
        match = head == tail
        struck = match.any(axis=0)
        first = np.argmax(match, axis=0)
        head[first[struck], np.flatnonzero(struck)] = d
        key = np.vstack([np.sort(head, axis=0), np.where(struck, d, tail)])
    code = (d + 1) ** np.arange(k - 1, -1, -1) @ key
    labels = np.unique(code, return_inverse=True)[1].ravel()
    sizes = np.bincount(labels)[labels]
    order = _readonly(np.lexsort((labels, sizes)))
    groups = np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)
    return [g.reshape(-1, sizes[g[0]]) for g in groups]


class _Layout:
    """Where the sector blocks of an operator on dim = d^k states sit in its
    flat array: the groups of _sectors(dim, d, last) end to end, each a stack
    of equal square blocks, each block row-major."""

    def __init__(self, dim: int, d: int, last: int):
        self.dim, self.d, self.last, self.k = dim, d, last, _factors(dim, d)
        self.groups = _sectors(dim, d, last)
        self.offsets = np.cumsum([0] + [g.size * g.shape[1] for g in self.groups]).tolist()
        self.size = self.offsets[-1]
        # per state: its sector, its place in the sector and the flat position
        # of the first entry of its row
        self.label = np.empty(dim, dtype=np.intp)
        self.pos = np.empty(dim, dtype=np.intp)
        self.base = np.empty(dim, dtype=np.intp)
        sector = 0
        for g, start in zip(self.groups, self.offsets):
            count, s = g.shape
            block = np.arange(count)[:, None]
            self.label[g] = sector + block
            self.pos[g] = np.arange(s)
            self.base[g] = start + s * (s * block + np.arange(s))
            sector += count
        self.diag = self.base + self.pos

    def blocks(self, data: np.ndarray) -> list[np.ndarray]:
        """The (count, s, s) views of each group's blocks in a flat array."""
        return [
            data[a:b].reshape(g.shape[0], g.shape[1], g.shape[1])
            for g, a, b in zip(self.groups, self.offsets, self.offsets[1:])
        ]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column state of every flat entry."""
        rows, cols = [], []
        for g in self.groups:
            count, s = g.shape
            rows.append(np.broadcast_to(g[:, :, None], (count, s, s)).ravel())
            cols.append(np.broadcast_to(g[:, None, :], (count, s, s)).ravel())
        return np.concatenate(rows), np.concatenate(cols)


@functools.lru_cache(maxsize=None)
def _layout(dim: int, d: int, last: int) -> _Layout:
    return _Layout(dim, d, last)


@dataclass(frozen=True, eq=False)
class SectorOperator:
    """A real operator on (C^d)^k that maps each weight sector into itself,
    stored as its sector blocks: data is one flat float64 array laid out by
    layout, shared by every operator of that (d^k, d, last) (see _sectors).

    +, -, scalar * and / act on data; @ multiplies block by block, one stacked
    matmul per block size; T transposes each block.
    """

    layout: _Layout
    data: np.ndarray

    __array_ufunc__ = None  # a numpy scalar times an operator defers to __rmul__

    def _data(self, other: SectorOperator) -> np.ndarray:
        if other.layout is not self.layout:
            raise ValueError("operators on different sector layouts")
        return other.data

    def __add__(self, other):
        if isinstance(other, int) and other == 0:  # the start of sum()
            return self
        return SectorOperator(self.layout, self.data + self._data(other))

    __radd__ = __add__

    def __sub__(self, other: SectorOperator) -> SectorOperator:
        return SectorOperator(self.layout, self.data - self._data(other))

    def __mul__(self, scalar) -> SectorOperator:
        return SectorOperator(self.layout, self.data * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> SectorOperator:
        return SectorOperator(self.layout, self.data / scalar)

    def __matmul__(self, other: SectorOperator) -> SectorOperator:
        out = np.empty_like(self.data)
        for a, b, o in zip(self.blocks(), self.layout.blocks(self._data(other)), self.layout.blocks(out)):
            np.matmul(a, b, out=o)
        return SectorOperator(self.layout, out)

    @property
    def T(self) -> SectorOperator:
        out = np.empty_like(self.data)
        for b, o in zip(self.blocks(), self.layout.blocks(out)):
            o[...] = b.transpose(0, 2, 1)
        return SectorOperator(self.layout, out)

    def blocks(self) -> list[np.ndarray]:
        return self.layout.blocks(self.data)

    def trace(self) -> float:
        return float(self.data[self.layout.diag].sum())


def _identity(layout: _Layout) -> SectorOperator:
    data = np.zeros(layout.size)
    data[layout.diag] = 1.0
    return SectorOperator(layout, data)


def _index(layout: _Layout, rows, cols, keep=None) -> np.ndarray:
    """Flat positions in layout of the entries (rows, cols), broadcast, and
    -1 where keep is False; ArithmeticError if a kept entry leaves its
    weight sector."""
    inside = layout.label[rows] == layout.label[cols]
    if not (inside if keep is None else inside | ~keep).all():
        raise ArithmeticError("an index map leaves its weight sectors")
    flat = layout.base[rows] + layout.pos[cols]
    return flat if keep is None else np.where(keep, flat, -1)


def _gather(src: SectorOperator, layout: _Layout, index: np.ndarray) -> SectorOperator:
    """The operator on layout whose flat entry i is the sum of the entries of
    src at index[i] (a row of index per entry, or one position); -1 reads 0."""
    values = np.append(src.data, 0.0)[index]  # -1 reads the appended zero
    return SectorOperator(layout, values.sum(axis=1) if index.ndim == 2 else values)


def transposition(i: int, j: int, k: int) -> tuple[int, ...]:
    """Permutation of 0..k-1 swapping positions i and j."""
    p = list(range(k))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _perm_indices(perms: np.ndarray, d: int) -> np.ndarray:
    """_perm_index of each row of perms, a (count, k) array: column digit j is
    row digit perm(j), so the column is sum_i digit_i d^(k-1-perm^-1(i)),
    one float matmul (exact below 2^53) for the whole stack."""
    k = perms.shape[1]
    places = float(d) ** (k - 1 - np.argsort(perms, axis=1))
    return (places @ _digits(k, d)).astype(np.intp)


def _perm_index(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Column of the single 1 in each row of V(perm) on len(perm) factors.

    Row digit i equals column digit perm^{-1}(i), so V @ x == x[index],
    x @ V == x[:, argsort(index)], and products with V are gathers.
    """
    return _perm_indices(np.array(perm, dtype=np.intp).reshape(1, -1), d)[0]


def permutation_operator(perm: tuple[int, ...], d: int) -> SectorOperator:
    """0/1 operator permuting tensor factors, stored by the digit-count
    sectors of its len(perm) factors, which it maps onto themselves.

    Factor i of the output carries what factor perm^{-1}(i) carried on input,
    so V(s) V(t) = V(s o t) with (s o t)(x) = s(t(x)).
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of 0..{k - 1}: {perm}")
    _require_entries(k, d)
    layout = _layout(d**k, d, 1)
    data = np.zeros(layout.size)
    data[_index(layout, np.arange(layout.dim), _perm_index(perm, d))] = 1.0
    return SectorOperator(layout, data)


def _permutations(k: int) -> np.ndarray:
    """Every permutation of 0..k-1, one per row: those of 0..m-1 with m put at
    each place in turn."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for m in range(k):
        perms = np.concatenate([np.insert(perms, j, m, axis=1) for j in range(m + 1)])
    return perms


def _cycle_classes(perms: np.ndarray) -> tuple[list[CycleType], np.ndarray]:
    """The cycle types met in perms, and the number of each row's type: a
    point on a cycle of length L comes back after L steps, and the k points'
    return times, as the base-(k+1) digits L c_L of one integer (c_L cycles of
    length L), name the cycle type."""
    k = perms.shape[1]
    length = np.zeros_like(perms)
    power = perms
    for step in range(1, k + 1):
        length[(power == np.arange(k, dtype=perms.dtype)) & (length == 0)] = step
        power = np.take_along_axis(perms, power, axis=1)
    code = np.zeros(len(perms), dtype=np.int64)
    for column in length.T:
        code += (k + 1) ** (column.astype(np.int64) - 1)
    keys, which = np.unique(code, return_inverse=True)
    classes = []
    for key in keys.tolist():
        points = [key // (k + 1) ** (size - 1) % (k + 1) for size in range(1, k + 1)]
        classes.append(CycleType(tuple(s for s, p in enumerate(points, 1) for _ in range(p // s))))
    return classes, which.ravel()


def _perm_table(n: int, d: int) -> dict[CycleType, SectorOperator]:
    """Class sums of S_n on n factors: the sum of V(s) over the permutations s
    of each cycle type, every index map checked to keep each sector and then
    scattered, a chunk of one type's permutations per bincount call."""
    layout = _layout(d**n, d, 1)
    if n == 0:
        return {CycleType(()): _identity(layout)}
    perms = _permutations(n)
    classes, which = _cycle_classes(perms)
    rows = np.arange(layout.dim)
    step = max(1, _CHUNK // layout.dim)
    table = {}
    for number, ctype in enumerate(classes):
        members = perms[which == number]
        counts = np.zeros(layout.size)
        for start in range(0, len(members), step):
            flat = _index(layout, rows, _perm_indices(members[start : start + step], d))
            counts += np.bincount(flat.ravel(), minlength=layout.size)
        table[ctype] = SectorOperator(layout, counts)
    return table


def young_projector(mu: YoungDiagram, d: int) -> SectorOperator:
    """Isotypic projector for mu on (C^d)^N: (dim_mu/N!) sum_s chi_mu(s) V(s).

    Characters of a class equal those of its inverses, so the class value is
    used directly, and dim_mu is the character at the identity.  Idempotent
    and Hermitian with trace d_mu * m_mu; the zero operator when the diagram
    is taller than d.
    """
    _require_scatter(mu.boxes, d)
    _require_entries(mu.boxes, d)
    return _young_projector(mu, d, _perm_table(mu.boxes, d))


def _young_projector(mu: YoungDiagram, d: int, table: dict[CycleType, SectorOperator]) -> SectorOperator:
    """young_projector, summing the characters of mu over table, the class
    sums of S_N."""
    n = mu.boxes
    if n == 0:
        return table[CycleType(())]
    acc = sum(character(mu, c) * table[c] for c in cycle_types(n))
    return acc * (character(mu, CycleType((1,) * n)) / math.factorial(n))


@functools.lru_cache(maxsize=None)
def _transpose_index(k: int, d: int, last: int) -> np.ndarray:
    """The partial transpose on the last factor, as a gather onto the layout
    of last from the layout of -last: entry ((x,l),(x',l')) reads
    ((x,l'),(x',l))."""
    rows, cols = _layout(d**k, d, last).entries()
    return _readonly(_index(_layout(d**k, d, -last), rows - rows % d + cols % d, cols - cols % d + rows % d))


def partial_transpose_last(op: SectorOperator) -> SectorOperator:
    """Transpose applied to the last tensor factor (of dimension d) only.  It
    maps the sectors of U^(x k-1) (x) conj(U) onto those of U^(x k), so the
    result is stored on the layout of the opposite last."""
    lay = op.layout
    return _gather(op, _layout(lay.dim, lay.d, -lay.last), _transpose_index(lay.k, lay.d, -lay.last))


@functools.lru_cache(maxsize=None)
def _trace_index(n: int, d: int) -> np.ndarray:
    """The partial trace over the last of N+1 factors, as a gather: entry
    (x, x') of N factors sums ((x,l),(x',l)) over l."""
    rows, cols = _layout(d**n, d, 1).entries()
    last = np.arange(d)
    return _readonly(_index(_layout(d ** (n + 1), d, -1), rows[:, None] * d + last, cols[:, None] * d + last))


@functools.lru_cache(maxsize=None)
def _port_indices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Per port a, the (d^(N-1), d) array of the basis states with digit i at
    port a and at the last factor, by the other digits r and i.  The port
    state of a is E_a E_a^T / d^N for the 0/1 map E_a: |r> -> sum_i |state(r, i)>;
    the d states of one r share the weight of r."""
    grid = np.arange(d ** (n + 1)).reshape((d,) * (n + 1))
    return tuple(_readonly(np.diagonal(grid, axis1=a, axis2=n).reshape(-1, d)) for a in range(n))


@functools.lru_cache(maxsize=None)
def _contraction_index(n: int, d: int, a: int) -> np.ndarray:
    """E_a^T A E_a for A on N+1 factors, as a gather onto N-1 factors: entry
    (r, r') sums A[state(r, i), state(r', j)] over i, j (see _port_indices).
    At the last port a = N-1 this contracts the last two factors with
    sum_i |ii> on both sides."""
    small = _layout(d ** (n - 1), d, 1)
    rows, cols = small.entries()
    idx = _port_indices(n, d)[a]
    flat = _index(_layout(d ** (n + 1), d, -1), idx[rows][:, :, None], idx[cols][:, None, :])
    return _readonly(flat.reshape(small.size, d * d))


@functools.lru_cache(maxsize=None)
def _lift_index(n: int, d: int) -> np.ndarray:
    """P (x) 1 on N+1 factors, as a gather from P on N factors: entry
    ((x,l),(x',l')) reads P[x, x'] where l = l', and 0 elsewhere."""
    rows, cols = _layout(d ** (n + 1), d, -1).entries()
    return _readonly(_index(_layout(d**n, d, 1), rows // d, cols // d, keep=rows % d == cols % d))


def _lift(p: SectorOperator, n: int, d: int) -> SectorOperator:
    return _gather(p, _layout(d ** (n + 1), d, -1), _lift_index(n, d))


@functools.lru_cache(maxsize=None)
def _expand_index(n: int, d: int) -> tuple[np.ndarray, ...]:
    """[E_1 P ... E_N P] for P on N-1 factors, split by the sector of its rows
    on N+1 factors: per group of that layout, the (count, s, N t) gather of
    each block's rows from P, columns (a, y) over the t states y of N-1
    factors with the block's weight, zero padded to the group's widest.
    (E_a P)[x, y] is P[r, y] where x = state(r, i) of port a, and 0 off port a."""
    big, small = _layout(d ** (n + 1), d, -1), _layout(d ** (n - 1), d, 1)
    ports = _port_indices(n, d)
    # the states y of each sector of the big layout, by their place in P's
    # blocks; the port states of y lie in that sector
    members = np.full((big.label.max() + 1, small.groups[-1].shape[1]), -1)
    for g in small.groups:
        members[big.label[ports[0][g[:, 0], 0]], : g.shape[1]] = g
    # the r of each big state on port a, -1 off port a
    inverse = np.full((n, big.dim), -1)
    for a, idx in enumerate(ports):
        inverse[a, idx] = np.arange(len(idx))[:, None]
    out = []
    for g in big.groups:
        ys = members[big.label[g[:, 0]]]
        ys = ys[:, : max(1, int((ys >= 0).sum(axis=1).max()))]
        rs = inverse[:, g]  # (n, count, s)
        keep = (rs[..., None] >= 0) & (ys[None, :, None, :] >= 0)
        flat = _index(small, rs[..., None], ys[None, :, None, :], keep=keep)
        out.append(_readonly(flat.transpose(1, 2, 0, 3).reshape(len(g), g.shape[1], -1)))
    return tuple(out)


def _f_operator(
    alpha: YoungDiagram, mu: YoungDiagram, projectors: dict, numbers: dict, d: int
) -> SectorOperator:
    """Port-operator eigenprojector F_mu(alpha) of parent alpha and child mu,
    reading P_alpha and P_mu from projectors and (d, m) of each from numbers.

    (1/gamma) P_mu [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] P_mu, acting on
    N+1 factors; idempotent with trace d_mu * m_alpha and eigenvalue gamma
    under the port operator.
    """
    n = mu.boxes
    (dim_a, mult_a), (dim_m, mult_m) = numbers[alpha], numbers[mu]
    gamma = n * mult_m * dim_a / (mult_a * dim_m)
    # V(a,N) (P_alpha x sum_i |ii>) = E_a V(pi) P_alpha, pi moving digit a of
    # the N-1 factors last, and P_alpha commutes with V(pi); so the sum is
    # sum_a E_a P_alpha E_a^T and F = C C^T, C = (P_mu x 1) [E_a P_alpha]_a / sqrt(gamma)
    lifted = _lift(projectors[mu], n, d)
    padded = np.append(projectors[alpha].data, 0.0)  # -1 reads the appended zero
    out = np.empty(lifted.layout.size)
    for p, idx, o in zip(lifted.blocks(), _expand_index(n, d), lifted.layout.blocks(out)):
        c = p @ padded[idx] / math.sqrt(gamma)
        np.matmul(c, c.transpose(0, 2, 1), out=o)
    return SectorOperator(lifted.layout, out)


def _port_states(n: int, d: int) -> list[SectorOperator]:
    """The port states sigma_a = E_a E_a^T / d^N (see _port_indices)."""
    layout = _layout(d ** (n + 1), d, -1)
    sigmas = []
    for idx in _port_indices(n, d):
        data = np.zeros(layout.size)
        data[_index(layout, idx[:, :, None], idx[:, None, :])] = 1 / d**n
        sigmas.append(SectorOperator(layout, data))
    return sigmas


def _pair_sandwich(p: SectorOperator, mat: SectorOperator) -> SectorOperator:
    """Q with kron(p, P+) mat kron(p, P+) = kron(Q, Ptilde+), for symmetric p
    on N-1 factors, P+ = Ptilde+ / d on the last two factors and
    Ptilde+ = sum_ij |ii><jj|: Q = p T p / d^2, T the contraction of mat with
    sum_i |ii> on both sides."""
    n, d = mat.layout.k - 1, mat.layout.d
    return p @ _gather(mat, p.layout, _contraction_index(n, d, n - 1)) @ p / d**2


@dataclass(frozen=True)
class DenseCell:
    """Every operator and fast-path input the checks at one (N, d) need, each
    built once; every operator a SectorOperator.

    edges: the fast path's edge list, incidence_edges(N, d), which every
    protocol call of the checks takes; pairs: its edges as (alpha, mu)
    diagram pairs, in edge order.  projectors: the Young projector of
    every diagram of N (the vanishing ones too) and of every diagram of N-1
    with height <= d; numbers: the exact (d_mu, m_mu) at d of each of those
    diagrams, one kernel call per basis.  family: F_mu(alpha) for each pair
    of the add_box(alpha, d) walk, parents in basis order and children by
    descending rows.  ports: the _port_indices; sigmas: the port states.
    solution: the optimal POVM coefficients and the Perron vector v.  povm:
    the optimal POVM element sum p_mu(alpha) F_mu(alpha) over the pairs the
    walk also has.  The port operator is d^N times the sum of the port states.
    """

    n: int
    d: int
    edges: IncidenceEdges
    pairs: list[tuple[YoungDiagram, YoungDiagram]]
    projectors: dict[YoungDiagram, SectorOperator]
    numbers: dict[YoungDiagram, tuple[int, int]]
    family: dict[tuple[YoungDiagram, YoungDiagram], SectorOperator]
    ports: list[np.ndarray]
    sigmas: list[SectorOperator]
    solution: OptimalSolution
    povm: SectorOperator


def dense_cell(n: int, d: int) -> DenseCell:
    """The DenseCell of (N, d); CapExceededError above MAX_SCATTER or MAX_ENTRIES."""
    _require_scatter(n, d)
    _require_entries(n + 1, d)
    edges = incidence_edges(n, d)
    full, parents = enumerate_diagrams(n), edges.row_basis
    table, sub_table = _perm_table(n, d), _perm_table(n - 1, d)
    projectors = {mu: _young_projector(mu, d, table) for mu in full}
    projectors.update({mu: _young_projector(mu, d, sub_table) for mu in parents})
    numbers = dict(zip(full, zip(*dims_and_multiplicities(full, d))))
    numbers.update(zip(parents, zip(*parents.numbers)))
    family = {
        (alpha, mu): _f_operator(alpha, mu, projectors, numbers, d)
        for alpha in parents
        for mu in sorted(add_box(alpha, d), key=lambda x: x.rows, reverse=True)
    }
    solution = optimal_solution(edges)
    alphas, mus = edges.row_basis.entries, edges.col_basis.entries
    pairs = [(alphas[i], mus[j]) for i, j in zip(edges.parent.tolist(), edges.child.tolist())]
    # summed by ascending (alpha, mu) rows: the edge order reversed
    coeffs = zip(pairs[::-1], solution.p_coeffs[::-1].tolist())
    povm = sum(p * family[key] for key, p in coeffs if key in family)
    ports = list(_port_indices(n, d))
    sigmas = _port_states(n, d)
    return DenseCell(n, d, edges, pairs, projectors, numbers, family, ports, sigmas, solution, povm)


def _require_symmetric(op: SectorOperator) -> None:
    scale = max(1.0, _norm_inf(op))
    asym = _norm_inf(op - op.T)
    if asym > 1e-9 * scale:
        raise ArithmeticError(f"operator is not Hermitian (deviation {asym:.2e})")


def _eigvalsh(op: SectorOperator) -> np.ndarray:
    """LAPACK eigenvalues (ascending) of a validated symmetric operator,
    blocks of one size stacked into one call."""
    _require_symmetric(op)
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in op.blocks()]))


def _pseudo_inverse_sqrt(op: SectorOperator, threshold: float = 1e-10) -> SectorOperator:
    """Inverse square root on the support, solved block by block; eigenvalues
    below threshold drop out."""
    _require_symmetric(op)
    out = np.empty_like(op.data)
    for b, o in zip(op.blocks(), op.layout.blocks(out)):
        w, v = np.linalg.eigh(b)
        inv = np.where(w > threshold, 1.0 / np.sqrt(np.maximum(w, threshold)), 0.0)
        np.matmul(v * inv[:, None, :], v.transpose(0, 2, 1), out=o)
    return SectorOperator(op.layout, out)


def direct_fidelity(cell: DenseCell, povm_spec: str) -> float:
    """Teleportation fidelity by direct traces against a constructed POVM family.

    povm_spec "sqrt_measurement" conjugates the port states by the inverse
    square root of their sum; "optimal" sandwiches them with the optimal
    projector combination.
    """
    if povm_spec == "sqrt_measurement":
        wall = _pseudo_inverse_sqrt(sum(cell.sigmas))
    elif povm_spec == "optimal":
        wall = cell.povm
    else:
        raise ValueError(f"unknown povm_spec {povm_spec!r}")
    n, d = cell.n, cell.d
    # tr(W s_a W s_a) = tr(K_a K_a) / d^2N with K_a = E_a^T W E_a (see _port_indices)
    small = _layout(d ** (n - 1), d, 1)
    kays = (_gather(wall, small, _contraction_index(n, d, a)) for a in range(n))
    return math.fsum(float(np.sum(k.data * k.T.data)) for k in kays) / d ** (2 * n + 2)


def primal_constraint_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility of the optimal primal point.

    Returns the smallest eigenvalue of X_A (x) 1 - sum_a POVM_a (must be
    >= -tolerance) and the trace of X_A (must be d^N).
    """
    sol = cell.solution
    x_a = sum(c * cell.projectors[mu] for mu, c in zip(sol.basis, sol.c_coeffs.tolist()))
    w = _eigvalsh(_lift(x_a, cell.n, cell.d) - cell.povm @ sum(cell.sigmas) @ cell.povm)
    return {"min_eig": float(w[0]), "trace_XA": x_a.trace()}


def dual_witness_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility and objective of the dual certificate.

    Per-diagram weights t are the entries of the cell's Perron vector (only
    the ratios t_nu / t_mu enter); the certificate must dominate every port
    state, and d^(N-2) times the infinity norm of its last-factor partial
    trace reproduces the optimum radius / d^2.
    """
    n, d = cell.n, cell.d
    t = dict(zip(cell.solution.basis, cell.solution.v.tolist()))
    # the family lists each parent's children together
    t_sum = {
        alpha: math.fsum(t[nu] for _, nu in kids)
        for alpha, kids in itertools.groupby(cell.family, key=lambda pair: pair[0])
    }
    mult = {mu: m for mu, (_, m) in cell.numbers.items()}
    omega = sum(
        t_sum[alpha] * mult[mu] / (mult[alpha] * t[mu] * d**n) * f
        for (alpha, mu), f in cell.family.items()
    )
    min_slack = min(float(_eigvalsh(omega - s)[0]) for s in cell.sigmas)
    w = _eigvalsh(_gather(omega, _layout(d**n, d, 1), _trace_index(n, d)))
    objective = d ** (n - 2) * float(np.abs(w).max())
    return {"min_slack": min_slack, "objective": objective}


def character_spectrum(n: int) -> dict[int, int]:
    """Exact integer diagonalisation of the full teleportation matrix.

    Builds M_F = R^T R of the diagrams of n from the add_box walk over those of
    n - 1 and verifies M_F chi_C = k chi_C in exact integers for every
    character-table column, k the fixed points of the class C.  Returns
    {k: number of classes with k fixed points}; a failure is an ArithmeticError.
    """
    table = character_matrix(n)
    m_f = np.zeros((len(table.basis),) * 2, dtype=object)  # Python integers
    for alpha in enumerate_diagrams(n - 1):
        kids = [table.basis.index(mu) for mu in add_box(alpha)]
        m_f[np.ix_(kids, kids)] += 1
    chi = np.array(table.entries, dtype=object)
    fixed = [c.fixed_points for c in table.classes]
    exact = (m_f.dot(chi) == chi * fixed).all(axis=0)
    bad = [c.label() for c, ok in zip(table.classes, exact) if not ok]
    if bad:
        raise ArithmeticError(f"character columns {', '.join(bad)} not eigenvectors at N={n}")
    return dict(Counter(fixed))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, residual <= tolerance)


def _norm_inf(op) -> float:
    """Largest absolute entry of a SectorOperator or an array."""
    data = op.data if isinstance(op, SectorOperator) else op
    return max(float(data.max()), -float(data.min())) if data.size else 0.0


def _composition_residual(n: int, d: int) -> float:
    """Largest difference between the index maps of V(s) V(t) and V(s o t)
    over every pair s, t of the generators of S(N+1).

    The generators are the adjacent transpositions and the (N+1)-cycle.
    V(s) V(t) x = x[idx_t][idx_s], so the index map of the product is
    idx_t[idx_s]; index maps are integers, so the residual is 0.0 iff
    V(s) V(t) = V(s o t) for every pair.
    """
    gens = [transposition(i, i + 1, n + 1) for i in range(n)]
    gens.append(tuple(range(1, n + 1)) + (0,))
    index = {s: _perm_index(s, d) for s in gens}
    res = 0.0
    for s in gens:
        for t in gens:
            st = tuple(s[t[i]] for i in range(n + 1))
            res = max(res, _norm_inf(index[t][index[s]] - _perm_index(st, d)))
    return res


def run_checks(n: int, d: int) -> list[CheckResult]:
    """Full verification battery at one (N, d); every formula the fast modules
    rely on is recomputed by sector-block linear algebra and compared."""
    cell = dense_cell(n, d)
    checks: list[CheckResult] = []
    full_basis = enumerate_diagrams(n)
    dim = d ** (n + 1)

    checks.append(_check("perm_composition", _composition_residual(n, d), 1e-12))

    # Young projectors: resolution, idempotence, Hermiticity, traces, centrality
    projectors = {mu: cell.projectors[mu] for mu in full_basis}
    layout = _layout(d**n, d, 1)
    resolution = sum(projectors.values()) - _identity(layout)
    checks.append(_check("young_resolution", _norm_inf(resolution), 1e-10))
    idem = max(_norm_inf(p @ p - p) for p in projectors.values())
    checks.append(_check("young_idempotent", idem, 1e-10))
    herm = max(_norm_inf(p - p.T) for p in projectors.values())
    checks.append(_check("young_hermitian", herm, 1e-10))
    dims = {mu: dim for mu, (dim, _) in cell.numbers.items()}
    mults = {mu: m for mu, (_, m) in cell.numbers.items()}
    trace_res = max(abs(p.trace() - dims[mu] * mults[mu]) for mu, p in projectors.items())
    checks.append(_check("young_trace", trace_res, _TOL))
    commute = 0.0
    rows, cols = layout.entries()
    for i in range(n - 1):  # the adjacent transpositions generate S(N)
        idx = _perm_index(transposition(i, i + 1, n), d)
        # p V - V p for the permutation matrix V with index map idx
        right, left = _index(layout, rows, np.argsort(idx)[cols]), _index(layout, idx[rows], cols)
        for p in projectors.values():
            commute = max(commute, _norm_inf(p.data[right] - p.data[left]))
    checks.append(_check("young_commute", commute, 1e-10))

    # port operator: Hermitian, PSD, exact eigenvalue multiset with multiplicities
    eta = d**n * sum(cell.sigmas)
    checks.append(_check("eta_hermitian", _norm_inf(eta - eta.T), 1e-10))
    eigs_eta = _eigvalsh(eta)
    checks.append(_check("eta_psd", max(0.0, -float(eigs_eta[0])), 1e-10))
    num, den = protocol_eigenvalues(cell.edges)
    gammas = (num / den).tolist()  # correctly rounded, as float(Fraction(num, den))
    (_, mult_a), (dim_m, _) = cell.edges.row_basis.numbers, cell.edges.col_basis.numbers
    ranks = (dim_m[cell.edges.child] * mult_a[cell.edges.parent]).tolist()  # d_mu m_alpha
    expected = np.repeat(gammas, ranks).tolist()
    expected.extend([0.0] * (dim - len(expected)))
    expected.sort(reverse=True)
    actual = sorted((float(x) for x in eigs_eta), reverse=True)
    eig_res = max(abs(a - b) for a, b in zip(actual, expected))
    checks.append(_check("eta_eigenvalues", eig_res, _TOL))

    # eigenprojector family on the oracle's walk; the gamma checks take the pairs
    # that the fast edge list has too, and edge_pairs counts the others
    fams = cell.family
    gammas = dict(zip(cell.pairs, gammas))
    checks.append(_check("edge_pairs", len(fams.keys() ^ gammas.keys()), 0.5))
    gamma_of = {key: g for key, g in gammas.items() if key in fams}
    idem = max(_norm_inf(f @ f - f) for f in fams.values())
    checks.append(_check("f_idempotent", idem, 1e-10))
    herm = max(_norm_inf(f - f.T) for f in fams.values())
    checks.append(_check("f_hermitian", herm, 1e-10))
    f_trace_res = max(abs(f.trace() - dims[mu] * mults[alpha]) for (alpha, mu), f in fams.items())
    checks.append(_check("f_trace", f_trace_res, _TOL))
    f_eig_res = max(_norm_inf(eta @ fams[key] - g * fams[key]) for key, g in gamma_of.items())
    checks.append(_check("f_eigen", f_eig_res, 1e-10))
    # symmetric projectors are mutually orthogonal iff their sum is a projector
    total = sum(fams.values())
    checks.append(_check("f_orthogonal", _norm_inf(total @ total - total), 1e-10))

    # basis-free inner-product identity: sandwiching an eigenprojector between
    # P_alpha (x) P+ rescales that projector by m_mu / (d m_alpha); both sides
    # are kron(., Ptilde+), whose entries are 0 and 1
    inner_res = 0.0
    for (alpha, mu), f in fams.items():
        p = cell.projectors[alpha]
        rhs = mults[mu] / (d * mults[alpha]) * p / d
        inner_res = max(inner_res, _norm_inf(_pair_sandwich(p, f) - rhs))
    checks.append(_check("f_inner_product", inner_res, 1e-10))

    # reconstruction and support rank
    recon = sum(g * fams[key] for key, g in gamma_of.items()) - eta
    checks.append(_check("eta_reconstruction", _norm_inf(recon), 1e-9))
    rank_eta = int(np.sum(np.abs(eigs_eta) > 1e-8))
    rank_expected = sum(dims[mu] * mults[alpha] for (alpha, mu) in fams)
    checks.append(_check("f_support_rank", abs(rank_eta - rank_expected), 0.5))

    # partial transpose is an involution and preserves traces
    pt = partial_transpose_last(eta)
    checks.append(_check("pt_involution", _norm_inf(partial_transpose_last(pt) - eta), 1e-12))
    pt_trace = abs(pt.trace() - eta.trace())
    checks.append(_check("pt_trace", pt_trace, 1e-12))

    # the fidelity triangle
    f_sqrt_formula = sqrt_measurement_fidelity(cell.edges)
    f_sqrt_direct = direct_fidelity(cell, "sqrt_measurement")
    checks.append(_check("fidelity_sqrt_direct", abs(f_sqrt_direct - f_sqrt_formula), _TOL))
    f_family = general_povm_fidelity(cell.edges, 1, 2)
    checks.append(_check("fidelity_povm_family", abs(f_family - f_sqrt_formula), 1e-12))
    f_opt = cell.solution.eigenpair.radius / d**2
    f_opt_direct = direct_fidelity(cell, "optimal")
    checks.append(_check("fidelity_optimal_direct", abs(f_opt_direct - f_opt), _TOL))

    primal = primal_constraint_check(cell)
    checks.append(_check("primal_min_eig", max(0.0, -primal["min_eig"]), _TOL))
    checks.append(_check("primal_trace", abs(primal["trace_XA"] - d**n), _TOL))

    dual = dual_witness_check(cell)
    checks.append(_check("dual_min_slack", max(0.0, -dual["min_slack"]), _TOL))
    checks.append(_check("dual_objective", abs(dual["objective"] - f_opt), _TOL))
    checks.append(_check("duality_gap", abs(f_opt_direct - dual["objective"]), _TOL))

    # exact character-table multiplicities of the full matrix at N vs the closed form
    agree = character_spectrum(n) == closed_form_spectrum(n)
    checks.append(_check("character_spectrum", 0.0 if agree else 1.0, 0.5))

    return checks
