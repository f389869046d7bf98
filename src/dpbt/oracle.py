"""Brute-force operator verification at small port counts.

Everything the fast modules compute through diagram combinatorics is rebuilt
here directly in the computational basis of (C^d)^(N+1): factor permutations
(as index maps of that basis), Young projectors, the port operator and its
eigenprojectors, the measurement operators, the optimal resource operator and
the dual certificate.  Each formula is then checked by plain linear algebra;
the character-table spectrum of the full teleportation matrix, in exact integers.
Characters come from the Murnaghan-Nakayama rule (`character`): a class is its
cycle type, the weakly decreasing tuple of its cycle lengths, like a diagram's
rows, and spectral.cycle_types lists the classes of S(N).
run_checks builds each operator of one (N, d) once, in a DenseCell that also
holds the fast path's one edge list, and runs its 26 checks on that cell.  The
cell keeps the sum of the port states, and each dual slack rebuilds its sigma_a.
The cell holds the diagrams of the edge list's two bases only (height <= d).
Their Young projectors take d_mu as the character at the identity, from the
character table, so they share no code with the exact d_mu, m_mu kernel,
whose integers the checks read from each basis's numbers.

Every operator is real in this basis, so Hermiticity is symmetry.  Each is
built from factor permutations and the port maps E_a, so it commutes with
U^(x N) (x) conj(U) for diagonal U (with U^(x k) on k factors for the Young
projectors, the class sums and the partial trace) and maps each weight sector
(basis states with equal digit counts over the ports, minus the last digit;
see _sectors) into itself.  So no operator is ever stored as a d^k-square
array: a SectorOperator is one flat float64 array of its sector blocks, over
a layout shared by every operator of one (k, d, last).  Sums and norms are
one numpy call on the flat arrays, products one stacked matmul per block
size, and eigensolves go through LAPACK on the stacked blocks
(numpy.linalg.eigvalsh where only the spectrum is read, numpy.linalg.eigh for
the inverse square root); LAPACK shares no code with the fast spectral path.
Every index map that places an entry (the permutations of the class sums and
of the commutation check, P (x) 1 and the port maps) is checked, in exact
integers, to keep each entry inside one sector.  Operators change factor count
by two index maps, each a scatter (P -> P (x) 1, P -> E_a P E_a^T) with its
adjoint gather (the partial trace over the last factor, A -> E_a^T A E_a).

The Young projectors are character sums of the class sums of S(N), each
class scattered in chunked bincount calls.  Each F_mu(alpha) is one product
(P_mu (x) 1) S_alpha / gamma, S_alpha = sum_a E_a P_alpha E_a^T per parent.

A cell is refused (CapExceededError) when one operator on its N+1 factors
would store more than MAX_ENTRIES sector entries, or the class sums of S(N)
would scatter more than MAX_SCATTER = N! d^N index-map entries.  Both bounds
admit the DEFAULT_CHECK_CELLS, (4,4), (9,2), (5,4), (6,3), (7,3) and (5,5); they
refuse (10,2), (6,4) and (8,3).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diagrams import _row_keys, _row_tuples, enumerate_diagrams
from .protocol import (
    OptimalSolution,
    general_povm_fidelity,
    optimal_solution,
    protocol_eigenvalues,
    sqrt_measurement_fidelity,
)
from .spectral import closed_form_spectrum, cycle_label, cycle_types
from .telemat import IncidenceEdges, incidence_edges

__all__ = [
    "MAX_ENTRIES",
    "MAX_SCATTER",
    "DEFAULT_CHECK_CELLS",
    "CapExceededError",
    "CheckResult",
    "DenseCell",
    "SectorOperator",
    "transposition",
    "dense_cell",
    "character",
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

# eigenvalues at or below this lie off the support of an inverse square root
_SUPPORT = 1e-10


class CapExceededError(RuntimeError):
    """A construction lies above MAX_ENTRIES or MAX_SCATTER."""


def _entry_count(k: int, d: int) -> int:
    """Sector entries of an operator on k factors: the sum of multinomial(k; c)^2
    over the digit counts c, taken by partition shape.  The same for last = 1
    and last = -1: swapping the last digits of an entry's row and column,
    ((x,l),(x',l')) -> ((x,l'),(x',l)), maps the entries of one onto the other's."""
    total = 0
    for parts in _row_tuples(enumerate_diagrams(k, d)):
        shape = math.factorial(k) // math.prod(map(math.factorial, parts))
        places = math.perm(d, len(parts)) // math.prod(map(math.factorial, Counter(parts).values()))
        total += shape * shape * places
    return total


def _require_cell(n: int, d: int) -> None:
    """Refuse the cell (n, d) whose class sums of S(n) scatter more than
    MAX_SCATTER = n! d^n entries, or whose operators on k = n+1 factors store
    more than MAX_ENTRIES sector entries.  Logarithms decide first, so neither
    d^n nor d^k above the caps is ever formed."""
    bits = (math.lgamma(n + 1) + n * math.log(d)) / math.log(2)
    if bits > 40 or math.factorial(n) * d**n > MAX_SCATTER:
        raise CapExceededError(
            f"the class sums of S({n}) at d={d} scatter N! d^N = 2^{bits:.1f} entries, "
            f"above the cap MAX_SCATTER = 2^{MAX_SCATTER.bit_length() - 1}"
        )
    k = n + 1
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


@functools.lru_cache(maxsize=None)
def _digits(k: int, d: int) -> np.ndarray:
    """(k, d^k) digits of the basis states of k factors, most significant first."""
    places = d ** np.arange(k - 1, -1, -1)
    return _readonly(np.arange(d**k)[None, :] // places[:, None] % d)


def _sectors(k: int, d: int, last: int) -> list[np.ndarray]:
    """Weight sectors of the basis of (C^d)^k as one (sectors, size) index
    array per sector size, sizes ascending.

    A state's weight is the digit counts of its first k-1 factors plus last
    times the count of its last digit: last = -1 labels the eigenspaces of
    U^(x k-1) (x) conj(U) for diagonal U, last = 1 those of U^(x k).  Each
    weight row, shifted to be unsigned, is one exact key (diagrams._row_keys).
    """
    onehot = _digits(k, d)[..., None] == np.arange(d)  # (k, d^k, d)
    weight = onehot[:-1].sum(axis=0) + last * onehot[-1:].sum(axis=0)
    keys = _row_keys((weight + 1).astype(np.min_scalar_type(k + 1)))
    labels = np.unique(keys, return_inverse=True)[1].ravel()
    sizes = np.bincount(labels)[labels]
    order = _readonly(np.lexsort((labels, sizes)))
    groups = np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)
    return [g.reshape(-1, sizes[g[0]]) for g in groups]


class _Layout:
    """Where the sector blocks of an operator on k factors, dim = d^k states,
    sit in its flat array: the groups of _sectors(k, d, last) end to end, each
    a stack of equal square blocks, each block row-major."""

    def __init__(self, k: int, d: int, last: int):
        self.k, self.d, self.dim = k, d, d**k
        self.groups = _sectors(k, d, last)
        self.offsets = np.cumsum([0] + [g.size * g.shape[1] for g in self.groups]).tolist()
        self.size = self.offsets[-1]
        # per state: its sector, its place in the sector and the flat position
        # of the first entry of its row
        self.label, self.pos, self.base = np.empty((3, self.dim), dtype=np.intp)
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

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column state of every flat entry."""
        rows, cols = [], []
        for g in self.groups:
            count, s = g.shape
            rows.append(np.broadcast_to(g[:, :, None], (count, s, s)).ravel())
            cols.append(np.broadcast_to(g[:, None, :], (count, s, s)).ravel())
        return np.concatenate(rows), np.concatenate(cols)


# one layout per (k, d, last), shared by all of its operators
_layout = functools.lru_cache(maxsize=None)(_Layout)


@dataclass(frozen=True, eq=False)
class SectorOperator:
    """A real operator on (C^d)^k that maps each weight sector into itself,
    stored as its sector blocks: data is one flat float64 array laid out by
    layout, shared by every operator of that (k, d, last) (see _sectors).

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


def _index(layout: _Layout, rows, cols) -> np.ndarray:
    """Flat positions in layout of the entries (rows, cols), broadcast;
    ArithmeticError if one leaves its weight sector."""
    if not (layout.label[rows] == layout.label[cols]).all():
        raise ArithmeticError("an index map leaves its weight sectors")
    return layout.base[rows] + layout.pos[cols]


def _scatter(src: SectorOperator, layout: _Layout, index: np.ndarray) -> SectorOperator:
    """The operator on layout with entry i of src at each of the m places in
    row i of index, a (src size, m) array, and 0 elsewhere.  No two entries of
    index share a place, so one bincount places every entry exactly."""
    weights = np.repeat(src.data, index.shape[1])
    return SectorOperator(layout, np.bincount(index.ravel(), weights, layout.size))


def _gather(src: SectorOperator, layout: _Layout, index: np.ndarray) -> SectorOperator:
    """The adjoint of _scatter: entry i of the operator on layout is the sum
    of the entries of src at the places in row i of index."""
    return SectorOperator(layout, src.data[index].sum(axis=1))


def _diagram_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """rows as a tuple of ints; ValueError unless they are positive and weakly
    decreasing, the rows of a diagram (() is the empty one)."""
    rows = tuple(int(r) for r in rows)
    for i, r in enumerate(rows):
        if r <= 0:
            raise ValueError(f"row lengths must be positive: {rows}")
        if i > 0 and rows[i - 1] < r:
            raise ValueError(f"row lengths must be weakly decreasing: {rows}")
    return rows


def character(rows: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """Character of the irrep of the diagram with these rows on the class of
    cycle type parts, exact.  ValueError unless both are positive and weakly
    decreasing, with as many boxes as the class permutes points."""
    rows, parts = _diagram_rows(rows), _diagram_rows(parts)
    if sum(rows) != sum(parts):
        raise ValueError(f"diagram has {sum(rows)} boxes but class permutes {sum(parts)}")
    return _mn(rows, parts)


@functools.lru_cache(maxsize=None)
def _mn(rows: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: border strips of length parts[0], located through
    first-column hook lengths (beta numbers), removed in turn, each with the
    sign of its height; memoised on (diagram, remaining cycles)."""
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


def transposition(i: int, j: int, k: int) -> tuple[int, ...]:
    """Permutation of 0..k-1 swapping positions i and j."""
    p = list(range(k))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _perm_indices(perms: np.ndarray, d: int) -> np.ndarray:
    """Index maps of V(perm), one per row of perms, a (count, k) array: entry
    i is the column of the 1 in row i of V(perm), so V @ x == x[idx].  Factor
    i of V x carries factor perm^-1(i) of x, so V(s) V(t) = V(s o t) with
    (s o t)(x) = s(t(x)).  Column digit j is row digit perm(j): the column is
    sum_i digit_i d^(k-1-perm^-1(i)), one float matmul (exact below 2^53)."""
    k = perms.shape[1]
    places = float(d) ** (k - 1 - np.argsort(perms, axis=1))
    return (places @ _digits(k, d)).astype(np.intp)


def _permutations(k: int) -> np.ndarray:
    """Every permutation of 0..k-1, one per row, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    return np.fromiter(flat, dtype=np.int8).reshape(math.factorial(k), k)


def _cycle_classes(perms: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The cycle types met in perms, weakly decreasing tuples of cycle
    lengths, and the number of each row's type: a point on a cycle of length
    L comes back after L steps, and the k points' return times, as the
    base-(k+1) digits L c_L of one integer (c_L cycles of length L), name the
    cycle type."""
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
        classes.append(tuple(s for s in range(k, 0, -1) for _ in range(points[s - 1] // s)))
    return classes, which.ravel()


def _perm_table(n: int, d: int) -> dict[tuple[int, ...], SectorOperator]:
    """Class sums of S_n on n factors: the sum of V(s) over the permutations s
    of each cycle type, every index map checked to keep each sector and then
    scattered, a chunk of one type's permutations per bincount call."""
    layout = _layout(n, d, 1)
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


def _young_projector(
    mu: tuple[int, ...], d: int, table: dict[tuple[int, ...], SectorOperator]
) -> SectorOperator:
    """Isotypic projector for the diagram with rows mu on (C^d)^N,
    (dim_mu/N!) sum_s chi_mu(s) V(s), summing the characters of mu over
    table, the class sums of S_N, in table order (integer valued before the
    final scale, so the order changes no bit).

    Characters of a class equal those of its inverses, so the class value is
    used directly, and dim_mu is the character at the identity.  Idempotent
    and Hermitian with trace d_mu * m_mu; the zero operator when the diagram
    is taller than d.
    """
    n = sum(mu)
    acc = sum(character(mu, c) * k for c, k in table.items())
    return acc * (character(mu, (1,) * n) / math.factorial(n))


@functools.lru_cache(maxsize=None)
def _port_index(n: int, d: int, a: int) -> np.ndarray:
    """The port map E_a: |r> -> sum_i |state(r, i)>, from N-1 factors to N+1,
    state(r, i) carrying digit i at port a and at the last factor and the
    digits of r elsewhere; the d states of one r share the weight of r.  Row
    (r, r') lists the d^2 places (state(r, i), state(r', j)) of the entry
    (r, r') in E_a P E_a^T.  At the last port a = N-1, E_a is 1 (x) sum_i |ii>."""
    grid = np.arange(d ** (n + 1)).reshape((d,) * (n + 1))
    states = np.diagonal(grid, axis1=a, axis2=n).reshape(-1, d)
    rows, cols = _layout(n - 1, d, 1).coordinates()
    flat = _index(_layout(n + 1, d, -1), states[rows][:, :, None], states[cols][:, None, :])
    return _readonly(flat.reshape(len(rows), d * d))


@functools.lru_cache(maxsize=None)
def _lift_index(n: int, d: int) -> np.ndarray:
    """P -> P (x) 1 from N factors to N+1: row (x, x') lists the d places
    ((x,l), (x',l)) of the entry (x, x') of P."""
    rows, cols = _layout(n, d, 1).coordinates()
    last = np.arange(d)
    return _readonly(_index(_layout(n + 1, d, -1), rows[:, None] * d + last, cols[:, None] * d + last))


def _lift(p: SectorOperator, n: int, d: int) -> SectorOperator:
    return _scatter(p, _layout(n + 1, d, -1), _lift_index(n, d))


def _partial_trace(op: SectorOperator, n: int, d: int) -> SectorOperator:
    """The trace over the last of N+1 factors, the adjoint of _lift."""
    return _gather(op, _layout(n, d, 1), _lift_index(n, d))


def _spread(p: SectorOperator, n: int, d: int, a: int) -> SectorOperator:
    """E_a p E_a^T on N+1 factors for p on N-1 (see _port_index); its adjoint
    A -> E_a^T A E_a is the gather through the same index."""
    return _scatter(p, _layout(n + 1, d, -1), _port_index(n, d, a))


def _f_operator(
    alpha: tuple[int, ...], mu: tuple[int, ...], spread: SectorOperator,
    projectors: dict, numbers: dict, d: int,
) -> SectorOperator:
    """Port-operator eigenprojector F_mu(alpha) of parent alpha and child mu,
    from spread = S_alpha = sum_a E_a P_alpha E_a^T, reading P_mu from
    projectors and (d, m) of each diagram from numbers.

    (1/gamma) P_mu [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] P_mu, acting on
    N+1 factors; idempotent with trace d_mu * m_alpha and eigenvalue gamma
    under the port operator.  V(a,N) (P_alpha x sum_i |ii>) = E_a V(pi) P_alpha,
    pi moving digit a of the N-1 factors last, and P_alpha commutes with V(pi);
    so the bracket is S_alpha.  P_alpha is central, so permuting the N ports
    permutes the terms of S_alpha: S_alpha commutes with every V(pi) (x) 1,
    pi in S(N), hence with P_mu (x) 1, and P_mu S_alpha P_mu = P_mu S_alpha.
    """
    n = sum(mu)
    (dim_a, mult_a), (dim_m, mult_m) = numbers[alpha], numbers[mu]
    gamma = n * mult_m * dim_a / (mult_a * dim_m)
    return _lift(projectors[mu], n, d) @ spread / gamma


def _add_box(rows: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The diagrams grown from rows by one box with height <= d, in descending
    order: a box on each row shorter than the one above it (or the first),
    then a new row.  The oracle's own walk, independent of the edge list it
    referees."""
    grown = [rows[:i] + (r + 1,) + rows[i + 1 :] for i, r in enumerate(rows) if i == 0 or r < rows[i - 1]]
    if len(rows) < d:
        grown.append(rows + (1,))
    return grown


def _port_state(n: int, d: int, a: int) -> SectorOperator:
    """The port state sigma_a = E_a E_a^T / d^N (see _port_index)."""
    return _spread(_identity(_layout(n - 1, d, 1)), n, d, a) / d**n


def _pair_sandwich(p: SectorOperator, mat: SectorOperator) -> SectorOperator:
    """Q with kron(p, P+) mat kron(p, P+) = kron(Q, Ptilde+), for symmetric p
    on N-1 factors, P+ = Ptilde+ / d on the last two factors and
    Ptilde+ = sum_ij |ii><jj|: Q = p T p / d^2, T the contraction of mat with
    sum_i |ii> on both sides."""
    n, d = mat.layout.k - 1, mat.layout.d
    return p @ _gather(mat, p.layout, _port_index(n, d, n - 1)) @ p / d**2


@dataclass(frozen=True)
class DenseCell:
    """Every operator and fast-path input the checks at one (N, d) need, each
    built once; every operator a SectorOperator.

    Diagrams are keyed by the tuples of their positive rows.  edges: the
    fast path's edge list, incidence_edges(N, d), which every protocol call
    of the checks takes; pairs: its edges as (alpha, mu) pairs of row
    tuples, in edge order.  projectors: the Young projector of every diagram
    of the edge list's two bases, of N and N-1 with height <= d, a character
    sum over _perm_table(N, d) or _perm_table(N-1, d); those of N sum to 1
    only if every taller projector vanishes.  numbers: the exact (d_mu, m_mu)
    at d of each, from the bases' numbers.  family: F_mu(alpha) for each
    pair of the _add_box(alpha, d) walk, parents in basis order and children
    by descending rows.  ports: the sum of the port states sigma_a, added in
    port order; the port operator is d^N times it.  solution: the optimal POVM
    coefficients and the Perron vector v.  povm: the optimal POVM element
    sum p_mu(alpha) F_mu(alpha) over the pairs the walk also has.
    """

    n: int
    d: int
    edges: IncidenceEdges
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    projectors: dict[tuple[int, ...], SectorOperator]
    numbers: dict[tuple[int, ...], tuple[int, int]]
    family: dict[tuple[tuple[int, ...], tuple[int, ...]], SectorOperator]
    ports: SectorOperator
    solution: OptimalSolution
    povm: SectorOperator


def dense_cell(n: int, d: int) -> DenseCell:
    """The DenseCell of (N, d); CapExceededError above MAX_SCATTER or MAX_ENTRIES."""
    _require_cell(n, d)
    edges = incidence_edges(n, d)
    mus, alphas = _row_tuples(edges.col_basis), _row_tuples(edges.row_basis)
    table, sub_table = _perm_table(n, d), _perm_table(n - 1, d)
    projectors = {mu: _young_projector(mu, d, table) for mu in mus}
    projectors.update({alpha: _young_projector(alpha, d, sub_table) for alpha in alphas})
    numbers = dict(zip(mus, zip(*edges.col_basis.numbers)))
    numbers.update(zip(alphas, zip(*edges.row_basis.numbers)))
    family = {}
    for alpha in alphas:
        # S_alpha, shared by the children of alpha
        spread = sum(_spread(projectors[alpha], n, d, a) for a in range(n))
        for mu in _add_box(alpha, d):
            family[alpha, mu] = _f_operator(alpha, mu, spread, projectors, numbers, d)
    solution = optimal_solution(edges)
    pairs = [(alphas[i], mus[j]) for i, j in zip(edges.parent.tolist(), edges.child.tolist())]
    # summed by ascending (alpha, mu) rows: the edge order reversed
    coeffs = zip(pairs[::-1], solution.p_coeffs[::-1].tolist())
    povm = sum(p * family[key] for key, p in coeffs if key in family)
    ports = sum(_port_state(n, d, a) for a in range(n))
    return DenseCell(n, d, edges, pairs, projectors, numbers, family, ports, solution, povm)


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


def _pseudo_inverse_sqrt(op: SectorOperator) -> SectorOperator:
    """Inverse square root on the support, solved block by block; eigenvalues
    at or below _SUPPORT drop out."""
    _require_symmetric(op)
    out = np.empty_like(op.data)
    for b, o in zip(op.blocks(), op.layout.blocks(out)):
        w, v = np.linalg.eigh(b)
        inv = np.where(w > _SUPPORT, 1.0 / np.sqrt(np.maximum(w, _SUPPORT)), 0.0)
        np.matmul(v * inv[:, None, :], v.transpose(0, 2, 1), out=o)
    return SectorOperator(op.layout, out)


def direct_fidelity(cell: DenseCell, povm_spec: str) -> float:
    """Teleportation fidelity by direct traces against a constructed POVM family.

    povm_spec "sqrt_measurement" conjugates the port states by the inverse
    square root of their sum; "optimal" sandwiches them with the optimal
    projector combination.
    """
    if povm_spec == "sqrt_measurement":
        wall = _pseudo_inverse_sqrt(cell.ports)
    elif povm_spec == "optimal":
        wall = cell.povm
    else:
        raise ValueError(f"unknown povm_spec {povm_spec!r}")
    n, d = cell.n, cell.d
    # tr(W s_a W s_a) = tr(K_a K_a) / d^2N with K_a = E_a^T W E_a (see _port_index)
    small = _layout(n - 1, d, 1)
    kays = (_gather(wall, small, _port_index(n, d, a)) for a in range(n))
    return math.fsum(float(np.sum(k.data * k.T.data)) for k in kays) / d ** (2 * n + 2)


def primal_constraint_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility of the optimal primal point.

    Returns the smallest eigenvalue of X_A (x) 1 - sum_a POVM_a (must be
    >= -tolerance) and the trace of X_A (must be d^N).
    """
    sol = cell.solution
    x_a = sum(c * cell.projectors[mu] for mu, c in zip(_row_tuples(sol.basis), sol.c_coeffs.tolist()))
    w = _eigvalsh(_lift(x_a, cell.n, cell.d) - cell.povm @ cell.ports @ cell.povm)
    return {"min_eig": float(w[0]), "trace_XA": x_a.trace()}


def dual_witness_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility and objective of the dual certificate.

    Per-diagram weights t are the entries of the cell's Perron vector (only
    the ratios t_nu / t_mu enter); the certificate must dominate every port
    state, and d^(N-2) times the infinity norm of its last-factor partial
    trace reproduces the optimum radius / d^2.
    """
    n, d = cell.n, cell.d
    t = dict(zip(_row_tuples(cell.solution.basis), cell.solution.v.tolist()))
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
    min_slack = min(float(_eigvalsh(omega - _port_state(n, d, a))[0]) for a in range(n))
    objective = d ** (n - 2) * float(np.abs(_eigvalsh(_partial_trace(omega, n, d))).max())
    return {"min_slack": min_slack, "objective": objective}


def character_spectrum(n: int) -> dict[int, int]:
    """Exact integer diagonalisation of the full teleportation matrix.

    Builds M_F = R^T R of the diagrams of n from the _add_box walk over those
    of n - 1, placing each child by a dict of the diagrams of n, and verifies
    M_F chi_C = k chi_C in exact integers for every character-table column,
    k the fixed points of the class C.  Returns {k: number of classes with k
    fixed points}; a failure is an ArithmeticError.
    """
    mus, classes = _row_tuples(enumerate_diagrams(n, n)), cycle_types(n)
    place = {mu: i for i, mu in enumerate(mus)}
    m_f = np.zeros((len(mus),) * 2, dtype=object)  # Python integers
    for alpha in _row_tuples(enumerate_diagrams(n - 1, n)):
        kids = [place[mu] for mu in _add_box(alpha, n)]
        m_f[np.ix_(kids, kids)] += 1
    chi = np.array([[character(mu, c) for c in classes] for mu in mus], dtype=object)
    fixed = [c.count(1) for c in classes]
    exact = (m_f.dot(chi) == chi * fixed).all(axis=0)
    bad = [cycle_label(c) for c, ok in zip(classes, exact) if not ok]
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


def run_checks(n: int, d: int) -> list[CheckResult]:
    """Full verification battery at one (N, d); every formula the fast modules
    rely on is recomputed by sector-block linear algebra and compared."""
    cell = dense_cell(n, d)
    checks: list[CheckResult] = []
    dim = d ** (n + 1)

    # Young projectors of N, height <= d: resolution, idempotence, Hermiticity,
    # traces, centrality.  Over every diagram of N they sum to 1 for any character
    # table; over these, only if each taller one vanishes on (C^d)^(x N)
    projectors = {mu: cell.projectors[mu] for mu in _row_tuples(cell.edges.col_basis)}
    layout = _layout(n, d, 1)
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
    rows, cols = layout.coordinates()
    # the adjacent transpositions generate S(N)
    swaps = np.array([transposition(i, i + 1, n) for i in range(n - 1)], dtype=np.intp).reshape(-1, n)
    for idx in _perm_indices(swaps, d):
        # p V - V p for the permutation matrix V with index map idx
        right, left = _index(layout, rows, np.argsort(idx)[cols]), _index(layout, idx[rows], cols)
        for p in projectors.values():
            commute = max(commute, _norm_inf(p.data[right] - p.data[left]))
    checks.append(_check("young_commute", commute, 1e-10))

    # port operator: Hermitian, PSD, exact eigenvalue multiset with multiplicities
    eta = d**n * cell.ports
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
