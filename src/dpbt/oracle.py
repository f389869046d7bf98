"""Brute-force dense-operator verification at small port counts.

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

Operators grow as d^(N+1), so constructions are capped at DEFAULT_CAP = 1024, which
covers the DEFAULT_CHECK_CELLS.  Operators are plain float64 numpy arrays:
every one of them is real in this basis, so Hermiticity is symmetry.  Each
is built from factor permutations and partial transposes, so it commutes
with U^(x N) (x) conj(U) for diagonal U and maps each weight sector (basis
states with equal port digit counts minus the last digit) into itself.
Eigensolves go through LAPACK on the sector blocks, blocks of one size
stacked into one call (numpy.linalg.eigvalsh where only the spectrum is
read, numpy.linalg.eigh for the inverse square root), after checking that
no entry leaves its sector; LAPACK shares no code with the fast spectral
path.  The Young projectors are character sums of the class sums of S(N).
Each F_mu(alpha) is C C^T with its factor swaps as axis transposes and
P_mu (x) 1 as one reshaped matmul; sandwiches by P (x) P+ and products with a
port state contract over the maximally entangled pair.
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
    "DEFAULT_CAP",
    "DEFAULT_CHECK_CELLS",
    "CapExceededError",
    "CheckResult",
    "DenseCell",
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

DEFAULT_CAP = 1024

DEFAULT_CHECK_CELLS = (
    (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (6, 2), (5, 3), (7, 2)
)

# bound on trace, eigenvalue and fidelity residuals; operator identities use 1e-10, 1e-12
_TOL = 1e-8


class CapExceededError(RuntimeError):
    """Requested operator dimension d^k lies above DEFAULT_CAP."""


def _require_cap(d: int, systems: int) -> None:
    if d**systems > DEFAULT_CAP:
        raise CapExceededError(f"dimension {d}^{systems} = {d**systems} exceeds cap {DEFAULT_CAP}")


def transposition(i: int, j: int, k: int) -> tuple[int, ...]:
    """Permutation of 0..k-1 swapping positions i and j."""
    p = list(range(k))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _perm_index(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Column of the single 1 in each row of V(perm) on len(perm) factors.

    Row digit i equals column digit perm^{-1}(i), so V @ x == x[index],
    x @ V == x[:, argsort(index)], and products with V are gathers.
    """
    k = len(perm)
    return np.arange(d**k).reshape((d,) * k).transpose(np.argsort(perm)).ravel()


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """0/1 operator permuting tensor factors.

    Factor i of the output carries what factor perm^{-1}(i) carried on input,
    so V(s) V(t) = V(s o t) with (s o t)(x) = s(t(x)).
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of 0..{k - 1}: {perm}")
    _require_cap(d, k)
    return np.eye(d**k)[_perm_index(perm, d)]


def _cycle_type_of(perm: tuple[int, ...]) -> CycleType:
    k = len(perm)
    seen = [False] * k
    parts = []
    for i in range(k):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return CycleType(tuple(parts))


def _perm_table(n: int, d: int) -> dict[CycleType, np.ndarray]:
    """Class sums of S_n on n factors: the sum of V(s) over the permutations s
    of each cycle type, each permutation scattered once."""
    dim = d**n
    rows = np.arange(dim)
    sums: dict[CycleType, np.ndarray] = {}
    for perm in itertools.permutations(range(n)):
        ctype = _cycle_type_of(perm)
        if ctype not in sums:
            sums[ctype] = np.zeros((dim, dim))
        sums[ctype][rows, _perm_index(perm, d)] += 1.0
    return sums


def young_projector(mu: YoungDiagram, d: int) -> np.ndarray:
    """Isotypic projector for mu on (C^d)^N: (dim_mu/N!) sum_s chi_mu(s) V(s).

    Characters of a class equal those of its inverses, so the class value is
    used directly, and dim_mu is the character at the identity.  Idempotent
    and Hermitian with trace d_mu * m_mu; the zero operator when the diagram
    is taller than d.
    """
    _require_cap(d, mu.boxes)
    return _young_projector(mu, d, _perm_table(mu.boxes, d))


def _young_projector(mu: YoungDiagram, d: int, table: dict[CycleType, np.ndarray]) -> np.ndarray:
    """young_projector, summing the characters of mu over table, the class
    sums of S_N."""
    n = mu.boxes
    if n == 0:
        return np.ones((1, 1))
    acc = sum(character(mu, c) * table[c] for c in cycle_types(n))
    return acc * (character(mu, CycleType((1,) * n)) / math.factorial(n))


def partial_transpose_last(mat: np.ndarray, d: int) -> np.ndarray:
    """Transpose applied to the last tensor factor (of dimension d) only."""
    dim = mat.shape[0]
    rest = dim // d
    return mat.reshape(rest, d, rest, d).transpose(0, 3, 2, 1).reshape(dim, dim)


def _trace_last(mat: np.ndarray, d: int) -> np.ndarray:
    dim = mat.shape[0] // d
    return mat.reshape(dim, d, dim, d).trace(axis1=1, axis2=3)


def _pair_sandwich(p: np.ndarray, mat: np.ndarray, d: int) -> np.ndarray:
    """Q with kron(p, P+) mat kron(p, P+) = kron(Q, Ptilde+), for symmetric p,
    P+ = Ptilde+ / d on the last two factors and Ptilde+ = sum_ij |ii><jj|:
    Q = p T p / d^2, T the contraction of mat with sum_i |ii> on both sides."""
    k = len(p)
    return p @ np.einsum("aiibjj->ab", mat.reshape(k, d, d, k, d, d)) @ p / d**2


@functools.lru_cache(maxsize=None)
def _sectors(dim: int, d: int, last: int) -> list[np.ndarray]:
    """Weight sectors of the basis of (C^d)^k, dim = d^k, as one (sectors,
    size) index array per sector size.

    A state's weight is the digit counts of its first k-1 factors plus last
    times the count of its last digit: last = -1 labels the eigenspaces of
    U^(x k-1) (x) conj(U) for diagonal U, last = 1 those of U^(x k).
    """
    k = round(math.log(dim, d))
    digits = np.indices((d,) * k).reshape(k, 1, dim) == np.arange(d).reshape(d, 1)
    weight = digits[:-1].sum(axis=0) + last * digits[-1]
    labels = np.unique(weight, axis=1, return_inverse=True)[1].ravel()
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))
    order.setflags(write=False)  # cached: every caller shares these arrays
    groups = np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)
    return [g.reshape(-1, sizes[g[0]]) for g in groups]


def _sector_blocks(mat: np.ndarray, d: int, last: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(index, stacked blocks) per sector size of mat, after validating that no
    entry leaves its weight sector and that the blocks are symmetric (real
    Hermitian)."""
    blocks = [(g, mat[g[:, :, None], g[:, None, :]]) for g in _sectors(len(mat), d, last)]
    scale = max(1.0, _norm_inf(mat))
    asym = max(_norm_inf(b - b.transpose(0, 2, 1)) for _, b in blocks)
    if asym > 1e-9 * scale:
        raise ArithmeticError(f"operator is not Hermitian (deviation {asym:.2e})")
    off = mat.copy()
    for g, _ in blocks:
        off[g[:, :, None], g[:, None, :]] = 0.0
    leak = _norm_inf(off)
    if leak > 1e-9 * scale:
        raise ArithmeticError(f"operator leaves its weight sectors (entry {leak:.2e})")
    return blocks


def _eigvalsh(mat: np.ndarray, d: int, last: int = -1) -> np.ndarray:
    """LAPACK eigenvalues (ascending) of a validated symmetric operator, solved
    on its weight sectors (see _sectors for last)."""
    blocks = _sector_blocks(mat, d, last)
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for _, b in blocks]))


def _port_indices(n: int, d: int) -> list[np.ndarray]:
    """Per port a, the (d^(N-1), d) array of the basis states with digit i at
    port a and at the last factor, by the other digits r and i.  The port
    state of a is E_a E_a^T / d^N for the 0/1 map E_a: |r> -> sum_i |state(r, i)>."""
    grid = np.arange(d ** (n + 1)).reshape((d,) * (n + 1))
    return [np.diagonal(grid, axis1=a, axis2=n).reshape(-1, d) for a in range(n)]


def _port_apply(mat: np.ndarray, ports: list[np.ndarray]) -> np.ndarray:
    """eta @ mat for the port operator eta = sum_a E_a E_a^T (see _port_indices)."""
    out = np.zeros_like(mat)
    for idx in ports:
        out[idx] += mat[idx].sum(axis=1, keepdims=True)
    return out


def _f_operator(
    alpha: YoungDiagram, mu: YoungDiagram, projectors: dict, numbers: dict, d: int
) -> np.ndarray:
    """Port-operator eigenprojector F_mu(alpha) of parent alpha and child mu,
    reading P_alpha and P_mu from projectors and (d, m) of each from numbers.

    (1/gamma) P_mu [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] P_mu, acting on
    N+1 factors; idempotent with trace d_mu * m_alpha and eigenvalue gamma
    under the port operator.
    """
    n = mu.boxes
    (dim_a, mult_a), (dim_m, mult_m) = numbers[alpha], numbers[mu]
    gamma = n * mult_m * dim_a / (mult_a * dim_m)
    # P_alpha x Ptilde+ = G G^T for G = P_alpha x sum_i |ii>, so the sum is
    # B B^T, B = [V(a,N) G]_a, and F = C C^T with C = (P_mu x 1) B / sqrt(gamma)
    g = np.kron(projectors[alpha], np.eye(d).reshape(-1, 1)).reshape((d,) * (n + 1) + (-1,))
    # V(a,N) G swaps the row factors a and N-1 of G
    b = np.stack([g.transpose(transposition(a, n - 1, n + 2)) for a in range(n)], axis=-2)
    # (P_mu x 1) B is one matmul with the rows of B split off their last factor
    c = (projectors[mu] @ b.reshape(d**n, -1)).reshape(d ** (n + 1), -1) / math.sqrt(gamma)
    return c @ c.T


@dataclass(frozen=True)
class DenseCell:
    """Every operator and fast-path input the checks at one (N, d) need, each
    built once.

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
    projectors: dict[YoungDiagram, np.ndarray]
    numbers: dict[YoungDiagram, tuple[int, int]]
    family: dict[tuple[YoungDiagram, YoungDiagram], np.ndarray]
    ports: list[np.ndarray]
    sigmas: list[np.ndarray]
    solution: OptimalSolution
    povm: np.ndarray


def dense_cell(n: int, d: int) -> DenseCell:
    """The DenseCell of (N, d); CapExceededError above DEFAULT_CAP."""
    _require_cap(d, n + 1)
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
    ports = _port_indices(n, d)
    sigmas = [np.zeros((d ** (n + 1),) * 2) for _ in ports]
    for s, idx in zip(sigmas, ports):
        s[idx[:, :, None], idx[:, None, :]] = 1 / d**n
    solution = optimal_solution(edges)
    alphas, mus = edges.row_basis.entries, edges.col_basis.entries
    pairs = [(alphas[i], mus[j]) for i, j in zip(edges.parent.tolist(), edges.child.tolist())]
    # summed by ascending (alpha, mu) rows: the edge order reversed
    coeffs = zip(pairs[::-1], solution.p_coeffs[::-1].tolist())
    povm = sum(p * family[key] for key, p in coeffs if key in family)
    return DenseCell(n, d, edges, pairs, projectors, numbers, family, ports, sigmas, solution, povm)


def _pseudo_inverse_sqrt(mat: np.ndarray, d: int, threshold: float = 1e-10) -> np.ndarray:
    """Inverse square root on the support, solved on the weight sectors;
    eigenvalues below threshold drop out."""
    out = np.zeros_like(mat)
    for idx, blocks in _sector_blocks(mat, d, -1):
        w, v = np.linalg.eigh(blocks)
        inv = np.where(w > threshold, 1.0 / np.sqrt(np.maximum(w, threshold)), 0.0)
        out[idx[:, :, None], idx[:, None, :]] = (v * inv[:, None, :]) @ v.transpose(0, 2, 1)
    return out


def direct_fidelity(cell: DenseCell, povm_spec: str) -> float:
    """Teleportation fidelity by direct traces against a constructed POVM family.

    povm_spec "sqrt_measurement" conjugates the port states by the inverse
    square root of their sum; "optimal" sandwiches them with the optimal
    projector combination.
    """
    if povm_spec == "sqrt_measurement":
        wall = _pseudo_inverse_sqrt(sum(cell.sigmas), cell.d)
    elif povm_spec == "optimal":
        wall = cell.povm
    else:
        raise ValueError(f"unknown povm_spec {povm_spec!r}")
    # tr(W s_a W s_a) = tr(K_a K_a) / d^2N with K_a = E_a^T W E_a (see _port_indices)
    kays = (wall[:, idx].sum(axis=2)[idx].sum(axis=1) for idx in cell.ports)
    return math.fsum(float(np.sum(k * k.T)) for k in kays) / cell.d ** (2 * cell.n + 2)


def primal_constraint_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility of the optimal primal point.

    Returns the smallest eigenvalue of X_A (x) 1 - sum_a POVM_a (must be
    >= -tolerance) and the trace of X_A (must be d^N).
    """
    sol = cell.solution
    x_a = sum(c * cell.projectors[mu] for mu, c in zip(sol.basis, sol.c_coeffs.tolist()))
    # POVM (sum_a s_a) POVM = L L^T / d^N with L = [POVM E_1 ... POVM E_N]
    half = np.hstack([cell.povm[:, idx].sum(axis=2) for idx in cell.ports])
    w = _eigvalsh(np.kron(x_a, np.eye(cell.d)) - half @ half.T / cell.d**cell.n, cell.d)
    return {"min_eig": float(w[0]), "trace_XA": float(np.trace(x_a))}


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
    min_slack = min(float(_eigvalsh(omega - s, d)[0]) for s in cell.sigmas)
    w = _eigvalsh(_trace_last(omega, d), d, last=1)
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


def _norm_inf(mat: np.ndarray) -> float:
    return max(float(mat.max()), -float(mat.min())) if mat.size else 0.0


def _composition_residual(n: int, d: int) -> float:
    """Largest entry of V(s) (V(t) x) - V(s o t) x over every pair s, t of the
    generators of S(N+1), x = (0, 1, ..., d^(N+1) - 1).

    The generators are the adjacent transpositions and the (N+1)-cycle.  Two
    permutation matrices map a vector with distinct entries alike exactly when
    they are equal, and the products are exact, so the residual is 0.0 iff
    V(s) V(t) = V(s o t) for every pair.
    """
    gens = [transposition(i, i + 1, n + 1) for i in range(n)]
    gens.append(tuple(range(1, n + 1)) + (0,))
    x = np.arange(float(d ** (n + 1)))
    ops = {s: permutation_operator(s, d) for s in gens}
    res = 0.0
    for s in gens:
        for t in gens:
            st = tuple(s[t[i]] for i in range(n + 1))
            res = max(res, _norm_inf(ops[s] @ (ops[t] @ x) - permutation_operator(st, d) @ x))
    return res


def run_checks(n: int, d: int) -> list[CheckResult]:
    """Full verification battery at one (N, d); every formula the fast modules
    rely on is recomputed by dense linear algebra and compared."""
    cell = dense_cell(n, d)
    checks: list[CheckResult] = []
    full_basis = enumerate_diagrams(n)
    dim_a = d**n
    dim = d ** (n + 1)

    checks.append(_check("perm_composition", _composition_residual(n, d), 1e-12))

    # Young projectors: resolution, idempotence, Hermiticity, traces, centrality
    projectors = {mu: cell.projectors[mu] for mu in full_basis}
    resolution = sum(projectors.values()) - np.eye(dim_a)
    checks.append(_check("young_resolution", _norm_inf(resolution), 1e-10))
    idem = max(_norm_inf(p @ p - p) for p in projectors.values())
    checks.append(_check("young_idempotent", idem, 1e-10))
    herm = max(_norm_inf(p - p.T) for p in projectors.values())
    checks.append(_check("young_hermitian", herm, 1e-10))
    dims = {mu: dim for mu, (dim, _) in cell.numbers.items()}
    mults = {mu: m for mu, (_, m) in cell.numbers.items()}
    trace_res = max(abs(float(np.trace(p)) - dims[mu] * mults[mu]) for mu, p in projectors.items())
    checks.append(_check("young_trace", trace_res, _TOL))
    commute = 0.0
    for i in range(n - 1):  # the adjacent transpositions generate S(N)
        idx = _perm_index(transposition(i, i + 1, n), d)
        inv = np.argsort(idx)
        for p in projectors.values():
            # p V - V p for the permutation matrix V with index map idx
            commute = max(commute, _norm_inf(p[:, inv] - p[idx]))
    checks.append(_check("young_commute", commute, 1e-10))

    # port operator: Hermitian, PSD, exact eigenvalue multiset with multiplicities
    eta = d**n * sum(cell.sigmas)
    checks.append(_check("eta_hermitian", _norm_inf(eta - eta.T), 1e-10))
    eigs_eta = _eigvalsh(eta, d)
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
    f_trace_res = max(
        abs(float(np.trace(f)) - dims[mu] * mults[alpha]) for (alpha, mu), f in fams.items()
    )
    checks.append(_check("f_trace", f_trace_res, _TOL))
    f_eig_res = max(
        _norm_inf(_port_apply(fams[key], cell.ports) - g * fams[key]) for key, g in gamma_of.items()
    )
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
        inner_res = max(inner_res, _norm_inf(_pair_sandwich(p, f, d) - rhs))
    checks.append(_check("f_inner_product", inner_res, 1e-10))

    # reconstruction and support rank
    recon = sum(g * fams[key] for key, g in gamma_of.items()) - eta
    checks.append(_check("eta_reconstruction", _norm_inf(recon), 1e-9))
    rank_eta = int(np.sum(np.abs(eigs_eta) > 1e-8))
    rank_expected = sum(dims[mu] * mults[alpha] for (alpha, mu) in fams)
    checks.append(_check("f_support_rank", abs(rank_eta - rank_expected), 0.5))

    # partial transpose is an involution and preserves traces
    pt = partial_transpose_last(eta, d)
    checks.append(_check("pt_involution", _norm_inf(partial_transpose_last(pt, d) - eta), 1e-12))
    pt_trace = abs(float(np.trace(pt) - np.trace(eta)))
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
