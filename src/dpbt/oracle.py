"""Brute-force dense-operator verification at small port counts.

Everything the fast modules compute through diagram combinatorics is rebuilt
here directly in the computational basis of (C^d)^(N+1): permutation
operators (index maps of that basis), Young projectors, the port operator and
its eigenprojectors, the measurement operators, the optimal resource operator
and the dual certificate.  Each formula is then checked by plain linear algebra;
the character-table spectrum of the full teleportation matrix, in exact integers.
run_checks builds each operator of one (N, d) once, in a DenseCell that also
holds the fast path's one edge list, and runs its 29 checks on that cell.

Operators grow as d^(N+1), so constructions are capped at DEFAULT_CAP = 1024, which
covers the DEFAULT_CHECK_CELLS.  Operators are plain float64 numpy arrays:
every one of them is real in this basis, so Hermiticity is symmetry.
Eigensolves go through LAPACK (numpy.linalg.eigvalsh where only the spectrum
is read, numpy.linalg.eigh for the one inverse square root), which shares no
code with the fast spectral path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import CycleType, character, character_matrix, cycle_types
from .diagrams import (
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
)
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


def _perm_table(n: int, d: int) -> list[tuple[np.ndarray, CycleType]]:
    """(index map on n factors, cycle type) of every permutation of S_n, in
    itertools.permutations order."""
    return [
        (_perm_index(perm, d), _cycle_type_of(perm))
        for perm in itertools.permutations(range(n))
    ]


def young_projector(mu: YoungDiagram, d: int) -> np.ndarray:
    """Isotypic projector for mu on (C^d)^N: (dim_mu/N!) sum_s chi_mu(s) V(s).

    Characters of a class equal those of its inverses, so the class value is
    used directly.  Idempotent and Hermitian with trace d_mu * m_mu; the zero
    operator when the diagram is taller than d.
    """
    _require_cap(d, mu.boxes)
    return _young_projector(mu, d, _perm_table(mu.boxes, d))


def _young_projector(
    mu: YoungDiagram, d: int, table: list[tuple[np.ndarray, CycleType]]
) -> np.ndarray:
    """young_projector, summing over table, the _perm_table of S_N."""
    n = mu.boxes
    if n == 0:
        return np.ones((1, 1))
    dim = d**n
    chi = {c: character(mu, c) for c in cycle_types(n)}
    acc = np.zeros((dim, dim))
    rows = np.arange(dim)
    for idx, ctype in table:
        acc[rows, idx] += chi[ctype]
    acc *= irrep_dim(mu) / math.factorial(n)
    return acc


def partial_transpose_last(mat: np.ndarray, d: int) -> np.ndarray:
    """Transpose applied to the last tensor factor (of dimension d) only."""
    dim = mat.shape[0]
    rest = dim // d
    return mat.reshape(rest, d, rest, d).transpose(0, 3, 2, 1).reshape(dim, dim)


def _trace_last(mat: np.ndarray, d: int) -> np.ndarray:
    dim = mat.shape[0] // d
    return mat.reshape(dim, d, dim, d).trace(axis1=1, axis2=3)


def _ptilde_plus(d: int) -> np.ndarray:
    """Unnormalised maximally entangled projector sum_ij |ii><jj| on two factors."""
    flat = np.eye(d).ravel()
    return np.outer(flat, flat)


def _embed_front(mat: np.ndarray, d: int) -> np.ndarray:
    """Operator on the leading factors, identity on one extra last factor."""
    return np.kron(mat, np.eye(d))


def _symmetric(mat: np.ndarray) -> np.ndarray:
    """mat, after validating that it is symmetric (real Hermitian)."""
    scale = max(1.0, float(np.abs(mat).max()))
    asym = float(np.abs(mat - mat.T).max())
    if asym > 1e-9 * scale:
        raise ArithmeticError(f"operator is not Hermitian (deviation {asym:.2e})")
    return mat


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues (ascending) of a validated symmetric operator."""
    return np.linalg.eigvalsh(_symmetric(mat))


def _pt_swaps(n: int, d: int) -> list[np.ndarray]:
    """Last-factor partial transposes of the swaps between each port a and the
    teleported factor; port state a is the a-th one over d^N."""
    _require_cap(d, n + 1)
    eye = np.eye(d ** (n + 1))
    return [
        partial_transpose_last(eye[_perm_index(transposition(a, n, n + 1), d)], d)
        for a in range(n)
    ]


def _f_operator(alpha: YoungDiagram, mu: YoungDiagram, projectors: dict, d: int) -> np.ndarray:
    """Port-operator eigenprojector F_mu(alpha) of parent alpha and child mu,
    reading P_alpha and P_mu from projectors.

    (1/gamma) P_mu [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] P_mu, acting on
    N+1 factors; idempotent with trace d_mu * m_alpha and eigenvalue gamma
    under the port operator.
    """
    n = mu.boxes
    gamma = n * multiplicity(mu, d) * irrep_dim(alpha) / (multiplicity(alpha, d) * irrep_dim(mu))
    core = np.kron(projectors[alpha], _ptilde_plus(d))
    acc = np.zeros_like(core)
    for a in range(n):
        # V core V for the involution V = V(a, N-1)
        idx = _perm_index(transposition(a, n - 1, n + 1), d)
        acc += core[np.ix_(idx, idx)]
    p_mu = _embed_front(projectors[mu], d)
    return (p_mu @ acc @ p_mu) / gamma


@dataclass(frozen=True)
class DenseCell:
    """Every operator and fast-path input the checks at one (N, d) need, each
    built once.

    edges: the fast path's edge list, incidence_edges(N, d), which every
    protocol call of the checks takes; pairs: its edges as (alpha, mu)
    diagram pairs, in edge order.  projectors: the Young projector of
    every diagram of N (the vanishing ones too) and of every diagram of N-1
    with height <= d.  family: F_mu(alpha) for each pair
    of the add_box(alpha, d) walk, parents in basis order and children by
    descending rows.  sigmas: the port states.  solution: the optimal POVM
    coefficients and the Perron vector v.  povm: the optimal POVM element
    sum p_mu(alpha) F_mu(alpha) over the pairs the walk also has.  The port
    operator is d^N times the sum of the port states.
    """

    n: int
    d: int
    edges: IncidenceEdges
    pairs: list[tuple[YoungDiagram, YoungDiagram]]
    projectors: dict[YoungDiagram, np.ndarray]
    family: dict[tuple[YoungDiagram, YoungDiagram], np.ndarray]
    sigmas: list[np.ndarray]
    solution: OptimalSolution
    povm: np.ndarray


def dense_cell(n: int, d: int) -> DenseCell:
    """The DenseCell of (N, d); CapExceededError above DEFAULT_CAP."""
    _require_cap(d, n + 1)
    edges = incidence_edges(n, d)
    parents = enumerate_diagrams(n - 1, d)
    table, sub_table = _perm_table(n, d), _perm_table(n - 1, d)
    projectors = {mu: _young_projector(mu, d, table) for mu in enumerate_diagrams(n)}
    projectors.update({mu: _young_projector(mu, d, sub_table) for mu in parents})
    family = {
        (alpha, mu): _f_operator(alpha, mu, projectors, d)
        for alpha in parents
        for mu in sorted(add_box(alpha, d), key=lambda x: x.rows, reverse=True)
    }
    sigmas = [s / d**n for s in _pt_swaps(n, d)]
    solution = optimal_solution(edges)
    alphas, mus = edges.row_basis.entries, edges.col_basis.entries
    pairs = [(alphas[i], mus[j]) for i, j in zip(edges.parent.tolist(), edges.child.tolist())]
    # summed by ascending (alpha, mu) rows: the edge order reversed
    coeffs = zip(pairs[::-1], solution.p_coeffs[::-1].tolist())
    povm = sum(p * family[key] for key, p in coeffs if key in family)
    return DenseCell(n, d, edges, pairs, projectors, family, sigmas, solution, povm)


def _pseudo_inverse_sqrt(mat: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """Inverse square root on the support; eigenvalues below threshold drop out."""
    w, v = np.linalg.eigh(_symmetric(mat))
    inv = np.where(w > threshold, 1.0 / np.sqrt(np.maximum(w, threshold)), 0.0)
    return (v * inv) @ v.T


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
    # tr(W s W s) = sum of (W s) * (W s)^T entrywise: one product per port state
    total = math.fsum(float(np.sum(ws * ws.T)) for ws in (wall @ s for s in cell.sigmas))
    return total / cell.d**2


def primal_constraint_check(cell: DenseCell) -> dict[str, float]:
    """Feasibility of the optimal primal point.

    Returns the smallest eigenvalue of X_A (x) 1 - sum_a POVM_a (must be
    >= -tolerance) and the trace of X_A (must be d^N).
    """
    sol = cell.solution
    x_a = sum(c * cell.projectors[mu] for mu, c in zip(sol.basis, sol.c_coeffs.tolist()))
    povm_sum = cell.povm @ sum(cell.sigmas) @ cell.povm
    w = _eigvalsh(_embed_front(x_a, cell.d) - povm_sum)
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
    omega = sum(
        math.fsum(t[nu] for parent, nu in cell.family if parent == alpha)
        * multiplicity(mu, d)
        / (multiplicity(alpha, d) * t[mu] * d**n)
        * f
        for (alpha, mu), f in cell.family.items()
    )
    min_slack = min(float(_eigvalsh(omega - s)[0]) for s in cell.sigmas)
    w = _eigvalsh(_trace_last(omega, d))
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
    return float(np.abs(mat).max()) if mat.size else 0.0


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
    trace_res = max(
        abs(float(np.trace(p)) - irrep_dim(mu) * multiplicity(mu, d))
        for mu, p in projectors.items()
    )
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
    f_trace_res = max(
        abs(float(np.trace(f)) - irrep_dim(mu) * multiplicity(alpha, d))
        for (alpha, mu), f in fams.items()
    )
    checks.append(_check("f_trace", f_trace_res, _TOL))
    f_eig_res = max(_norm_inf(eta @ fams[key] - g * fams[key]) for key, g in gamma_of.items())
    checks.append(_check("f_eigen", f_eig_res, 1e-10))
    # symmetric projectors are mutually orthogonal iff their sum is a projector
    total = sum(fams.values())
    checks.append(_check("f_orthogonal", _norm_inf(total @ total - total), 1e-10))

    # basis-free inner-product identity: sandwiching an eigenprojector between
    # P_alpha (x) P+ rescales that projector by m_mu / (d m_alpha)
    inner_res = 0.0
    p_plus = _ptilde_plus(d) / d
    for (alpha, mu), f in fams.items():
        wall = np.kron(cell.projectors[alpha], p_plus)
        lhs = wall @ f @ wall
        rhs = (multiplicity(mu, d) / (d * multiplicity(alpha, d))) * wall
        inner_res = max(inner_res, _norm_inf(lhs - rhs))
    checks.append(_check("f_inner_product", inner_res, 1e-10))

    # reconstruction and support rank
    recon = sum(g * fams[key] for key, g in gamma_of.items()) - eta
    checks.append(_check("eta_reconstruction", _norm_inf(recon), 1e-9))
    rank_eta = int(np.sum(np.abs(eigs_eta) > 1e-8))
    rank_expected = sum(
        irrep_dim(mu) * multiplicity(alpha, d) for (alpha, mu) in fams
    )
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
