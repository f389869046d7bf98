"""Brute-force dense-operator verification at small port counts.

Everything the fast modules compute through diagram combinatorics is rebuilt
here directly in the computational basis of (C^d)^(N+1): permutation
operators (index maps of that basis), Young projectors, the port operator and
its eigenprojectors, the measurement operators, the optimal resource operator
and the dual certificate.  Each formula is then checked by plain linear algebra;
the character-table spectrum of the full teleportation matrix, in exact integers.

Operators grow as d^(N+1), so constructions are capped at DEFAULT_CAP = 1024, which
covers (N,d) in {(2,2),(3,2),(4,2),(5,2),(6,2),(2,3),(3,3),(4,3),(2,4),(3,4)}.
All operators are kept complex even though every one of them is real in this
basis; the Hermiticity checks stay honest that way.  Eigensolves go through LAPACK
(numpy.linalg.eigh), which shares no code with the fast spectral path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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
    general_povm_fidelity,
    optimal_fidelity,
    optimal_solution,
    protocol_eigenvalues,
    sqrt_measurement_fidelity,
)
from .spectral import closed_form_spectrum, dominant_eigenpair
from .telemat import incidence_edges

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_CHECK_CELLS",
    "CapExceededError",
    "DenseOperator",
    "CheckResult",
    "permutation_operator",
    "transposition",
    "young_projector",
    "partial_transpose_last",
    "eta_operator",
    "f_projector",
    "direct_fidelity",
    "primal_constraint_check",
    "dual_witness_check",
    "character_spectrum",
    "run_checks",
]

DEFAULT_CAP = 1024

# (4,3) and (6,2) fit the cap too but are slower: run_checks builds each eigenprojector
# four times and each Young projector, from all N! permutations, on every call
DEFAULT_CHECK_CELLS = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4))

# bound on trace, eigenvalue and fidelity residuals; operator identities use 1e-10, 1e-12
_TOL = 1e-8


class CapExceededError(RuntimeError):
    """Requested operator dimension d^k lies above DEFAULT_CAP."""


@dataclass
class DenseOperator:
    """Dense complex operator on `systems` tensor factors of local dimension d."""

    matrix: np.ndarray
    d: int
    systems: int

    def __post_init__(self) -> None:
        dim = self.d**self.systems
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape}, expected ({dim}, {dim})")

    @property
    def dim(self) -> int:
        return self.d**self.systems


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


def permutation_operator(perm: tuple[int, ...], d: int) -> DenseOperator:
    """0/1 operator permuting tensor factors.

    Factor i of the output carries what factor perm^{-1}(i) carried on input,
    so V(s) V(t) = V(s o t) with (s o t)(x) = s(t(x)).
    """
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of 0..{k - 1}: {perm}")
    _require_cap(d, k)
    return DenseOperator(np.eye(d**k, dtype=complex)[_perm_index(perm, d)], d, k)


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


def young_projector(mu: YoungDiagram, d: int) -> DenseOperator:
    """Isotypic projector for mu on (C^d)^N: (dim_mu/N!) sum_s chi_mu(s) V(s).

    Characters of a class equal those of its inverses, so the class value is
    used directly.  Idempotent and Hermitian with trace d_mu * m_mu; the zero
    operator when the diagram is taller than d.
    """
    n = mu.boxes
    _require_cap(d, n)
    if n == 0:
        return DenseOperator(np.ones((1, 1), dtype=complex), d, 0)
    dim = d**n
    chi = {c: character(mu, c) for c in cycle_types(n)}
    acc = np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        acc[np.arange(dim), _perm_index(perm, d)] += chi[_cycle_type_of(perm)]
    acc *= irrep_dim(mu) / math.factorial(n)
    return DenseOperator(acc, d, n)


def _pt_last(mat: np.ndarray, d: int) -> np.ndarray:
    dim = mat.shape[0]
    rest = dim // d
    return mat.reshape(rest, d, rest, d).transpose(0, 3, 2, 1).reshape(dim, dim)


def partial_transpose_last(op: DenseOperator) -> DenseOperator:
    """Transpose applied to the last tensor factor only."""
    return DenseOperator(_pt_last(op.matrix, op.d), op.d, op.systems)


def _trace_last(mat: np.ndarray, d: int) -> np.ndarray:
    dim = mat.shape[0] // d
    return mat.reshape(dim, d, dim, d).trace(axis1=1, axis2=3)


def _ptilde_plus(d: int) -> np.ndarray:
    """Unnormalised maximally entangled projector sum_ij |ii><jj| on two factors."""
    flat = np.eye(d, dtype=complex).ravel()
    return np.outer(flat, flat)


def _embed_front(mat: np.ndarray, d: int) -> np.ndarray:
    """Operator on the leading factors, identity on one extra last factor."""
    return np.kron(mat, np.eye(d))


def _eigh(mat: np.ndarray):
    """LAPACK eigendecomposition (ascending) after validating Hermiticity and
    realness."""
    scale = max(1.0, float(np.abs(mat).max()))
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > 1e-9 * scale:
        raise ArithmeticError(f"operator is not Hermitian (deviation {herm:.2e})")
    imag = float(np.abs(mat.imag).max())
    if imag > 1e-9 * scale:
        raise ArithmeticError(f"operator has complex entries (max imag {imag:.2e})")
    return np.linalg.eigh(mat.real)


def _pt_swaps(n: int, d: int) -> list[np.ndarray]:
    """Last-factor partial transposes of the swaps between each port a and the
    teleported factor; port state a is the a-th one over d^N."""
    _require_cap(d, n + 1)
    eye = np.eye(d ** (n + 1), dtype=complex)
    return [_pt_last(eye[_perm_index(transposition(a, n, n + 1), d)], d) for a in range(n)]


def eta_operator(n: int, d: int) -> DenseOperator:
    """Sum over ports of the last-factor partial transpose of the swap between
    port a and the teleported factor; Hermitian, d^N times the port state sum."""
    return DenseOperator(sum(_pt_swaps(n, d)), d, n + 1)


def _sigma_operators(n: int, d: int) -> list[np.ndarray]:
    return [s / d**n for s in _pt_swaps(n, d)]


def f_projector(alpha: YoungDiagram, mu: YoungDiagram, d: int) -> DenseOperator:
    """Port-operator eigenprojector labelled by parent alpha and child mu.

    (1/gamma) P_mu [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] P_mu, acting on
    N+1 factors; idempotent with trace d_mu * m_alpha and eigenvalue gamma
    under the port operator.
    """
    n = mu.boxes
    k = n + 1
    if alpha.boxes != n - 1 or mu not in add_box(alpha):
        raise ValueError(f"{mu.label()} does not grow from {alpha.label()} by one box")
    _require_cap(d, k)
    m_a = multiplicity(alpha, d)
    m_m = multiplicity(mu, d)
    if m_a == 0 or m_m == 0:
        raise ValueError(
            f"zero multiplicity at d={d} for {alpha.label()} -> {mu.label()}"
        )
    gamma = Fraction(n * m_m * irrep_dim(alpha), m_a * irrep_dim(mu))
    core = np.kron(young_projector(alpha, d).matrix, _ptilde_plus(d))
    acc = np.zeros_like(core)
    for a in range(n):
        # V core V for the involution V = V(a, N-1)
        idx = _perm_index(transposition(a, n - 1, k), d)
        acc += core[np.ix_(idx, idx)]
    p_mu = _embed_front(young_projector(mu, d).matrix, d)
    return DenseOperator((p_mu @ acc @ p_mu) / float(gamma), d, k)


def _pseudo_inverse_sqrt(mat: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """Inverse square root on the support; eigenvalues below threshold drop out."""
    w, v = _eigh(mat)
    inv = np.where(w > threshold, 1.0 / np.sqrt(np.maximum(w, threshold)), 0.0)
    return (v * inv) @ v.T


def _optimal_povm_element(n: int, d: int) -> np.ndarray:
    sol = optimal_solution(n, d)
    dim = d ** (n + 1)
    pi = np.zeros((dim, dim), dtype=complex)
    for (alpha, mu), p in sorted(
        sol.p_coeffs.items(), key=lambda kv: (kv[0][0].rows, kv[0][1].rows)
    ):
        pi += p * f_projector(alpha, mu, d).matrix
    return pi


def direct_fidelity(n: int, d: int, povm_spec: str) -> float:
    """Teleportation fidelity by direct traces against a constructed POVM family.

    povm_spec "sqrt_measurement" conjugates the port states by the inverse
    square root of their sum; "optimal" sandwiches them with the optimal
    projector combination.
    """
    sigmas = _sigma_operators(n, d)
    if povm_spec == "sqrt_measurement":
        rho = sum(sigmas)
        isqrt = _pseudo_inverse_sqrt(rho)
        povms = [isqrt @ s @ isqrt for s in sigmas]
    elif povm_spec == "optimal":
        pi = _optimal_povm_element(n, d)
        povms = [pi @ s @ pi for s in sigmas]
    else:
        raise ValueError(f"unknown povm_spec {povm_spec!r}")
    total = math.fsum(float(np.trace(p @ s).real) for p, s in zip(povms, sigmas))
    return total / d**2


def primal_constraint_check(n: int, d: int) -> dict[str, float]:
    """Feasibility of the optimal primal point.

    Returns the smallest eigenvalue of X_A (x) 1 - sum_a POVM_a (must be
    >= -tolerance) and the trace of X_A (must be d^N).
    """
    sol = optimal_solution(n, d)
    dim_a = d**n
    x_a = np.zeros((dim_a, dim_a), dtype=complex)
    for mu in sol.basis:
        x_a += sol.c_coeffs[mu] * young_projector(mu, d).matrix
    trace_xa = float(np.trace(x_a).real)
    pi = _optimal_povm_element(n, d)
    povm_sum = np.zeros((d ** (n + 1), d ** (n + 1)), dtype=complex)
    for s in _sigma_operators(n, d):
        povm_sum += pi @ s @ pi
    slack = _embed_front(x_a, d) - povm_sum
    w, _ = _eigh(slack)
    return {"min_eig": float(w[0]), "trace_XA": trace_xa}


def dual_witness_check(n: int, d: int) -> dict[str, float]:
    """Feasibility and objective of the dual certificate.

    Per-diagram weights t are the Perron entries; the certificate must
    dominate every port state, and d^(N-2) times the infinity norm of its
    last-factor partial trace reproduces the optimum radius / d^2.
    """
    eigenpair = dominant_eigenpair(incidence_edges(n, d))
    t = {mu: eigenpair.perron_entry(mu) for mu in eigenpair.basis}
    dim = d ** (n + 1)
    _require_cap(d, n + 1)
    omega = np.zeros((dim, dim), dtype=complex)
    for alpha in enumerate_diagrams(n - 1, d):
        group = sorted(add_box(alpha, d), key=lambda x: x.rows, reverse=True)
        t_sum = math.fsum(t[mu] for mu in group)
        m_a = multiplicity(alpha, d)
        for mu in group:
            coeff = t_sum * multiplicity(mu, d) / (m_a * t[mu] * d**n)
            omega += coeff * f_projector(alpha, mu, d).matrix
    min_slack = math.inf
    for s in _sigma_operators(n, d):
        w, _ = _eigh(omega - s)
        min_slack = min(min_slack, float(w[0]))
    reduced = _trace_last(omega, d)
    w, _ = _eigh(reduced)
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


def run_checks(n: int, d: int) -> list[CheckResult]:
    """Full verification battery at one (N, d); every formula the fast modules
    rely on is recomputed by dense linear algebra and compared."""
    _require_cap(d, n + 1)
    checks: list[CheckResult] = []
    full_basis = enumerate_diagrams(n)
    dim_a = d**n
    dim = d ** (n + 1)

    # permutation operators compose like permutations
    comp_res = 0.0
    gens = [transposition(i, i + 1, n + 1) for i in range(n)]
    gens.append(tuple(range(1, n + 1)) + (0,))
    for s in gens:
        for t in gens:
            st = tuple(s[t[i]] for i in range(n + 1))
            lhs = permutation_operator(s, d).matrix @ permutation_operator(t, d).matrix
            comp_res = max(comp_res, _norm_inf(lhs - permutation_operator(st, d).matrix))
    checks.append(_check("perm_composition", comp_res, 1e-12))

    # Young projectors: resolution, idempotence, Hermiticity, traces, centrality
    projectors = {mu: young_projector(mu, d).matrix for mu in full_basis}
    resolution = sum(projectors.values()) - np.eye(dim_a)
    checks.append(_check("young_resolution", _norm_inf(resolution), 1e-10))
    idem = max(_norm_inf(p @ p - p) for p in projectors.values())
    checks.append(_check("young_idempotent", idem, 1e-10))
    herm = max(_norm_inf(p - p.conj().T) for p in projectors.values())
    checks.append(_check("young_hermitian", herm, 1e-10))
    trace_res = max(
        abs(float(np.trace(p).real) - irrep_dim(mu) * multiplicity(mu, d))
        for mu, p in projectors.items()
    )
    checks.append(_check("young_trace", trace_res, _TOL))
    commute = 0.0
    for perm in itertools.permutations(range(n)):
        idx = _perm_index(perm, d)
        inv = np.argsort(idx)
        for p in projectors.values():
            # p V - V p for the permutation matrix V of perm
            commute = max(commute, _norm_inf(p[:, inv] - p[idx]))
    checks.append(_check("young_commute", commute, 1e-10))

    # port operator: Hermitian, PSD, exact eigenvalue multiset with multiplicities
    eta = eta_operator(n, d).matrix
    checks.append(_check("eta_hermitian", _norm_inf(eta - eta.conj().T), 1e-10))
    eigs_eta, _ = _eigh(eta)
    checks.append(_check("eta_psd", max(0.0, -float(eigs_eta[0])), 1e-10))
    eigen_labels = protocol_eigenvalues(n, d)
    expected = []
    for e in eigen_labels:
        expected.extend([float(e.gamma)] * (irrep_dim(e.mu) * multiplicity(e.alpha, d)))
    expected.extend([0.0] * (dim - len(expected)))
    expected.sort(reverse=True)
    actual = sorted((float(x) for x in eigs_eta), reverse=True)
    eig_res = max(abs(a - b) for a, b in zip(actual, expected))
    checks.append(_check("eta_eigenvalues", eig_res, _TOL))

    # eigenprojector family
    fams = {(e.alpha, e.mu): f_projector(e.alpha, e.mu, d).matrix for e in eigen_labels}
    gamma_of = {(e.alpha, e.mu): float(e.gamma) for e in eigen_labels}
    idem = max(_norm_inf(f @ f - f) for f in fams.values())
    checks.append(_check("f_idempotent", idem, 1e-10))
    herm = max(_norm_inf(f - f.conj().T) for f in fams.values())
    checks.append(_check("f_hermitian", herm, 1e-10))
    f_trace_res = max(
        abs(float(np.trace(f).real) - irrep_dim(mu) * multiplicity(alpha, d))
        for (alpha, mu), f in fams.items()
    )
    checks.append(_check("f_trace", f_trace_res, _TOL))
    f_eig_res = max(
        _norm_inf(eta @ f - gamma_of[key] * f) for key, f in fams.items()
    )
    checks.append(_check("f_eigen", f_eig_res, 1e-10))
    ortho = 0.0
    keys = list(fams)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1 :]:
            ortho = max(ortho, _norm_inf(fams[k1] @ fams[k2]))
    checks.append(_check("f_orthogonal", ortho, 1e-10))

    # basis-free inner-product identity: sandwiching an eigenprojector between
    # P_alpha (x) P+ rescales that projector by m_mu / (d m_alpha)
    inner_res = 0.0
    p_plus = _ptilde_plus(d) / d
    for (alpha, mu), f in fams.items():
        p_alpha = young_projector(alpha, d).matrix
        wall = np.kron(p_alpha, p_plus)
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
    checks.append(
        _check("pt_involution", _norm_inf(_pt_last(_pt_last(eta, d), d) - eta), 1e-12)
    )
    pt_trace = abs(float(np.trace(_pt_last(eta, d)).real - np.trace(eta).real))
    checks.append(_check("pt_trace", pt_trace, 1e-12))

    # the fidelity triangle
    f_sqrt_formula = sqrt_measurement_fidelity(incidence_edges(n, d)).fidelity
    f_sqrt_direct = direct_fidelity(n, d, "sqrt_measurement")
    checks.append(_check("fidelity_sqrt_direct", abs(f_sqrt_direct - f_sqrt_formula), _TOL))
    f_family = general_povm_fidelity(n, d, 1, 2)
    checks.append(_check("fidelity_povm_family", abs(f_family - f_sqrt_formula), 1e-12))
    opt = optimal_fidelity(incidence_edges(n, d))
    f_opt_direct = direct_fidelity(n, d, "optimal")
    checks.append(_check("fidelity_optimal_direct", abs(f_opt_direct - opt.fidelity), _TOL))

    primal = primal_constraint_check(n, d)
    checks.append(_check("primal_min_eig", max(0.0, -primal["min_eig"]), _TOL))
    checks.append(_check("primal_trace", abs(primal["trace_XA"] - d**n), _TOL))

    dual = dual_witness_check(n, d)
    checks.append(_check("dual_min_slack", max(0.0, -dual["min_slack"]), _TOL))
    checks.append(_check("dual_objective", abs(dual["objective"] - opt.fidelity), _TOL))
    checks.append(_check("duality_gap", abs(f_opt_direct - dual["objective"]), _TOL))

    # exact character-table multiplicities of the full matrix at N vs the closed form
    agree = character_spectrum(n) == closed_form_spectrum(n)
    checks.append(_check("character_spectrum", 0.0 if agree else 1.0, 0.5))

    return checks
