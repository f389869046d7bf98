"""Reference values and output checks for the benchmark's correctness gate.

Everything here is rebuilt from the definitions, without importing dpbt, so a
defect in the package cannot also move the value it is checked against:

- the teleportation matrix M_F(N, d) over partitions of N with at most d
  rows: the diagonal counts single-box-removal parents, and two diagrams
  sharing a parent get 1 (equivalently M_F = R^T R for the parent-child
  incidence matrix R);
- its spectral radius: N when d >= N, 4 cos^2(pi / (N + 2)) when d = 2, and
  the top eigenvalue from numpy.linalg.eigvalsh otherwise;
- irrep dimensions and Schur-Weyl multiplicities by the hook and
  hook-content formulas, which give the square-root-measurement fidelity
  and the normalisation of the optimal coefficients.

Reference values are built once, before any timed pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The stopping rule of the power iteration stops short of its tolerance
# (about 1e-12) by a factor of up to a few hundred, so radii are gated at a
# looser relative tolerance and the shortfall itself is reported separately
# as spectral.rel_err_max.
RADIUS_RTOL = 1e-9
SUM_RTOL = 1e-10  # quantities the program sums in a different order
NORM_TOL = 1e-12
# Relative eigen-residual ||M v - rho v||_inf / rho of the Perron vector
# printed by `povm`; the power iteration leaves about 1.5e-10 at (400, 2).
PERRON_RESIDUAL_TOL = 1e-7


def partitions(n: int, d: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most d parts, largest first."""
    out: list[tuple[int, ...]] = []

    def grow(rest: int, cap: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
            return
        if len(prefix) == d:
            return
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, prefix + (part,))

    grow(n, n, ())
    return out


def label(rows: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, rows)) + "]"


def _parents(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for i, r in enumerate(rows):
        if i == len(rows) - 1 or r > rows[i + 1]:
            shrunk = rows[:i] + (r - 1,) + rows[i + 1 :]
            out.append(tuple(x for x in shrunk if x > 0))
    return out


def _hook_product(rows: tuple[int, ...]) -> int:
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows else []
    prod = 1
    for i, r in enumerate(rows):
        for j in range(r):
            prod *= (r - j) + (cols[j] - i) - 1
    return prod


def irrep_dim(rows: tuple[int, ...]) -> int:
    return math.factorial(sum(rows)) // _hook_product(rows)


def multiplicity(rows: tuple[int, ...], d: int) -> int:
    num = 1
    for i, r in enumerate(rows):
        for j in range(r):
            num *= d + j - i
    return num // _hook_product(rows)


@dataclass
class Cell:
    """Reference data for one (N, d)."""

    n: int
    d: int
    basis: list[tuple[int, ...]]
    matrix: np.ndarray
    radius: float
    incidences: int  # nonzeros of R: (parent, child) pairs under the cap
    sqrt_fidelity: float


def build_cell(n: int, d: int) -> Cell:
    basis = partitions(n, d)
    index = {mu: i for i, mu in enumerate(basis)}
    children: dict[tuple[int, ...], list[int]] = {}
    for mu in basis:
        for alpha in _parents(mu):
            children.setdefault(alpha, []).append(index[mu])
    m = np.zeros((len(basis), len(basis)))
    for group in children.values():
        m[np.ix_(group, group)] += 1.0
    if d >= n:
        radius = float(n)
    elif d == 2:
        radius = 4.0 * math.cos(math.pi / (n + 2)) ** 2
    else:
        radius = float(np.linalg.eigvalsh(m)[-1])
    weight = {mu: math.sqrt(irrep_dim(mu) * multiplicity(mu, d)) for mu in basis}
    sqrt_sum = math.fsum(
        math.fsum(weight[basis[i]] for i in group) ** 2 for group in children.values()
    )
    return Cell(
        n,
        d,
        basis,
        m,
        radius,
        sum(len(g) for g in children.values()),
        sqrt_sum / d ** (n + 2),
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@dataclass
class Tally:
    """Outcome of gating one pass: units attempted and failed, with reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    radius_rel_err: float = 0.0
    perron_residual: float = 0.0

    def unit(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)

    def radius(self, got: float, cell: Cell) -> list[str]:
        err = _rel(got, cell.radius)
        self.radius_rel_err = max(self.radius_rel_err, err)
        if err > RADIUS_RTOL:
            return [f"radius {got!r} vs reference {cell.radius!r} (rel {err:.2e})"]
        return []


def _check_fidelities(row: dict, cell: Cell, tally: Tally) -> list[str]:
    """The fields `fidelity` and a sweep row share."""
    n, d = cell.n, cell.d
    keys = ("f_opt", "f_sqrt_ent", "f_lower", "radius")
    missing = [k for k in keys + ("method",) if k not in row]
    if missing:
        return [f"missing fields {missing}"]
    f_opt, f_sqrt, f_low, radius = (row[k] for k in keys)
    if not _finite(f_opt, f_sqrt, f_low, radius):
        return [f"non-finite value in {row}"]
    problems = tally.radius(radius, cell)
    if _rel(f_opt, radius / d**2) > NORM_TOL:
        problems.append(f"f_opt {f_opt!r} != radius / d^2")
    if _rel(f_low, n / (d * d + n - 1)) > NORM_TOL:
        problems.append(f"f_lower {f_low!r} != N / (d^2 + N - 1)")
    if _rel(f_sqrt, cell.sqrt_fidelity) > SUM_RTOL:
        problems.append(f"f_sqrt_ent {f_sqrt!r} vs reference {cell.sqrt_fidelity!r}")
    slack = NORM_TOL * f_opt
    if not (f_low <= f_sqrt + slack and f_sqrt <= f_opt + slack):
        problems.append(f"order f_lower <= f_sqrt_ent <= f_opt broken: {f_low}, {f_sqrt}, {f_opt}")
    return problems


def check_fidelity(payload: dict, cell: Cell, tally: Tally) -> list[str]:
    if (payload.get("N"), payload.get("d")) != (cell.n, cell.d):
        return [f"answered cell {(payload.get('N'), payload.get('d'))}"]
    return _check_fidelities(payload, cell, tally)


def check_sweep_row(row: dict, cell: Cell, tally: Tally) -> list[str]:
    if "error" in row:
        return [f"error {row['error']!r}"]
    return _check_fidelities(row, cell, tally)


def check_povm(payload: dict, cell: Cell, tally: Tally) -> list[str]:
    n, d = cell.n, cell.d
    if (payload.get("N"), payload.get("d")) != (n, d):
        return [f"answered cell {(payload.get('N'), payload.get('d'))}"]
    labels = [label(mu) for mu in cell.basis]
    try:
        v = np.array([payload["v"][k] for k in labels], dtype=float)
        o = np.array([payload["o_coeffs"][k] for k in labels], dtype=float)
        c = np.array([payload["c_coeffs"][k] for k in labels], dtype=float)
        p = np.array([entry["p"] for entry in payload["p_coeffs"]], dtype=float)
    except (KeyError, TypeError) as exc:
        return [f"malformed payload: {exc!r}"]
    if len(payload["v"]) != len(labels):
        return [f"{len(payload['v'])} diagrams, expected {len(labels)}"]
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(o)) and np.all(np.isfinite(c))):
        return ["non-finite coefficient"]
    problems = []
    if not np.all(v > 0):
        problems.append("Perron vector not positive")
    norm = math.sqrt(math.fsum(v * v))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"Perron vector norm {norm!r}")
    resid = float(np.max(np.abs(cell.matrix @ v - cell.radius * v))) / cell.radius
    tally.perron_residual = max(tally.perron_residual, resid)
    if resid > PERRON_RESIDUAL_TOL:
        problems.append(f"eigen-residual {resid:.2e}")
    # c_mu = o_mu^2 = d^N v_mu^2 / (d_mu m_mu), so sum c_mu d_mu m_mu = d^N
    dn = d**n
    scaled = [c[i] * (irrep_dim(mu) * multiplicity(mu, d) / dn) for i, mu in enumerate(cell.basis)]
    if abs(math.fsum(scaled) - 1.0) > SUM_RTOL:
        problems.append(f"sum c_mu d_mu m_mu / d^N = {math.fsum(scaled)!r}")
    if np.max(np.abs(o * o - c) / c) > SUM_RTOL:
        problems.append("o_mu^2 != c_mu")
    if len(p) != cell.incidences or not np.all(p > 0) or not np.all(np.isfinite(p)):
        problems.append(f"{len(p)} POVM coefficients, expected {cell.incidences} positive")
    return problems


def check_verify(payload: dict, n: int, d: int) -> list[str]:
    checks = payload.get("checks")
    if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
        return ["checks missing or malformed"]
    problems = []
    if payload.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if not checks:
        problems.append("no checks ran")
    if any((c.get("N"), c.get("d")) != (n, d) for c in checks):
        problems.append("checks of another cell")
    failing = [c.get("name") for c in checks if c.get("passed") is not True]
    if failing:
        problems.append(f"failed checks {failing}")
    return problems
