"""Command-line surface: matrices, spectra, fidelities, coefficients,
verification and sweeps, emitted as deterministic JSON or CSV.

Exit codes: 0 success, 1 validation error (the usage of the failing command
on stderr; also d above MAX_DIM, a cell above MAX_CELL_DIAGRAMS or
MAX_CELL_BITS, a matrix above MAX_MATRIX_ENTRIES, a solver option out of
range, or a .csv output path for a JSON-only verb), an -o path that cannot
be opened (checked before computing; one error line, no usage) or stdout
closed by its reader (no traceback), 2 computation failure (no certified radius within --max-iter,
cap exceeded, failed verification).

JSON output is byte for byte json.dumps(payload, indent=2).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import sys

from . import __version__
from .characters import cycle_types
from .diagrams import partition_counts
from .protocol import fidelity_row, optimal_solution, sweep
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LANCZOS_FLOOR,
    PowerIterationError,
    closed_form_d2,
    closed_form_spectrum,
    dominant_eigenpair,
)
from .telemat import gram_H, incidence_edges, incidence_matrix, teleportation_matrix

SWEEP_COLUMNS = (
    "N",
    "d",
    "f_lower",
    "f_sqrt_ent",
    "f_opt",
    "method",
    "radius",
    "iterations",
    "error",
)

MAX_MATRIX_ENTRIES = 10**7
# each `matrix --kind`: its build and the sides of its rows and columns, side 0
# the diagrams of N-1 (the rows of R), side 1 those of N
_MATRICES = {
    "MF": (teleportation_matrix, 1, 1),
    "R": (incidence_matrix, 0, 1),
    "H": (gram_H, 0, 0),
}
# The cell limit, from peak RSS measured per diagram of N - 1 plus N (numbers
# in CHANGES.md).  Each diagram costs a fixed part (edges, float arrays, the
# povm payload: 2.0-3.1 KB for `povm`, 0.3-0.9 KB for `fidelity`) plus its
# exact d_mu and m_mu, Python ints of up to N log2 d bits each, which dominate
# at d = 2 and 3 (`povm` peaks at 2.7 times that width per diagram).  So the
# diagram count and the count times ceil(N log2 d) are both bounded: the
# integers then stay within about 0.7 GB (`povm` at (44720,2), the largest N
# allowed at d = 2, peaked at 703 MB), and by linear extrapolation, unmeasured
# at the limit, the fixed part of `povm` within about 6 GB.  (500,4) has
# 1.78M diagrams and 1.78e9 bits.
MAX_CELL_DIAGRAMS = 2 * 10**6
MAX_CELL_BITS = 2 * 10**9
# d <= 2^511 keeps d^2 <= 2^1022, so every fidelity, at least
# N / (d^2 + N - 1) >= 2^-1022, is a normal double; above it d^2 leaves double
# range or the fidelities turn subnormal, and their printed digits inexact.
MAX_DIM = 2**511


class UsageError(Exception):
    """Invalid command line; usage is the usage line of the parser at fault,
    when that parser raised it."""

    def __init__(self, message: str, usage: str | None = None):
        super().__init__(message)
        self.usage = usage


class OutputError(Exception):
    """The -o path cannot be opened for writing."""


class ComputationError(Exception):
    """A computation refused before it starts, such as an oracle cell above
    its cap: exit code 2."""


class _Parser(argparse.ArgumentParser):
    verbs: dict[str, _Parser]  # the sub-command parsers, on the top-level parser

    def error(self, message: str):  # route argparse failures to exit code 1
        raise UsageError(message, self.format_usage())


@functools.cache  # parsing leaves the parser unchanged, so one serves every run
def build_parser() -> _Parser:
    parser = _Parser(prog="dpbt", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices

    def solver_options(p: _Parser) -> None:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="relative bracket width, 1e-14 <= tol < 1")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="bound on products by M_F")

    def common(p: _Parser, solve: bool = True) -> None:
        p.add_argument("--ports", "-N", type=int, required=True, help="port count N >= 1")
        p.add_argument("--dim", "-d", type=int, required=True, help="local dimension d >= 2")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if solve:
            solver_options(p)

    def table_format(p: _Parser) -> None:
        p.add_argument("--format", choices=("json", "csv"), help="default json; csv for -o *.csv")

    p_matrix = sub.add_parser("matrix", help="emit MF/R/H matrices")
    common(p_matrix, solve=False)
    table_format(p_matrix)
    p_matrix.add_argument("--kind", choices=tuple(_MATRICES), default="MF")

    p_spectrum = sub.add_parser("spectrum", help="spectral radius and Perron vector")
    common(p_spectrum)

    p_fid = sub.add_parser("fidelity", help="optimal / entangled / lower-bound fidelities")
    common(p_fid)

    p_povm = sub.add_parser("povm", help="optimal measurement and state coefficients")
    common(p_povm)

    p_verify = sub.add_parser("verify", help="dense-oracle verification report")
    p_verify.add_argument("--oracle", action="store_true", help="run the dense operator checks")
    p_verify.add_argument("--ports", "-N", type=int, default=None)
    p_verify.add_argument("--dim", "-d", type=int, default=None)
    p_verify.add_argument("-o", "--output", default=None)

    p_sweep = sub.add_parser("sweep", help="fidelity table over an (N, d) grid")
    p_sweep.add_argument("--ports", required=True, help="inclusive range a:b")
    p_sweep.add_argument("--dims", required=True, help="comma-separated dimensions")
    table_format(p_sweep)
    p_sweep.add_argument("-o", "--output", default=None)
    solver_options(p_sweep)

    return parser


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    if args.output is not None and args.output.lower().endswith(".csv"):
        return "csv"
    return "json"


def _validate_options(args) -> None:
    """Reject solver options out of range, and a .csv path for JSON-only verbs."""
    if "tol" in args:
        if not LANCZOS_FLOOR <= args.tol < 1:  # also rejects nan and inf
            raise UsageError(f"--tol must be a number with {LANCZOS_FLOOR} <= tol < 1, got {args.tol}")
        if args.max_iter < 1:
            raise UsageError(f"--max-iter must be >= 1, got {args.max_iter}")
    if "format" not in args and (args.output or "").lower().endswith(".csv"):
        raise UsageError(f"{args.verb} writes JSON only; --output {args.output} ends in .csv")


def _validate_nd(n: int, d: int) -> tuple[int, int]:
    """Check N and d, and refuse d above MAX_DIM or a cell above
    MAX_CELL_DIAGRAMS or MAX_CELL_BITS before anything is listed; return the
    diagram counts of N - 1 and N."""
    if n < 1:
        raise UsageError(f"--ports must be >= 1, got {n}")
    if d < 2:
        raise UsageError(f"--dim must be >= 2, got {d}")
    if d > MAX_DIM:
        raise UsageError(f"local dimension d={d} is above the largest supported, 2**511")
    parents, children = _cell_counts(n, d)
    diagrams = parents + children
    if diagrams > MAX_CELL_DIAGRAMS:
        raise UsageError(
            f"N={n}, d={d} has at least {diagrams} diagrams of N-1 and N, "
            f"above the cell limit of {MAX_CELL_DIAGRAMS}"
        )
    width = math.ceil(n * math.log2(d))  # bits of the largest exact d_mu or m_mu
    if diagrams * width > MAX_CELL_BITS:
        raise UsageError(
            f"N={n}, d={d} has {diagrams} diagrams of N-1 and N with exact d_mu, m_mu "
            f"of up to {width} bits: {diagrams * width} bits, above the cell limit of "
            f"{MAX_CELL_BITS} bits"
        )
    return parents, children


def _cell_counts(n: int, d: int) -> tuple[int, int]:
    """Diagram counts of N - 1 and N boxes with height <= d, exact while their
    sum is at most MAX_CELL_DIAGRAMS, else lower bounds above it.

    Counts grow with the height cap, so the closed forms at caps 2 and 3 bound
    N before any coin change runs, and the coin change then doubles the cap
    only while the sum stays within the limit: bounded time for any (N, d).
    """
    if d == 2:  # partitions of m into at most 2 parts: m // 2 + 1
        return (n - 1) // 2 + 1, n // 2 + 1
    counts = (((n + 2) ** 2 + 6) // 12, ((n + 3) ** 2 + 6) // 12)  # at most 3 parts: round((m + 3)² / 12)
    cap = 3
    while sum(counts) <= MAX_CELL_DIAGRAMS and cap < min(n, d):
        cap = min(2 * cap, n, d)
        counts = tuple(partition_counts(n, cap)[-2:])
    return counts


def _parse_range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad range {text!r}; expected a:b") from None
        if a > b:
            raise UsageError(f"empty range {text!r}")
        return range(a, b + 1)
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"bad ports value {text!r}") from None
    return range(n, n + 1)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"bad dims list {text!r}") from None
    if not dims:
        raise UsageError("dims list is empty")
    return dims


def _probe_output(path: str) -> None:
    """Fail before any computation when path cannot be opened for writing.

    Mode "a" does not truncate, so an existing file keeps its contents if the
    command then fails; a file the probe creates is removed again.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _emit(text: str, path: str | None, out) -> None:
    with contextlib.ExitStack() as stack:
        if path is not None:
            try:
                out = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
            except OSError as exc:
                raise OutputError(f"cannot write {path}: {exc.strerror}") from None
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")


def _json(payload: dict) -> str:
    """json.dumps(payload, indent=2), byte for byte, with the leaves of each
    container encoded by C-level loops (the indenting encoder is pure Python).
    Keys must be str."""
    return _encode(payload, "\n")


_encode_str = json.encoder.encode_basestring_ascii


def _encode(value, nl: str) -> str:
    """value as json.dumps(value, indent=2) writes it after the line break and
    indent nl."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        items = _leaves(value)
        if items is None:
            items = _table(value, inner)
        if items is None:
            items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        values = list(value.values())
        items = _leaves(values)
        if items is None:
            items = [_encode(v, inner) for v in values]
        pairs = map(": ".join, zip(map(_encode_str, value), items))
        return "{" + inner + ("," + inner).join(pairs) + nl + "}"
    return json.dumps(value)


def _leaves(values) -> list[str] | None:
    """The JSON of each value, or None if one is a container.

    The types are classified once: exact float (all finite), int or str
    values take one C-level map; others (bool, None, NaN, numpy scalars)
    take json.dumps one at a time.
    """
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
        return None
    return list(map(json.dumps, values))


def _table(rows, nl: str) -> list[str] | None:
    """Dicts of leaves that share one key tuple, encoded column by column
    into one % template per row; None for any other list."""
    if set(map(type, rows)) != {dict}:
        return None
    key_tuples = set(map(tuple, rows))
    if len(key_tuples) != 1:
        return None
    (keys,) = key_tuples
    columns = [_leaves(list(map(operator.itemgetter(k), rows))) for k in keys]
    if not keys or any(column is None for column in columns):
        return None
    inner = nl + "  "
    fields = ",".join(inner + _encode_str(k).replace("%", "%%") + ": %s" for k in keys)
    return list(map(("{" + fields + nl + "}").__mod__, zip(*columns)))


def _cmd_matrix(args, out) -> int:
    counts = _validate_nd(args.ports, args.dim)  # diagrams of N-1, N
    build, row_side, col_side = _MATRICES[args.kind]
    size = counts[row_side] * counts[col_side]
    if size > MAX_MATRIX_ENTRIES:
        raise UsageError(
            f"--kind {args.kind} at N={args.ports}, d={args.dim} has {size} entries, "
            f"above the dense output limit of {MAX_MATRIX_ENTRIES}"
        )
    e = incidence_edges(args.ports, args.dim)
    labels = (e.row_basis.labels(), e.col_basis.labels())
    rows, cols = list(labels[row_side]), list(labels[col_side])
    entries = build(e).tolist()
    if _resolve_format(args) == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["", *cols])
        writer.writerows([label, *row] for label, row in zip(rows, entries))
        _emit(buf.getvalue(), args.output, out)
    else:
        # N is the port count of the cell, also for H on the diagrams of N-1
        payload = {
            "version": __version__,
            "kind": args.kind,
            "N": args.ports,
            "d": args.dim,
            "basis": rows if row_side == col_side else {"rows": rows, "cols": cols},
            "entries": entries,
        }
        _emit(_json(payload), args.output, out)
    return 0


def _cmd_spectrum(args, out) -> int:
    _validate_nd(args.ports, args.dim)
    n, d = args.ports, args.dim
    res = dominant_eigenpair(incidence_edges(n, d), args.tol, args.max_iter)
    payload = {
        "version": __version__,
        "N": n,
        "d": d,
        "radius": res.radius,
        "method": res.method,
        "iterations": res.iterations,
        "bracket": [res.lo, res.hi],
        "perron": dict(zip(res.basis.labels(), res.perron.tolist())),
    }
    if d == 2:
        payload["eigenvalues"] = closed_form_d2(n)
    if d >= n:
        payload["spectrum_multiplicities"] = {
            str(k): v for k, v in sorted(closed_form_spectrum(n).items(), reverse=True)
        }
        payload["eigenvector_classes"] = [
            {"class": c.label(), "eigenvalue": c.fixed_points} for c in cycle_types(n)
        ]
    _emit(_json(payload), args.output, out)
    return 0


def _cmd_fidelity(args, out) -> int:
    _validate_nd(args.ports, args.dim)
    row = fidelity_row(args.ports, args.dim, args.tol, args.max_iter)
    _emit(_json({"version": __version__, **row}), args.output, out)
    return 0


def _cmd_povm(args, out) -> int:
    _validate_nd(args.ports, args.dim)
    sol = optimal_solution(incidence_edges(args.ports, args.dim), args.tol, args.max_iter)
    e = sol.edges
    alphas, mus = e.row_basis.labels(), e.col_basis.labels()
    payload = {
        "version": __version__,
        "N": args.ports,
        "d": args.dim,
        "method": sol.eigenpair.method,
        "v": dict(zip(mus, sol.v.tolist())),
        "o_coeffs": dict(zip(mus, sol.o_coeffs.tolist())),
        "c_coeffs": dict(zip(mus, sol.c_coeffs.tolist())),
        # ascending (alpha, mu) rows: the edge order reversed
        "p_coeffs": [
            {"alpha": alphas[i], "mu": mus[j], "p": p}
            for i, j, p in zip(
                e.parent[::-1].tolist(), e.child[::-1].tolist(), sol.p_coeffs[::-1].tolist()
            )
        ],
    }
    _emit(_json(payload), args.output, out)
    return 0


def __getattr__(name: str):
    # run_checks loads dpbt.oracle on first use, so that only verify pays for
    # that import; _cmd_verify calls it through this module, so that a wrapper
    # set in its place (as the benchmark's tracer sets) is the one called
    if name == "run_checks":
        from .oracle import run_checks

        return run_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_verify(args, out) -> int:
    if not args.oracle:
        raise UsageError("verify currently requires --oracle")
    if (args.ports is None) != (args.dim is None):
        raise UsageError("give both --ports and --dim, or neither")
    from .oracle import DEFAULT_CHECK_CELLS, MAX_ENTRIES, MAX_SCATTER, CapExceededError

    if args.ports is not None:
        _validate_nd(args.ports, args.dim)
        cells = [(args.ports, args.dim)]
    else:
        cells = list(DEFAULT_CHECK_CELLS)
    records = []
    for n, d in cells:
        try:
            results = sys.modules[__name__].run_checks(n, d)
        except CapExceededError as exc:
            raise ComputationError(str(exc)) from None
        for res in results:
            records.append(
                {
                    "name": res.name,
                    "N": n,
                    "d": d,
                    "residual": res.residual,
                    "tolerance": res.tolerance,
                    "passed": res.passed,
                }
            )
    all_passed = all(r["passed"] for r in records)
    payload = {
        "version": __version__,
        "cap": {"entries": MAX_ENTRIES, "scatter": MAX_SCATTER},
        "checks": records,
        "all_passed": all_passed,
    }
    _emit(_json(payload), args.output, out)
    return 0 if all_passed else 2


def _cmd_sweep(args, out) -> int:
    n_values = _parse_range(args.ports)
    d_values = _parse_dims(args.dims)
    if n_values[0] < 1:
        raise UsageError("--ports values must be >= 1")
    if min(d_values) < 2:
        raise UsageError("--dims values must be >= 2")
    _validate_nd(n_values[-1], max(d_values))  # the largest cell, before the first
    rows = sweep(n_values, d_values, tol=args.tol, max_iter=args.max_iter)
    if _resolve_format(args) == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row.get(col, "") for col in SWEEP_COLUMNS])
        _emit(buf.getvalue(), args.output, out)
    else:
        payload = {"version": __version__, "rows": rows}
        _emit(_json(payload), args.output, out)
    return 0


_COMMANDS = {
    "matrix": _cmd_matrix,
    "spectrum": _cmd_spectrum,
    "fidelity": _cmd_fidelity,
    "povm": _cmd_povm,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Parse argv, run the command, return the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    at_fault = parser
    try:
        args, extra = parser.parse_known_args(argv)
        at_fault = parser.verbs[args.verb]  # later usage errors belong to the verb
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        _validate_options(args)
        if args.output is not None:
            _probe_output(args.output)
        return _COMMANDS[args.verb](args, out)
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        err.write(f"error: {exc}\n")
        err.write(exc.usage or at_fault.format_usage())
        return 1
    except OutputError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (PowerIterationError, ComputationError, ArithmeticError) as exc:
        err.write(f"computation failed: {exc}\n")
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # reader closed stdout; devnull silences the exit flush (SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
