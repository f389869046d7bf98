"""One pass of a workload in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec holds the checkout root, the CLI argv lists to run and whether to
trace.  The process imports `dpbt.cli` from `<root>/src`, prints "ready" (the
parent times set-up up to that line), runs every argv through
`dpbt.cli.run` with output captured, and prints one JSON object with the
pass wall time, peak RSS, each command's exit code and output, and, when
tracing, the per-layer metrics.  A spec with "probe" set stops after "ready".
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Probe, Tracer


def _probes() -> list[Probe]:
    def shape(m) -> dict:
        rows, cols = m.shape
        return {"entries": rows * cols}

    def checks(results) -> dict:
        return {"checks": len(results), "passed": sum(1 for r in results if r.passed)}

    def probes(targets, layer, counts=None):
        return [Probe(t, layer, counts) for t in targets.split()]

    # Each public function at every name another module (or the CLI) calls it
    # by.  Hot helpers (add_box, irrep_dim, multiplicity) are left unwrapped:
    # their cost stays in the caller's self time and irrep_dim/multiplicity
    # are counted from cache_info().
    return [
        *probes("dpbt.cli.run", "cli"),
        *probes(
            "dpbt.cli.optimal_fidelity dpbt.cli.optimal_solution dpbt.cli.sweep "
            "dpbt.cli.sqrt_measurement_fidelity dpbt.cli.lower_bound_fidelity "
            "dpbt.protocol.optimal_fidelity dpbt.protocol.sqrt_measurement_fidelity "
            "dpbt.protocol.lower_bound_fidelity dpbt.protocol.protocol_eigenvalues "
            "dpbt.oracle.optimal_fidelity dpbt.oracle.optimal_solution "
            "dpbt.oracle.sqrt_measurement_fidelity dpbt.oracle.general_povm_fidelity "
            "dpbt.oracle.protocol_eigenvalues",
            "protocol",
        ),
        *probes(
            "dpbt.protocol.teleportation_matrix dpbt.spectral.teleportation_matrix "
            "dpbt.cli.teleportation_matrix dpbt.cli.incidence_matrix dpbt.cli.gram_G "
            "dpbt.cli.gram_H",
            "telemat",
            shape,
        ),
        *probes("dpbt.spectral.structure_report", "telemat"),
        *probes(
            "dpbt.protocol.power_iteration dpbt.cli.power_iteration",
            "spectral",
            lambda r: {"iterations": r.iterations},
        ),
        *probes(
            "dpbt.protocol.closed_form_full dpbt.protocol.closed_form_d2 "
            "dpbt.cli.closed_form_full dpbt.cli.closed_form_d2 "
            "dpbt.cli.spectrum_via_characters dpbt.oracle.jacobi_eigh",
            "spectral",
        ),
        *probes(
            "dpbt.telemat.enumerate_diagrams dpbt.protocol.enumerate_diagrams "
            "dpbt.spectral.enumerate_diagrams dpbt.oracle.enumerate_diagrams "
            "dpbt.characters.enumerate_diagrams",
            "diagrams",
            lambda basis: {"listed": len(basis)},
        ),
        *probes(
            "dpbt.oracle.character dpbt.oracle.cycle_types dpbt.cli.cycle_types "
            "dpbt.spectral.character_matrix",
            "characters",
        ),
        *probes("dpbt.cli.run_checks", "oracle", checks),
        *probes(
            "dpbt.oracle.permutation_operator dpbt.oracle.young_projector "
            "dpbt.oracle.eta_operator dpbt.oracle.f_projector dpbt.oracle.direct_fidelity "
            "dpbt.oracle.primal_constraint_check dpbt.oracle.dual_witness_check",
            "oracle",
        ),
    ]


LAYERS = ("diagrams", "characters", "telemat", "spectral", "protocol", "oracle", "cli")

# Named sub-metrics: (metric, field, function keys), where field is "self_s",
# "calls" or the name of a count summed over the keys' calls.
_BUILDS = (
    "dpbt.telemat.teleportation_matrix dpbt.telemat.incidence_matrix "
    "dpbt.telemat.gram_G dpbt.telemat.gram_H"
)
_SUBMETRICS = [
    ("diagrams.listed", "listed", "dpbt.diagrams.enumerate_diagrams"),
    ("telemat.build_s", "self_s", _BUILDS),
    ("telemat.builds", "calls", _BUILDS),
    ("telemat.entries", "entries", _BUILDS),
    ("telemat.structure_s", "self_s", "dpbt.telemat.structure_report"),
    ("telemat.structure_calls", "calls", "dpbt.telemat.structure_report"),
    ("spectral.solve_s", "self_s", "dpbt.spectral.power_iteration"),
    ("spectral.solves", "calls", "dpbt.spectral.power_iteration"),
    ("spectral.iterations", "iterations", "dpbt.spectral.power_iteration"),
    ("spectral.closed_forms", "calls", "dpbt.spectral.closed_form_full dpbt.spectral.closed_form_d2"),
    ("spectral.jacobi_s", "self_s", "dpbt.spectral.jacobi_eigh"),
    ("spectral.jacobi_calls", "calls", "dpbt.spectral.jacobi_eigh"),
    ("protocol.sqrt_s", "self_s", "dpbt.protocol.sqrt_measurement_fidelity"),
    ("protocol.coeffs_s", "self_s", "dpbt.protocol.optimal_solution"),
    ("protocol.cells", "calls", "dpbt.protocol.optimal_fidelity dpbt.protocol.optimal_solution"),
    ("oracle.perm_s", "self_s", "dpbt.oracle.permutation_operator"),
    ("oracle.perm_calls", "calls", "dpbt.oracle.permutation_operator"),
    ("oracle.projector_s", "self_s", "dpbt.oracle.young_projector"),
    ("oracle.checks", "checks", "dpbt.oracle.run_checks"),
    ("cli.commands", "calls", "dpbt.cli.run"),
]


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics from a tracer summary (absent keys read 0)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [r for r in summary.values() if r["layer"] == layer]
        for field in ("self_s", "busy_s", "wait_s"):
            out[f"{layer}.{field}"] = sum(r[field] for r in rows)
        if layer in ("diagrams", "characters"):
            out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
    for metric, field, keys in _SUBMETRICS:
        rows = [summary[k] for k in keys.split() if k in summary]
        out[metric] = sum(r[field] if field in r else r["counts"].get(field, 0) for r in rows)
    checks = summary.get("dpbt.oracle.run_checks", {"counts": {}})["counts"]
    out["oracle.pass_ratio"] = checks["passed"] / checks["checks"] if checks.get("checks") else 0.0
    return out


def _cache_hit_ratio(notes: list[str]) -> float:
    import dpbt.diagrams as diagrams

    hits = lookups = 0
    for name in ("irrep_dim", "multiplicity"):
        info = getattr(getattr(diagrams, name, None), "cache_info", None)
        if info is None:
            notes.append(f"dpbt.diagrams.{name}.cache_info not found; counted as 0")
            continue
        stats = info()
        hits += stats.hits
        lookups += stats.hits + stats.misses
    return hits / lookups if lookups else 0.0


def _blas() -> dict:
    """The BLAS library numpy loaded and the thread count it runs with."""
    import ctypes

    import numpy

    name = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads: object = "unknown"
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
        for lib in map(ctypes.CDLL, paths):
            for getter in getters:
                if hasattr(lib, getter):
                    threads = int(getattr(lib, getter)())
    except OSError:
        pass
    return {"blas": name, "blas_threads": threads}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["cpu"] is not None:  # before numpy loads
        os.sched_setaffinity(0, {spec["cpu"]})
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import dpbt.cli

    if not Path(dpbt.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"dpbt imported from {dpbt.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if spec.get("probe"):
        return 0

    tracer = None
    if spec["trace"]:
        tracer = Tracer(_probes())
        tracer.install()
    runs = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = dpbt.cli.run(argv, out=out, err=err)
        except Exception:  # the pass goes on; the gate counts the command failed
            code = None
            err.write(traceback.format_exc())
        runs.append((code, out, err))
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_out": sum(len(out.getvalue().encode()) for _, out, _ in runs),
        "blas": _blas(),
        "commands": [
            {"code": code, "out": out.getvalue(), "err": err.getvalue()[-4000:]}
            for code, out, err in runs
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer.summary())
        metrics["cli.bytes_out"] = result["bytes_out"]
        metrics["diagrams.cache_hit_ratio"] = _cache_hit_ratio(tracer.notes)
        result["layers"] = metrics
        result["notes"] = tracer.notes
    json.dump(result, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
