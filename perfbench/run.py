"""dpbt benchmark: three workloads through the `dpbt` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_grid --seed 0 --seconds 40 --trace 0

Each pass runs the workload's commands through `dpbt.cli.run` in a fresh
process.  With --trace 0 the passes are untraced and the run reports the
end-to-end metrics; with --trace 1 traced and untraced passes alternate and
the run reports the per-layer metrics.  Every command's output is checked
against reference values built before the first pass (see gate.py).  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

DEFAULT_SEED = 0
SETUP_PROBES = 5  # extra set-up-only processes per untraced run
RUN_LIMIT_S = 170.0  # a pass still running this long after the run began is killed
# Another seed draws each solve_large cell's N from the N whose basis size is
# within this share of the named cell's.  Cost grows like size^2, so a wider
# window would let the seed, not the program, set the wall time.
SIZE_WINDOW = 0.03
# Passes run with a single BLAS thread.  With two, OpenBLAS spin-waits: on a
# shared 2-core machine a solve_large pass varied from 4.3 to 6.6 s idle and
# took 20-37 s while another process held one core; with one it took 7-8 s
# either way.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# sweep_grid passes run on one CPU.  Its pool threads hand the GIL across
# vCPUs, and when the host preempts the vCPU holding it the others stall:
# interleaved runs on a loaded 2-core VM took 6.7 s unpinned against 4.2 s
# pinned.  The single-threaded workloads stay unpinned, free to leave a
# stalled vCPU.
PINNED = ("sweep_grid",)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    cells: tuple[tuple[int, int], ...]  # one gated unit per cell

    @property
    def verb(self) -> str:
        return self.argv[0]


def cell_command(verb: str, n: int, d: int) -> Command:
    flags = ("--oracle",) if verb == "verify" else ()
    return Command((verb, *flags, "--ports", str(n), "--dim", str(d)), ((n, d),))


def sweep_command(lo: int, hi: int, dims: tuple[int, ...]) -> Command:
    argv = ("sweep", "--ports", f"{lo}:{hi}", "--dims", ",".join(map(str, dims)))
    return Command(argv, tuple((n, d) for n in range(lo, hi + 1) for d in dims))


SOLVE_LARGE = (("fidelity", 100, 3), ("fidelity", 60, 4), ("povm", 40, 4), ("povm", 400, 2))
ORACLE_CELLS = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (5, 2), (3, 4))


def size_window(n: int, d: int) -> list[int]:
    """N next to n whose height-<=d basis is within SIZE_WINDOW of n's size."""
    base = len(gate.partitions(n, d))

    def near(m: int) -> bool:
        return m >= 1 and abs(len(gate.partitions(m, d)) - base) <= SIZE_WINDOW * base

    lo = hi = n
    while near(lo - 1):
        lo -= 1
    while near(hi + 1):
        hi += 1
    return list(range(lo, hi + 1))


def workload(name: str, seed: int) -> list[Command]:
    """The workload's commands; seeds other than DEFAULT_SEED move the
    solve_large cells inside their size windows and shuffle the order."""
    rng = random.Random(seed)
    vary = seed != DEFAULT_SEED
    if name == "sweep_grid":
        return [sweep_command(2, 40, (2, 3, 4))]
    if name == "solve_large":
        commands = [
            cell_command(verb, rng.choice(size_window(n, d)) if vary else n, d)
            for verb, n, d in SOLVE_LARGE
        ]
    elif name == "oracle_battery":
        commands = [cell_command("verify", n, d) for n, d in ORACLE_CELLS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    if vary:
        rng.shuffle(commands)
    return commands


WORKLOADS = ("sweep_grid", "solve_large", "oracle_battery")


def references(commands: list[Command]) -> dict[tuple[int, int], gate.Cell]:
    return {
        cell: gate.build_cell(*cell)
        for cmd in commands
        if cmd.verb != "verify"
        for cell in cmd.cells
    }


def gate_command(cmd: Command, run: dict, refs, tally: gate.Tally) -> None:
    where = " ".join(cmd.argv)

    def fail_all(reason: str) -> None:
        for cell in cmd.cells:
            tally.unit(f"{where} {cell}", [reason])

    if run["code"] != 0:
        return fail_all(f"exit code {run['code']}: {run['err'].strip()[-300:]}")
    try:
        payload = json.loads(run["out"])
    except ValueError as exc:
        return fail_all(f"output is not JSON ({exc})")
    if not isinstance(payload, dict):
        return fail_all("output is not a JSON object")
    if cmd.verb == "sweep":
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            return fail_all("rows missing or malformed")
        if [(r.get("N"), r.get("d")) for r in rows] != list(cmd.cells):
            return fail_all("rows do not match the (N, d) grid in order")
        for row, cell in zip(rows, cmd.cells):
            tally.unit(f"{where} {cell}", gate.check_sweep_row(row, refs[cell], tally))
        return
    (cell,) = cmd.cells
    if cmd.verb == "fidelity":
        tally.unit(where, gate.check_fidelity(payload, refs[cell], tally))
    elif cmd.verb == "povm":
        tally.unit(where, gate.check_povm(payload, refs[cell], tally))
    else:
        tally.unit(where, gate.check_verify(payload, *cell))


def run_child(commands: list[Command], cpu: int | None, trace: bool, probe: bool, timeout: float):
    """One fresh process; returns (setup seconds, child result or None, error)."""
    spec = json.dumps({
        "root": str(ROOT),
        "commands": [list(c.argv) for c in commands],
        "cpu": cpu,
        "trace": trace,
        "probe": probe,
    })
    env = dict(os.environ, PYTHONHASHSEED="0", **ONE_BLAS_THREAD)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), spec],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        return None, None, f"child exited {proc.returncode}: {err.strip()[-500:]}"
    return setup, (None if probe else json.loads(out)), None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_record(name: str, seed: int, commands: list[Command]) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # not an enclosing repo
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpbt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "commands": [" ".join(c.argv) for c in commands],
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "rel_err_max")):
        return "ratio"
    return "bytes" if metric == "cli.bytes_out" else "count"


# Counts that must repeat exactly from pass to pass of one run.
DETERMINISTIC = ("spectral.iterations", "telemat.entries", "oracle.checks", "cli.bytes_out")


@dataclass
class Passes:
    setups: list[float] = field(default_factory=list)
    plain: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    tally: gate.Tally = field(default_factory=gate.Tally)


def measure(
    commands: list[Command], refs, cpu: int | None, seconds: float, trace: bool, began: float
) -> Passes | None:
    """Warm up, then run passes for `seconds`; None if dpbt does not import."""

    def launch(traced: bool, probe: bool):
        return run_child(commands, cpu, traced, probe, RUN_LIMIT_S - (time.perf_counter() - began))

    # Warm-up: byte-compiles the package and fills the file cache; not measured.
    _, _, error = launch(traced=False, probe=True)
    if error:
        print(f"error: dpbt does not import: {error}", file=sys.stderr)
        return None
    out = Passes()
    start = time.perf_counter()
    if not trace:
        for _ in range(SETUP_PROBES):
            setup, _, _ = launch(traced=False, probe=True)
            if setup is not None:
                out.setups.append(setup)
    order = (True, False) if trace else (False,)
    min_passes = 4 if trace else 3
    costs: list[float] = []
    while len(costs) < min_passes or time.perf_counter() - start + statistics.median(costs) <= seconds:
        if time.perf_counter() - began > RUN_LIMIT_S - 10:
            break
        traced = order[len(costs) % len(order)]
        t0 = time.perf_counter()
        setup, result, error = launch(traced, probe=False)
        costs.append(time.perf_counter() - t0)
        if result is None:
            out.errors.append(error)
            for cmd in commands:
                for cell in cmd.cells:
                    out.tally.unit(f"{' '.join(cmd.argv)} {cell}", [error])
            continue
        for cmd, run in zip(commands, result["commands"]):
            gate_command(cmd, run, refs, out.tally)
        if traced:
            out.traced.append(result)
        else:
            out.plain.append(result)
            out.setups.append(setup)
    return out


def end_to_end(passes: Passes) -> dict[str, dict]:
    tally = passes.tally
    series = {
        "setup_s": (passes.setups, "s"),
        "wall_s": ([r["wall_s"] for r in passes.plain], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in passes.plain], "MB"),
    }
    metrics = {}
    for key, (values, unit) in series.items():
        q1, med, q3 = quartiles(values)
        print(f"  {key:12s} {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
        metrics[key] = {"value": med, "unit": unit}
    fail_ratio = tally.failed / tally.attempted
    print(f"  fail_ratio   {fail_ratio:.4f}  ({tally.failed}/{tally.attempted} units)")
    metrics["ok_ratio"] = {"value": 1.0 - fail_ratio, "unit": "ratio"}
    return metrics


def per_layer(passes: Passes) -> dict[str, dict]:
    traced = passes.traced
    layers = [r["layers"] for r in traced]
    metrics = {key: statistics.median(l[key] for l in layers) for key in layers[0]}
    metrics["spectral.rel_err_max"] = passes.tally.radius_rel_err
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in passes.plain)
    for key in sorted(metrics):
        print(f"  {key:26s} {metrics[key]:.6g} {unit_of(key)}  (median of {len(traced)})")
    gap = max(abs(sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS) - r["wall_s"]) for r in traced)
    print(f"  on every traced pass the layer self times add up to its wall time within {gap:.2g} s")
    print("  median self time as a share of the median traced pass:")
    for layer in LAYERS:
        print(f"    {layer:11s} {100 * metrics[f'{layer}.self_s'] / metrics['trace.wall_s']:5.1f}%")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}


def determinism(passes: Passes, trace: bool) -> dict[str, str]:
    if trace:
        series = {key: [r["layers"][key] for r in passes.traced] for key in DETERMINISTIC}
    else:
        series = {"cli.bytes_out": [r["bytes_out"] for r in passes.plain]}
    return {
        key: "repeats" if len(set(values)) == 1 else f"VARIES {sorted(set(values))}"
        for key, values in series.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpbt" / "cli.py").is_file():
        print(f"error: no dpbt sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    began = time.perf_counter()
    commands = workload(args.workload, args.seed)
    refs = references(commands)
    record = run_record(args.workload, args.seed, commands)
    record["pinned_cpu"] = cpu = min(os.sched_getaffinity(0)) if args.workload in PINNED else None
    passes = measure(commands, refs, cpu, args.seconds, bool(args.trace), began)
    if passes is None:
        return 2
    if not passes.plain or (args.trace and not passes.traced):
        last = passes.errors[-1] if passes.errors else "no passes ran"
        print(f"error: no pass completed: {last}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes.plain)} untraced, {len(passes.traced)} traced")
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    tally = passes.tally
    record.update(passes.plain[0]["blas"])
    record["determinism"] = determinism(passes, bool(args.trace))
    record["radius_rel_err_max"] = tally.radius_rel_err
    record["perron_residual_max"] = tally.perron_residual
    record["notes"] = sorted({n for r in passes.traced for n in r["notes"]})
    for key, verdict in record["determinism"].items():
        if verdict != "repeats":
            print(f"  WARNING {key} does not repeat across passes: {verdict}")
    for problem in list(dict.fromkeys(tally.problems))[:20]:
        print(f"  FAIL {problem}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
