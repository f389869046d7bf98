"""Tests of the benchmark's own code: the tracer against stub modules, and the
references of the correctness gate.

Run: python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import gate  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

# A miniature dpbt: the call structure of `dpbt sweep` (a thread pool inside
# protocol.sweep) with jacobi_eigh, structure_report and gram_G deleted.
STUB_SOURCES = {
    "dpbt": "",
    "dpbt.telemat": """
import time, types
def teleportation_matrix(n):
    time.sleep(0.02)
    return types.SimpleNamespace(shape=(n, n))
""",
    "dpbt.spectral": """
import types
def power_iteration(m):
    return types.SimpleNamespace(iterations=7)
""",
    "dpbt.protocol": """
from concurrent.futures import ThreadPoolExecutor
from dpbt.telemat import teleportation_matrix
from dpbt.spectral import power_iteration
def optimal_fidelity(n):
    return power_iteration(teleportation_matrix(n)).iterations
def sweep(ns):
    with ThreadPoolExecutor(max_workers=3) as pool:
        return list(pool.map(optimal_fidelity, ns))
""",
    "dpbt.cli": """
from dpbt.protocol import sweep, optimal_fidelity
def run(argv):
    return sweep([2, 3, 4, 5])
""",
}


@pytest.fixture
def stub_dpbt(monkeypatch):
    for name in list(sys.modules):
        if name == "dpbt" or name.startswith("dpbt."):
            monkeypatch.delitem(sys.modules, name)
    for name, source in STUB_SOURCES.items():
        module = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, module)
        exec(source, module.__dict__)
    return sys.modules["dpbt.cli"]


def test_missing_functions_read_zero_with_a_note(stub_dpbt):
    tracer = Tracer(child._probes())
    tracer.install()
    try:
        assert stub_dpbt.run([]) == [7, 7, 7, 7]
    finally:
        tracer.uninstall()
    metrics = child.layer_metrics(tracer.summary())
    for target in ("dpbt.oracle.jacobi_eigh", "dpbt.spectral.structure_report", "dpbt.cli.gram_G"):
        assert any(note.startswith(target + " not found") for note in tracer.notes)
    for name in ("spectral.jacobi_s", "spectral.jacobi_calls", "telemat.structure_s",
                 "telemat.structure_calls", "oracle.checks", "oracle.pass_ratio"):
        assert metrics[name] == 0
    assert metrics["spectral.solves"] == 4
    assert metrics["spectral.iterations"] == 28
    assert metrics["telemat.builds"] == 4
    assert metrics["telemat.entries"] == 4 + 9 + 16 + 25
    assert metrics["protocol.cells"] == 4
    assert metrics["cli.commands"] == 1
    assert set(child.LAYERS) == {key.split(".")[0] for key in metrics} - {"trace"}


def test_pool_spans_parent_to_sweep_and_self_times_add_up(stub_dpbt):
    original = stub_dpbt.sweep
    tracer = Tracer(child._probes())
    tracer.install()
    try:
        stub_dpbt.run([])
    finally:
        tracer.uninstall()
    assert stub_dpbt.sweep is original
    by_key = {}
    for span in tracer.spans:
        by_key.setdefault(span.key, []).append(span)
    (sweep,) = by_key["dpbt.protocol.sweep"]
    (run,) = by_key["dpbt.cli.run"]
    cells = by_key["dpbt.protocol.optimal_fidelity"]
    assert len(cells) == 4
    assert all(span.parent is sweep for span in cells)
    assert any(span.thread != sweep.thread for span in cells)
    summary = tracer.summary()
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(run.t1 - run.t0, rel=1e-9)
    # sweep only waits on the pool: little self time, nearly all of it waiting
    assert summary["dpbt.protocol.sweep"]["self_s"] < 0.5 * (sweep.t1 - sweep.t0)
    assert summary["dpbt.protocol.sweep"]["wait_s"] > 0.5 * (sweep.t1 - sweep.t0)


def test_self_time_subtracts_children_and_bad_counts_only_note(monkeypatch):
    stub = types.ModuleType("perfbench_stub")
    monkeypatch.setitem(sys.modules, "perfbench_stub", stub)
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n    return 1\n"
        "def outer():\n    time.sleep(0.01)\n    return inner() + inner()\n",
        stub.__dict__,
    )
    tracer = Tracer([
        Probe("perfbench_stub.outer", "a"),
        Probe("perfbench_stub.inner", "b", lambda r: {"n": r.missing_attribute}),
    ])
    tracer.install()
    try:
        assert stub.outer() == 2
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    outer = summary["perfbench_stub.outer"]
    inner = summary["perfbench_stub.inner"]
    (outer_span,) = [s for s in tracer.spans if s.key == "perfbench_stub.outer"]
    inner_wall = sum(s.t1 - s.t0 for s in tracer.spans if s.key == "perfbench_stub.inner")
    assert inner["calls"] == 2 and inner["self_s"] == pytest.approx(inner_wall, rel=1e-9)
    assert outer["self_s"] == pytest.approx(outer_span.t1 - outer_span.t0 - inner_wall, rel=1e-9)
    assert outer["self_s"] >= 0.01
    assert outer["busy_s"] < outer["self_s"]  # sleeping is wall time, not CPU
    assert any("counts unavailable" in note for note in tracer.notes)


def test_reference_radius_matches_closed_forms():
    n = 12
    d2 = gate.build_cell(n, 2)
    top = float(np.linalg.eigvalsh(d2.matrix)[-1])
    assert top == pytest.approx(4 * math.cos(math.pi / (n + 2)) ** 2, rel=1e-12)
    full = gate.build_cell(6, 6)
    assert float(np.linalg.eigvalsh(full.matrix)[-1]) == pytest.approx(6, rel=1e-12)
    # the square-root-measurement fidelity lies between the bound and the optimum
    cell = gate.build_cell(8, 3)
    assert 8 / (9 + 7) < cell.sqrt_fidelity < cell.radius / 9
