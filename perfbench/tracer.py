"""Span tracer that wraps functions at the names their callers look up.

Modules import each other's functions by name (`from .telemat import
teleportation_matrix`), so a call is intercepted by replacing the attribute
on the calling module, e.g. `dpbt.protocol.teleportation_matrix`.  Each
wrapped call records a span: key, layer, thread, parent span, wall interval
(`time.perf_counter`) and thread CPU interval (`time.thread_time`).  Spans
stay in memory until `summary()`.

Each thread keeps its own span stack.  The first span a worker thread opens
is parented to the innermost open span of the thread that installed the
tracer, so spans from a pool started inside `sweep` parent to `sweep`.

A target that no longer exists is skipped with a note; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[Any], dict]


@dataclass(frozen=True)
class Probe:
    """One function to trace.

    `target` is "module.attribute", the name callers use; `counts`, if given,
    maps the call's result to named work counts that are summed per key.
    """

    target: str
    layer: str
    counts: Counter | None = None


class Span:
    __slots__ = ("key", "layer", "thread", "parent", "t0", "t1", "c0", "c1", "counts")

    def __init__(self, key, layer, thread, parent, t0, c0):
        self.key, self.layer, self.thread, self.parent = key, layer, thread, parent
        self.t0, self.c0 = t0, c0
        self.t1, self.c1 = t0, c0
        self.counts = None


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def install(self) -> None:
        self._local.stack = self._main_stack
        for probe in self.probes:
            modname, _, attr = probe.target.rpartition(".")
            try:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.notes.append(f"{probe.target} not found; its metrics read 0")
                continue
            key = f"{getattr(fn, '__module__', modname)}.{getattr(fn, '__qualname__', attr)}"
            setattr(module, attr, self._wrap(fn, key, probe))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, key: str, probe: Probe):
        tracer = self
        layer, counts = probe.layer, probe.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # first span of a worker thread: adopt the installer's open span
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(key, layer, threading.get_ident(), parent, time.perf_counter(), time.thread_time())
            stack.append(span)
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.c1 = time.thread_time()
                span.t1 = time.perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(result)
                except Exception as exc:  # a changed result type must not stop the run
                    note = f"{probe.target}: counts unavailable ({exc!r})"
                    if note not in tracer.notes:
                        tracer.notes.append(note)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per key: layer, calls, self_s, busy_s, wait_s and summed counts.

        self_s shares wall time: at each instant the open spans with no open
        child split it equally, so the self times of all spans add up to the
        time any span was open, and a parent waiting on children in other
        threads gets none of it.  busy_s is thread CPU time outside same-thread
        children; wait_s is the same-thread self wall time minus busy_s, which
        counts a parent blocked on a pool as waiting.
        """
        shared = _shared_self(self.spans)
        child_wall: dict[int, float] = {}
        child_cpu: dict[int, float] = {}
        for s in self.spans:
            p = s.parent
            if p is not None and p.thread == s.thread:
                child_wall[id(p)] = child_wall.get(id(p), 0.0) + (s.t1 - s.t0)
                child_cpu[id(p)] = child_cpu.get(id(p), 0.0) + (s.c1 - s.c0)
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(
                s.key,
                {"layer": s.layer, "calls": 0, "self_s": 0.0, "busy_s": 0.0, "wait_s": 0.0, "counts": {}},
            )
            local = (s.t1 - s.t0) - child_wall.get(id(s), 0.0)
            busy = (s.c1 - s.c0) - child_cpu.get(id(s), 0.0)
            row["calls"] += 1
            row["self_s"] += shared[id(s)]
            row["busy_s"] += busy
            row["wait_s"] += local - busy
            for name, value in (s.counts or {}).items():
                row["counts"][name] = row["counts"].get(name, 0) + value
        return out


def _shared_self(spans: list[Span]) -> dict[int, float]:
    depth: dict[int, int] = {}

    def depth_of(s: Span) -> int:
        chain = []
        while s is not None and id(s) not in depth:
            chain.append(s)
            s = s.parent
        base = -1 if s is None else depth[id(s)]
        for node in reversed(chain):
            base += 1
            depth[id(node)] = base
        return base

    events = []
    for s in spans:
        k = depth_of(s)
        events.append((s.t0, 1, k, s))  # starts after ends at a tie, parents first
        events.append((s.t1, 0, -k, s))  # ends children first
    events.sort(key=lambda e: e[:3])
    shared = {id(s): 0.0 for s in spans}
    open_children: dict[int, int] = {}
    active: dict[int, Span] = {}
    prev = None
    for t, is_start, _, s in events:
        if active and prev is not None:
            share = (t - prev) / len(active)
            for sid in active:
                shared[sid] += share
        prev = t
        p = s.parent
        p_open = p is not None and id(p) in open_children
        if is_start:
            open_children[id(s)] = 0
            active[id(s)] = s
            if p_open:
                open_children[id(p)] += 1
                active.pop(id(p), None)
        else:
            del open_children[id(s)]
            active.pop(id(s), None)
            if p_open:
                open_children[id(p)] -= 1
                if open_children[id(p)] == 0:
                    active[id(p)] = p
    return shared
