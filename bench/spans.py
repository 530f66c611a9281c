"""In-memory span recorder for the benchmark's traced passes.

A span is (id, name, start, end, parent): the time one call into a layer
took, and the span that was open around it.  Spans are recorded only from
the benchmark's own files, either around the calls a workload makes or by
rebinding names that one layer uses to call another.  Nothing is written
until `write` runs at the end of a pass.  Spans in child processes are not
captured: a rebinding applies to this interpreter only.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

CHILD_PROCESS_NOTE = "spans are recorded in the benchmark interpreter only; spans in child processes are not captured"


class Tracer:
    """Records spans with one parent stack per thread.

    A thread's first span takes as parent the span open in the thread that
    created the tracer, so pool workers nest under the call that started
    the pool.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack[-1:]
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Rebind owner.attr to a traced wrapper until `unpatch` runs."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def replace(self, owner, attr: str, value) -> None:
        """Rebind owner.attr to value until `unpatch` runs."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "workload": self.workload, "note": CHILD_PROCESS_NOTE}) + "\n")
            for sid, name, start, end, parent in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced passes: opens no spans."""

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(int)

    def span(self, name: str):
        return nullcontext()

    def unpatch(self) -> None:
        pass


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the part of it that child spans cover.

    Children running in parallel threads overlap; their union is taken, so
    self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Span name → calls, total seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return dict(out)
