"""Spans and per-pass records for the benchmark worker.

A span wraps one call the benchmark makes into a layer's public function.
Spans are kept in memory and written out once, when the run ends.  The
untraced run uses `NullTracer`, whose span is a shared no-op context, so
tracing costs nothing there.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, item) for every span."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, item]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, item]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{span name: (summed self time, calls)}.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - c, calls + 1)
        return out

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, item: int):
        return self._null


class Pass:
    """One pass over a workload's items: failures and exact counters.

    Every item is one attempt; it fails on an exception or a failed output
    check.  Counters come only from objects the program returned.
    """

    def __init__(self, tracer, after_call):
        self.tr = tracer
        self._after_call = after_call
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}
        self._item_failed = False

    @contextlib.contextmanager
    def item(self, kind: str):
        self.attempted += 1
        item_id = self.attempted
        self._item_failed = False
        self._kind = kind
        with self.tr.span("bench." + kind, item_id):
            try:
                yield item_id
            except Exception as e:   # an item's failure is recorded, the run goes on
                self._fail(f"{type(e).__name__}: {e}")

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        """A span around one call into a layer, then the after-call hook."""
        with self.tr.span(name, item):
            yield
        self._after_call()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self._fail(message)

    def _fail(self, message: str) -> None:
        if not self._item_failed:
            self.failures.append(f"{self._kind}: {message}")
        self._item_failed = True

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), float(value))
