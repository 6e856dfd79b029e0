"""In-memory spans around the calls into each tropcomm layer.

The tracer replaces a function by a wrapper in the namespace its caller
resolves it from (``tropcomm.fan.strict_feasibility`` is the name the fan
enumerator calls, ``SparsePoly.mul_monomial`` is looked up on the class), so
only calls that cross that boundary are recorded.  Nothing in the program
changes: ``uninstall`` puts every original back.

A span is (name, start, end, parent index, op id).  A layer's self time is
its span duration minus the durations of its direct child spans, which do
not overlap because the benchmark runs one caller in one thread.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span for every call of ``owner.attr``; ``on_result(tracer,
        result)`` may count outcomes at the same boundary."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(self, result)
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def root(self, name: str, op_id: int, call):
        """Run one benchmark op as a root span and return its result."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1, op_id)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op]))
                fh.write("\n")
