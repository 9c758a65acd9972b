"""Spans and counters recorded by the benchmark around its calls into the
library.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span and ``op`` the id of the op it belongs to (None during
set-up).  Spans stay in memory and are written out once, at the end of a
traced run.  Spans inside the library are not recorded: apart from the
root span of each op, every span wraps the benchmark's call into one public
library function (decomposition.build also covers drawing the partition).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

TRIAL = "harness.trial"          # root span of one op

# outcome of one op: answer checked, budget ran out, wrong answer, raised
OK, UNDECIDED, WRONG, ERROR = "ok", "undecided", "wrong", "error"


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    enabled = False
    op_id = None

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, k: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def busy(self) -> dict[str, float]:
        """Summed duration per span name (spans of one name never nest)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def trial_self_time(self) -> float:
        """Time inside op root spans that no child span covers."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(end - start - child[i]
                   for i, (name, start, end, _, _) in enumerate(self.spans)
                   if name == TRIAL)

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def trial_durations(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans
                if name == TRIAL]

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
