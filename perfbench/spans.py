"""In-memory span recorder for the traced benchmark run.

A span is one call from the benchmark into a greenband layer: its name, start
and end on the monotonic clock, the index of the span that was open when it
started (-1 for none) and the id of the operation it belongs to.  Counts taken
at the same boundaries go into ``counters``.  Nothing is written until
``write`` is called at the end of the run.
"""

import json
import time
from contextlib import contextmanager, nullcontext

__all__ = ["Tracer", "NullTracer"]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = {}
        self._open = []

    @contextmanager
    def span(self, name, op):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def self_times(self):
        """Each span's duration minus the time its direct children cover.
        Calls never overlap (one thread), so children tile part of the parent."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, summary):
        own = self.self_times()
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "self_s": t}
            for (n, s, e, p, op), t in zip(self.spans, own)
        ]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "counters": self.counters, "spans": spans}, fh)


class NullTracer:
    """Stands in for Tracer in untraced rounds; records nothing."""

    def span(self, name, op):
        return nullcontext()

    def add(self, name, value):
        pass

    def peak(self, name, value):
        pass
