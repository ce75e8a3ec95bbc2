"""In-memory spans and counters for the traced run.

A span records (name, start, end, parent index, op id, capped).  Spans are
opened only around the benchmark's own calls into polygonic; nothing inside
the library is instrumented.  Everything stays in memory until the run
writes it out once at the end.
"""

import time
from collections import defaultdict

from capping import OpTimeout


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.op_id = None
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def call(self, name, fn, *args):
        with _Span(self, name):
            return fn(*args)

    def count(self, name, k=1):
        self.counts[name] += k

    def peak(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def self_times(self):
        """Span duration minus the part covered by its child spans, summed per name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[idx]
        return out

    def capped(self, name):
        return sum(1 for s in self.spans if s[0] == name and s[5])

    def to_json(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op, "capped": c}
                for n, s, e, p, op, c in self.spans
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op_id, False])
        t._open.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        record = t.spans[self.index]
        record[2] = time.perf_counter()
        record[5] = exc_type is OpTimeout
        t._open.pop()
        return False
