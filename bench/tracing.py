"""Call hooks through which every workload op reaches the library.

`DIRECT` calls straight through; a `Tracer` records one span per call
(name, start, end, parent, op id) in memory, and wraps the field callbacks
handed to the oracle so that their evaluations are counted and timed.
Spans are taken only around calls made from the benchmark's own code.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class _Direct:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def field(self, kind, callback):
        return callback


DIRECT = _Direct()


class Tracer:
    """Span recorder; span i is (name, start_ns, end_ns, parent, op_id)."""

    def __init__(self):
        self.spans = []
        self.field_evals = defaultdict(int)
        self.field_ns = defaultdict(int)
        self._parent = -1
        self._op = -1

    def begin_op(self, op_id, name):
        self._op = op_id
        self._parent = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, -1, op_id])

    def end_op(self):
        self.spans[self._parent][2] = perf_counter_ns()
        self._parent = -1

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter_ns(), 0, self._parent, self._op]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()

    def field(self, kind, callback):
        evals, spent = self.field_evals, self.field_ns

        def timed(z, w):
            t0 = perf_counter_ns()
            try:
                return callback(z, w)
            finally:
                spent[kind] += perf_counter_ns() - t0
                evals[kind] += 1
        return timed

    def durations_us(self, name):
        return [(e - s) / 1e3 for n, s, e, _, _ in self.spans if n == name]

    def by_op_us(self, *names):
        """Per-op total duration of the named spans, for ops that made them."""
        out = defaultdict(float)
        for n, s, e, _, op in self.spans:
            if n in names:
                out[op] += (e - s) / 1e3
        return list(out.values())

    def self_seconds(self):
        """Self time per layer (span name prefix): duration minus the part of
        it covered by child spans."""
        child = defaultdict(int)
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out = defaultdict(float)
        for i, (n, s, e, _, _) in enumerate(self.spans):
            out[n.split(".")[0]] += (e - s - child[i]) / 1e9
        return dict(out)

    def dump(self, fh, workload):
        for n, s, e, parent, op in self.spans:
            fh.write(json.dumps({"workload": workload, "name": n, "start_ns": s,
                                 "end_ns": e, "parent": parent, "op": op}))
            fh.write("\n")
