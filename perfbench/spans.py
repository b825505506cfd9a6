"""In-memory span recorder and the self-time computation.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it started (its parent).  Spans are appended to
flat arrays while the workload runs and are only summarised, or written
out, after the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Wrapped calls re-enter each other (``__pow__``
calls ``__mul__``, ``__truediv__`` calls ``inverse``, ``LaurentRF`` calls
``ExactScalar``), so a layer's self time is the sum of the self times of
its spans, never the sum of their durations.
"""

import functools
import json
import time
from array import array
from collections import Counter


class Tracer:
    """Records spans in flat arrays; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.maxima = Counter()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped so that each call records a span `name`.

        on_result(result, args), if given, runs after the span closes, in a
        span of its own ("trace.hook", in no layer), so that its cost is
        charged neither to this layer nor to the caller's."""
        nid = self.name_id(name)
        hook_nid = self.name_id("trace.hook")
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                with _Span(self, hook_nid):
                    on_result(out, args)
            return out

        return functools.update_wrapper(traced, fn)

    def count(self, name, fn):
        """Return fn wrapped to count its calls without recording spans."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def span(self, name):
        """Context manager recording one span (used for the op roots)."""
        return _Span(self, self.name_id(name))

    def summary(self):
        """Per-name call counts and self/total seconds, plus counters."""
        self_s = self_times(self.parent, self.start, self.end)
        calls = Counter()
        self_by = Counter()
        total_by = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_by[nid] += self_s[i]
            total_by[nid] += self.end[i] - self.start[i]
        names = self.names
        return {
            "calls": {names[k]: v for k, v in calls.items()},
            "self_s": {names[k]: v for k, v in self_by.items()},
            "total_s": {names[k]: v for k, v in total_by.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write(self, path):
        """Write every span: a JSON header with the names, then one line
        per span: name index, parent index, start, end."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.parent[i]} "
                         f"{self.start[i]!r} {self.end[i]!r}\n")


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.i = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t.stack[-1])
        t.end.append(0.0)
        t.stack.append(self.i)
        t.start.append(t.clock())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = t.clock()
        t.stack.pop()
        return False


def self_times(parent, start, end):
    """Self time of every span.

    Spans are indexed in start order and a parent always precedes its
    children.  The covered part of a parent is the union of its
    children's intervals clipped to the parent's own interval, so
    overlapping or out-of-bounds children are not double counted."""
    n = len(start)
    covered = [0.0] * n
    reach = {}          # parent -> end of the covered prefix so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def merge_summaries(parts):
    """Add summaries of several processes (the gauss ops run one each)."""
    out = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(),
           "counts": Counter(), "maxima": Counter()}
    for part in parts:
        for key in ("calls", "self_s", "total_s", "counts"):
            out[key].update(part[key])
        for k, v in part["maxima"].items():
            out["maxima"][k] = max(out["maxima"][k], v)
    return {k: dict(v) for k, v in out.items()}
