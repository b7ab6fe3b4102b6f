"""Spans recorded around the benchmark's calls into the program.

A span is [id, parent, name, start, end, seconds]: start and end are
perf_counter (wall-clock) stamps, seconds is the CPU time inside the span;
the name is ``<layer>.<function>``.  Spans are kept in memory and written out
once, when the run ends.  Only the benchmark's own code records spans: the
program is called through wrappers, never edited or patched.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from time import perf_counter, process_time


class Tracer:
    """Collects spans; ``wrap`` turns a callable into one that records a span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = count(1)

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0, c0 = perf_counter(), process_time()
        try:
            yield sid
        finally:
            c1, t1 = process_time(), perf_counter()
            self._stack.pop()
            self.spans.append([sid, parent, name, t0, t1, c1 - c0])

    def wrap(self, name: str, fn):
        def traced(*args):
            with self.span(name):
                return fn(*args)

        return traced


def self_times(spans) -> dict[str, float]:
    """Seconds per layer not covered by a child span, given spans whose
    seconds are already rescaled."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span[1] is not None:
            child_total[span[1]] = child_total.get(span[1], 0.0) + span[5]
    out: dict[str, float] = {}
    for span in spans:
        layer = span[2].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + span[5] - child_total.get(span[0], 0.0)
    return out
