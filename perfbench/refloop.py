"""The fixed reference loop that every timed sample is rescaled by.

The CPU speed one process sees on a small shared machine drifts by tens of
per cent over tens of seconds.  Every sample is therefore bracketed by this
loop, run in the same process right before and right after it, and reported
as ``sample / reference * NOMINAL_REF_S``: the time the sample would have
taken had the loop run at its nominal speed.

Samples and the loop are timed in CPU seconds (user + system) of the
processes doing the work, not in wall-clock seconds.  On the 2-core virtual
machine the baselines come from, the hypervisor takes 3-10 % of the guest's
CPU time away in bursts (steal), and wall-clock times of child processes
moved by 15-20 % between sets of runs; CPU time leaves out steal and waiting
for a core, and the loop's own CPU time follows the rest of the drift.

The loop is pure-Python integer, tuple, set and generator work and calls no
program code.  Changing ``reference_loop``, ``REF_ITERS`` or
``NOMINAL_REF_S`` changes the scale of every reported time, so every
baseline must be measured again after such a change.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

REF_ITERS = 3000
REF_REPEATS = 3
# Median of reference_time() on the machine the baselines were
# taken on (2 cores, Python 3.11.7); rescaled times are in that machine's seconds.
NOMINAL_REF_S = 0.0030


def reference_loop() -> int:
    seen = set()
    acc = 0
    for i in range(REF_ITERS):
        t = (i & 255, i >> 3, (i * 7919) & 1023)
        seen.add(t)
        acc += sum(x for x in t if x & 1)
    return acc + len(seen)


def reference_time() -> float:
    """CPU seconds of the fastest of REF_REPEATS reference_loop() calls.

    Taking the fastest drops a call that was disturbed.
    """
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = process_time()
        reference_loop()
        best = min(best, process_time() - t0)
    return best


class Bracket:
    """CPU time of one sample, the reference loop around it, and the
    sample's wall-clock time (reported, never rescaled)."""

    __slots__ = ("raw", "ref_before", "ref_after", "wall")

    def __init__(self, raw: float, ref_before: float, ref_after: float, wall: float):
        self.raw = raw
        self.ref_before = ref_before
        self.ref_after = ref_after
        self.wall = wall

    @property
    def ref(self) -> float:
        return (self.ref_before + self.ref_after) / 2

    @property
    def scale(self) -> float:
        """Factor that turns a raw time inside this sample into nominal seconds."""
        return NOMINAL_REF_S / self.ref

    @property
    def rescaled(self) -> float:
        return self.raw * self.scale


def bracketed(sample):
    """Run sample() between two reference loops; return (*its result, Bracket)."""
    before = reference_time()
    w0, c0 = perf_counter(), process_time()
    result = sample()
    cpu, wall = process_time() - c0, perf_counter() - w0
    return (*result, Bracket(cpu, before, reference_time(), wall))


def median(values):
    return statistics.median(values) if values else float("nan")
