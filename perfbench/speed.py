"""The machine's current speed, for timings that do not drift with it.

On a shared host the same process can run up to 1.8x slower for seconds
or minutes at a time, whatever it does, because of what else the host
runs.  A wall time measured then says more about the host than about
padr.  So the worker times a fixed piece of pure-Python work, the probe,
every PERIOD_S seconds of its life and after every op, and run.py turns
each wall-clock interval into *reference seconds*: every stretch between
two probes counts at the speed the probes around it measured, so that a
second in which the probe took twice REF_S counts as half a reference
second.  REF_S is about the probe's time on an idle 2-vCPU Xeon.  The
probe uses only ints and a list, so no change to padr can change its
speed.  Time spent in the probe itself counts in neither sum.

time.perf_counter is CLOCK_MONOTONIC, shared by every process of the
machine, so run.py can place its own instants (a worker's launch) on the
worker's probe timeline.
"""

import signal
import time

#: the probe's time that defines one reference second
REF_S = 0.001
LOOPS = 5000
REPEATS = 3
PERIOD_S = 0.1


def _work(n):
    acc, xs = 1, []
    for i in range(n):
        acc = (acc * 1103515245 + i) % 2147483647
        xs.append(acc >> 7)
    return sum(xs)


def probe():
    """Seconds of the fixed work, the fastest of REPEATS tries."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work(LOOPS)
        took = time.perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


class Sampler:
    """The probe timeline of this process: (start, end, probe seconds).

    sample() times the probe now; start() also times it every PERIOD_S
    seconds from SIGALRM, until stop()."""

    def __init__(self):
        self.timeline = []
        self._busy = False

    def sample(self, *_):
        if self._busy:      # a tick that lands inside a probe
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            took = probe()
            self.timeline.append((t0, time.perf_counter(), took))
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def interval(timeline, a, b):
    """(wall, reference) seconds of [a, b], probes left out of both.

    A stretch between two probes runs at the mean of their times; before
    the first probe and after the last, at that probe's time."""
    if not timeline:
        raise ValueError("no probe on the timeline")
    wall = ref = 0.0
    cuts = [(float("-inf"), timeline[0][0], timeline[0][2])]
    cuts += [(e0, s1, (p0 + p1) / 2.0) for (_, e0, p0), (s1, _, p1)
             in zip(timeline, timeline[1:])]
    cuts.append((timeline[-1][1], float("inf"), timeline[-1][2]))
    for lo, hi, took in cuts:
        seg = min(hi, b) - max(lo, a)
        if seg > 0:
            wall += seg
            ref += seg * REF_S / took
    return wall, ref

