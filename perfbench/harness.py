"""The closed measurement loop, failure accounting and speed calibration.

This machine's speed drifts by a quarter or more over seconds (shared
cores), which would swamp any change worth measuring.  A `SpeedProbe`
therefore times a fixed pure-Python kernel (exact rational elimination,
like the library's own hot path) every PROBE_INTERVAL seconds from a
SIGALRM handler, in the measuring thread itself, and every operation's
time is scaled to a machine on which that kernel takes REFERENCE_PROBE_S.
The speed flips between fast and slow phases within a fraction of a
second, so the scale is the mean speed of the probes close to the
operation (the median would pick one phase).  Raw times are kept
alongside and printed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

SHOWN_FAILURES = 3
PROBE_INTERVAL = 0.05
PROBE_WINDOW = 0.2  # seconds either side of an operation whose probes scale it
REFERENCE_PROBE_S = 3.5e-3

_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5 + 20 * (i == j)) for j in range(7)]
                 for i in range(7)]


def _kernel():
    """Gauss-Jordan inverse of a fixed 7 x 7 rational matrix."""
    d = len(_PROBE_MATRIX)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(_PROBE_MATRIX)]
    for c in range(d):
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return aug


class SpeedProbe:
    """Kernel timings (start, duration) sampled while running."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        # the collector would charge the interrupted operation's garbage
        # to the kernel, so it is held off while the kernel runs
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_time(self, t0, t1):
        """Seconds spent in probes that started inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, t0, t1):
        """Factor taking a time measured over [t0, t1] to reference speed."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW)
        if hi <= lo:
            raise RuntimeError("no speed probe near a measured interval")
        return statistics.fmean(REFERENCE_PROBE_S / d for d in self.durations[lo:hi])


class Tally:
    """Per-operation times and failure accounting for one pass."""

    def __init__(self):
        self.spans = []  # (start, end) of each operation
        self.failed = 0
        self.bounded = 0
        self.unknown = 0
        self.shown = 0

    def fail(self, label, text):
        self.failed += 1
        if self.shown < SHOWN_FAILURES:
            self.shown += 1
            print("FAILED %s: %s" % (label, text), file=sys.stderr)

    def raw_latencies(self, probe):
        """Operation times with the probes run inside them taken out."""
        return [t1 - t0 - probe.probe_time(t0, t1) for t0, t1 in self.spans]

    def latencies(self, probe):
        """Operation times at reference speed."""
        return [dt * probe.scale(t0, t1)
                for dt, (t0, t1) in zip(self.raw_latencies(probe), self.spans)]

    @property
    def busy(self):
        return sum(t1 - t0 for t0, t1 in self.spans)


def run_ops(g, ops, tally):
    for op in ops:
        t0 = time.perf_counter()
        try:
            res = op.run(g)
        except Exception:
            tally.spans.append((t0, time.perf_counter()))
            tally.fail(op.label, traceback.format_exc())
            continue
        tally.spans.append((t0, time.perf_counter()))
        out = op.check(res)
        tally.bounded += out.bounded
        tally.unknown += out.unknown
        if not out.ok:
            tally.fail(op.label, out.detail)


def measure(g, workload, seconds):
    """Whole rounds until the operations have taken `seconds`."""
    tally, rounds = Tally(), []
    while not rounds or tally.busy < seconds:
        rounds.append(workload.round(len(rounds)))
        run_ops(g, rounds[-1], tally)
    return tally, rounds


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    k = max(1, -(-len(sorted_vals) * p // 100))
    return sorted_vals[int(k) - 1]
