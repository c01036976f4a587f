"""Rescaling of the benchmark's timings to a nominal machine speed.

The speed of the 2-core VM this benchmark was built on drifts by up to 2x,
in plateaus that last seconds: one bar-complex job ran anywhere from 0.43 s
to 0.86 s in one process, and CPU time tracked wall time, so the vCPU runs
slower rather than waiting.  No bound of at most 25% absorbs that.

So every end-to-end time is rescaled.  A fixed reference routine, which
shares no code with hhalg but does the same kind of work (row reduction of
list-of-list matrices over F3 through small scalar methods, dict updates),
is timed before, during and after each job.  The job's seconds are
multiplied by REF_NOMINAL_S times the mean of 1 / reference time: they read
as seconds on a machine where the reference takes REF_NOMINAL_S.  The unscaled seconds are printed alongside.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.02
TICK_S = 0.5


class _Field:
    """Scalar arithmetic mod p, called method by method as the engine does."""

    def __init__(self, p):
        self.p = p

    def normalize(self, x):
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def reference(n=48, p=3):
    """Row-reduce a fixed n x n matrix mod p, then fold it through a dict."""
    g = _Field(p)
    rows = [[g.normalize(i * 7 + j * 13 + i * j) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = g.add(rows[i][i], 1)
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = g.inv(rows[rank][c])
        rows[rank] = [g.mul(x, inv) for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = g.normalize(-rows[i][c])
                rows[i] = [g.add(a, g.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
    folded = {}
    for (i, j), c in entries.items():
        folded[j] = g.add(folded.get(j, 0), g.mul(c, i))
    return rank, len(folded)


EXPECTED = (47, 48)


class Speed:
    """Samples the reference and turns job seconds into nominal seconds.

    factor() is called after each job.  It rescales by the mean speed,
    1 / reference time, over the samples since the previous call: the one
    taken then, any taken during the job, and one taken now.  Inside ticking(), the reference also
    runs every TICK_S seconds from a SIGALRM handler, so that a long job is
    rescaled by the speed it ran at; paused_s adds up the handler's time,
    which the caller removes from the job's time, and sampled_s all the time
    spent in the reference.
    """

    def __init__(self):
        self.paused_s = 0.0
        self.sampled_s = 0.0
        self.window = [self.sample()]

    def sample(self):
        t0 = time.perf_counter()
        result = reference()
        dt = time.perf_counter() - t0
        if result != EXPECTED:
            raise RuntimeError(f"reference routine returned {result}")
        self.sampled_s += dt
        return dt

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.window.append(self.sample())
        self.paused_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self):
        """Rescaling factor for the job that just ended."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = self.sample()
            f = REF_NOMINAL_S * statistics.fmean(1 / r for r in self.window + [now])
            self.window = [now]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return f
