"""Work time at a fixed reference speed of the machine.

The benchmark host is shared: the speed of the same Python code drifts by up
to 2x, in phases of a fraction of a second to minutes, and process CPU time
drifts with it (the slowdown is contention for the core and memory, not
time taken away from the process).  Plain times of the same code then
spread by tens of percent from run to run.

So a timed process samples the machine's speed while it works.  A timer
signal every ``INTERVAL_S`` runs ``burst``: a fixed piece of pure-Python
work shaped like wittlab's inner loop (a sparse polynomial product over a
dict of exponent tuples with bigint coefficients), timed on its own.  Its
time measures how slow the machine is at that moment.  A timed interval is
then given as::

    seconds at reference speed = work seconds * REF_BURST_S / mean burst

where the mean is over the bursts in and around the interval, and work
seconds leave out the bursts themselves.  ``REF_BURST_S`` is a constant
of the benchmark: about the burst time in the fast phases of a 2-core
Intel Xeon VM.  The burst never calls wittlab, so a change to the program
does not move it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
REF_BURST_S = 0.004
MARGIN_S = 0.25     # samples this far around an interval also count


def _poly(seed, nterms=40):
    rng = random.Random(seed)
    return {(rng.randrange(6), rng.randrange(6), rng.randrange(6)):
            rng.getrandbits(70) for _ in range(nterms)}


_A, _B = _poly(1), _poly(2)


def burst():
    """The fixed reference work; returns nothing."""
    for _ in range(2):
        out = {}
        for ma, ca in _A.items():
            for mb, cb in _B.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                prod = ca * cb
                prev = out.get(mono)
                out[mono] = prev + prod if prev is not None else prod


class Clock:
    """Work time of one process, and its conversion to reference speed.

    ``now()`` is ``time.perf_counter()`` minus the time spent in bursts so
    far.  With ``sampling`` off there are no bursts and ``at_ref`` returns
    plain seconds (traced runs use this: their figures are ratios and
    per-layer times, which carry no bound).
    """

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.spent = 0.0
        self.marks = []       # work time at each burst, ascending
        self.bursts = []      # each burst's own seconds

    def sample(self):
        t0 = time.perf_counter()
        burst()
        t1 = time.perf_counter()
        self.marks.append(t0 - self.spent)
        self.bursts.append(t1 - t0)
        self.spent += t1 - t0

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        if self.sampling:
            self.sample()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()

    def now(self):
        # A burst may run between any two bytecodes: retry until none ran
        # between reading the counter and the time.
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def at_ref(self, start, end):
        """Seconds at reference speed of the work interval [start, end]."""
        if not self.sampling:
            return end - start
        lo = bisect_left(self.marks, start - MARGIN_S)
        hi = bisect_right(self.marks, end + MARGIN_S)
        near = self.bursts[lo:hi]
        if not near:    # no burst close by: the nearest one on each side
            near = self.bursts[max(0, lo - 1):lo + 1]
        return (end - start) * REF_BURST_S / statistics.fmean(near)

    def speed(self):
        """Median burst seconds over the process, for the run record."""
        return statistics.median(self.bursts) if self.bursts else None


RAW = Clock(sampling=False)
