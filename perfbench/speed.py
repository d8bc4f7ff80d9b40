"""A probe of how fast the host runs Python at the moment.

On a shared host the same code runs at speeds up to about 1.8x apart, and a
speed holds for tens of seconds, so a pass's raw timings mostly tell which
speed it met.  An untraced pass therefore runs a fixed piece of pure-Python
rational arithmetic every ``INTERVAL_S`` of wall time, from a SIGALRM
handler so that it also samples the middle of a long op, and records when
each probe started and ended.  The probe does the package's kind of work on
purpose: a probe of big-integer products and gcds, which run in C, slowed
less than the package when the host slowed (the package's time went as the
probe's to the power 1.3 to 1.6), while this one tracks it (power about 1).

The probe's own time is taken out of every timed region, and the pass's
speed is the mean over the probes of ``REF_S / probe time``: the probes are
spread evenly over wall time, so the mean is the share of reference-speed
work done per second of the pass.  A time ``t`` reads ``t * speed`` on the
reference scale, the seconds it would take where the probe takes ``REF_S``.
"""

from __future__ import annotations

import signal
import time
from math import gcd

import spans

INTERVAL_S = 0.05
ROUNDS = 25
# The reference scale: about what one probe took at a middling speed of the
# 2-vCPU host the benchmark was made on, so scaled seconds read close to raw
# ones there.
REF_S = 0.00135


def _sub_scaled(a: tuple, f: tuple, b: tuple) -> tuple:
    """a - f * b for rationals kept as (numerator, denominator) pairs."""
    n = a[0] * f[1] * b[1] - f[0] * b[0] * a[1]
    d = a[1] * f[1] * b[1]
    g = gcd(n, d)
    return n // g, d // g


def probe_work(rounds: int = ROUNDS) -> tuple:
    """Exact Gaussian elimination of a 4 x 5 rational matrix, in pure Python.

    It is the package's kind of work (calls, small-integer arithmetic and a
    gcd per rational operation), without importing ``fractions`` ahead of
    the package's own import."""
    for _ in range(rounds):
        m = [[(1 + (i == j) * (i + j + 1), i + j + 1) for j in range(5)] for i in range(4)]
        for c in range(4):
            p = m[c][c]
            for r in range(4):
                if r != c:
                    x = m[r][c]
                    g = gcd(x[0] * p[1], x[1] * p[0])
                    f = (x[0] * p[1] // g, x[1] * p[0] // g)
                    m[r] = [_sub_scaled(a, f, b) for a, b in zip(m[r], m[c])]
    return m[3][4]


class Probe:
    """Runs ``probe_work`` every ``interval`` seconds between ``start`` and ``stop``."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        probe_work()
        self.starts.append(t)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._tick(signal.SIGALRM, None)  # one sample even in a pass shorter than the interval
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(signal.SIGALRM, None)

    def time_in(self, start: float, end: float) -> float:
        """Seconds of [start, end] the probe spent running."""
        return spans.covered_length(start, end, zip(self.starts, self.ends))

    def speed(self) -> float:
        return sum(REF_S / (e - s) for s, e in zip(self.starts, self.ends)) / len(self.starts)
