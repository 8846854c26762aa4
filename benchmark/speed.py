"""Machine-speed sampling, so that wall times can be read at a fixed speed.

The benchmark runs on a few cores of a shared host.  There the same
pure-Python loop takes anywhere from 1.0 to 1.7 times its fastest time,
in phases that last from seconds to about a minute, and CPU time tracks
wall time: the core itself runs slower, so no scheduling measure removes
it.  Raw wall time therefore measures the neighbours as much as the
program (its middle half spread over 15-30% of the median across runs).

`Sampler` interleaves small fixed kernels with the workload: every
PERIOD_S of wall time a SIGALRM handler runs the next of three kernels
(an integer loop, a big-integer/dict loop, mpmath's libmp float
arithmetic, which is what the package spends its time in) and records
how long it took.  REF_S holds each kernel's time on an unloaded core,
so REF_S[k] / took is the machine's speed at that moment, 1.0 at best.
Sampling is uniform in wall time, so the work done in a stretch of wall
time is its busy time (wall time minus the handlers' own) times the mean
sampled speed; `ref_seconds` returns that.  Kernels and constants belong
to the benchmark, so a change to the package moves the program's time
and not the yardstick.
"""

from __future__ import annotations

import signal
import time

from mpmath import libmp

PERIOD_S = 0.02
_P = 64


def _k_int():
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def _k_bigint():
    d = {}
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    for i in range(2000):
        x = (x * 0x5851F42D4C957F2D + i) % (1 << 127)
        d[x & 63] = x
    return len(d)


def _k_mpf():
    a = libmp.from_rational(1, 7, _P)
    acc = libmp.fzero
    for i in range(120):
        b = libmp.mpf_add(a, libmp.from_int(i), _P)
        acc = libmp.mpf_add(acc, libmp.mpf_mul(b, libmp.mpf_sqrt(b, _P), _P,
                                               libmp.round_floor), _P)
    return acc


KERNELS = (_k_int, _k_bigint, _k_mpf)
# Fastest time of each kernel inside a running workload child: Intel Xeon
# VM, 2 vCPUs, Python 3.11, mpmath 1.3.0 pure-Python backend.
REF_S = (0.00057, 0.00048, 0.00053)


class Sampler:
    """Runs a kernel every PERIOD_S of wall time between start() and stop()."""

    def __init__(self):
        self.samples = 0
        self.handler_s = 0.0      # wall time spent inside the kernels
        self.speed_sum = 0.0      # sum of REF_S[k] / took over the samples

    def _tick(self, signum, frame):
        k = self.samples % len(KERNELS)
        t0 = time.perf_counter()
        KERNELS[k]()
        took = time.perf_counter() - t0
        self.samples += 1
        self.handler_s += took
        self.speed_sum += REF_S[k] / took

    def start(self):
        for kernel in KERNELS:      # first calls are not timed
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return (self.samples, self.handler_s, self.speed_sum)


def ref_seconds(wall_s, before, after):
    """Busy time between two marks, scaled to the unloaded machine's speed."""
    n = after[0] - before[0]
    if n < 1:
        return None
    busy = wall_s - (after[1] - before[1])
    return busy * (after[2] - before[2]) / n
