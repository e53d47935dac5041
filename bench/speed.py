"""The speed of the machine during a run, from a fixed reference loop.

The benchmark machine is a shared 2-vCPU VM.  There the same pass over the
same inputs took 5.0 to 6.9 s within one process, and a fixed loop swung
between 50 and 109 ms in phases lasting 5 to 10 s, some covering whole
runs; CPU time tracked wall time, so other tenants slow the CPU itself.
Every timing is therefore scaled by the machine's speed at that moment:

    scaled = raw * (REFERENCE_NS / median(durations of the nearest probes)) ** sensitivity

A probe times ``reference_loop``, pure Python that never touches ratmaps,
between instances, at least every PROBE_INTERVAL_NS.  REFERENCE_NS is the
loop's duration in a quiet phase of that VM, so scaled times read as times
on it when quiet.  ratmaps slows down less than the loop when the machine
is busy.  The sensitivity is the slope of the log of a run's raw figures
against the log of its probe speed, per workload (Workload.sensitivity):
over 20-25 runs per workload whose probe speed ranged from 0.54 to 1.05,
the slopes of p50, p95 and throughput were 0.51-0.68 on gcd_subst_qq,
0.39-0.61 on gcd_subst_fp, 0.71-0.78 on classify and 0.55-0.66 on cli_mix.
Hence 0.75 on classify and 0.6 on the others.
Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter_ns

REFERENCE_NS = 750_000
PROBE_INTERVAL_NS = 50_000_000
NEAREST = 4


def reference_loop() -> int:
    """Dict updates with tuple keys and big-int products, like ratmaps' kernels."""
    table = {}
    acc = 0
    for i in range(2500):
        key = (i % 31, i % 37)
        value = table.get(key, 0) + 7 * i
        table[key] = value
        acc += value * 1234567890123456789
    return acc


class SpeedLog:
    """Probe times of the reference loop, by their midpoints."""

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self.mid = []
        self.dur = []
        self._last = None

    def probe(self):
        t0 = perf_counter_ns()
        reference_loop()
        t1 = perf_counter_ns()
        self.mid.append((t0 + t1) // 2)
        self.dur.append(t1 - t0)
        self._last = t1

    def maybe_probe(self):
        if self._last is None or perf_counter_ns() - self._last >= PROBE_INTERVAL_NS:
            self.probe()

    def scale(self, t_mid: int) -> float:
        """Factor turning a raw duration around t_mid into a scaled one."""
        i = bisect_left(self.mid, t_mid)
        nearest = self.dur[max(0, i - NEAREST // 2) : i + NEAREST // 2]
        return (REFERENCE_NS / statistics.median(nearest)) ** self.sensitivity

    def speed(self) -> float:
        """Median speed over the run; 1.0 is the reference machine when quiet."""
        return REFERENCE_NS / statistics.median(self.dur)
