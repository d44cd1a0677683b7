"""Host speed calibration for the end-to-end timings.

On a shared virtual machine the speed of a vCPU drifts with the load of
other guests; on the 2-vCPU Xeon guest (KVM) the baseline was recorded
on, a fixed pure-Python loop ran anywhere between 0.40 s and 0.62 s
within one 20 s window, and identical `segment` passes between 1.2 s
and 2.2 s.  Drift that slow survives any median taken inside one run.

The benchmark therefore times this fixed kernel, which shares no code
with protoseg, before the first pass and after every pass (REPEATS runs
each time).  A run's wall time is its mean pass time scaled by
REFERENCE_S over its mean kernel time: the pass time at the speed at
which the kernel takes REFERENCE_S.  The kernel mixes the three kinds of
work the program does: interpreter loops, many numpy calls on small
arrays and elementwise numpy passes over arrays of a few MB.

On that machine, over three sets of ten 30 s runs per workload, the
spread (quartile distance over median) of a run's median raw pass time
was 0.08 to 0.37.  Scaling each pass by the kernel timings around it
and taking the median gave 0.08 to 0.14; scaling the mean pass time by
the mean kernel time, as here, gave 0.055 to 0.123, and never more than
the per-pass median on the same runs.  The ratio of means uses every
kernel sample for the run's speed, where one pass's bracket is a short
sample of a speed that moves within seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel time on the baseline machine, so scaled and raw times agree there
REFERENCE_S = 0.1
REPEATS = 5


def kernel_seconds() -> float:
    """Mean time of REPEATS runs of the calibration kernel."""
    return statistics.fmean(_kernel() for _ in range(REPEATS))


def _kernel() -> float:
    start = time.perf_counter()
    parent = list(range(4096))
    counts = {}
    acc = 0
    for i in range(150_000):
        j = (i * 7919) & 4095
        acc += parent[j]
        parent[j] = i
        if i & 7 == 0:
            counts[j] = counts.get(j, 0) + 1
    small = bytes(range(64)) * 4
    for i in range(5000):
        acc += float(np.frombuffer(small, dtype=np.uint8)[i % 100:i % 100 + 40]
                     .astype(float).sum())
    big = np.arange(1 << 19, dtype=float)
    for _ in range(20):
        part = np.abs(big - 3.0)
        np.divide(part, big + 1.0, out=part)
        acc += float(part.sum())
    return time.perf_counter() - start


def scaled(walls: list, kernels: list) -> list:
    """Each time at reference speed; kernels[i] and kernels[i+1] bracket walls[i]."""
    return [w * REFERENCE_S / ((kernels[i] + kernels[i + 1]) / 2) for i, w in enumerate(walls)]


def at_reference(walls: list, kernels: list) -> float:
    """Mean of the times at reference speed, by the run's mean kernel time."""
    return statistics.fmean(walls) * REFERENCE_S / statistics.fmean(kernels)
