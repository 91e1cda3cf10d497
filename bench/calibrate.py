"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of work takes anywhere from its fastest time to about twice that,
fast spells last only milliseconds, and the mix of fast and slow shifts over
tens of seconds to minutes.  A command of a second averages over many spells,
so neither its median nor its minimum over a run is steady from one run to
the next, and neither is the fastest calibration unit of a run.

Each timed interval is therefore bracketed by blocks of a fixed calibration
unit: interpreter and small-array work like the package's own.  The mean
unit time of the blocks on either side, over the fixed REF_UNIT_S, is the
host's slowdown during the interval; dividing the interval by it gives the
interval's time at the reference speed (rescale()), at which one unit takes
REF_UNIT_S.  The raw wall times are reported beside the rescaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a block lasts at least this many units and about BLOCK_SHARE of the
# interval it brackets, so long intervals get a proportionally long probe
MIN_UNITS = 8
BLOCK_SHARE = 0.15
# reference unit time: about the fastest unit seen on the 2-vCPU Xeon
# (Skylake-X class, 2.1 GHz) host the benchmark was tuned on
REF_UNIT_S = 3.5e-4

_A = np.full((4, 4), 0.25)
_B = np.arange(1.0, 17.0).reshape(4, 4) / 136.0


def unit() -> float:
    """One calibration unit: a short loop of 4 x 4 products and Python arithmetic."""
    a = _A
    s = 0.0
    for i in range(120):
        a = a @ _B
        a = a / a.sum()
        s += float(a[i % 4, (i * 3) % 4]) * (i % 5)
    return s


def block(interval_s: float) -> list[float]:
    """Time calibration units for about BLOCK_SHARE of interval_s; the unit times."""
    times = []
    budget = BLOCK_SHARE * interval_s
    spent = 0.0
    while len(times) < MIN_UNITS or spent < budget:
        t0 = time.perf_counter()
        unit()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return times


def summary(times: list[float]) -> list[float]:
    """[mean, fastest] of one block's unit times."""
    return [statistics.fmean(times), min(times)]


def fastest(blocks: list[list[float]]) -> float:
    """Fastest unit time over blocks as summary() gives them."""
    return min(b[1] for b in blocks)


def rescale(elapsed: float, before: list[float], after: list[float]) -> float:
    """elapsed at the reference speed, from the blocks (summaries) on either side."""
    slowdown = (before[0] + after[0]) / (2.0 * REF_UNIT_S)
    return elapsed / slowdown
