"""Machine-speed calibration for the benchmark's timings.

On a shared 2-vCPU KVM guest (Xeon, Python 3.11), verification speed
drifts by up to 2x over seconds to minutes while CPU time stays equal to
wall time: other tenants slow the host, not steal time.  Over ten 40 s
runs the raw ``tables_per_s`` medians spread by 8-30 % (quartile distance
over median), depending on workload and hour.  A fixed allocation-heavy pure-Python loop slows down with
it: over 10 s windows, verification speed divided by probe speed varies
three times less than verification speed alone.  So every timed phase is
bracketed by this probe, and timings are reported at the nominal probe
speed ``REF_MOPS``: a phase that took ``t`` seconds while the probe ran at
``p`` M rounds/s counts as ``t * p / REF_MOPS``.  A change to the package
moves the calibrated figures as much as the raw ones; the raw figures are
printed beside them.  The probe runs in the repetition's main process, so
it tracks the host less closely when two pool workers share the cores.
"""

from __future__ import annotations

import statistics
import time

REF_MOPS = 0.3
_ROUNDS = 4_000


def probe_mops() -> float:
    """Fixed allocation-heavy pure-Python loop (tuples, a dict, sorting),
    M rounds per second, median of five."""
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(_ROUNDS):
            row = tuple((i * 2654435761 + k * 40503) % 1000 for k in range(7))
            seen[row] = seen.get(row, 0) + 1
            seen[tuple(sorted(row))] = i
        rates.append(_ROUNDS / 1e6 / (time.perf_counter() - t0))
    return statistics.median(rates)


def speed(before: float, after: float) -> float:
    """Machine speed over a phase bracketed by two probes, relative to nominal."""
    return (before + after) / 2 / REF_MOPS
