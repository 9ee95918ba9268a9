"""Contention-corrected timing.

This benchmark runs on a machine whose cores are shared with other tenants.
Their load slows a pass by up to about 1.6x, in spells lasting seconds to
minutes, so raw wall times of one workload can spread by 25% from run to
run.  To correct for this, a pass runs a short, fixed probe every
``INTERVAL_S`` from a ``SIGALRM`` handler.  The probe's arithmetic has the
same shape as the pairing-kernel integrand.  How long each probe takes
measures how fast the machine was in that moment, and each stretch of
workload time between probes is rescaled by that speed:

    corrected = sum_i gap_i * NOMINAL_S / p_i

Here ``gap_i`` is the workload time before probe ``i``, and ``p_i`` is the
median duration of the probes around it.  The time spent in probes is left
out.  ``NOMINAL_S`` is the probe's duration on an uncontended machine
(an Intel Xeon, 2 vCPUs), so a corrected time reads as seconds on that
machine when it is quiet.

Run as a script, this module times ``import sccasimir.cli`` in the
current interpreter and prints ``{"raw_s": ..., "corrected_s": ...}``.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_S = 5.0e-4
_SMOOTH = 9  # probes per rolling median


def spin() -> float:
    acc = 0.0
    for i in range(1, 1000):
        e = math.hypot(i * 1e-3, 1e-3)
        q = cmath.sqrt((e + 1j * 0.01) ** 2 - 1e-6)
        acc += (q * (e + 0.5j)).real / e * math.tanh(e)
    return acc


class Probe:
    """Context manager that samples machine speed while its block runs."""

    def __init__(self):
        # (start, duration of the warm probe, time spent probing)
        self.samples: list[tuple[float, float, float]] = []
        self.start = self.end = 0.0
        self._previous = None
        self._knots_cache = None

    def _handler(self, signum, frame):
        begin = time.perf_counter()
        spin()  # warms caches and branch predictors after the workload
        warm = time.perf_counter()
        spin()
        end = time.perf_counter()
        self.samples.append((begin, end - warm, end - begin))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def raw(self) -> float:
        return self.end - self.start

    def _knots(self) -> tuple[list[float], list[float]]:
        """(raw time, corrected time since start) at the start, at each
        probe's start and end, and at the end of the block."""
        if self._knots_cache is None:
            durations = [d for _, d, _ in self.samples]
            half = _SMOOTH // 2
            raw, corrected = [self.start], [0.0]
            total = 0.0
            previous_end = self.start
            for i, (begin, _, spent) in enumerate(self.samples):
                window = durations[max(0, i - half):i + half + 1]
                total += (begin - previous_end) * NOMINAL_S / statistics.median(window)
                previous_end = begin + spent
                raw += [begin, previous_end]
                corrected += [total, total]
            if durations:
                window = durations[-(half + 1):]
                total += (self.end - previous_end) * NOMINAL_S / statistics.median(window)
            else:
                # shorter than one interval: nothing measured the speed
                total = self.raw
            raw.append(self.end)
            corrected.append(total)
            self._knots_cache = (raw, corrected)
        return self._knots_cache

    def corrected(self) -> float:
        """Block time without probes, rescaled to the nominal speed."""
        return self._knots()[1][-1]

    def clock(self, t: float) -> float:
        """Corrected time at raw ``perf_counter`` reading ``t`` in the block,
        counted from its start; flat while a probe runs."""
        raw, corrected = self._knots()
        i = min(max(bisect.bisect_right(raw, t) - 1, 0), len(raw) - 2)
        span = raw[i + 1] - raw[i]
        if span <= 0.0:
            return corrected[i]
        frac = min(max((t - raw[i]) / span, 0.0), 1.0)
        return corrected[i] + frac * (corrected[i + 1] - corrected[i])

    def summary(self) -> dict:
        durations = [d for _, d, _ in self.samples]
        return {"raw_s": self.raw, "corrected_s": self.corrected(),
                "probes": len(durations),
                "probe_median_s": statistics.median(durations) if durations else None}


if __name__ == "__main__":
    with Probe() as probe:
        import sccasimir.cli  # noqa: F401
    print(json.dumps(probe.summary()))
