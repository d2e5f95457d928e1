"""Host-speed normalisation: a fixed reference computation interleaved with the workload.

On a small shared host the same pass can take up to 1.8 times as long from
one stretch of seconds to the next, and a slow stretch can last longer than a
whole run. Process CPU time rises with wall time, so no estimator over the
run's own timings can tell a slow host from slow code. The benchmark
therefore runs `reference_work`, which depends on nothing in silentcrash,
after about every `EVERY_S` of workload time, and scales each stretch of
workload time by how much the reference work slowed right after it:

    normalised seconds = workload seconds * REFERENCE_S / reference seconds

A change to silentcrash moves the workload seconds but not the reference
seconds, so it shows in full; a slow stretch of the host moves both.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# About the mean time of one `reference_work` in the calmest stretches seen on
# a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4). Normalised times are
# seconds on a host running at that speed; only their ratios matter.
REFERENCE_S = 150e-6
# workload seconds between two calibrations; the reference work then takes
# about 7 % of a pass
EVERY_S = 0.002

_ARANGE = np.arange(400.0)


def reference_work() -> float:
    """About 150 us of mixed interpreter and small-array numpy work, like a simulate call."""
    acc = 0.0
    slots: dict[int, float] = {}
    pairs = []
    for i in range(200):
        acc += math.sqrt(i * 1.5 + acc * 1e-9)
        slots[i & 31] = acc
        pairs.append((i, acc))
    for _ in range(8):
        acc += float(np.hypot(_ARANGE * 0.5, _ARANGE + 1.0).sum())
    pairs.sort(key=lambda pair: -pair[1])
    return acc + len(pairs) + len(slots)


def reference_time(runs: int) -> float:
    """Mean seconds of `reference_work` over `runs` runs, after three that warm it up."""
    for _ in range(3):
        reference_work()
    start = perf_counter()
    for _ in range(runs):
        reference_work()
    return (perf_counter() - start) / runs


class HostClock:
    """The workload time of one pass, cut into segments of about EVERY_S.

    Each segment is followed by `reference_work`, run once per EVERY_S of
    the segment, and records the workload seconds and the mean reference
    seconds. The clock runs only inside `run`; the benchmark's own checks
    between ops are not workload time. A disabled clock cuts segments the
    same way but runs no reference work and scales nothing (traced passes).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.segments: list[tuple[float, float | None]] = []
        self._pending = 0.0
        self._since: float | None = None

    @property
    def segment(self) -> int:
        """Index of the segment that the workload is in now."""
        return len(self.segments)

    def run(self, fn, *args):
        """Call fn with the clock running; return its result and its (seconds, segment)."""
        self._since = start = perf_counter()
        try:
            result = fn(*args)
            call = (perf_counter() - start, self.segment)
        finally:
            self._pending += perf_counter() - self._since
            self._since = None
            self._calibrate(force=False)
        return result, call

    def tick(self) -> None:
        """Between two ops inside `run`: calibrate if a segment's worth of workload time has passed."""
        now = perf_counter()
        self._pending += now - self._since
        self._since = now
        self._calibrate(force=False)

    def finish(self) -> None:
        """Close the last segment of the pass."""
        self._calibrate(force=True)

    def _calibrate(self, force: bool) -> None:
        if self._pending < EVERY_S and not (force and self._pending > 0):
            return
        reference = None
        if self.enabled:
            runs = max(1, round(self._pending / EVERY_S))
            start = perf_counter()
            for _ in range(runs):
                reference_work()
            reference = (perf_counter() - start) / runs
        self.segments.append((self._pending, reference))
        self._pending = 0.0
        if self._since is not None:
            self._since = perf_counter()

    def scale(self, segment: int) -> float:
        """Factor that takes the segment's workload seconds to reference host speed."""
        reference = self.segments[segment][1]
        return 1.0 if reference is None else REFERENCE_S / reference

    @property
    def work_s(self) -> float:
        return sum(work for work, _ in self.segments)

    @property
    def normalised_s(self) -> float:
        return sum(work * self.scale(i) for i, (work, _) in enumerate(self.segments))
