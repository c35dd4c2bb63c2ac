"""Machine-speed reference: an interleaved kernel that timed figures are scaled by.

The host this benchmark was built on changes speed in phases that last
from seconds to tens of seconds, and the control plane slows by up to
2.6x between them.  Process CPU time slows just as much, so it does not
help.  What does help is timing a fixed reference kernel every few tens
of milliseconds while the workload runs and scaling each timed figure by
the kernel's speed at that moment: a figure is reported in milliseconds
*at the speed where one kernel pass takes* :data:`REFERENCE_KERNEL_MS`.

Different code slows by different factors between phases: a walk over
frozen-dataclass intervals (the shape of ``ResourceCalendar.usage_at``)
slows as much as the fleet's calendar scan, an integer loop far less,
JSON encoding and small-object churn in between.  The kernel therefore
runs one short piece of each, of about equal length, so it tracks the
mix a control-plane workload runs.  Measured over 10-second blocks of
``durable-churn``, this mix left a 3.7% quartile spread of the scaled
create p50 where the walk alone left 5.6% and raw wall time 24%.  The
kernel lives in the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Kernel wall time that defines the reference speed.  Scaled figures
#: read as "ms on a machine where one kernel pass takes this long".
REFERENCE_KERNEL_MS = 1.0

#: Minimum wall time between two kernel samples.
SAMPLE_INTERVAL_S = 0.04

#: Half-width of the window whose kernel samples give the speed at an
#: instant; phases last seconds, so half a second follows them closely.
WINDOW_S = 0.5


@dataclass(frozen=True)
class _Vec:
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __add__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.a + other.a, self.b + other.b, self.c + other.c)


@dataclass(frozen=True)
class _Interval:
    start: float
    end: float
    demand: _Vec

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class _Record:
    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def _intervals(count: int) -> dict:
    # Fixed data: every pass does identical work.
    return {
        f"k{i}": _Interval(
            start=float((i * 7919) % 1000),
            end=float(1000 + (i * 104729) % 1000),
            demand=_Vec(float(i % 13), float(i % 7) * 0.5, float(i % 3)),
        )
        for i in range(count)
    }


_MIX_INTERVALS = _intervals(320)
_SCATTERED = list(_intervals(40000).values())
#: Fixed pseudo-random positions: each pass touches 1200 intervals spread
#: over ~10 MB, missing cache the way a scan over long-lived objects does.
_POSITIONS = [(i * 7919 + 13) % len(_SCATTERED) for i in range(1200)]
_DOCUMENT = {
    "type": "slice.installed",
    "time": 1234.5,
    "data": {"request": {"tenant": "acme", "sla": [25.0, 40.0, 3600.0]}, "plmn": "00101"},
}


def _walk(intervals: dict) -> _Vec:
    total = _Vec()
    for interval in intervals.values():
        if interval.active_at(500.0):
            total = total + interval.demand
    return total


def _encode() -> int:
    size = 0
    for lsn in range(16):
        line = json.dumps(dict(_DOCUMENT, lsn=lsn), sort_keys=True)
        size += len(json.loads(line))
    return size


def _integers() -> int:
    x = 1
    for _ in range(1800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def _objects() -> int:
    table = {}
    for i in range(300):
        table[f"s{i}"] = _Record(i, str(i))
    return sum(record.key for record in table.values())


def mixed_kernel() -> None:
    """A walk, JSON round trips, integer arithmetic and small-object
    churn, about equally long: the mix of a control-plane workload."""
    _walk(_MIX_INTERVALS)
    _encode()
    _integers()
    _objects()


def scatter_kernel() -> _Vec:
    """The walk over intervals scattered through a large heap: the shape
    of a calendar scan over hundreds of bookings allocated over time."""
    total = _Vec()
    for position in _POSITIONS:
        interval = _SCATTERED[position]
        if interval.active_at(500.0):
            total = total + interval.demand
    return total


class RefClock:
    """Times operations and scales them by the reference kernel's speed.

    Every duration, the kernel's included, is the process's CPU time
    (all threads): the host steals up to half of the wall clock from
    this guest in bursts, and stolen time, like time other processes
    hold the CPU, never reaches CPU time.  The workloads keep the
    control plane's threads on one pinned CPU, where a burst install's
    wall time exceeds its CPU time by only ~4% (the emulated southbound
    waits overlap CPU work), so CPU time is nearly all of their latency
    while the wall clock is mostly the host.  Positions in time (which
    kernel samples lie near an operation) are wall-clock.

    Call :meth:`tick` between timed operations (never inside one); it
    runs the kernel whenever :data:`SAMPLE_INTERVAL_S` has passed.
    ``kernel_s`` accumulates the kernel's own time, so callers can
    subtract it from elapsed intervals.
    """

    def __init__(self, kernel: Callable[[], None] = mixed_kernel) -> None:
        self.now = time.process_time
        self._kernel = kernel
        self._times: List[float] = []
        self._kernel_ms: List[float] = []
        self._next = 0.0
        self.kernel_s = 0.0
        # The first passes warm the interpreter's caches; keep them out.
        for _ in range(3):
            kernel()

    def sample(self) -> float:
        """Run one kernel pass now; returns its time in ms."""
        mark = self.start()
        self._kernel()
        elapsed, at = self.stop(mark)
        self.kernel_s += elapsed
        self._times.append(at)
        self._kernel_ms.append(elapsed * 1000.0)
        self._next = time.perf_counter() + SAMPLE_INTERVAL_S
        return elapsed * 1000.0

    def start(self) -> Tuple[float, float]:
        """Mark the start of an operation (CPU time, wall clock)."""
        return self.now(), time.perf_counter()

    def stop(self, mark: Tuple[float, float]) -> Tuple[float, float]:
        """(CPU seconds, wall-clock midpoint) since ``mark``."""
        started, wall = mark
        return self.now() - started, (wall + time.perf_counter()) / 2.0

    def tick(self) -> None:
        """Sample the kernel if the sampling interval has passed."""
        if time.perf_counter() >= self._next:
            self.sample()

    def kernel_ms_at(self, t: float) -> float:
        """Median kernel time of the samples within :data:`WINDOW_S` of
        ``t`` (the six nearest when fewer than three fall inside)."""
        if not self._times:
            raise RuntimeError("no reference-kernel samples taken")
        lo = bisect.bisect_left(self._times, t - WINDOW_S)
        hi = bisect.bisect_right(self._times, t + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self._times, t)
            lo = max(0, mid - 3)
            hi = min(len(self._times), mid + 3)
        return statistics.median(self._kernel_ms[lo:hi])

    def scale_at(self, t: float) -> float:
        """Factor that maps wall time at ``t`` to reference-speed time."""
        return REFERENCE_KERNEL_MS / self.kernel_ms_at(t)

    def scaled(self, seconds: float, t: float) -> float:
        """``seconds`` of wall time measured around ``t``, at reference speed."""
        return seconds * self.scale_at(t)

    def kernel_summary(self) -> dict:
        values = self._kernel_ms
        return {
            "samples": len(values),
            "median_ms": statistics.median(values),
            "min_ms": min(values),
            "max_ms": max(values),
            "reference_ms": REFERENCE_KERNEL_MS,
        }


@dataclass
class Timed:
    """One timed operation: CPU seconds and the wall clock at its middle."""

    seconds: float
    at: float


class Recorder:
    """Collects timed samples per series; scales them once the run ends."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.series: dict = {}

    def add(self, name: str, mark: Tuple[float, float], count: int = 1) -> None:
        """Record ``count`` operations that started at ``mark`` (see
        :meth:`RefClock.start`) and end now."""
        seconds, at = self.clock.stop(mark)
        self.series.setdefault(name, []).extend([Timed(seconds, at)] * count)

    def raw_ms(self, name: str) -> List[float]:
        return [s.seconds * 1000.0 for s in self.series.get(name, ())]

    def scaled_ms(self, name: str) -> List[float]:
        return [
            self.clock.scaled(s.seconds, s.at) * 1000.0 for s in self.series.get(name, ())
        ]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty series")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the threads it starts) to one CPU, so the
    kernel samples and the workload run on the same core.  Returns the
    CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
