"""The timed phase shared by every workload: whole rounds until the time
is up, and for the traced run the three phases described in
:mod:`perfbench.tracer`."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.checks import Violations
from perfbench.refclock import RefClock
from perfbench.tracer import Tracer, detail_times, per_layer_metrics

#: Counters every workload keeps, cumulative over its run: decisions,
#: API operations, monitoring epochs, slices installed, simulator events.
STAT_KEYS = ("requests", "ops", "epochs", "installs", "events")


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    violations: Violations
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, Any]


class Rounds:
    """Runs whole rounds of a workload and keeps each round's busy time.

    A round's busy time is its CPU time minus the reference kernel's own
    time inside it.  Scaling happens after the run, when kernel samples
    on both sides of every round exist.
    """

    def __init__(self, clock: RefClock, between: Optional[Callable[[], None]] = None) -> None:
        self.clock = clock
        #: Runs after every round, outside its busy time (the checks).
        self.between = between
        self._rounds: List[Tuple[float, float]] = []

    def run(self, round_fn: Callable[[], None]) -> None:
        """One round of the workload."""
        clock = self.clock
        clock.tick()
        kernel_before = clock.kernel_s
        mark = clock.start()
        round_fn()
        elapsed, at = clock.stop(mark)
        self._rounds.append((elapsed - (clock.kernel_s - kernel_before), at))
        if self.between is not None:
            self.between()

    def repeat(self, count: int, round_fn: Callable[[], None]) -> None:
        for _ in range(count):
            self.run(round_fn)

    def mark(self) -> int:
        return len(self._rounds)

    def busy_s(self, since: int = 0, scaled: bool = True) -> float:
        total = 0.0
        for busy, at in self._rounds[since:]:
            total += self.clock.scaled(busy, at) if scaled else busy
        return total


@dataclass
class Phase:
    """Counter deltas and busy time of one stretch of the timed phase."""

    stats: Dict[str, float]
    busy_s: float
    raw_busy_s: float

    @property
    def requests_per_s(self) -> float:
        return self.stats["requests"] / self.busy_s

    @property
    def raw_requests_per_s(self) -> float:
        return self.stats["requests"] / self.raw_busy_s


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in STAT_KEYS}


def timed_rounds(seconds: float, rounds_per_second: float, unit: int = 1) -> int:
    """Rounds a run times: ``seconds`` of work at the reference speed, in
    whole units of ``unit`` rounds.

    The amount of work is fixed by ``seconds`` rather than by the wall
    clock: per-request cost rises as a run's history grows, so a wall-
    clock budget would let a fast phase of the machine do more (and
    costlier) requests than a slow one.
    """
    return max(1, round(seconds * rounds_per_second / unit)) * unit


def run_timed(
    rounds: Rounds,
    round_fn: Callable[[], None],
    count: int,
    stats: Callable[[], Dict[str, float]],
) -> Phase:
    """The untraced timed phase: ``count`` rounds."""
    before, mark = stats(), rounds.mark()
    rounds.repeat(count, round_fn)
    return Phase(_delta(stats(), before), rounds.busy_s(mark), rounds.busy_s(mark, scaled=False))


def run_traced(
    rounds: Rounds,
    round_fn: Callable[[], None],
    count: int,
    stats: Callable[[], Dict[str, float]],
    tracer: Tracer,
    set_sim_tracer: Callable[[Optional[Tracer]], None],
    out_path: str,
    unit: int = 1,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    """Reference, span and counter phases of a third of ``count`` rounds
    each (whole units); returns the per-layer metrics and the details."""
    third = max(1, count // (3 * unit)) * unit
    checks = rounds.between

    def untraced_checks() -> None:
        tracer.active = False
        try:
            checks()
        finally:
            tracer.active = True

    rounds.between = untraced_checks
    reference = run_timed(rounds, round_fn, third, stats)

    tracer.install_spans()
    set_sim_tracer(tracer)
    try:
        spans = run_timed(rounds, round_fn, third, stats)
    finally:
        set_sim_tracer(None)
        tracer.uninstall()

    tracer.install_counters()
    try:
        counters = run_timed(rounds, round_fn, third, stats)
    finally:
        tracer.uninstall()
        rounds.between = checks

    times = tracer.layer_times()
    span_counts = {name: row["calls"] for name, row in times.items()}
    overhead_pct = 100.0 * (reference.requests_per_s / spans.requests_per_s - 1.0)
    metrics = per_layer_metrics(
        times,
        span_counts,
        tracer.counts,
        spans.stats,
        counters.stats,
        tracer.recoveries,
        overhead_pct,
    )
    tracer.dump(out_path)
    details = {
        "phases": {
            "reference": {"requests_per_s": reference.requests_per_s, **reference.stats},
            "spans": {"requests_per_s": spans.requests_per_s, **spans.stats},
            "counters": {"requests_per_s": counters.requests_per_s, **counters.stats},
        },
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(out_path),
        "other_layers_ms": detail_times(times),
        "layers": {
            name: {"calls": row["calls"], "ms": row["ms"], "self_ms": row["self_ms"]}
            for name, row in sorted(times.items())
        },
    }
    return metrics, details
