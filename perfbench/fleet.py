"""``fleet-overbooked``: the paper's overbooking broker at fleet scale.

128 eNBs with AdaptiveOverbooking and Holt-Winters forecasting, a
memory-only store and no emulated southbound latency.  Poisson
immediate requests at n/120 per s go through ``POST /v1/slices`` in
sync mode, one round per simulated minute.  After a 20-minute warm-up
the live population holds at 700-770 slices (the MOCN limit of 6 PLMNs
per cell caps it at 768), and nearly every request pays the calendar
scan over those bookings, CSPF, the placement indices and, once a
minute, the monitoring epoch; the journal and the batch planner do none
of the work.
"""

from __future__ import annotations

import gc
import statistics
from typing import Any, Dict, List, Optional

from repro.core.forecasting import HoltWintersForecaster
from repro.core.orchestrator import OrchestratorConfig
from repro.core.overbooking import AdaptiveOverbooking
from repro.experiments.testbed import build_testbed

from perfbench.checks import (
    Violations,
    check_capacity,
    check_decisions,
    check_latency_budget,
    check_reservations,
    check_revenue,
)
from perfbench.harness import Outcome, Rounds, run_timed, run_traced, timed_rounds
from perfbench.refclock import RefClock, Recorder, scatter_kernel, peak_rss_mb, percentile
from perfbench.stack import (
    Digest,
    PayloadGenerator,
    Stack,
    build_stack,
    fleet_testbed_config,
    placement_of,
    poisson_instants,
    tenant_headers,
    workload_rng,
)

NAME = "fleet-overbooked"
N_ENBS = 128
RATE_PER_S = N_ENBS / 120.0
ROUND_S = 60.0
WARMUP_ROUNDS = 20
#: Rounds whose decisions a second process must reproduce exactly.
DIGEST_ROUNDS = 5
SETUP_REPEATS = 15
#: Reference kernel: a scattered walk, the shape of this workload's calendar scan.
KERNEL = scatter_kernel
#: Timed rounds per second of ``--seconds`` (at the reference speed).
ROUNDS_PER_SECOND = 5.5
#: Full reservation and latency checks every this many rounds.
CHECK_EVERY = 10


def _round_inputs(rng, generator: PayloadGenerator, start: float):
    """(instant, tenant, body) of every arrival in one round."""
    return [
        (t, *generator.payload())
        for t in poisson_instants(rng, RATE_PER_S, start, start + ROUND_S)
    ]


def _setup(recorder: Recorder, seed: int) -> Stack:
    testbed = build_testbed(fleet_testbed_config(N_ENBS))
    return build_stack(
        testbed,
        recorder,
        seed,
        OrchestratorConfig(observability=False),
        overbooking=AdaptiveOverbooking(),
        forecaster_factory=lambda: HoltWintersForecaster(season_length=24),
    )


class Fleet:
    def __init__(self, stack: Stack, seed: int, recorder: Recorder) -> None:
        self.stack = stack
        self.recorder = recorder
        self.rng = workload_rng(NAME, seed)
        self.generator = PayloadGenerator(self.rng)
        self.timing = False
        self.sent = self.admitted = self.rejected = 0
        self.admitted_price = 0.0
        #: (slice, allocation) admitted since the last latency check.
        self.unchecked: List[Any] = []
        self.errors: List[str] = []
        self.digest = Digest()
        self.inputs = Digest()
        self.digesting = True
        self.rounds = 0

    def stats(self) -> Dict[str, float]:
        return {
            "requests": self.admitted + self.rejected,
            "ops": self.sent,
            "epochs": self.stack.sim.epochs,
            "installs": self.admitted,
            "events": self.stack.sim.events_processed,
        }

    def _arrival(self, tenant: str, body: Dict[str, Any]) -> None:
        self.recorder.clock.tick()
        api = self.stack.api
        index = self.sent
        self.sent += 1
        mark = self.recorder.clock.start()
        response = api.dispatch("POST", "/v1/slices", body=body, headers=tenant_headers(tenant))
        if self.timing:
            self.recorder.add("admit", mark)
        rbody = response.body or {}
        if response.status == 201 and rbody.get("admitted") is True:
            self.admitted += 1
            self.admitted_price += body["price"]
            admitted = self.stack.orchestrator.slice(rbody["slice_id"])
            self.unchecked.append((admitted, admitted.allocation))
            outcome = placement_of(self.stack.orchestrator, rbody["slice_id"])
        elif response.status == 409 and rbody.get("error", {}).get("code") == "admission_rejected":
            self.rejected += 1
            outcome = rbody["error"]["message"]
        else:
            self.errors.append(f"request {index}: HTTP {response.status} {rbody}")
            outcome = f"error {response.status}"
        if self.digesting:
            self.digest.add(index, response.status, outcome)

    def round(self) -> None:
        sim = self.stack.sim
        start = sim.now
        for t, tenant, body in _round_inputs(self.rng, self.generator, start):
            if self.digesting:
                self.inputs.add(t, tenant, sorted(body.items()))
            sim.schedule_at(
                t, lambda tenant=tenant, body=body: self._arrival(tenant, body),
                name="request-arrival",
            )
        sim.run_until(start + ROUND_S)

    def after_round(self, out: Violations) -> None:
        """Capacity after every round; the full checks every few rounds."""
        self.rounds += 1
        if self.rounds == DIGEST_ROUNDS:
            self.digesting = False
        check_capacity(self.stack.testbed, out)
        if self.rounds % CHECK_EVERY == 0:
            self.check_all(out)

    def check_all(self, out: Violations) -> None:
        orch = self.stack.orchestrator
        check_capacity(self.stack.testbed, out)
        check_reservations(orch, self.stack.testbed, out)
        check_latency_budget(self.stack.testbed, self.unchecked, out)
        self.unchecked.clear()


def input_digest(seed: int) -> str:
    """Digest of the first rounds' inputs, generated without the system."""
    rng = workload_rng(NAME, seed)
    generator = PayloadGenerator(rng)
    digest = Digest()
    for r in range(DIGEST_ROUNDS):
        for t, tenant, body in _round_inputs(rng, generator, r * ROUND_S):
            digest.add(t, tenant, sorted(body.items()))
    return digest.hexdigest()


def replica_digest(seed: int, work_dir: str) -> str:
    """The decision digest of the first rounds, as a second process sees it."""
    clock = RefClock()
    recorder = Recorder(clock)
    fleet = Fleet(_setup(recorder, seed), seed, recorder)
    for _ in range(DIGEST_ROUNDS):
        fleet.round()
    return fleet.digest.hexdigest()


def run(seed: int, seconds: float, clock: RefClock, tracer: Any = None,
        trace_path: Optional[str] = None, work_dir: Optional[str] = None) -> Outcome:
    recorder = Recorder(clock)
    out = Violations()

    for _ in range(SETUP_REPEATS - 1):
        clock.tick()
        mark = clock.start()
        _setup(recorder, seed)
        recorder.add("setup", mark)
        gc.collect()
    clock.tick()
    mark = clock.start()
    stack = _setup(recorder, seed)
    recorder.add("setup", mark)

    fleet = Fleet(stack, seed, recorder)
    rounds = Rounds(clock, between=lambda: fleet.after_round(out))
    for _ in range(WARMUP_ROUNDS):
        rounds.run(fleet.round)
    warm_live = len(stack.orchestrator.live_slices())

    count = timed_rounds(seconds, ROUNDS_PER_SECOND)
    fleet.timing = True
    stack.sim.recording = True
    if tracer is None:
        phase = run_timed(rounds, fleet.round, count, fleet.stats)
    else:
        layer_metrics, trace_details = run_traced(
            rounds,
            fleet.round,
            count,
            fleet.stats,
            tracer,
            lambda t: setattr(stack.sim, "tracer", t),
            trace_path,
        )
    fleet.timing = False
    stack.sim.recording = False
    end_live = len(stack.orchestrator.live_slices())

    fleet.check_all(out)
    check_decisions(stack.orchestrator, fleet.sent - len(fleet.errors), fleet.admitted, fleet.rejected, out)
    check_revenue(stack.orchestrator, fleet.admitted_price, 0.0, out)
    for error in fleet.errors:
        out.fail(error)

    details: Dict[str, Any] = {
        "requests": fleet.sent,
        "admitted": fleet.admitted,
        "rejected": fleet.rejected,
        "live_after_warmup": warm_live,
        "live_at_end": end_live,
        "decision_digest": fleet.digest.hexdigest(),
        "input_digest": fleet.inputs.hexdigest(),
    }
    if tracer is not None:
        details.update(trace_details)
        return Outcome(fleet.sent, len(fleet.errors), out, layer_metrics, details)

    admit = recorder.scaled_ms("admit")
    epochs = recorder.scaled_ms("epoch")
    setup = recorder.scaled_ms("setup")
    details.update(
        {
            "timed_requests": len(admit),
            "timed_epochs": len(epochs),
            "timed_rounds": count,
            "scaled_busy_s": phase.busy_s,
            "raw_busy_s": phase.raw_busy_s,
            "admit_p50_ms": percentile(admit, 50),
            "raw": {
                "admit_mean_ms": statistics.fmean(recorder.raw_ms("admit")),
                "admit_p90_ms": percentile(recorder.raw_ms("admit"), 90),
                "epoch_p50_ms": percentile(recorder.raw_ms("epoch"), 50),
                "setup_s": statistics.median(recorder.raw_ms("setup")) / 1000.0,
                "requests_per_s": phase.raw_requests_per_s,
            },
        }
    )
    metrics = {
        "setup_s": (statistics.median(setup) / 1000.0, "s"),
        "requests_per_s": (phase.requests_per_s, "1/s"),
        "admit_mean_ms": (statistics.fmean(admit), "ms"),
        "admit_p90_ms": (percentile(admit, 90), "ms"),
        "epoch_p50_ms": (percentile(epochs, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(fleet.sent, len(fleet.errors), out, metrics, details)

