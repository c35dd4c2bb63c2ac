"""``install-burst``: batched installs through the concurrent planner.

16 eNBs plus a ``MockDriver`` domain with 2 ms prepare and 0.5 ms commit
latency (8 concurrent installs, the D8 settings).  Each round posts a
burst of 32 creates with ``mode=batch`` and has the broker flush them
into ``BatchInstallPlanner``, then advances one simulated minute so
slices activate and the previous bursts expire.  The planner, its
per-operation threads and the driver locks do the work; calendar and
placement are cheap.

A job's decision latency is the flush's time: the broker resolves every
operation of the window when its batch settles.  It is measured as the
CPU time of all the control plane's threads, pinned to one CPU; there
the emulated 2 ms/0.5 ms waits overlap CPU work, and the flush's wall
time exceeds its CPU time by ~4 ms of ~95 ms (the detail line reports
the wall-clock p50 beside it).
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.orchestrator import OrchestratorConfig
from repro.core.slices import ServiceType
from repro.drivers.mock import MockDriver
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
from perfbench.refclock import RefClock, Recorder, mixed_kernel, peak_rss_mb, percentile
from perfbench.stack import (
    Digest,
    PayloadGenerator,
    Stack,
    build_stack,
    fleet_testbed_config,
    placement_of,
    tenant_headers,
    workload_rng,
)

NAME = "install-burst"
N_ENBS = 16
BURST = 32
ROUND_S = 60.0
PREPARE_LATENCY_S = 0.002
COMMIT_LATENCY_S = 0.0005
MOCK_CONCURRENCY = 8
WARMUP_ROUNDS = 5
DIGEST_ROUNDS = 3
SETUP_REPEATS = 15
#: Reference kernel: the mix (JSON, small objects, integers, a walk).
KERNEL = mixed_kernel
#: Timed rounds per second of ``--seconds`` (at the reference speed).
ROUNDS_PER_SECOND = 12.0
CHECK_EVERY = 10
SLICE_DURATION_S = (90.0, 150.0)
THROUGHPUT_MBPS = (2.0, 8.0)
VERTICALS = (ServiceType.EMBB, ServiceType.MMTC, ServiceType.EHEALTH)


def _setup(recorder: Recorder, seed: int) -> Tuple[Stack, MockDriver]:
    testbed = build_testbed(fleet_testbed_config(N_ENBS))
    mock = MockDriver(
        "mock",
        capacity_mbps=1e9,
        max_concurrent_installs=MOCK_CONCURRENCY,
        prepare_latency_s=PREPARE_LATENCY_S,
        commit_latency_s=COMMIT_LATENCY_S,
    )
    testbed.registry.register(mock)
    config = OrchestratorConfig(observability=False)
    return build_stack(testbed, recorder, seed, config), mock


def _generator(seed: int) -> PayloadGenerator:
    return PayloadGenerator(
        workload_rng(NAME, seed),
        duration_range_s=SLICE_DURATION_S,
        throughput_range_mbps=THROUGHPUT_MBPS,
        verticals=VERTICALS,
    )


class Burst:
    def __init__(self, stack: Stack, mock: MockDriver, seed: int, recorder: Recorder) -> None:
        self.stack = stack
        self.mock = mock
        self.recorder = recorder
        self.generator = _generator(seed)
        self.timing = False
        self.digesting = True
        self.digest = Digest()
        self.inputs = Digest()
        self.rounds = 0
        self.sent = self.admitted = self.rejected = 0
        self.admitted_price = 0.0
        self.errors: List[str] = []
        #: (op id, tenant, body) of the last burst, verified between rounds.
        self.posted: List[Tuple[str, str, Dict[str, Any]]] = []
        self.unchecked: List[Any] = []
        #: slice id -> throughput of every admitted slice
        self.admitted_mbps: Dict[str, float] = {}
        self.rejected_ids: List[str] = []
        #: Wall time of every timed flush (the detail line compares it
        #: with the CPU time the metrics use).
        self.flush_wall_ms: List[float] = []

    def stats(self) -> Dict[str, float]:
        return {
            "requests": self.admitted + self.rejected,
            "ops": self.sent,
            "epochs": self.stack.sim.epochs,
            "installs": self.admitted,
            "events": self.stack.sim.events_processed,
        }

    def round(self) -> None:
        api = self.stack.api
        broker = self.stack.service.broker
        self.posted = []
        for _ in range(BURST):
            tenant, body = self.generator.payload()
            if self.digesting:
                self.inputs.add(tenant, sorted(body.items()))
            response = api.dispatch(
                "POST", "/v1/slices?mode=batch", body=body, headers=tenant_headers(tenant)
            )
            self.sent += 1
            if response.status != 202:
                self.errors.append(f"batch create: HTTP {response.status} {response.body}")
                continue
            self.posted.append((response.body["operation_id"], tenant, body))
        self.recorder.clock.tick()
        mark = self.recorder.clock.start()
        wall = time.perf_counter()
        decisions = broker.flush()
        if self.timing:
            self.recorder.add("admit", mark, count=len(decisions))
            self.flush_wall_ms.append((time.perf_counter() - wall) * 1000.0)
        sim = self.stack.sim
        sim.run_until(sim.now + ROUND_S)

    def after_round(self, out: Violations) -> None:
        """Every operation of the burst resolved exactly once; capacity
        after every round; the full checks every few rounds."""
        api = self.stack.api
        orch = self.stack.orchestrator
        for op_id, tenant, body in self.posted:
            response = api.dispatch("GET", f"/v1/operations/{op_id}", headers=tenant_headers(tenant))
            op = response.body or {}
            decision = op.get("decision") or {}
            expected = "succeeded" if decision.get("admitted") else "failed"
            if response.status != 200 or op.get("status") != expected:
                self.errors.append(f"operation {op_id}: {response.status} {op}")
                continue
            slice_id = decision.get("slice_id")
            if decision.get("admitted"):
                self.admitted += 1
                self.admitted_price += body["price"]
                self.admitted_mbps[slice_id] = body["throughput_mbps"]
                admitted = orch.slice(slice_id)
                self.unchecked.append((admitted, admitted.allocation))
                outcome = placement_of(orch, slice_id)
            else:
                self.rejected += 1
                self.rejected_ids.append(slice_id)
                outcome = decision.get("reason")
            if self.digesting:
                self.digest.add(op_id, decision.get("admitted"), outcome)
        self.rounds += 1
        if self.rounds == DIGEST_ROUNDS:
            self.digesting = False
        check_capacity(self.stack.testbed, out)
        if self.rounds % CHECK_EVERY == 0:
            self.check_all(out)

    def check_all(self, out: Violations) -> None:
        orch = self.stack.orchestrator
        testbed = self.stack.testbed
        check_capacity(testbed, out)
        check_reservations(orch, testbed, out)
        check_latency_budget(testbed, self.unchecked, out)
        self.unchecked.clear()
        # Rejected jobs hold nothing, in any domain.
        for slice_id in self.rejected_ids:
            held = [d.domain for d in testbed.registry.drivers() if d.reservation_of(slice_id)]
            out.expect(not held, f"rejected {slice_id} still holds {held}")
        self.rejected_ids.clear()
        # The mock's held capacity equals the admitted live demand.
        live = {s.slice_id: s for s in orch.live_slices()}
        demand = sum(
            self.admitted_mbps[sid] * orch.runtime(sid).effective_fraction
            for sid in live
            if sid in self.admitted_mbps
        )
        out.expect(
            abs(self.mock.held_mbps - demand) <= 1e-6 * max(1.0, demand),
            f"mock holds {self.mock.held_mbps:.6f} Mb/s, live admitted demand {demand:.6f}",
        )
        expired = [sid for sid in self.admitted_mbps if sid not in live]
        for sid in expired:
            del self.admitted_mbps[sid]


def input_digest(seed: int) -> str:
    """Digest of the first bursts' inputs, generated without the system."""
    generator = _generator(seed)
    digest = Digest()
    for _ in range(DIGEST_ROUNDS * BURST):
        tenant, body = generator.payload()
        digest.add(tenant, sorted(body.items()))
    return digest.hexdigest()


def replica_digest(seed: int, work_dir: str) -> str:
    """The decision digest of the first bursts, as a second process sees it."""
    recorder = Recorder(RefClock())
    burst = Burst(*_setup(recorder, seed), seed, recorder)
    out = Violations()
    for _ in range(DIGEST_ROUNDS):
        burst.round()
        burst.after_round(out)
    return burst.digest.hexdigest()


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
    stack, mock = _setup(recorder, seed)
    recorder.add("setup", mark)

    burst = Burst(stack, mock, seed, recorder)
    rounds = Rounds(clock, between=lambda: burst.after_round(out))
    for _ in range(WARMUP_ROUNDS):
        rounds.run(burst.round)

    count = timed_rounds(seconds, ROUNDS_PER_SECOND)
    burst.timing = True
    stack.sim.recording = True
    if tracer is None:
        phase = run_timed(rounds, burst.round, count, burst.stats)
    else:
        layer_metrics, trace_details = run_traced(
            rounds, burst.round, count, burst.stats, tracer,
            lambda t: setattr(stack.sim, "tracer", t), trace_path,
        )
    burst.timing = False
    stack.sim.recording = False

    burst.check_all(out)
    check_decisions(stack.orchestrator, burst.sent - len(burst.errors), burst.admitted,
                    burst.rejected, out)
    check_revenue(stack.orchestrator, burst.admitted_price, 0.0, out)
    for error in burst.errors:
        out.fail(error)

    details: Dict[str, Any] = {
        "requests": burst.sent,
        "admitted": burst.admitted,
        "rejected": burst.rejected,
        "bursts": burst.rounds,
        "live_at_end": len(stack.orchestrator.live_slices()),
        "decision_digest": burst.digest.hexdigest(),
        "input_digest": burst.inputs.hexdigest(),
    }
    if tracer is not None:
        details.update(trace_details)
        return Outcome(burst.sent, len(burst.errors), out, layer_metrics, details)

    admit = recorder.scaled_ms("admit")
    epochs = recorder.scaled_ms("epoch")
    details.update(
        {
            "timed_jobs": len(admit),
            "timed_epochs": len(epochs),
            "timed_rounds": count,
            "scaled_busy_s": phase.busy_s,
            "raw_busy_s": phase.raw_busy_s,
            "flush_wall_ms_p50": percentile(burst.flush_wall_ms, 50),
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
        "setup_s": (statistics.median(recorder.scaled_ms("setup")) / 1000.0, "s"),
        "requests_per_s": (phase.requests_per_s, "1/s"),
        "admit_mean_ms": (statistics.fmean(admit), "ms"),
        "admit_p90_ms": (percentile(admit, 90), "ms"),
        "epoch_p50_ms": (percentile(epochs, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(burst.sent, len(burst.errors), out, metrics, details)
