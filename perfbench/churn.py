"""``durable-churn``: the write side of the control plane under churn.

8 eNBs, a durable store under a fresh directory with the default
journal group-commit (fsync every 32 records) and auto-checkpoint (every
512 records).  Every simulated minute is one round of ten v1 operations
at uniformly drawn instants, in a fixed order: three sync creates, three
``PATCH`` resizes of active slices, two advance bookings, one ``DELETE``
of an active slice and one booking cancel; slices also expire on their
own.  The live population holds at a few dozen slices, so fleet-scale
placement stays small and the journal, checkpoint and compaction,
modify/cancel/teardown and the calendar's window scan do the work.

Every :data:`CYCLE_ROUNDS` rounds comes one crash-recover cycle: the
store is closed immediately before the ``slice.expired`` append of a
``DELETE``, then reopened under a fresh orchestrator and handed to
``RecoveryManager.restore``.  A cycle fails when recovery reports a lost
or leaked slice or held != Σ COMMITTED afterwards.  Today every cycle
fails: ``Orchestrator._expire`` releases the southbound before it
journals the record, so the deliberate teardown comes back as *lost*.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
from typing import Any, Dict, List, Optional, Set

from repro.core.orchestrator import OrchestratorConfig
from repro.core.slices import ServiceType, SliceState, slice_id_for
from repro.experiments.testbed import build_testbed
from repro.store import ControlPlaneStore, RecoveryManager

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
    build_stack,
    fleet_testbed_config,
    placement_of,
    tenant_headers,
    workload_rng,
)

NAME = "durable-churn"
N_ENBS = 8
ROUND_S = 60.0
#: One round's operations, in the order their instants are assigned.
ROUND_OPS = (
    "create", "patch", "booking", "create", "patch",
    "booking", "create", "delete", "cancel", "patch",
)
#: Rounds between two crash-recover cycles; a run attempts whole
#: multiples of (CYCLE_ROUNDS rounds + 1 cycle).
CYCLE_ROUNDS = 20
PREFILL = 12
WARMUP_ROUNDS = 10
DIGEST_ROUNDS = 5
SETUP_REPEATS = 15
#: Reference kernel: the mix (JSON, small objects, integers, a walk).
KERNEL = mixed_kernel
#: Timed rounds per second of ``--seconds`` (at the reference speed).
ROUNDS_PER_SECOND = 100.0
CHECK_EVERY = 5
SLICE_DURATION_S = (240.0, 600.0)
BOOKING_DURATION_S = (300.0, 600.0)
BOOKING_LEAD_S = (120.0, 600.0)
THROUGHPUT_MBPS = (1.0, 5.0)
VERTICALS = (ServiceType.EMBB, ServiceType.MMTC, ServiceType.EHEALTH)
LIVE = (SliceState.ADMITTED, SliceState.DEPLOYING, SliceState.ACTIVE)


def _config(store_dir: str) -> OrchestratorConfig:
    return OrchestratorConfig(observability=False, durability_dir=store_dir)


def _generator(seed: int) -> PayloadGenerator:
    return PayloadGenerator(
        workload_rng(NAME, seed),
        duration_range_s=SLICE_DURATION_S,
        throughput_range_mbps=THROUGHPUT_MBPS,
        verticals=VERTICALS,
    )


def _round_inputs(generator: PayloadGenerator, start: float):
    """(instant, op, tenant, body, extra) of one round; ``extra`` is the
    new throughput of a resize or the lead time of a booking."""
    rng = generator.rng
    instants = sorted(float(x) for x in rng.uniform(start, start + ROUND_S, len(ROUND_OPS)))
    out = []
    for t, kind in zip(instants, ROUND_OPS):
        tenant, body = generator.payload()
        if kind == "booking":
            body["duration_s"] = float(rng.uniform(*BOOKING_DURATION_S))
            extra = float(rng.uniform(*BOOKING_LEAD_S))
        else:
            extra = float(rng.uniform(*THROUGHPUT_MBPS))
        out.append((t, kind, tenant, body, extra))
    return out


class Churn:
    def __init__(self, seed: int, recorder: Recorder, store_dir: str, out: Violations) -> None:
        self.seed = seed
        self.recorder = recorder
        self.store_dir = store_dir
        self.out = out
        self.generator = _generator(seed)
        #: Targets of resizes, deletes and cancels come from their own
        #: stream, so the inputs are a function of the seed alone.
        self.picks = workload_rng(NAME + "-targets", seed)
        self.testbed = build_testbed(fleet_testbed_config(N_ENBS))
        self.stack = build_stack(self.testbed, recorder, seed, _config(store_dir))
        self.timing = False
        self.digesting = True
        self.digest = Digest()
        self.inputs = Digest()
        self.errors: List[str] = []
        self.rounds = 0
        self.ops = 0
        self.decisions = 0
        self.installs_done = 0
        self.epochs_done = 0
        self.events_done = 0
        self.cycles = 0
        self.cycles_failed = 0
        self.cycle_reports: List[dict] = []
        self.rejected_total = 0
        #: booking id -> price, across incarnations
        self.booking_price: Dict[str, float] = {}
        self._new_incarnation(adopted=set())

    # -- bookkeeping per control-plane incarnation ------------------------
    def _new_incarnation(self, adopted: Set[str]) -> None:
        self.adopted = adopted
        self.created: List[str] = []
        self.created_price = 0.0
        self.creates_admitted = 0
        self.creates_rejected = 0
        self.refunds = 0.0
        self.pending_bookings: List[tuple] = []
        #: (slice, allocation) admitted since the last latency check.
        self.unchecked: List[Any] = []

    def stats(self) -> Dict[str, float]:
        sim = self.stack.sim
        return {
            "requests": self.decisions,
            "ops": self.ops,
            "epochs": self.epochs_done + sim.epochs,
            "installs": self.installs_done + self._bookings_installed() + self.creates_admitted,
            "events": self.events_done + sim.events_processed,
        }

    def _bookings_installed(self) -> int:
        return sum(1 for sid in self._booking_slices() if
                   self.stack.orchestrator.slice(sid).state is not SliceState.REJECTED)

    def _booking_slices(self) -> List[str]:
        orch = self.stack.orchestrator
        return [
            slice_id_for(bid)
            for bid in self.booking_price
            if orch.has_slice(slice_id_for(bid)) and slice_id_for(bid) not in self.adopted
        ]

    # -- operations -------------------------------------------------------
    def _call(self, series: str, method: str, path: str, tenant: str, body=None):
        self.recorder.clock.tick()
        mark = self.recorder.clock.start()
        response = self.stack.api.dispatch(method, path, body=body, headers=tenant_headers(tenant))
        if self.timing:
            self.recorder.add(series, mark)
        self.ops += 1
        return response

    def _error(self, what: str, response) -> None:
        self.errors.append(f"{what}: HTTP {response.status} {response.body}")

    def _pick(self, candidates: List[str]) -> Optional[str]:
        if not candidates:
            return None
        return candidates[int(self.picks.integers(0, len(candidates)))]

    def _op(self, kind: str, body: Dict[str, Any], tenant: str, extra: float) -> None:
        orch = self.stack.orchestrator
        if kind == "create":
            response = self._call("admit", "POST", "/v1/slices", tenant, body)
            rbody = response.body or {}
            if response.status == 201:
                self.creates_admitted += 1
                self.created_price += body["price"]
                self.created.append(rbody["slice_id"])
                admitted = orch.slice(rbody["slice_id"])
                self.unchecked.append((admitted, admitted.allocation))
                outcome = placement_of(orch, rbody["slice_id"])
            elif response.status == 409 and rbody.get("error", {}).get("code") == "admission_rejected":
                self.creates_rejected += 1
                self.rejected_total += 1
                outcome = "rejected"
            else:
                return self._error("create", response)
        elif kind == "patch":
            active = sorted(s.slice_id for s in orch.active_slices())
            target = self._pick(active)
            if target is None:
                return self.errors.append("patch: no active slice to resize")
            response = self._call(
                "update", "PATCH", f"/v1/slices/{target}",
                orch.slice(target).request.tenant_id, {"throughput_mbps": extra},
            )
            rbody = response.body or {}
            if not (response.status == 200 or (
                response.status == 409
                and rbody.get("error", {}).get("code") == "modification_rejected"
            )):
                return self._error("patch", response)
            outcome = f"{target}:{response.status}"
        elif kind == "booking":
            body = dict(body, start_time=orch.sim.now + extra)
            response = self._call("booking", "POST", "/v1/bookings", tenant, body)
            rbody = response.body or {}
            if response.status == 201:
                self.booking_price[rbody["booking_id"]] = body["price"]
                self.pending_bookings.append((rbody["booking_id"], tenant))
                outcome = rbody["booking_id"]
            elif response.status == 409 and rbody.get("error", {}).get("code") == "calendar_conflict":
                self.booking_price[rbody["request_id"]] = body["price"]
                outcome = "conflict"
            else:
                return self._error("booking", response)
        elif kind == "delete":
            # Slices this incarnation admitted: tearing down one adopted
            # by recovery fails on every attempt (see README).
            live = [sid for sid in self.created if orch.slice(sid).state in LIVE]
            target = self._pick(live)
            if target is None:
                return self.errors.append("delete: no live slice to tear down")
            response = self._call(
                "delete", "DELETE", f"/v1/slices/{target}", orch.slice(target).request.tenant_id
            )
            if response.status != 200:
                return self._error("delete", response)
            self.refunds += response.body["refund"]
            outcome = target
        else:  # cancel: the oldest booking still pending
            pending = [
                (b, owner) for b, owner in self.pending_bookings
                if orch.advance_start_time(b) is not None
            ]
            self.pending_bookings = pending
            if not pending:
                return self.errors.append("cancel: no pending booking")
            target, owner = pending.pop(0)
            response = self._call("cancel", "DELETE", f"/v1/bookings/{target}", owner)
            if response.status != 200:
                return self._error("cancel", response)
            outcome = target
        self.decisions += 1
        if self.digesting:
            self.digest.add(self.ops, kind, outcome)

    def round(self) -> None:
        sim = self.stack.sim
        start = sim.now
        for t, kind, tenant, body, extra in _round_inputs(self.generator, start):
            if self.digesting:
                self.inputs.add(t - start, kind, tenant, sorted(body.items()), extra)
            sim.schedule_at(
                t,
                lambda kind=kind, body=body, tenant=tenant, extra=extra: self._op(
                    kind, body, tenant, extra
                ),
                name="request-arrival",
            )
        sim.run_until(start + ROUND_S)

    def prefill(self) -> None:
        for _ in range(PREFILL):
            tenant, body = self.generator.payload()
            self._op("create", body, tenant, 0.0)
        self.stack.sim.run_until(ROUND_S)

    def unit(self) -> None:
        """Whole-run unit: one round, and after every CYCLE_ROUNDS rounds
        the crash-recover cycle."""
        self.round()
        self.rounds += 1
        if self.rounds == DIGEST_ROUNDS:
            self.digesting = False
        if self.rounds % CYCLE_ROUNDS == 0:
            self.crash_cycle()

    # -- checks -------------------------------------------------------------
    def after_round(self) -> None:
        check_capacity(self.testbed, self.out)
        if self.rounds % CHECK_EVERY == 0:
            self.check_all()

    def check_all(self) -> None:
        orch = self.stack.orchestrator
        out = self.out
        check_capacity(self.testbed, out)
        check_reservations(orch, self.testbed, out)
        check_latency_budget(self.testbed, self.unchecked, out)
        self.unchecked.clear()
        booking_slices = self._booking_slices()
        booked_ok = [s for s in booking_slices if orch.slice(s).state is not SliceState.REJECTED]
        booked_rejected = len(booking_slices) - len(booked_ok)
        check_decisions(
            orch,
            self.creates_admitted + self.creates_rejected + len(booking_slices),
            self.creates_admitted + len(booked_ok),
            self.creates_rejected + booked_rejected,
            out,
        )
        booked_price = sum(
            self.booking_price[bid]
            for bid in self.booking_price
            if slice_id_for(bid) in set(booked_ok)
        )
        check_revenue(orch, self.created_price + booked_price, self.refunds, out)

    # -- crash + recovery ----------------------------------------------------
    def crash_cycle(self) -> None:
        self.check_all()
        old = self.stack
        orch = old.orchestrator
        store = orch.store
        append = store.append

        def crash_before_expiry(record_type, time=0.0, **data):
            if record_type == "slice.expired":
                store.close()
            return append(record_type, time=time, **data)

        store.append = crash_before_expiry
        target = self._pick(
            [sid for sid in self.created if orch.slice(sid).state is SliceState.ACTIVE]
        )
        if target is None:
            self.errors.append("crash cycle: no active slice to tear down")
            return
        response = self._call(
            "delete", "DELETE", f"/v1/slices/{target}", orch.slice(target).request.tenant_id
        )
        self.cycles += 1
        crashed = store.status()["closed"]
        if response.status != 200 or not crashed:
            self.errors.append(f"crash cycle: DELETE {response.status}, store closed={crashed}")
            return

        self.installs_done += self.creates_admitted + self._bookings_installed()
        self.epochs_done += old.sim.epochs
        self.events_done += old.sim.events_processed
        recording = old.sim.recording
        self.recorder.clock.tick()
        mark = self.recorder.clock.start()
        reopened = ControlPlaneStore(self.store_dir)
        stack = build_stack(self.testbed, self.recorder, self.seed,
                            _config(self.store_dir), store=reopened)
        report = RecoveryManager(stack.orchestrator, stack.service).restore()
        if self.timing:
            self.recorder.add("recovery", mark)
        stack.sim.recording = recording
        stack.sim.tracer = old.sim.tracer
        self.stack = stack

        after = Violations()
        check_reservations(stack.orchestrator, self.testbed, after)
        lost = report.slices_lost
        if lost or not after.ok:
            self.cycles_failed += 1
        self.cycle_reports.append(
            {"lost": lost, "lost_ids": report.lost_slice_ids, "deleted": target,
             "adopted": report.slices_adopted, "replayed": report.replayed_records,
             "leaks": after.messages[:3]}
        )
        self._new_incarnation({s.slice_id for s in stack.orchestrator.live_slices()})


def _setup_once(recorder: Recorder, seed: int, store_dir: str) -> None:
    testbed = build_testbed(fleet_testbed_config(N_ENBS))
    stack = build_stack(testbed, recorder, seed, _config(store_dir))
    stack.orchestrator.store.close()


def input_digest(seed: int) -> str:
    """Digest of the first rounds' inputs, generated without the system."""
    generator = _generator(seed)
    for _ in range(PREFILL):
        generator.payload()
    digest = Digest()
    for r in range(DIGEST_ROUNDS):
        start = (r + 1) * ROUND_S
        for t, kind, tenant, body, extra in _round_inputs(generator, start):
            digest.add(t - start, kind, tenant, sorted(body.items()), extra)
    return digest.hexdigest()


def replica_digest(seed: int, work_dir: str) -> str:
    """The decision digest of the first rounds, as a second process sees it."""
    root = os.path.join(work_dir, f"replica-{os.getpid()}")
    try:
        recorder = Recorder(RefClock())
        churn = Churn(seed, recorder, os.path.join(root, "store"), Violations())
        churn.prefill()
        for _ in range(DIGEST_ROUNDS):
            churn.unit()
        return churn.digest.hexdigest()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run(seed: int, seconds: float, clock: RefClock, tracer: Any = None,
        trace_path: Optional[str] = None, work_dir: Optional[str] = None) -> Outcome:
    recorder = Recorder(clock)
    out = Violations()
    os.makedirs(work_dir, exist_ok=True)

    for i in range(SETUP_REPEATS):
        store_dir = os.path.join(work_dir, f"setup-{i}")
        clock.tick()
        mark = clock.start()
        _setup_once(recorder, seed, store_dir)
        recorder.add("setup", mark)
        shutil.rmtree(store_dir, ignore_errors=True)
        gc.collect()

    churn = Churn(seed, recorder, os.path.join(work_dir, "store"), out)
    rounds = Rounds(clock, between=churn.after_round)
    churn.prefill()
    for _ in range(WARMUP_ROUNDS):
        rounds.run(churn.unit)

    count = timed_rounds(seconds, ROUNDS_PER_SECOND, CYCLE_ROUNDS)
    churn.timing = True
    churn.stack.sim.recording = True
    ops_before, failed_before = churn.ops, churn.cycles_failed

    def set_tracer(t) -> None:
        churn.stack.sim.tracer = t

    if tracer is None:
        phase = run_timed(rounds, churn.unit, count, churn.stats)
    else:
        layer_metrics, trace_details = run_traced(
            rounds, churn.unit, count, churn.stats, tracer, set_tracer, trace_path,
            unit=CYCLE_ROUNDS,
        )
    churn.timing = False
    churn.stack.sim.recording = False
    churn.check_all()
    churn.stack.orchestrator.store.close()
    for error in churn.errors:
        out.fail(error)

    # Counted over the timed phase: whole units of CYCLE_ROUNDS rounds
    # and one crash-recover cycle, so the failed share is the same in
    # every run.
    attempted = churn.ops - ops_before
    details: Dict[str, Any] = {
        "operations": churn.ops,
        "cycles": churn.cycles,
        "cycles_failed": churn.cycles_failed,
        "cycle_reports": churn.cycle_reports[:3],
        "creates_rejected": churn.rejected_total,
        "live_at_end": len(churn.stack.orchestrator.live_slices()),
        "decision_digest": churn.digest.hexdigest(),
        "input_digest": churn.inputs.hexdigest(),
    }
    failed = churn.cycles_failed - failed_before + len(churn.errors)
    if tracer is not None:
        details.update(trace_details)
        return Outcome(attempted, failed, out, layer_metrics, details)

    admit = recorder.scaled_ms("admit")
    epochs = recorder.scaled_ms("epoch")
    details.update(
        {
            "timed_creates": len(admit),
            "timed_epochs": len(epochs),
            "update_p50_ms": percentile(recorder.scaled_ms("update"), 50),
            "booking_p50_ms": percentile(recorder.scaled_ms("booking"), 50),
            "delete_p50_ms": percentile(recorder.scaled_ms("delete"), 50),
            "cancel_p50_ms": percentile(recorder.scaled_ms("cancel"), 50),
            "recovery_ms": statistics.median(recorder.scaled_ms("recovery")),
            "timed_rounds": count,
            "scaled_busy_s": phase.busy_s,
            "raw_busy_s": phase.raw_busy_s,
            "admit_p50_ms": percentile(admit, 50),
            "raw": {
                "admit_mean_ms": statistics.fmean(recorder.raw_ms("admit")),
                "admit_p90_ms": percentile(recorder.raw_ms("admit"), 90),
                "epoch_p50_ms": percentile(recorder.raw_ms("epoch"), 50),
                "recovery_ms": statistics.median(recorder.raw_ms("recovery")),
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
    return Outcome(attempted, failed, out, metrics, details)
