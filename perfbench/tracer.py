"""Spans and counters for the traced run, recorded around public calls.

The traced run is separate from the timed runs and goes through three
phases of the same workload state:

1. untraced, as a reference for the tracing overhead;
2. spans: every wrapped layer call records name, start, end, parent and
   the id of the request (or epoch) it serves — spans of one request
   share that id, spans opened on the planner's worker threads take the
   orchestrator thread's open span as parent;
3. counters that would distort span times if they ran alongside them
   (``ResourceVector`` constructions, bookings scanned per ``fits``,
   threads started, journal bytes, fsyncs).

Spans stay in memory and are written to a JSON file when the run ends.
A span's duration is CPU time of the thread it ran on; its self time is
that minus the part its child spans on the same thread cover.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro.transport.controller as transport_controller
from repro.api.rest import RestApi
from repro.api.service import SliceService
from repro.cloud.controller import CloudController
from repro.core.admission import FcfsPolicy, KnapsackPolicy, ResourceVector
from repro.core.broker import SliceBroker
from repro.core.calendar import ResourceCalendar
from repro.core.forecasting import Forecaster
from repro.core.orchestrator import Orchestrator
from repro.drivers.base import BaseDriver
from repro.monitoring.collector import TelemetryCollector
from repro.ran.controller import RanController
from repro.store.journal import JournalRecord
from repro.store.recovery import RecoveryManager
from repro.store.store import ControlPlaneStore, NullStore
from repro.transport.controller import TransportController

from perfbench.refclock import RefClock


class Span:
    """One layer call: start and end on its thread's CPU clock, ``wall``
    the wall clock at its start (where its kernel scaling is looked up)."""

    __slots__ = ("sid", "name", "start", "end", "wall", "parent", "request", "thread")

    def __init__(
        self, sid: int, name: str, start: float, wall: float, parent: int, request: int
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.wall = wall
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()


#: (owner, attribute, span name) for every wrapped public call.
SPAN_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (RestApi, "dispatch", "api.dispatch"),
    (SliceService, "create_slice", "service"),
    (SliceService, "create_slice_batch", "service"),
    (SliceService, "modify_slice", "service"),
    (SliceService, "delete_slice", "service"),
    (SliceService, "create_booking", "service"),
    (SliceService, "cancel_booking", "service"),
    (SliceBroker, "flush", "broker.flush"),
    (FcfsPolicy, "decide", "admission.decide"),
    (KnapsackPolicy, "decide_batch", "admission.decide"),
    (ResourceCalendar, "fits", "calendar.fits"),
    (RanController, "best_enb_for", "ran.best_enb"),
    (RanController, "serve_epoch", "ran.serve_epoch"),
    (TransportController, "reserve_path", "transport.reserve"),
    (transport_controller, "constrained_shortest_path", "transport.cspf"),
    (CloudController, "deploy", "cloud.place"),
    (Orchestrator, "install_admitted", "install"),
    (Orchestrator, "install_admitted_batch", "install"),
    (BaseDriver, "prepare", "driver.prepare"),
    (BaseDriver, "commit", "driver.commit"),
    (NullStore, "append", "store.append"),
    (ControlPlaneStore, "append", "store.append"),
    (ControlPlaneStore, "checkpoint", "store.checkpoint"),
    (TelemetryCollector, "collect_domains", "monitoring.collect"),
    (TelemetryCollector, "record_slice_epoch", "monitoring.collect"),
    (Forecaster, "fit", "forecast.fit"),
)


class Tracer:
    """Installs wrappers, records spans (phase 2) or counters (phase 3)."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.recoveries: List[int] = []
        #: Cleared while the workload runs its checks between rounds.
        self.active = True

    # -- installation ---------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_spans(self) -> None:
        for owner, attr, name in SPAN_POINTS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        restore = RecoveryManager.restore
        tracer = self

        def restore_spanned(manager, *args, **kwargs):
            if not tracer.active:
                return restore(manager, *args, **kwargs)
            span = tracer.open("recovery")
            try:
                report = restore(manager, *args, **kwargs)
            finally:
                tracer.close(span)
            tracer.recoveries.append(report.replayed_records)
            return report

        self._patch(RecoveryManager, "restore", restore_spanned)

    def install_counters(self) -> None:
        tracer = self
        counts = self.counts

        rv_init = ResourceVector.__init__

        def rv_counted(vector, *args, **kwargs):
            if tracer.active:
                counts["resource_vector"] += 1
            rv_init(vector, *args, **kwargs)

        self._patch(ResourceVector, "__init__", rv_counted)

        fits = ResourceCalendar.fits

        def fits_counted(calendar, *args, **kwargs):
            if tracer.active:
                counts["fits"] += 1
                counts["bookings_scanned"] += len(calendar.bookings())
            return fits(calendar, *args, **kwargs)

        self._patch(ResourceCalendar, "fits", fits_counted)

        start = threading.Thread.start

        def start_counted(thread, *args, **kwargs):
            if tracer.active:
                counts["threads"] += 1
            return start(thread, *args, **kwargs)

        self._patch(threading.Thread, "start", start_counted)

        append = ControlPlaneStore.append

        def append_counted(store, record_type, time=0.0, **data):
            lsn = append(store, record_type, time=time, **data)
            if lsn and tracer.active:
                line = JournalRecord(
                    lsn=lsn, time=float(time), record_type=record_type, data=data
                ).to_line()
                counts["journal_bytes"] += len(line) + 1
            return lsn

        self._patch(ControlPlaneStore, "append", append_counted)

        fsync = os.fsync

        def fsync_counted(fd):
            if tracer.active:
                counts["fsyncs"] += 1
            return fsync(fd)

        self._patch(os, "fsync", fsync_counted)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent, request = stack[-1].sid, stack[-1].request
        elif threading.get_ident() != self._main and self._main_stack:
            top = self._main_stack[-1]
            parent, request = top.sid, top.request
        else:
            parent, request = 0, next(self._requests)
        span = Span(next(self._ids), name, time.thread_time(), time.perf_counter(), parent, request)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.thread_time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def _spanned(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    # -- analysis ---------------------------------------------------------
    def _scaled(self, seconds: float, at: float) -> float:
        return self.clock.scaled(seconds, at) * 1000.0

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total scaled ms, total scaled self ms."""
        # Self time subtracts children on the span's own thread: a child
        # on a worker thread ran on another clock, alongside the parent.
        by_id = {span.sid: span for span in self.spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                children[span.parent].append(span)
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
                lo = max(cursor, child.start)
                hi = min(span.end, child.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            duration = span.end - span.start
            row = out[span.name]
            row["calls"] += 1
            row["ms"] += self._scaled(duration, span.wall)
            row["self_ms"] += self._scaled(max(0.0, duration - covered), span.wall)
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as JSON: wall-clock start (µs from the first
        span) and the CPU time it took on its thread (µs)."""
        origin = min((s.wall for s in self.spans), default=0.0)
        rows = [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "request": s.request,
                "thread": s.thread,
                "start_us": round((s.wall - origin) * 1e6, 1),
                "cpu_us": round((s.end - s.start) * 1e6, 1),
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def per_layer_metrics(
    times: Dict[str, Dict[str, float]],
    span_counts: Dict[str, int],
    heavy: Counter,
    phase2: Dict[str, float],
    phase3: Dict[str, float],
    recoveries: List[int],
    overhead_pct: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics named in ``BENCHMARK.json``, as (value, unit).

    ``phase2`` and ``phase3`` carry the workload's own counts over the
    span and counter phases: ``requests`` (decisions), ``ops`` (API
    operations), ``epochs``, ``installs`` (slices installed) and
    ``events`` (simulator events fired).
    """

    def row(name: str) -> Dict[str, float]:
        return times.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})

    def per_call(name: str, field: str = "ms") -> float:
        r = row(name)
        return r[field] / r["calls"] if r["calls"] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    installs = phase2["installs"]
    values = {
        "api.dispatch_self_ms": (per_call("api.dispatch", "self_ms"), "ms"),
        "calendar.fits_ms": (per_call("calendar.fits"), "ms"),
        "admission.decide_ms": (per_call("admission.decide"), "ms"),
        "ran.best_enb_ms": (per_call("ran.best_enb"), "ms"),
        "transport.reserve_ms": (per_call("transport.reserve"), "ms"),
        "cloud.place_ms": (per_call("cloud.place"), "ms"),
        "install.self_ms": (ratio(row("install")["self_ms"], installs), "ms"),
        "drivers.prepare_ms": (per_call("driver.prepare"), "ms"),
        "drivers.commit_ms": (per_call("driver.commit"), "ms"),
        "store.append_ms": (per_call("store.append"), "ms"),
        "ran.serve_epoch_ms": (per_call("ran.serve_epoch"), "ms"),
        "monitoring.collect_ms_per_epoch": (
            ratio(row("monitoring.collect")["ms"], phase2["epochs"]),
            "ms",
        ),
        "epoch.self_ms": (per_call("epoch", "self_ms"), "ms"),
        "calendar.fits_per_request": (
            ratio(span_counts.get("calendar.fits", 0), phase2["requests"]),
            "count",
        ),
        "calendar.bookings_scanned_per_fits": (
            ratio(heavy["bookings_scanned"], heavy["fits"]),
            "count",
        ),
        "resource_vector.created_per_request": (
            ratio(heavy["resource_vector"], phase3["requests"]),
            "count",
        ),
        "transport.cspf_searches_per_request": (
            ratio(span_counts.get("transport.cspf", 0), phase2["requests"]),
            "count",
        ),
        "forecast.fits_per_epoch": (
            ratio(span_counts.get("forecast.fit", 0), phase2["epochs"]),
            "count",
        ),
        "store.appends_per_op": (
            ratio(span_counts.get("store.append", 0), phase2["ops"]),
            "count",
        ),
        "store.bytes_per_op": (ratio(heavy["journal_bytes"], phase3["ops"]), "bytes"),
        "store.fsyncs_per_op": (ratio(heavy["fsyncs"], phase3["ops"]), "count"),
        "store.checkpoints_per_1k_ops": (
            1000.0 * ratio(span_counts.get("store.checkpoint", 0), phase2["ops"]),
            "count",
        ),
        "recovery.replayed_records": (
            float(statistics.median(recoveries)) if recoveries else 0.0,
            "count",
        ),
        "drivers.threads_started_per_install": (
            ratio(heavy["threads"], phase3["installs"]),
            "count",
        ),
        "sim.events_per_request": (ratio(phase2["events"], phase2["requests"]), "count"),
        "trace.spans_per_request": (
            ratio(sum(span_counts.values()), phase2["requests"]),
            "count",
        ),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return values


def detail_times(times: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Layer times that only some workloads exercise (forecast fits,
    checkpoints, recovery, the batch flush), for the per-run detail line."""
    out = {}
    for name in ("forecast.fit", "store.checkpoint", "recovery", "broker.flush", "transport.cspf"):
        r = times.get(name)
        if r and r["calls"]:
            out[f"{name}_ms"] = r["ms"] / r["calls"]
    return out
