"""Shared pieces of the workloads: the timed simulator, the seeded
request generator and the control-plane stack built through public
constructors only."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.rest import RestApi
from repro.api.service import SliceService
from repro.api.v1 import build_v1_api
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.core.slices import PlmnPool, ServiceType
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.sim.engine import EventHandle, Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.generator import RequestMix
from repro.traffic.verticals import VERTICALS

from perfbench.refclock import Recorder

#: Name of the simulator event the orchestrator's control loop fires as.
EPOCH_EVENT = "monitoring-epoch"

TENANTS = ("acme-automotive", "mediclinic", "streamco", "sensornet", "railops")


class TimedSimulator(Simulator):
    """A simulator that times every monitoring epoch it fires.

    The epoch is private to the orchestrator; the event it fires as is
    not, so the benchmark wraps the callback of every event scheduled
    under :data:`EPOCH_EVENT`.  Samples land in ``recorder`` under
    ``"epoch"`` only while ``recording`` is set; the reference clock is
    ticked before each epoch, outside the timed interval.
    """

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self.recorder = recorder
        self.recording = False
        self.epochs = 0
        #: Set during the traced run's span phase: epochs become root spans.
        self.tracer: Any = None

    def schedule_at(
        self,
        time_s: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> EventHandle:
        if name == EPOCH_EVENT:
            callback = self._timed(callback)
        return super().schedule_at(time_s, callback, priority=priority, name=name)

    def _timed(self, callback: Callable[[], None]) -> Callable[[], None]:
        def epoch() -> None:
            self.epochs += 1
            self.recorder.clock.tick()
            tracer = self.tracer
            span = tracer.open("epoch") if tracer is not None else None
            mark = self.recorder.clock.start()
            callback()
            if span is not None:
                tracer.close(span)
            if self.recording:
                self.recorder.add("epoch", mark)

        return epoch


@dataclass
class Stack:
    """One control plane over one testbed, reachable through ``api``."""

    testbed: Testbed
    sim: TimedSimulator
    orchestrator: Orchestrator
    service: SliceService
    api: RestApi


def fleet_testbed_config(n_enbs: int) -> TestbedConfig:
    """The D8 fleet scaling: 6 PLMNs, 2 core and 1 edge node per eNB."""
    return TestbedConfig(
        n_enbs=n_enbs,
        plmn_pool_size=6 * n_enbs,
        core_nodes=2 * n_enbs,
        edge_nodes=n_enbs,
    )


def build_stack(
    testbed: Testbed,
    recorder: Recorder,
    seed: int,
    config: OrchestratorConfig,
    store: Any = None,
    **orchestrator_kwargs: Any,
) -> Stack:
    """Wire an orchestrator, its v1 service and REST API over ``testbed``.

    Each call gets its own simulator and PLMN pool, which is exactly what
    a control-plane restart loses; the testbed's controllers and drivers
    are the southbound, and survive.
    """
    sim = TimedSimulator(recorder)
    orchestrator = Orchestrator(
        sim=sim,
        allocator=testbed.allocator,
        registry=testbed.registry,
        plmn_pool=PlmnPool(size=testbed.config.plmn_pool_size),
        config=config,
        streams=RandomStreams(seed=seed),
        store=store,
        **orchestrator_kwargs,
    )
    service = SliceService(orchestrator)
    api = build_v1_api(service)
    orchestrator.start()
    return Stack(testbed, sim, orchestrator, service, api)


class PayloadGenerator:
    """Seeded slice-create payloads drawn from the vertical presets.

    Draws the same marks :class:`~repro.traffic.verticals.VerticalSpec`
    does, but builds plain JSON bodies: the program receives only the
    generated inputs, and no request object (or request id) is created
    outside the API.  ``duration_s`` and ``throughput_mbps`` ranges can
    be overridden to hold a workload's live population where it should be.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        duration_range_s: Optional[Tuple[float, float]] = None,
        throughput_range_mbps: Optional[Tuple[float, float]] = None,
        verticals: Optional[Tuple[ServiceType, ...]] = None,
    ) -> None:
        self.rng = rng
        weights = RequestMix().weights
        self.types = list(verticals or weights)
        probs = np.array([weights[t] for t in self.types], dtype=float)
        self.probs = probs / probs.sum()
        self.duration_range_s = duration_range_s
        self.throughput_range_mbps = throughput_range_mbps

    def payload(self) -> Tuple[str, Dict[str, Any]]:
        """One (tenant, body) pair for ``POST /v1/slices``."""
        rng = self.rng
        kind = self.types[int(rng.choice(len(self.types), p=self.probs))]
        spec = VERTICALS[kind]
        tenant = TENANTS[int(rng.integers(0, len(TENANTS)))]
        thr = float(rng.uniform(*(self.throughput_range_mbps or spec.throughput_range_mbps)))
        lat = float(rng.uniform(*spec.latency_range_ms))
        dur = float(rng.uniform(*(self.duration_range_s or spec.duration_range_s)))
        price = spec.price_per_mbps_hour * thr * dur / 3600.0
        penalty_rate = spec.penalty_multiplier * price / max(1.0, dur / 60.0)
        users = int(rng.integers(spec.users_range[0], spec.users_range[1] + 1))
        return tenant, {
            "service_type": kind.value,
            "throughput_mbps": thr,
            "max_latency_ms": lat,
            "duration_s": dur,
            "price": price,
            "penalty_rate": penalty_rate,
            "availability": spec.availability,
            "n_users": users,
        }


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    """The generator's random stream: a function of workload and seed only."""
    return RandomStreams(seed=seed).stream(f"perfbench-{workload}")


def poisson_instants(
    rng: np.random.Generator, rate_per_s: float, start: float, end: float
) -> List[float]:
    """Arrival instants of a Poisson process on ``[start, end)``."""
    out: List[float] = []
    t = start + float(rng.exponential(1.0 / rate_per_s))
    while t < end:
        out.append(t)
        t += float(rng.exponential(1.0 / rate_per_s))
    return out


def placement_of(orchestrator: Orchestrator, slice_id: str) -> str:
    """Cell, datacenter and path of an installed slice (digest input)."""
    allocation = orchestrator.slice(slice_id).allocation
    if allocation is None:
        return "-"
    return "{}|{}|{}".format(
        allocation.ran.enb_id,
        allocation.cloud.dc_id,
        ",".join(allocation.transport.path.link_ids),
    )


class Digest:
    """Running sha256 over decisions (or inputs)."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, *parts: Any) -> None:
        self._h.update(("|".join(str(p) for p in parts) + "\n").encode())
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def tenant_headers(tenant: str) -> Dict[str, str]:
    """Tenants manage their own slices: every call carries the owner."""
    return {"X-Tenant-Id": tenant}

