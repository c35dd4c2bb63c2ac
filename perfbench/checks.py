"""Correctness checks computed by the benchmark from public views.

None of these compares against a stored copy of earlier output: each
recomputes a property the control plane must hold from the state the
controllers, drivers and ledger expose.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set

from repro.core.orchestrator import Orchestrator
from repro.drivers.base import ReservationState
from repro.experiments.testbed import Testbed

#: Slack for float sums of Mb/s.
EPS = 1e-6


class Violations:
    """Collects failed checks; a run is correct while this stays empty."""

    def __init__(self) -> None:
        self.messages: List[str] = []

    def fail(self, message: str) -> None:
        self.messages.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    @property
    def ok(self) -> bool:
        return not self.messages


def check_capacity(testbed: Testbed, out: Violations) -> None:
    """No PRB grid, link or compute node is over its physical capacity,
    and no cell broadcasts more PLMNs than MOCN allows."""
    for enb in testbed.ran.enbs():
        grid = enb.grid
        out.expect(
            grid.effective_reserved <= grid.total_prbs,
            f"{enb.enb_id}: {grid.effective_reserved} PRBs reserved of {grid.total_prbs}",
        )
        out.expect(
            enb.installed_count() <= enb.max_plmns,
            f"{enb.enb_id}: {enb.installed_count()} PLMNs of {enb.max_plmns}",
        )
    for link in testbed.transport.topology.links():
        out.expect(
            link.effective_reserved_mbps <= link.capacity_mbps + EPS,
            f"{link.link_id}: {link.effective_reserved_mbps:.3f} Mb/s of "
            f"{link.capacity_mbps:.3f}",
        )
    for dc in testbed.cloud.datacenters():
        for node in dc.nodes():
            out.expect(
                node.used_vcpus <= node.total_vcpus
                and node.used_ram_gb <= node.total_ram_gb + EPS,
                f"{node.node_id}: {node.used_vcpus}/{node.total_vcpus} vCPUs",
            )


def _committed(testbed: Testbed, domain: str) -> Dict[str, object]:
    driver = testbed.registry.get(domain)
    return {
        r.slice_id: r
        for r in driver.list_reservations()
        if r.state is ReservationState.COMMITTED
    }


def check_reservations(
    orchestrator: Orchestrator, testbed: Testbed, out: Violations
) -> None:
    """Held == Σ COMMITTED in every domain, every live slice is COMMITTED
    everywhere, and no reservation exists without a live slice.

    "Held" is read from each backend's native state (PRB grids, link
    reservations, VM footprints, the mock's pool); "Σ COMMITTED" from the
    drivers' reservation tables.  Call at a quiescent point.
    """
    live = {s.slice_id for s in orchestrator.live_slices()}
    for driver in testbed.registry.drivers():
        domain = driver.domain
        every = driver.list_reservations()
        pending = [r.slice_id for r in every if r.state is not ReservationState.COMMITTED]
        out.expect(not pending, f"{domain}: reservations not committed: {pending[:5]}")
        committed = _committed(testbed, domain)
        orphans = sorted(set(committed) - live)
        missing = sorted(live - set(committed))
        out.expect(not orphans, f"{domain}: reservations without a live slice: {orphans[:5]}")
        out.expect(not missing, f"{domain}: live slices without a reservation: {missing[:5]}")

    ran = _committed(testbed, "ran")
    held_prbs = sum(enb.grid.effective_reserved for enb in testbed.ran.enbs())
    committed_prbs = sum(r.details["allocation"].effective_prbs for r in ran.values())
    out.expect(
        held_prbs == committed_prbs,
        f"ran: {held_prbs} PRBs held, {committed_prbs} committed",
    )
    native_cells: Set[str] = set()
    for enb in testbed.ran.enbs():
        native_cells.update(enb.installed_slices())
    out.expect(native_cells == set(ran), "ran: cells serve a different slice set than committed")

    transport = _committed(testbed, "transport")
    held_mbps = sum(
        link.effective_reserved_mbps for link in testbed.transport.topology.links()
    )
    committed_mbps = sum(
        r.details["allocation"].effective_mbps * len(r.details["allocation"].path.link_ids)
        for r in transport.values()
    )
    out.expect(
        abs(held_mbps - committed_mbps) <= EPS * max(1.0, held_mbps),
        f"transport: {held_mbps:.6f} Mb/s·hop held, {committed_mbps:.6f} committed",
    )

    cloud = _committed(testbed, "cloud")
    held_vcpus = sum(
        node.used_vcpus for dc in testbed.cloud.datacenters() for node in dc.nodes()
    )
    committed_vcpus = sum(r.details["allocation"].vcpus for r in cloud.values())
    out.expect(
        held_vcpus == committed_vcpus,
        f"cloud: {held_vcpus} vCPUs held, {committed_vcpus} committed",
    )

    for driver in testbed.registry.drivers():
        held = getattr(driver, "held_mbps", None)
        if held is None:
            continue
        committed = sum(
            r.spec.throughput_mbps * r.spec.effective_fraction
            for r in _committed(testbed, driver.domain).values()
        )
        out.expect(
            abs(held - committed) <= EPS * max(1.0, held),
            f"{driver.domain}: {held:.6f} Mb/s held, {committed:.6f} committed",
        )


def check_latency_budget(testbed: Testbed, admitted: Iterable[Any], out: Violations) -> None:
    """Each admitted slice's end-to-end latency — RAN latency, plus the
    sum of its path's link delays, plus its DC's processing delay,
    recomputed here from the topology and datacenter — is within its SLA.

    ``admitted`` holds (slice, allocation) pairs taken right after
    admission, so slices that ended since are still checked.
    """
    topology = testbed.transport.topology
    for network_slice, allocation in admitted:
        if allocation is None:
            out.fail(f"{network_slice.slice_id}: admitted without an end-to-end allocation")
            continue
        path_ms = sum(topology.link(lid).delay_ms for lid in allocation.transport.path.link_ids)
        dc_ms = testbed.cloud.datacenter(allocation.cloud.dc_id).processing_delay_ms
        total = allocation.ran.latency_ms + path_ms + dc_ms
        bound = network_slice.request.sla.max_latency_ms
        out.expect(
            total <= bound + 1e-9,
            f"{network_slice.slice_id}: {total:.3f} ms end to end over a {bound:.3f} ms budget",
        )


def check_revenue(
    orchestrator: Orchestrator,
    admitted_prices: float,
    refunds: float,
    out: Violations,
) -> None:
    """Ledger gross revenue equals Σ price of the requests the orchestrator
    admitted minus the refunds deletes returned."""
    gross = orchestrator.ledger.gross_revenue
    expected = admitted_prices - refunds
    out.expect(
        abs(gross - expected) <= 1e-6 * max(1.0, abs(expected)),
        f"ledger gross {gross:.6f} != admitted {admitted_prices:.6f} - refunds {refunds:.6f}",
    )


def check_decisions(
    orchestrator: Orchestrator,
    sent: int,
    admitted: int,
    rejected: int,
    out: Violations,
) -> None:
    """Every request got exactly one decision, and the ledger's
    admissions plus rejections equal the requests sent."""
    out.expect(
        admitted + rejected == sent,
        f"{sent} requests sent, {admitted} admitted + {rejected} rejected",
    )
    ledger = orchestrator.ledger
    out.expect(
        ledger.admissions == admitted and ledger.rejections == rejected,
        f"ledger {ledger.admissions} admitted / {ledger.rejections} rejected, "
        f"API {admitted} / {rejected}",
    )
