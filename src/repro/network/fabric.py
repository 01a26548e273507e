"""Flow-level fabric simulator.

Models the Astral fabric at flow granularity: every flow is pinned to a
hop-by-hop ECMP path (per-flow ECMP, Appendix A), link bandwidth is
shared max-min fairly among the flows crossing it, and transfers are
completed with a fluid progressive-filling loop.  This is the level of
detail the paper's own Seer operates at — packet-level behaviour enters
only through calibration — and it is sufficient to reproduce the
architecture studies (Figure 2, 17, 19): hash collisions and
oversubscription determine which links bottleneck, and max-min sharing
determines by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..simcore import SimulationError
from ..topology.elements import Topology
from .flows import Flow, FlowPath
from .routing import EcmpRouter
from .solver import fill_rates_python

__all__ = ["Fabric", "FabricRun", "LinkDir", "LinkLoad"]

#: A directed traversal of a link: (link_id, forward) where forward means
#: the flow enters at endpoint ``a`` and exits at endpoint ``b``.
LinkDir = Tuple[int, bool]


@dataclass
class LinkLoad:
    """Aggregate load on one link direction."""

    link_dir: LinkDir
    capacity_gbps: float
    flow_ids: List[int] = field(default_factory=list)
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0

    @property
    def utilization(self) -> float:
        return self.offered_gbps / self.capacity_gbps \
            if self.capacity_gbps > 0 else float("inf")


@dataclass
class FabricRun:
    """Result of completing a set of flows on the fabric."""

    total_time_s: float
    finish_times_s: Dict[int, float]
    paths: Dict[int, FlowPath]
    link_loads: Dict[LinkDir, LinkLoad]

    def throughput_gbps(self, total_bits: float) -> float:
        """Aggregate goodput of the whole transfer set."""
        if self.total_time_s <= 0:
            return float("inf")
        return total_bits / self.total_time_s / 1e9

    def max_link_utilization(self) -> float:
        if not self.link_loads:
            return 0.0
        return max(load.utilization for load in self.link_loads.values())


class Fabric:
    """Flow-level simulator over a :class:`Topology`."""

    def __init__(self, topology: Topology,
                 router: Optional[EcmpRouter] = None,
                 host_line_rate_gbps: float = 200.0):
        self.topology = topology
        self.router = router or EcmpRouter(topology)
        #: per-port NIC line rate; flows never exceed this at the source.
        self.host_line_rate_gbps = host_line_rate_gbps
        #: directed-hop memo per flow id: (topology version, link ids,
        #: hops).  Invalidated when the topology is rewired or the flow
        #: is re-hashed onto a different path.
        self._hops_cache: Dict[
            int, Tuple[int, Tuple[int, ...], List[LinkDir]]] = {}
        self.hops_cache_hits = 0
        self.hops_cache_misses = 0

    # -- path resolution -----------------------------------------------------
    def resolve_paths(self, flows: Iterable[Flow]) -> Dict[int, FlowPath]:
        return {flow.flow_id: self.router.path(flow) for flow in flows}

    def directed_hops(self, path: FlowPath) -> List[LinkDir]:
        """Directed traversal of *path*, memoized per flow id.

        The hop list used to be recomputed from the topology for every
        flow on every fluid epoch; it only changes when the topology is
        rewired (version bump) or the flow is reassigned (different
        link ids), so it is cached against both.
        """
        version = self.topology.version
        link_ids = tuple(path.link_ids)
        cached = self._hops_cache.get(path.flow_id)
        if cached is not None and cached[0] == version \
                and cached[1] == link_ids:
            self.hops_cache_hits += 1
            return cached[2]
        self.hops_cache_misses += 1
        hops: List[LinkDir] = []
        for device, link_id in zip(path.devices, path.link_ids):
            link = self.topology.links[link_id]
            hops.append((link_id, link.a.device == device))
        self._hops_cache[path.flow_id] = (version, link_ids, hops)
        return hops

    # Backwards-compatible alias (pre-engine name).
    _directed_hops = directed_hops

    # -- bandwidth allocation --------------------------------------------------
    def max_min_rates(self, flows: List[Flow],
                      paths: Optional[Dict[int, FlowPath]] = None,
                      capacity_factors: Optional[Dict[LinkDir, float]]
                      = None, stats=None) -> Dict[int, float]:
        """Max-min fair rate (Gbps) per flow; also sets ``flow.rate_gbps``.

        Progressive filling: repeatedly find the tightest link (smallest
        fair share for its unfrozen flows), freeze its flows at that
        share, remove the consumed capacity, and continue.  This
        adapter builds the dict-shaped problem for the reference loop,
        :func:`~repro.network.solver.fill_rates_python`, so it and its
        callers (``complete_batch``, the validation oracles) are
        independent of the engine's production kernel, which must
        return bit-identical rates.  ``capacity_factors`` scales
        individual directed links (e.g. PFC backpressure shrinking a
        hop's effective capacity).
        *stats*, a :class:`~repro.network.solver.SolverStats`, counts
        the per-link work for comparison against the incremental
        engine.
        """
        if paths is None:
            paths = self.resolve_paths(flows)
        flow_by_id = {flow.flow_id: flow for flow in flows}
        hops_of: Dict[int, List[LinkDir]] = {
            fid: self.directed_hops(path) for fid, path in paths.items()
        }

        remaining: Dict[LinkDir, float] = {}
        members: Dict[LinkDir, set] = {}
        for fid, hops in hops_of.items():
            for hop in hops:
                if hop not in remaining:
                    link = self.topology.links[hop[0]]
                    factor = 1.0
                    if capacity_factors is not None:
                        factor = capacity_factors.get(hop, 1.0)
                    remaining[hop] = link.capacity_gbps * factor
                    members[hop] = set()
                members[hop].add(fid)
        if stats is not None:
            stats.solves += 1
            stats.flows_resolved += len(flow_by_id)
            # Memberships materialized + capacities loaded — the same
            # ruler the engine path uses (see repro.network.solver).
            stats.link_visits += sum(
                len(hops) for hops in hops_of.values())
            stats.link_visits += len(remaining)

        # Source line-rate cap is modelled as a virtual per-flow link.
        rates = fill_rates_python(remaining, members, hops_of,
                                  self.host_line_rate_gbps, stats)

        for fid, rate in rates.items():
            flow_by_id[fid].rate_gbps = rate
        return rates

    # -- completion ------------------------------------------------------------
    def complete(self, flows: List[Flow],
                 paths: Optional[Dict[int, FlowPath]] = None,
                 pfc_spreading: bool = False) -> FabricRun:
        """Fluid completion of *flows*, all starting at t=0.

        Thin batch wrapper over the event-driven
        :class:`~repro.network.engine.FabricEngine`: every flow is
        submitted at time zero onto a private simulator and run to
        completion.  For simultaneous starts this reproduces the
        classic epoch-global fluid loop (kept as
        :meth:`complete_batch`) exactly — same epochs and
        bit-identical finish times, a property the validation harness
        (``repro.validation.differential``) asserts on fuzzed
        scenarios — while sharing one code path with the timed
        simulator.

        With ``pfc_spreading``, PFC backpressure multipliers (computed
        from the initial offered loads) shrink effective link
        capacities — the lossless-fabric congestion-spreading effect.
        """
        from .engine import FabricEngine

        # The legacy loop keyed everything by flow id, so duplicate ids
        # collapsed (last wins); preserve that for the batch API.
        flows = list({flow.flow_id: flow for flow in flows}.values())
        if paths is None:
            paths = self.resolve_paths(flows)
        sized = [flow for flow in flows if flow.size_bits > 0]
        # Record peak loads for the congestion monitor (first epoch is
        # the most loaded: every flow still active).
        link_loads = self._loads_for(sized, paths)
        capacity_factors = None
        if pfc_spreading:
            from .congestion import CongestionModel
            capacity_factors = CongestionModel().pfc_capacity_factors(
                link_loads, self.topology)

        engine = FabricEngine(self, capacity_factors=capacity_factors)
        for flow in flows:
            engine.submit(flow, path=paths.get(flow.flow_id),
                          start_time_s=0.0)
        run = engine.run()
        return FabricRun(
            total_time_s=run.total_time_s,
            finish_times_s=run.finish_times_s,
            paths=paths,
            link_loads=link_loads,
        )

    def complete_batch(self, flows: List[Flow],
                       paths: Optional[Dict[int, FlowPath]] = None,
                       pfc_spreading: bool = False,
                       stats=None) -> FabricRun:
        """Epoch-global fluid loop: re-run max-min whenever a flow
        finishes.

        Reference implementation the event-driven engine is verified
        against (``tests/test_fabric_engine.py`` and the
        ``repro.validation`` differential oracles); *stats* counts its
        solver work for the incremental-vs-global benchmark.

        Integration is the engine's per-flow rule: a flow's residue is
        brought current (``rem -= old_rate*1e9*(now - synced)``) and its
        deadline ``now + rem/(rate*1e9)`` set only when its own rate
        changes, and it finishes exactly at that deadline.  Each epoch
        jumps to the earliest deadline (never before ``now``).
        """
        if paths is None:
            paths = self.resolve_paths(flows)
        remaining_bits = {flow.flow_id: float(flow.size_bits)
                          for flow in flows}
        finish: Dict[int, float] = {}
        active = {flow.flow_id: flow for flow in flows
                  if flow.size_bits > 0}
        for flow in flows:
            if flow.size_bits <= 0:
                finish[flow.flow_id] = 0.0
        now = 0.0

        link_loads = self._loads_for(list(active.values()), paths)
        capacity_factors = None
        if pfc_spreading:
            from .congestion import CongestionModel
            capacity_factors = CongestionModel().pfc_capacity_factors(
                link_loads, self.topology)

        inf = float("inf")
        rate_of = {fid: 0.0 for fid in active}
        synced = {fid: 0.0 for fid in active}
        deadlines = {fid: inf for fid in active}
        while active:
            rates = self.max_min_rates(
                list(active.values()),
                {fid: paths[fid] for fid in active},
                capacity_factors=capacity_factors,
                stats=stats)
            if not any(rates[fid] > 0 for fid in active):
                starved = sorted(active)
                raise SimulationError(
                    "fluid completion starved: every active flow has "
                    f"rate 0 (flows {starved}); a capacity factor or "
                    "link failure zeroed every path")
            for fid in active:
                rate = rates[fid]
                if rate != rate_of[fid]:
                    remaining_bits[fid] -= \
                        rate_of[fid] * 1e9 * (now - synced[fid])
                    synced[fid] = now
                    rate_of[fid] = rate
                    deadlines[fid] = now + \
                        remaining_bits[fid] / (rate * 1e9) \
                        if rate > 0 else inf
            now = max(now, min(deadlines[fid] for fid in active))
            for fid in [fid for fid in active if deadlines[fid] <= now]:
                finish[fid] = now
                del active[fid]

        return FabricRun(
            total_time_s=now,
            finish_times_s=finish,
            paths=paths,
            link_loads=link_loads,
        )

    # -- load accounting ---------------------------------------------------------
    def _loads_for(self, flows: List[Flow],
                   paths: Dict[int, FlowPath]) -> Dict[LinkDir, LinkLoad]:
        loads: Dict[LinkDir, LinkLoad] = {}
        for flow in flows:
            # Offered load is the *unthrottled* demand (the NIC line
            # rate): congestion-controlled senders keep pressure on a
            # bottleneck, so its queue and ECN/PFC signals persist even
            # though the carried rate is capped — the behaviour the
            # monitoring system observes in Figure 9.
            demand = self.host_line_rate_gbps
            for hop in self._directed_hops(paths[flow.flow_id]):
                load = loads.get(hop)
                if load is None:
                    link = self.topology.links[hop[0]]
                    load = LinkLoad(link_dir=hop,
                                    capacity_gbps=link.capacity_gbps)
                    loads[hop] = load
                load.flow_ids.append(flow.flow_id)
                load.offered_gbps += demand
        for load in loads.values():
            load.carried_gbps = min(load.offered_gbps, load.capacity_gbps)
        return loads

    def offered_loads(self, flows: List[Flow],
                      paths: Optional[Dict[int, FlowPath]] = None
                      ) -> Dict[LinkDir, LinkLoad]:
        """Offered (pre-allocation) load per link direction."""
        if paths is None:
            paths = self.resolve_paths(flows)
        return self._loads_for(flows, paths)
