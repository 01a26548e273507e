"""Invariant oracles for the fluid-fabric simulator stack.

Every oracle takes concrete run artifacts (flows, paths, rates, finish
times) and returns a list of :class:`Violation` — empty when the
invariant holds.  Keeping the checks free of ``assert`` lets the same
code serve three masters: pytest property tests (assert the list is
empty), the ``repro validate`` fuzz campaign (collect and report), and
ad-hoc debugging (print them).

The catalogue:

* **rate feasibility** — no directed link carries more than its
  (factor-scaled) capacity;
* **work conservation** — every active flow with a live path receives
  a strictly positive rate;
* **max-min KKT** — a flow below line rate must cross a saturated link
  on which its rate is maximal (the textbook bottleneck condition that
  characterises the max-min allocation);
* **byte conservation** — integrating an independent epoch-by-epoch
  replay of the rate allocation delivers exactly ``size_bits`` per
  flow by its recorded finish time;
* **clock monotonicity** — the simcore event clock never moves
  backwards (checked via :class:`TracingSimulator`);
* **bit-identical replay** — running the same seeded scenario twice
  produces byte-for-byte identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..network.fabric import Fabric, LinkDir
from ..network.flows import Flow, FlowPath
from ..simcore import Simulator

__all__ = [
    "Violation",
    "TracingSimulator",
    "check_clock_monotonic",
    "check_incidence_solution",
    "check_max_min_bottleneck",
    "check_rate_feasibility",
    "check_same_result",
    "check_solution",
    "check_work_conservation",
    "link_usage",
    "replay_conservation",
]

#: Rate slop (Gbps) tolerated by the feasibility / KKT oracles; the
#: progressive-filling shares are exact divisions but summing them per
#: link rounds.
RATE_TOL_GBPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant breach, suitable for printing or asserting on."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


class TracingSimulator(Simulator):
    """A :class:`Simulator` that records the clock at every step.

    The trace feeds :func:`check_clock_monotonic`; it costs one append
    per processed event, so it is cheap enough to leave on for every
    validation run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.trace: List[float] = []

    def step(self) -> None:
        super().step()
        self.trace.append(self.now)


def check_clock_monotonic(trace: Sequence[float]) -> List[Violation]:
    """The event clock must be non-decreasing across processed events."""
    violations = []
    for index in range(1, len(trace)):
        if trace[index] < trace[index - 1]:
            violations.append(Violation(
                "clock-monotonic",
                f"event {index} ran at t={trace[index]!r} after "
                f"t={trace[index - 1]!r}"))
    return violations


# --------------------------------------------------------------------------
# Rate-allocation oracles
# --------------------------------------------------------------------------

def _effective_capacity(fabric: Fabric, hop: LinkDir,
                        capacity_factors: Optional[Dict[LinkDir, float]]
                        ) -> float:
    factor = 1.0
    if capacity_factors is not None:
        factor = capacity_factors.get(hop, 1.0)
    return fabric.topology.links[hop[0]].capacity_gbps * factor


def link_usage(fabric: Fabric, flows: Sequence[Flow],
               paths: Dict[int, FlowPath],
               rates: Dict[int, float]) -> Dict[LinkDir, float]:
    """Aggregate allocated rate per directed link."""
    usage: Dict[LinkDir, float] = {}
    for flow in flows:
        rate = rates.get(flow.flow_id, 0.0)
        for hop in fabric.directed_hops(paths[flow.flow_id]):
            usage[hop] = usage.get(hop, 0.0) + rate
    return usage


def check_rate_feasibility(fabric: Fabric, flows: Sequence[Flow],
                           paths: Dict[int, FlowPath],
                           rates: Dict[int, float],
                           capacity_factors: Optional[
                               Dict[LinkDir, float]] = None,
                           tol_gbps: float = RATE_TOL_GBPS
                           ) -> List[Violation]:
    """No directed link may carry more than its effective capacity."""
    violations = []
    for hop, used in link_usage(fabric, flows, paths, rates).items():
        capacity = _effective_capacity(fabric, hop, capacity_factors)
        if used > capacity + tol_gbps:
            violations.append(Violation(
                "rate-feasibility",
                f"link {hop[0]} ({'fwd' if hop[1] else 'rev'}) carries "
                f"{used:.9g} Gbps > capacity {capacity:.9g} Gbps"))
    return violations


def check_work_conservation(flows: Sequence[Flow],
                            rates: Dict[int, float]) -> List[Violation]:
    """Every sized flow must receive a strictly positive rate."""
    violations = []
    for flow in flows:
        if flow.size_bits > 0 and rates.get(flow.flow_id, 0.0) <= 0.0:
            violations.append(Violation(
                "work-conservation",
                f"flow {flow.flow_id} ({flow.src_host}->{flow.dst_host})"
                f" allocated rate {rates.get(flow.flow_id)!r}"))
    return violations


def check_max_min_bottleneck(fabric: Fabric, flows: Sequence[Flow],
                             paths: Dict[int, FlowPath],
                             rates: Dict[int, float],
                             capacity_factors: Optional[
                                 Dict[LinkDir, float]] = None,
                             tol_gbps: float = RATE_TOL_GBPS
                             ) -> List[Violation]:
    """KKT condition of the max-min allocation.

    A flow either runs at the source line rate, or crosses at least
    one *saturated* link on which no other flow gets a higher rate —
    otherwise its rate could be raised without hurting any flow that
    is not already faster, contradicting max-min optimality.
    """
    violations = []
    usage = link_usage(fabric, flows, paths, rates)
    hop_max_rate: Dict[LinkDir, float] = {}
    for flow in flows:
        rate = rates.get(flow.flow_id, 0.0)
        for hop in fabric.directed_hops(paths[flow.flow_id]):
            if rate > hop_max_rate.get(hop, 0.0):
                hop_max_rate[hop] = rate
    line_rate = fabric.host_line_rate_gbps
    for flow in flows:
        rate = rates.get(flow.flow_id, 0.0)
        if rate >= line_rate - tol_gbps:
            continue
        bottlenecked = False
        for hop in fabric.directed_hops(paths[flow.flow_id]):
            capacity = _effective_capacity(fabric, hop, capacity_factors)
            saturated = usage[hop] >= capacity - tol_gbps
            maximal = rate >= hop_max_rate[hop] - tol_gbps
            if saturated and maximal:
                bottlenecked = True
                break
        if not bottlenecked:
            violations.append(Violation(
                "max-min-kkt",
                f"flow {flow.flow_id} at {rate:.9g} Gbps (< line rate "
                f"{line_rate:.9g}) has no saturated bottleneck link "
                "where its rate is maximal"))
    return violations


def check_solution(fabric: Fabric, flows: Sequence[Flow],
                   paths: Optional[Dict[int, FlowPath]] = None,
                   rates: Optional[Dict[int, float]] = None,
                   capacity_factors: Optional[Dict[LinkDir, float]] = None
                   ) -> List[Violation]:
    """Run the three rate-allocation oracles on one max-min solve."""
    flows = [flow for flow in flows if flow.size_bits > 0]
    if not flows:
        return []
    if paths is None:
        paths = fabric.resolve_paths(flows)
    if rates is None:
        rates = fabric.max_min_rates(list(flows), paths,
                                     capacity_factors=capacity_factors)
    return (
        check_rate_feasibility(fabric, flows, paths, rates,
                               capacity_factors)
        + check_work_conservation(flows, rates)
        + check_max_min_bottleneck(fabric, flows, paths, rates,
                                   capacity_factors)
    )


def check_incidence_solution(hops_of: Dict[int, Sequence],
                             capacity: Dict,
                             line_rate: float,
                             rates: Dict[int, float],
                             tol_gbps: float = RATE_TOL_GBPS
                             ) -> List[Violation]:
    """Rate-allocation oracles on a raw incidence problem.

    The fabric-free twin of :func:`check_solution`, for driving the
    solver core (:mod:`repro.network.solver`) directly with
    synthetic flow×link problems — ``hops_of`` maps flow id to its
    hops (any hashables), ``capacity`` gives each hop's Gbps.  Checks
    feasibility, work conservation (a flow earns rate 0 only by
    crossing a zero-capacity hop), and the max-min KKT condition.
    """
    violations = []
    usage: Dict = {hop: 0.0 for hop in capacity}
    hop_max_rate: Dict = {}
    for fid, hops in hops_of.items():
        rate = rates.get(fid, 0.0)
        for hop in hops:
            usage[hop] += rate
            if rate > hop_max_rate.get(hop, 0.0):
                hop_max_rate[hop] = rate
    for hop, used in usage.items():
        if used > capacity[hop] + tol_gbps:
            violations.append(Violation(
                "rate-feasibility",
                f"hop {hop!r} carries {used:.9g} Gbps > capacity "
                f"{capacity[hop]:.9g} Gbps"))
    for fid, hops in hops_of.items():
        rate = rates.get(fid, 0.0)
        dead = any(capacity[hop] <= 0.0 for hop in hops)
        if rate <= 0.0 and not dead:
            violations.append(Violation(
                "work-conservation",
                f"flow {fid} crosses only live hops but was "
                f"allocated rate {rate!r}"))
        if rate > 0.0 and dead:
            violations.append(Violation(
                "rate-feasibility",
                f"flow {fid} crosses a zero-capacity hop but was "
                f"allocated rate {rate!r}"))
        if rate >= line_rate - tol_gbps or dead:
            continue
        bottlenecked = False
        for hop in hops:
            saturated = usage[hop] >= capacity[hop] - tol_gbps
            maximal = rate >= hop_max_rate[hop] - tol_gbps
            if saturated and maximal:
                bottlenecked = True
                break
        if not bottlenecked:
            violations.append(Violation(
                "max-min-kkt",
                f"flow {fid} at {rate:.9g} Gbps (< line rate "
                f"{line_rate:.9g}) has no saturated bottleneck hop "
                "where its rate is maximal"))
    return violations


# --------------------------------------------------------------------------
# Byte conservation via independent replay
# --------------------------------------------------------------------------

def replay_conservation(fabric: Fabric, flows: Sequence[Flow],
                        finish_times_s: Dict[int, float],
                        paths: Dict[int, FlowPath],
                        capacity_events: Sequence[
                            Tuple[float, int, float]] = (),
                        check_epochs: bool = True) -> List[Violation]:
    """Replay a run epoch-by-epoch and check per-flow byte totals.

    The recorded start/finish times (plus any ``(at_s, link_id,
    factor)`` capacity events) partition time into epochs over which
    the active set is constant.  Integrating an *independently
    re-solved* max-min allocation across those epochs must deliver
    each flow's ``size_bits`` by its recorded finish — the byte-
    conservation invariant.  With ``check_epochs`` the feasibility and
    KKT oracles also run on every epoch's allocation, which is how
    staggered-start and degraded-capacity scenarios get rate-level
    coverage.

    Only valid for runs without reroutes (the recorded path must be
    the path the flow used throughout); the campaign runner restricts
    it to kill-free scenarios.
    """
    sized = [flow for flow in flows if flow.size_bits > 0]
    violations = []
    for flow in sized:
        if flow.flow_id not in finish_times_s:
            violations.append(Violation(
                "byte-conservation",
                f"flow {flow.flow_id} has no recorded finish time"))
    sized = [flow for flow in sized if flow.flow_id in finish_times_s]
    if not sized:
        return violations

    boundaries = sorted(
        {flow.start_time_s for flow in sized}
        | {finish_times_s[flow.flow_id] for flow in sized}
        | {at for at, _, _ in capacity_events})
    events = sorted(capacity_events)
    factors: Dict[LinkDir, float] = {}
    next_event = 0
    delivered = {flow.flow_id: 0.0 for flow in sized}
    for t0, t1 in zip(boundaries, boundaries[1:]):
        while next_event < len(events) and events[next_event][0] <= t0:
            _, link_id, factor = events[next_event]
            factors[(link_id, True)] = factor
            factors[(link_id, False)] = factor
            next_event += 1
        active = [flow for flow in sized
                  if flow.start_time_s <= t0
                  and finish_times_s[flow.flow_id] > t0]
        if not active:
            continue
        active_paths = {flow.flow_id: paths[flow.flow_id]
                        for flow in active}
        rates = fabric.max_min_rates(active, active_paths,
                                     capacity_factors=factors or None)
        if check_epochs:
            violations += check_rate_feasibility(
                fabric, active, active_paths, rates, factors or None)
            violations += check_work_conservation(active, rates)
            violations += check_max_min_bottleneck(
                fabric, active, active_paths, rates, factors or None)
        for flow in active:
            delivered[flow.flow_id] += rates[flow.flow_id] * 1e9 \
                * (t1 - t0)

    for flow in sized:
        # A flow finishes at its rounded deadline and each epoch's
        # product rounds; a budget of 1 bit absolute (or 1e-9 relative
        # for very large flows) separates that from a genuinely lost
        # or duplicated epoch.
        tol_bits = max(1.0, 1e-9 * flow.size_bits)
        deficit = flow.size_bits - delivered[flow.flow_id]
        if abs(deficit) > tol_bits:
            violations.append(Violation(
                "byte-conservation",
                f"flow {flow.flow_id} delivered "
                f"{delivered[flow.flow_id]:.6f} of "
                f"{flow.size_bits:.6f} bits by its finish at "
                f"t={finish_times_s[flow.flow_id]!r} "
                f"(deficit {deficit:.3g})"))
    return violations


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------

def check_same_result(run_fn: Callable[[], object],
                      label: str = "scenario") -> List[Violation]:
    """Same-seed bit-identical replay: *run_fn* twice, compare ``==``.

    *run_fn* must rebuild its whole world (topology, fabric, engine,
    flow ids) from the seed on every call and return a comparable
    summary (e.g. a dict of finish times); any drift between the two
    executions is a determinism violation.
    """
    first = run_fn()
    second = run_fn()
    if first != second:
        return [Violation(
            "bit-identical-replay",
            f"{label}: two same-seed executions disagree: "
            f"{first!r} vs {second!r}")]
    return []
