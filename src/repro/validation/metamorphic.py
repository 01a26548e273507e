"""Metamorphic checks: known input transforms, predictable outputs.

No reference implementation needed — these exploit relations the
physics must satisfy:

* scaling every link rate (and the NIC line rate) by ``k`` scales
  every completion time by exactly ``1/k``; for power-of-two ``k``
  the float scaling is lossless, so the comparison is exact;
* adding an idle job (zero-size flows, or a flow that starts after
  the last finish) changes nothing;
* killing a link no flow uses changes nothing;
* adding a job whose directed hops are disjoint from every other
  flow's changes nobody else's finish time (component isolation — the
  property folding and bounded refinement rest on).

All four rebuild the world from a :class:`ScenarioSpec`, so flow ids,
source ports, and therefore ECMP paths are identical between the base
and transformed runs — the only safe way to compare, since a changed
candidate set would re-hash paths and legitimately change the answer.
The unused-link check in particular fails a host's *access* link:
hosts never transit traffic, so an idle host's port is provably
outside every other flow's ECMP candidate set.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional

from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..network.flows import make_flow
from ..network.routing import RoutingError
from .oracles import Violation
from .scenarios import FlowSpec, ScenarioSpec, build_flows, build_topology

__all__ = [
    "check_component_isolation",
    "check_idle_job_noop",
    "check_rate_scaling",
    "check_serving_powercap_identity",
    "check_serving_rate_doubling",
    "check_serving_zero_arrival",
    "check_unused_link_noop",
]


def _batch_finish(spec: ScenarioSpec, scale: float = 1.0,
                  fail_link_id: Optional[int] = None,
                  extra_zero_flows: int = 0):
    """Complete the spec's flows at t=0, optionally transformed."""
    topology = build_topology(spec)
    if scale != 1.0:
        for link in topology.links.values():
            link.capacity_gbps *= scale
    if fail_link_id is not None:
        topology.fail_link(fail_link_id)
    fabric = Fabric(topology)
    if scale != 1.0:
        fabric.host_line_rate_gbps *= scale
    flows = build_flows(spec)
    base_ids = [flow.flow_id for flow in flows]
    for index in range(extra_zero_flows):
        # Reuse an existing flow's endpoints so the idle flow is
        # reachable on every family (rail-only has no cross-pod path).
        donor = spec.flows[index % len(spec.flows)]
        flows.append(make_flow(donor.src, donor.dst, rail=donor.rail,
                               size_bits=0.0, job=f"idle{index}"))
    run = fabric.complete(flows)
    return {fid: run.finish_times_s[fid] for fid in base_ids}


def check_rate_scaling(spec: ScenarioSpec,
                       k: float = 2.0) -> List[Violation]:
    """Completion times must scale by exactly ``1/k`` with link rates.

    With ``k`` a power of two every intermediate float (rates, epoch
    deadlines, residues) scales losslessly, so ``finish_scaled * k``
    must equal the base finish bit-for-bit; other ``k`` get a 1e-9
    relative tolerance.
    """
    exact = k > 0 and (k == 2 ** round(_log2(k)))
    base = _batch_finish(spec)
    scaled = _batch_finish(spec, scale=k)
    violations = []
    for fid, base_t in base.items():
        rescaled = scaled[fid] * k
        if exact:
            bad = rescaled != base_t
        else:
            bad = abs(rescaled - base_t) > 1e-9 * max(base_t, 1e-12)
        if bad:
            violations.append(Violation(
                "rate-scaling",
                f"flow {fid}: base finish {base_t!r} but x{k} rates "
                f"give {scaled[fid]!r} (rescaled {rescaled!r})"))
    return violations


def _log2(k: float) -> float:
    import math
    return math.log2(k)


def check_idle_job_noop(spec: ScenarioSpec,
                        n_idle: int = 2) -> List[Violation]:
    """Zero-size flows must not perturb anyone's finish time."""
    base = _batch_finish(spec)
    with_idle = _batch_finish(spec, extra_zero_flows=n_idle)
    violations = []
    for fid, base_t in base.items():
        if with_idle[fid] != base_t:
            violations.append(Violation(
                "idle-job-noop",
                f"flow {fid}: finish moved from {base_t!r} to "
                f"{with_idle[fid]!r} after adding {n_idle} idle flows"))
    return violations


def check_serving_rate_doubling(spec: ScenarioSpec) -> List[Violation]:
    """Doubling the arrival rate must never decrease p50 TTFT.

    Rather than comparing two unrelated Poisson draws (whose sampling
    noise could mask a real inversion), this superposes a second
    independent rate-λ draw onto the base draw — the union is exactly a
    rate-2λ population — and replays it through the same engine.  Every
    base request still completes (the simulator drains), admission is
    FIFO and prefill-prioritized, and token targets are attached at
    draw time, so each base request's TTFT is pointwise monotone in the
    offered load; the oracle asserts the p50 over the *base*
    population, which that pointwise bound implies with zero sampling
    slack.
    """
    from ..seer import (NetworkSuite, ParallelismConfig, Seer,
                        ServingConfig, ServingSimulator, draw_requests)
    from ..serving import SERVING_MODELS, weighted_percentile
    conf = spec.serving or {}
    scen = conf.get("scenario", {})
    cfg = ServingConfig(
        batch_max=int(scen.get("batch_max", 8)),
        context_len=int(scen.get("context_len", 512)),
        output_len_mean=int(scen.get("output_len_mean", 32)),
        arrival_rate_per_s=float(conf.get("probe_rate", 1.0)),
        duration_s=float(scen.get("pool_window_s", 30.0)),
        seed=f"{scen.get('seed', spec.seed)}:probe")
    seer = Seer(gpu=scen.get("gpu", "H800"), network=NetworkSuite())
    model = SERVING_MODELS[scen.get("model", "HUNYUAN_MOE")]
    parallel = ParallelismConfig(tp=int(scen.get("tp", 8)), pp=1,
                                 dp=1, ep=int(scen.get("ep", 16)))
    base = draw_requests(cfg)
    extra = draw_requests(cfg, stream="requests-double")
    base_objects = {id(draw) for draw in base}
    merged = sorted(base + extra, key=lambda draw: draw.arrival_s)
    base_ids = {index for index, draw in enumerate(merged)
                if id(draw) in base_objects}
    cache: dict = {}
    base_run = ServingSimulator(seer, model, parallel, cfg,
                                cost_cache=cache).run(base)
    doubled_run = ServingSimulator(seer, model, parallel, cfg,
                                   cost_cache=cache).run(merged)
    p50_base = weighted_percentile(
        [(r.ttft_s, 1.0) for r in base_run.completed], 50.0)
    p50_doubled = weighted_percentile(
        [(r.ttft_s, 1.0) for r in doubled_run.completed
         if r.request_id in base_ids], 50.0)
    if p50_base is None or p50_doubled is None:
        return []  # zero-rate probe: nothing to compare (vacuous)
    if p50_doubled < p50_base:
        return [Violation(
            "rate-doubling-monotone",
            f"p50 TTFT fell from {p50_base!r} to {p50_doubled!r} after "
            f"superposing a second rate-{cfg.arrival_rate_per_s} draw")]
    return []


def check_serving_zero_arrival(spec: ScenarioSpec) -> List[Violation]:
    """A zero-arrival trace must be a strict no-op on the fabric.

    With ``users_m_scale`` forced to 0 every bucket draws exactly zero
    requests (the Poisson draw is exact at λ=0), so no KV flow may be
    injected and the contended co-simulation pass must be bit-identical
    to its serving-free baseline.
    """
    from ..serving import ServingRun, ServingScenario
    conf = spec.serving or {}
    scenario = ServingScenario.from_params(
        dict(conf.get("scenario", {}), users_m_scale=0.0))
    report = ServingRun(scenario).run()
    violations = []
    if report.trace["total_requests"] != 0:
        violations.append(Violation(
            "zero-arrival-noop",
            f"zero-scaled trace still drew "
            f"{report.trace['total_requests']} requests"))
    if report.cosim["n_kv_flows"] != 0:
        violations.append(Violation(
            "zero-arrival-noop",
            f"{report.cosim['n_kv_flows']} KV flows reached the fabric "
            "on a zero-arrival trace"))
    if report.cosim["iteration_s"] != report.cosim["clean_iteration_s"]:
        violations.append(Violation(
            "zero-arrival-noop",
            f"contended iterations {report.cosim['iteration_s']!r} != "
            f"clean baseline {report.cosim['clean_iteration_s']!r} "
            "despite zero serving traffic"))
    if report.slo["n_samples"] != 0:
        violations.append(Violation(
            "zero-arrival-noop",
            f"{report.slo['n_samples']} pool-sim samples materialized "
            "from an empty request population"))
    return violations


def check_serving_powercap_identity(spec: ScenarioSpec
                                    ) -> List[Violation]:
    """``power_cap_frac=1.0`` must equal uncapped bit-for-bit.

    At the full contract the per-bucket host budget equals the whole
    training fleet, the cap schedule is flat, a flat schedule plants no
    boundary events, and a never-binding cap preempts nobody — so every
    simulated quantity (trace, autoscale, SLOs, co-sim, the training
    report itself) must survive ``==``.  Only the ``scenario`` echo and
    the ``power`` contract arithmetic may differ, which is exactly what
    :meth:`~repro.serving.report.ServingReport.fingerprint` excludes.
    """
    from ..serving import ServingRun, ServingScenario
    conf = spec.serving or {}
    base = dict(conf.get("scenario", {}))
    capped = ServingRun(ServingScenario.from_params(
        dict(base, power_cap_frac=1.0))).run()
    uncapped = ServingRun(ServingScenario.from_params(
        dict(base, power_cap_frac=None))).run()
    if capped.fingerprint() != uncapped.fingerprint():
        diff_keys = [key for key in capped.fingerprint()
                     if capped.fingerprint()[key]
                     != uncapped.fingerprint()[key]]
        return [Violation(
            "powercap-identity",
            f"full-contract cap diverged from uncapped in sections "
            f"{diff_keys!r}")]
    return []


def check_unused_link_noop(spec: ScenarioSpec) -> List[Violation]:
    """Killing an idle host's access link must change nothing.

    Returns no violations (vacuously) when every host participates in
    the workload — there is then no link provably outside all ECMP
    candidate sets.
    """
    topology = build_topology(spec)
    used_hosts = {flow.src for flow in spec.flows} \
        | {flow.dst for flow in spec.flows}
    idle_hosts = [host.name for host in topology.hosts()
                  if host.name not in used_hosts]
    if not idle_hosts:
        return []
    victim = topology.links_of(sorted(idle_hosts)[0])[0].link_id
    base = _batch_finish(spec)
    degraded = _batch_finish(spec, fail_link_id=victim)
    violations = []
    for fid, base_t in base.items():
        if degraded[fid] != base_t:
            violations.append(Violation(
                "unused-link-noop",
                f"flow {fid}: finish moved from {base_t!r} to "
                f"{degraded[fid]!r} after killing unused link "
                f"{victim}"))
    return violations


def _engine_finish(spec: ScenarioSpec) -> Dict[int, float]:
    """The spec's flows on the event engine at their start times, with
    its degrade faults replayed (the timed battery carries no others)."""
    engine = FabricEngine(Fabric(build_topology(spec)))
    for flow in build_flows(spec):
        engine.submit(flow)
    for fault in spec.faults:
        engine.set_capacity_factor(fault.link_id, fault.factor,
                                   at=fault.at_s)
    return engine.run().finish_times_s


def _isolated_job(spec: ScenarioSpec,
                  horizon_s: float) -> Optional[FlowSpec]:
    """A seeded flow, started before *horizon_s*, whose directed hops
    avoid every spec flow's; None when no host pair and rail has one."""
    fabric = Fabric(build_topology(spec))
    used = {hop for path in fabric.resolve_paths(build_flows(spec)).values()
            for hop in fabric.directed_hops(path)}
    rng = random.Random(f"isolation:{spec.seed}:{spec.index}")
    size_bits = 10 ** rng.uniform(8.0, 11.0)
    start_s = rng.uniform(0.0, horizon_s)
    hosts = sorted(host.name for host in fabric.topology.hosts())
    candidates = [(src, dst, rail) for src in hosts for dst in hosts
                  if src != dst for rail in range(spec.topo["gpus_per_host"])]
    rng.shuffle(candidates)
    for src, dst, rail in candidates:
        job = FlowSpec(src, dst, rail, size_bits, start_s, job="isolated")
        # Routed as the appended flow it becomes (same id, same hash).
        probe = build_flows(replace(spec, flows=spec.flows + [job]))[-1]
        try:
            if used.isdisjoint(
                    fabric.directed_hops(fabric.router.path(probe))):
                return job
        except RoutingError:
            continue
    return None


def check_component_isolation(spec: ScenarioSpec) -> List[Violation]:
    """A link-disjoint job must not move any other flow's finish time.

    The job is one seeded flow appended after the spec's flows (their
    ids and ECMP paths are unchanged) and started while they run.  It
    is its own max-min component, so its events may not round anyone
    else's arithmetic: every base finish must compare ``==``.  Folding
    and bounded refinement rest on this.  Vacuous when every path
    shares a directed hop with some spec flow.
    """
    base = _engine_finish(spec)
    job = _isolated_job(spec, max(base.values(), default=0.0))
    if job is None:
        return []
    extended = _engine_finish(replace(spec, flows=spec.flows + [job]))
    return [Violation(
        "component-isolation",
        f"flow {fid}: finish moved from {base_t!r} to {extended[fid]!r} "
        f"after adding link-disjoint flow {job.src}->{job.dst} rail "
        f"{job.rail} at t={job.start_s!r}")
        for fid, base_t in base.items() if extended[fid] != base_t]
