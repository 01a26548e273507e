"""Bounded unfolding: broken symmetry re-simulated at the smallest
exact scope.

A fault — from ``repro.resilience``'s campaigns, a monitoring fault
spec, anything carrying a :class:`FaultSpec` — breaks the symmetry of
every pod it touches.  Refinement answers *how much* of the broken pod
must be simulated exactly, walking an escalation ladder:

* **block** — the fault's cut set stays inside a known block set, so
  only the touched blocks (plus the shared ToR->Agg uplink tier, which
  every bounded sub-topology keeps at full width) run on the engine;
  the pod's healthy blocks keep folding through the same
  representative-block path the pod classes use, so their sub-sims
  memo-hit against the healthy classes.
* **pod** — the whole broken pod (or transitively-merged pod group)
  runs exactly, faults armed, as one sub-simulation.  This is the
  pre-bounded behaviour and the fallback whenever the block-level
  certificate is void.
* **flat** — an unlocatable or globally-coupled target (``link:<id>``
  ids shift under renaming; core switches are shared by every pod)
  forces the identity-mapped full-cluster refinement group that
  degenerates to a flat :class:`MultiJobRun` bit-identically.

The **block-level certificate** is the exactness proof: bounded
results must equal full-pod refinement ``==``, never approximately.
It holds when every group fault's *effect* is hash-free (its outcome
cannot depend on ECMP hash draws, which renaming re-salts), every
fault target resolves to a block (host or ToR name) or to its own job,
the group's pods are a single pod of pod-local ring tenants, the
line-rate certificate pins every healthy flow to the host line rate,
and a blast-radius probe on a one-block topology confirms the target's
cut set strands nothing beyond the block
(:func:`repro.topology.blast_radius.device_blast_radius` /
:func:`~repro.topology.blast_radius.impacted_hosts`).  Hash-free
effects are the host-scoped ones (crash / hang / compute-only config
error), job-state faults (which pick victims by position, not name),
and telemetry-only switch drops; congestive effects (ECN storms, PFC
spreading, switch fail-stop) route damage through hash-dependent paths
and escalate to **pod**.  Mid-flight timestamp onsets and the
below-line-rate NIC crawl stay in certificate: a flow's floats move
only on its own rate changes, never on other components' epochs.

Within a bounded pod, blocks are grouped into connected components
(jobs union the blocks they span; each fault unions its target block
with its job's blocks).  Components containing a fault run exactly on
a ``pods=1, blocks_per_pod=len(component)`` sub-topology with the agg
tier preserved; healthy single-block components fold by block
signature; healthy multi-block components run as compacted pod slices.
Per-component simulation is exact for the same reason the fold is:
certified traffic never contends across components, so separate clocks
observe identical allocations.

Every group decision is recorded in a :class:`RefinePlan` — the ladder
level, why, per-fault blast evidence, and the engine-host bill versus
what a full-pod unfold would have paid — so callers can assert the
ladder, not just the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..monitoring.faults import Effect, FaultSpec, Manifestation
from ..monitoring.multijob import JobOutcome
from ..topology.astral import AstralParams, build_astral
from ..topology.blast_radius import device_blast_radius, impacted_hosts
from .compose import scaled_compute_s
from .fold import (EngineRunner, _config_for, _fold_rep_blocks,
                   _solve_rep_pod)
from .symmetry import RefinedGroup, SymmetryMap, line_rate_certificate
from .virtual import PlacedJob, parse_host, rename_device, rename_host

__all__ = [
    "REFINE_MODES",
    "FaultEvidence",
    "RefinePlan",
    "plan_refined_group",
    "run_refined_group",
    "run_refined_groups",
]

#: ``bounded`` walks the full ladder; ``pod`` skips the block rung —
#: the knob the differential oracle uses to compare both paths ``==``.
REFINE_MODES = ("bounded", "pod")

#: Effects whose simulated outcome is provably independent of ECMP
#: hash draws, hence invariant under the device renaming a bounded
#: sub-topology performs.  Host crashes/hangs mutate job state keyed
#: by config position; NIC_ERRCQE degrades *all* of one host's links
#: symmetrically (its flows bottleneck on their own dedicated host
#: links, whatever the uplink hash); CONFIG_ERROR is compute-only;
#: MULTI_HOST_SOFTWARE samples victims by position from the config
#: host list.  Everything else — congestion storms, switch fail-stop,
#: PFC spreading — damages whichever paths the hash picked.
#: Hash-freedom is necessary but not sufficient: the fault must also
#: be block- or job-scoped with a clean blast-radius probe (see
#: :func:`_fault_evidence`).
_HASH_FREE_EFFECTS = frozenset({
    Effect.CONFIG_ERROR,
    Effect.NIC_ERRCQE,
    Effect.GPU_FATAL,
    Effect.ECC_FATAL,
    Effect.HOST_HANG,
    Effect.MULTI_HOST_SOFTWARE,
})


@dataclass(frozen=True)
class FaultEvidence:
    """Blast-radius evidence for one group fault."""

    name: str                 # job the fault is keyed to
    target: str               # original (unrenamed) target
    scope: str                # "block" | "job" | "pod"
    blocks: Tuple[int, ...]   # touched blocks, original indices
    stranded_gpus: int = 0    # probe: GPU-rails stranded beyond target
    impacted_hosts: int = 0   # probe: conservative cordon set size
    note: str = ""            # why scope escalated, when it did


@dataclass(frozen=True)
class RefinePlan:
    """What one refinement group cost and why — the assertable ladder."""

    pods: Tuple[int, ...]
    level: str                      # "block" | "pod" | "flat"
    reasons: Tuple[str, ...]
    evidence: Tuple[FaultEvidence, ...]
    #: hosts a full-pod unfold would engine-simulate for this group.
    n_full_hosts: int = 0
    #: hosts actually billed to the engine (after fold memo hits).
    n_engine_hosts: int = 0


def _device_block(target: str) -> Optional[Tuple[int, int]]:
    """(pod, block) of a host- or ToR-named target, else None.

    Aggs carry only a pod prefix, cores none, ``link:`` ids none —
    all of those are outside block scope.
    """
    parts = target.split(".")
    if (len(parts) >= 3 and parts[0][:1] == "p" and parts[0][1:].isdigit()
            and parts[1][:1] == "b" and parts[1][1:].isdigit()):
        return int(parts[0][1:]), int(parts[1][1:])
    return None


@lru_cache(maxsize=256)
def _probe_evidence(sub_params: AstralParams,
                    target: str) -> Tuple[int, int]:
    """(stranded_gpus, n_impacted_hosts) of *target* failing on the
    one-block probe topology.

    The probe is the same blast-radius measurement the topology layer
    publishes, run in block-relative coordinates: it proves the
    device's cut set (host links, or ToR host-links plus its uplinks —
    both present in every bounded sub-topology) strands nothing beyond
    the block.  Cached per (sub-params, renamed target); the topology
    is rebuilt per entry and mutations are restore-on-exit.
    """
    topology = build_astral(sub_params)
    radius = device_blast_radius(topology, target)
    return radius.stranded_gpus, len(impacted_hosts(topology, target))


def _fault_evidence(params: AstralParams, name: str, fault: FaultSpec,
                    job: PlacedJob) -> FaultEvidence:
    """Classify one fault: block-scoped (with probe evidence) or not."""
    effect = fault.effect
    hash_free = effect in _HASH_FREE_EFFECTS or (
        effect is Effect.SWITCH_DROPS
        and fault.manifestation is Manifestation.FAIL_SLOW)
    if not hash_free:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"effect {effect.value}/{fault.manifestation.value} "
                 "is hash-sensitive")
    if fault.target == job.name:
        # Job-state fault: victims picked by config position, no
        # device cut set at all — touched blocks are the job's own.
        return FaultEvidence(name=name, target=fault.target,
                             scope="job", blocks=job.blocks)
    located = _device_block(fault.target)
    if located is None:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"target {fault.target!r} is not block-scoped")
    pod, block = located
    if pod not in job.pods:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=job.blocks,
            note=f"target pod {pod} is outside job {job.name!r}'s "
                 "placement")
    probe_params = dc_replace(params, pods=1, blocks_per_pod=1)
    renamed = rename_device(fault.target, {pod: 0}, {block: 0})
    stranded, impacted = _probe_evidence(probe_params, renamed)
    if stranded:
        return FaultEvidence(
            name=name, target=fault.target, scope="pod",
            blocks=tuple(sorted({block, *job.blocks})),
            stranded_gpus=stranded, impacted_hosts=impacted,
            note=f"cut set strands {stranded} GPU-rails beyond "
                 f"{fault.target}")
    return FaultEvidence(
        name=name, target=fault.target, scope="block",
        blocks=tuple(sorted({block, *job.blocks})),
        stranded_gpus=stranded, impacted_hosts=impacted)


def plan_refined_group(params: AstralParams, group: RefinedGroup,
                       mode: str = "bounded",
                       flat: bool = False) -> RefinePlan:
    """Decide the ladder level for one group and collect the evidence."""
    if mode not in REFINE_MODES:
        raise ValueError(
            f"unknown refine mode {mode!r}; expected one of "
            f"{REFINE_MODES}")
    n_full = sum(len(p.hosts) for p in group.jobs)
    if flat:
        return RefinePlan(
            pods=group.pods, level="flat",
            reasons=tuple(group.reasons), evidence=(),
            n_full_hosts=n_full)
    by_name = {p.name: p for p in group.jobs}
    evidence = tuple(
        _fault_evidence(params, name, fault, by_name[name])
        for name, fault in sorted(group.faults.items()))
    reasons: List[str] = []
    if mode == "pod":
        reasons.append("refine mode forces pod-level unfolding")
    if len(group.pods) != 1 or not all(p.pod_local for p in group.jobs):
        reasons.append("group spans pods (cross-pod tenant): "
                       "bounded certificate void")
    if not line_rate_certificate(params, group.jobs):
        reasons.append("line-rate certificate void for group traffic")
    reasons.extend(f"fault {ev.name}: {ev.note}"
                   for ev in evidence if ev.scope == "pod")
    if reasons:
        return RefinePlan(pods=group.pods, level="pod",
                          reasons=tuple(reasons), evidence=evidence,
                          n_full_hosts=n_full)
    return RefinePlan(pods=group.pods, level="block", reasons=(),
                      evidence=evidence, n_full_hosts=n_full)


def _run_group_pod(params: AstralParams, group: RefinedGroup,
                   power_caps: Dict[int, float],
                   runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Whole-pod (or whole-group) exact refinement.

    The group runs on a ``pods=len(group)`` sub-topology with the full
    block range preserved (an escalated fault's blast radius may reach
    any block-level device) and only pod indices rebased; fault targets
    are renamed with the same map.  Core switch names are pod-free and
    pass through untouched.  When *every* pod is refined the pod map is
    the identity, the sub-topology equals the flat one, and — because
    group jobs keep their original placement order, hence their
    original flow ids — the result is bit-identical to a flat
    :class:`MultiJobRun`: full unfold degenerates to flat, by
    construction rather than by approximation.
    """
    pod_map = {pod: index for index, pod in enumerate(group.pods)}
    sub = dc_replace(params, pods=len(group.pods))
    configs = [
        _config_for(
            placed,
            tuple(rename_host(h, pod_map) for h in placed.hosts),
            scaled_compute_s(placed.job, placed.pods, power_caps))
        for placed in group.jobs
    ]
    faults = {
        name: dc_replace(fault,
                         target=rename_device(fault.target, pod_map))
        for name, fault in group.faults.items()
    }
    return runner.run(sub, configs, faults=faults or None)


def _run_group_bounded(params: AstralParams, group: RefinedGroup,
                       plan: RefinePlan, power_caps: Dict[int, float],
                       runner: EngineRunner) -> Dict[str, JobOutcome]:
    """Block-bounded exact refinement of a single broken pod."""
    pod = group.pods[0]
    by_name = {p.name: p for p in group.jobs}
    evidence_blocks = {ev.name: ev.blocks for ev in plan.evidence}

    # Connected components over blocks: jobs union the blocks they
    # span; faults union their touched blocks with their job's.
    parent: Dict[int, int] = {}

    def _find(block: int) -> int:
        parent.setdefault(block, block)
        while parent[block] != block:
            parent[block] = parent[parent[block]]
            block = parent[block]
        return block

    def _union(a: int, b: int) -> None:
        ra, rb = _find(a), _find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for placed in group.jobs:
        blocks = placed.blocks
        for block in blocks:
            _union(blocks[0], block)
    for name in group.faults:
        touched = evidence_blocks[name]
        anchor = by_name[name].blocks[0]
        for block in touched:
            _union(anchor, block)

    faulted_roots = {_find(by_name[name].blocks[0])
                     for name in group.faults}
    comp_jobs: Dict[int, List[PlacedJob]] = {}
    for placed in group.jobs:            # original placement order
        comp_jobs.setdefault(_find(placed.blocks[0]), []).append(placed)
    comp_blocks: Dict[int, List[int]] = {}
    for block in parent:
        comp_blocks.setdefault(_find(block), []).append(block)

    compute_scale = power_caps.get(pod, 1.0)
    outcomes: Dict[str, JobOutcome] = {}
    healthy_single: List[PlacedJob] = []
    for root in sorted(comp_jobs):
        jobs = comp_jobs[root]
        if root not in faulted_roots:
            if len(comp_blocks[root]) == 1:
                # Healthy lone blocks fold by signature, sharing the
                # runner memo with the healthy pod classes.
                healthy_single.extend(jobs)
            else:
                outcomes.update(_solve_rep_pod(
                    params, jobs, pod, compute_scale, runner))
            continue
        blocks = sorted(comp_blocks[root])
        block_map = {block: index
                     for index, block in enumerate(blocks)}
        # Touched blocks plus the shared ToR->Agg uplink tier: block
        # count compacts, agg/core widths stay — ToR->Agg wiring and
        # capacities are invariant under block compaction.
        sub = dc_replace(params, pods=1, blocks_per_pod=len(blocks))
        names = {placed.name for placed in jobs}
        configs = [
            _config_for(
                placed,
                tuple(rename_host(h, {pod: 0}, block_map)
                      for h in placed.hosts),
                scaled_compute_s(placed.job, placed.pods, power_caps))
            for placed in jobs
        ]
        faults = {
            name: dc_replace(
                fault,
                target=rename_device(fault.target, {pod: 0}, block_map))
            for name, fault in group.faults.items() if name in names
        }
        outcomes.update(runner.run(sub, configs, faults=faults or None))
    if healthy_single:
        outcomes.update(_fold_rep_blocks(
            params, healthy_single, pod, compute_scale, runner))
    return outcomes


def run_refined_group(params: AstralParams, group: RefinedGroup,
                      power_caps: Dict[int, float],
                      runner: EngineRunner, mode: str = "bounded",
                      flat: bool = False
                      ) -> Tuple[Dict[str, JobOutcome], RefinePlan]:
    """Refine one group at the cheapest certified ladder level."""
    plan = plan_refined_group(params, group, mode=mode, flat=flat)
    hosts_before = runner.engine_hosts
    if plan.level == "block":
        outcomes = _run_group_bounded(params, group, plan, power_caps,
                                      runner)
    else:
        outcomes = _run_group_pod(params, group, power_caps, runner)
    plan = dc_replace(plan,
                      n_engine_hosts=runner.engine_hosts - hosts_before)
    return outcomes, plan


def run_refined_groups(params: AstralParams, symmetry: SymmetryMap,
                       runner: EngineRunner, mode: str = "bounded"
                       ) -> Tuple[Dict[str, JobOutcome],
                                  List[RefinePlan]]:
    outcomes: Dict[str, JobOutcome] = {}
    plans: List[RefinePlan] = []
    for group in symmetry.refined:
        solved, plan = run_refined_group(
            params, group, symmetry.power_caps, runner, mode=mode,
            flat=symmetry.flat_fallback)
        outcomes.update(solved)
        plans.append(plan)
    return outcomes, plans
