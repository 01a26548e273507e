"""The five benchmark workloads, one per user path.

Each workload turns ``(seed, iteration)`` into inputs, runs a timed
body on them, then checks the outputs outside the timed region.  The
simulator is deterministic, so host time is the only measured
quantity; every simulated statistic a body produces goes into its
``sim`` dict, which the harness hashes into ``sim_digest``.

Iteration *i* of a run draws its inputs from ``(seed, i)``, so a run
that fits more iterations into its time budget repeats the first ones
exactly and only adds new ones.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Outcome:
    """What one timed body produced, before its output checks."""

    sim: Dict[str, Any]
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: per-operation host latencies, where the workload has operations.
    ops_s: List[float] = field(default_factory=list)
    #: extra host-time readings (create_s, replay_s, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: kept for the checks only; never hashed.
    raw: Any = None
    #: ``sim`` hashed once the checks have run.
    digest: str = ""

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


#: seed used when none is given; every ``why`` names it.
DEFAULT_SEED = 1


def _rng(workload: str, seed: int, iteration: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{iteration}")


class Workload:
    name = ""
    why = ""
    #: what one operation is; empty when the workload has none.
    op = ""

    def __init__(self, toy: bool = False, work_dir: str = "."):
        self.toy = toy
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Per-process set-up shared by every iteration."""

    def inputs(self, seed: int, iteration: int) -> Any:
        raise NotImplementedError

    def body(self, inputs: Any) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: Any, outcome: Outcome) -> None:
        """Output checks; run outside the timed region."""

    def close(self) -> None:
        """Stop whatever :meth:`prepare` started."""


# ---------------------------------------------------------------------------
# fabric: the event-driven engine on one big all-to-all
# ---------------------------------------------------------------------------

class Fabric(Workload):
    name = "fabric"
    why = ("FabricEngine all-to-all, 64 hosts x 2 rails, 8,064 flows: "
           "ECMP hashing, next-hop lookup, max-min solve and event "
           "dispatch on a few large components. Default seed 1; held-out"
           " seed 9001.")

    def prepare(self) -> None:
        from repro.topology import AstralParams, build_astral
        from repro.validation import oracles  # noqa: F401 — the check
        params = AstralParams.small() if self.toy \
            else AstralParams.cluster()
        self.topology = build_astral(params)
        self.replayed = False
        self.pods = {}
        for host in self.topology.hosts():
            self.pods.setdefault(host.pod, []).append(host.name)

    def inputs(self, seed: int, iteration: int):
        from repro.core.placement import Allocation
        from repro.network import reset_flow_ids
        from repro.network.collectives import all_to_all_flows
        # The seed picks one whole pod and the hosts' rank order.  Pods
        # are symmetric, so every seed does about the same work, while
        # the order moves flow ids and with them every ECMP hash.
        rng = _rng(self.name, seed, iteration)
        pod = rng.choice(sorted(self.pods))
        hosts = rng.sample(self.pods[pod], len(self.pods[pod]))
        allocation = Allocation("bench", hosts, 2)
        reset_flow_ids()
        flows = []
        for rail in (0, 1):
            flows.extend(all_to_all_flows(allocation.endpoints(rail=rail),
                                          64e9))
        return flows

    def body(self, flows) -> Outcome:
        from repro.network import Fabric as NetFabric
        from repro.network.engine import FabricEngine
        fabric = NetFabric(self.topology)
        engine = FabricEngine(fabric)
        for flow in flows:
            engine.submit(flow, start_time_s=0.0)
        run = engine.run()
        finish = dict(run.finish_times_s)
        return Outcome(
            sim={"flows": len(flows),
                 "finish_s": sorted(finish.items())},
            attempted=1, raw=(fabric, engine, finish))

    def check(self, flows, outcome: Outcome) -> None:
        from repro.validation.oracles import replay_conservation
        fabric, engine, finish = outcome.raw
        unfinished = [f.flow_id for f in flows if f.flow_id not in finish]
        if unfinished or engine.stranded:
            outcome.fail(f"{len(unfinished)} flows unfinished, "
                         f"{len(engine.stranded)} stranded")
            return
        if self.replayed:
            return
        # The byte-conservation replay re-solves max-min at every epoch
        # (~5 s on the 8,064-flow point), so it runs on the first
        # iteration of a process; later iterations, and the traced
        # pass, are held to their digests.
        self.replayed = True
        paths = {f.flow_id: engine.path_of(f.flow_id) for f in flows}
        for group in _link_components(flows, paths):
            violations = replay_conservation(fabric, group, finish, paths,
                                             check_epochs=False)
            if violations:
                outcome.fail(f"replay_conservation: {violations[0]}")
                return


def _link_components(flows, paths):
    """Flows split into groups that share no link.

    Max-min rates separate across such groups, so replaying each group
    on its own checks exactly what one replay of all flows checks, at
    a fraction of the cost (the all-to-all splits into four)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    for flow in flows:
        parent[flow.flow_id] = flow.flow_id
        for link in paths[flow.flow_id].link_ids:
            other = owner.setdefault(link, flow.flow_id)
            parent[find(other)] = find(flow.flow_id)
    groups = {}
    for flow in flows:
        groups.setdefault(find(flow.flow_id), []).append(flow)
    return list(groups.values())


# ---------------------------------------------------------------------------
# scale: `repro scale` at 512K, clean and faulted
# ---------------------------------------------------------------------------

class Scale(Workload):
    name = "scale"
    why = ("repro scale at 512K: the clean point, then one hard optics-"
           "batch fault under bounded refine; fold, refine and ECMP path"
           " resolution on a huge topology. Default seed 1; held-out "
           "seed 9001.")

    def prepare(self) -> None:
        from repro.farm import tasks  # noqa: F401 — the task registry
        from repro.hierarchy import preset_params
        self.scale = "4k" if self.toy else "512k"
        self.params = preset_params(self.scale)
        self.hosts_per_job = 32

    def inputs(self, seed: int, iteration: int):
        from repro.farm import TaskSpec
        from repro.hierarchy import uniform_jobs
        from repro.hierarchy.virtual import place_jobs
        from repro.resilience import faults_from_document
        rng = _rng(self.name, seed, iteration)
        base = {"scale": self.scale, "hosts_per_job": self.hosts_per_job,
                "iterations": 4, "tail_shapes": 2, "refine": "bounded",
                "seed": 0}
        # Iteration-indexed onset (no ``at_time_s``): a timestamp onset
        # always escalates refinement to pod scope by design.
        domain = {"kind": "optics-batch", "mode": "hard", "size": 1,
                  "pod": rng.randrange(self.params.pods),
                  "block": rng.randrange(self.params.blocks_per_pod),
                  "seed": f"perfbench:{seed}:{iteration}"}
        document = {"domains": [domain]}
        # Validate the fault document against the real placement up
        # front, as `repro scale --faults FILE` does.
        jobs = uniform_jobs(self.params, self.hosts_per_job, iterations=4,
                            tail_shapes=2)
        faults_from_document(self.params, place_jobs(self.params, jobs),
                             document)
        return [TaskSpec("hierarchy-run", base, label="clean"),
                TaskSpec("hierarchy-run",
                         dict(base, fault_document=document),
                         label="faulted")]

    def body(self, specs) -> Outcome:
        from repro.farm import execute_spec
        clean, faulted = (execute_spec(spec) for spec in specs)
        return Outcome(sim={"clean": clean, "faulted": faulted},
                       attempted=2, raw=(clean, faulted))

    def check(self, specs, outcome: Outcome) -> None:
        clean, faulted = outcome.raw
        if clean["fold"]["exact"] is not True:
            outcome.fail("clean point is not exact")
        levels = faulted["fold"]["refine"]["levels"]
        if set(levels) != {"block"}:
            outcome.fail(f"faulted point refined at {levels}, "
                         f"not block level")


# ---------------------------------------------------------------------------
# twin: a 64K session over HTTP
# ---------------------------------------------------------------------------

class Twin(Workload):
    name = "twin"
    why = ("A 64K twin session over HTTP: create, cordon/uncordon plus "
           "advance per boundary, verify-replay; topology build, twin "
           "collect/HTTP and the scheduler. Default seed 1; held-out "
           "seed 9001.")
    op = "one HTTP advance"

    def prepare(self) -> None:
        from repro.twin.config import TwinConfig
        from repro.twin.demo import ServerHarness
        self.scale = "tiny" if self.toy else "64k"
        self.boundaries = 3 if self.toy else 24
        params = TwinConfig(scale=self.scale).astral_params()
        self.host_space = (params.pods, params.blocks_per_pod,
                           params.hosts_per_block)
        self.harness = ServerHarness(workers=0).start()
        self.client = self.harness.client(timeout_s=170.0)

    def close(self) -> None:
        self.harness.stop()

    def inputs(self, seed: int, iteration: int):
        rng = _rng(self.name, seed, iteration)
        pods, blocks, hosts = self.host_space
        plan = []
        for _ in range(self.boundaries):
            plan.append([f"p{rng.randrange(pods)}.b{rng.randrange(blocks)}"
                         f".h{rank}" for rank in
                         rng.sample(range(hosts), 2)])
        config = {"kind": "cluster", "scale": self.scale,
                  "seed": f"{seed}:{iteration}", "jobs": 32,
                  "probe_interval_s": 3600.0}
        return config, plan, f"bench-{seed}-{iteration}"

    def body(self, inputs) -> Outcome:
        from repro.twin import TwinClientError
        config, plan, sid = inputs
        client = self.client
        outcome = Outcome(sim={}, attempted=0)

        def call(label, fn, *args):
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                return fn(*args), time.perf_counter() - started
            except (TwinClientError, OSError) as exc:
                outcome.fail(f"{label}: {exc}")
                return None, time.perf_counter() - started

        _, outcome.extra["create_s"] = call(
            "create", client.create_session, config, sid)
        previous = None
        snapshots = []
        for hosts in plan:
            call("cordon", client.action, sid,
                 {"kind": "cordon", "hosts": hosts})
            if previous:
                call("uncordon", client.action, sid,
                     {"kind": "uncordon", "hosts": previous})
            previous = hosts
            reply, elapsed = call("advance", client.advance, sid, 60.0)
            outcome.ops_s.append(elapsed)
            if reply:
                snapshots.append(reply[-1])
        verdict, outcome.extra["replay_s"] = call(
            "verify-replay", client.verify_replay, sid)
        call("delete", client.delete_session, sid)
        outcome.sim = {"snapshots": snapshots, "replay": verdict}
        outcome.raw = verdict
        return outcome

    def check(self, inputs, outcome: Outcome) -> None:
        verdict = outcome.raw
        if not verdict or verdict.get("match") is not True:
            outcome.fail(f"verify-replay did not match: {verdict}")


# ---------------------------------------------------------------------------
# serve: seeded serving days
# ---------------------------------------------------------------------------

class Serve(Workload):
    name = "serve"
    why = ("Seeded serving days: 64K at capacity and 4K at users 0.3 "
           "with a peak backlog; the pool simulator, whose cost grows "
           "with backlog. Nothing else loads it. Default seed 1; held-"
           "out seed 9001.")

    def prepare(self) -> None:
        from repro.farm import tasks  # noqa: F401 — the task registry
        from repro.serving import run  # noqa: F401

    def inputs(self, seed: int, iteration: int):
        from repro.farm import TaskSpec
        from repro.serving import ServingScenario
        day_seed = f"{seed}:{iteration}"
        days = [("4k", 0.3)] if self.toy else [("64k", 1.0), ("4k", 0.3)]
        return [TaskSpec("serving-run", {"scenario": ServingScenario(
            preset=preset, users_m_scale=users, seed=day_seed,
            duration_s=6 * 3600.0 if self.toy else 86400.0
        ).to_params()}, label=f"serve-{preset}") for preset, users in days]

    def body(self, specs) -> Outcome:
        from repro.farm import execute_spec
        days = [execute_spec(spec) for spec in specs]
        return Outcome(sim={"days": days}, attempted=len(days), raw=days)

    def check(self, specs, outcome: Outcome) -> None:
        for day in outcome.raw:
            trace, slo = day["trace"], day["slo"]
            label = day["scenario"]["preset"]
            offered = sum(trace["by_region"].values())
            if offered != trace["total_requests"] \
                    or slo["offered_requests"] != offered:
                outcome.fail(f"{label}: offered requests not conserved "
                             f"across regions")
            # The pool simulators drain: every arrival completes once.
            if slo["completion_fraction"] != 1.0:
                outcome.fail(f"{label}: completion fraction "
                             f"{slo['completion_fraction']}")
            report = day["training"]["report"]
            if sum(report["status"].values()) != report["jobs"]:
                outcome.fail(f"{label}: training jobs not conserved")


# ---------------------------------------------------------------------------
# fuzz: the `repro validate --fast` sweep on the farm
# ---------------------------------------------------------------------------

#: campaign seed of `repro validate` (its CLI default).
CAMPAIGN_SEED = 7


class Fuzz(Workload):
    name = "fuzz"
    why = ("repro validate --fast, 50 cases on a FarmExecutor with "
           "workers=nproc, cold then warm from its cache: tiny solver "
           "components, farm dispatch/cache, the oracles. Default seed "
           "1; held-out seed 9001.")
    op = "one validation case"

    def prepare(self) -> None:
        from repro.farm import tasks  # noqa: F401 — the task registry
        from repro.validation import runner  # noqa: F401
        self.cases = 4 if self.toy else 50
        self.workers = max(1, min(2, os.cpu_count() or 1)) if self.toy \
            else max(1, os.cpu_count() or 1)

    def inputs(self, seed: int, iteration: int):
        # The cases are the sweep `repro validate --fast --cases 50`
        # runs (campaign seed 7); the seed permutes the order they are
        # handed to the farm, which moves its dispatch and load balance.
        indices = list(range(self.cases))
        _rng(self.name, seed, iteration).shuffle(indices)
        # A fresh cache per iteration; the farm creates it on first use.
        cache_dir = os.path.join(
            self.work_dir, f"fuzz-cache-{os.getpid()}-{iteration}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return indices, cache_dir

    def body(self, inputs) -> Outcome:
        from repro.validation import run_campaign
        indices, cache_dir = inputs
        passes = [run_campaign(CAMPAIGN_SEED, len(indices),
                               indices=indices, fast=True,
                               workers=self.workers, use_cache=True,
                               cache_dir=cache_dir) for _ in range(2)]
        cold = passes[0].farm
        executed = [r for r in cold.results if not r.cached]
        return Outcome(
            sim={"identity": sorted(cold.identity())},
            attempted=2 * self.cases,
            ops_s=[r.elapsed_s for r in executed],
            extra={"worker_busy_frac":
                   sum(r.elapsed_s for r in executed)
                   / (cold.wall_s * cold.workers)},
            raw=passes)

    def check(self, inputs, outcome: Outcome) -> None:
        cold, warm = outcome.raw
        shutil.rmtree(inputs[1], ignore_errors=True)
        for report, label in ((cold, "cold"), (warm, "warm")):
            for case in report.failures:
                outcome.fail(f"{label} case {case.index} "
                             f"[{case.profile}] failed")
        if warm.farm.n_executed != 0:
            outcome.fail(f"warm pass executed {warm.farm.n_executed} "
                         f"tasks")
        if warm.farm.identity() != cold.farm.identity():
            outcome.fail("warm pass identity differs from the cold pass")


WORKLOADS = {cls.name: cls for cls in (Fabric, Scale, Twin, Serve, Fuzz)}
