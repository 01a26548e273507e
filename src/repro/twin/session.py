"""A persistent simulated datacenter, advanced in virtual time.

:class:`TwinSession` wraps one live stack — for ``kind="cluster"``: a
topology, a :class:`~repro.network.engine.FabricEngine`, a
:class:`~repro.cluster.scheduler.ClusterScheduler` and the resilience
pipeline, all sharing one DES clock; for ``kind="serving"`` a diurnal
serving day (:mod:`.serving_day`).  The session only moves when
:meth:`advance` is called: queued operator actions are applied at the
current instant (the *boundary*), then the clock runs ``dt_s`` of
virtual time, then a telemetry snapshot is cut into the session's
:class:`~repro.monitoring.telemetry.TelemetryStore` and returned.

Every boundary appends ``{"dt_s", "actions"}`` to an append-only
action log.  Because applying a normalized action is a deterministic
function of session state, re-running the log from a fresh session
built from the same config lands on the same state bit-for-bit:
``replay(config, log).digest() == live.digest()`` with ``==``, the
same determinism bar the farm meets.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence

from ..cluster.scheduler import ClusterScheduler
from ..cluster.workload import WorkloadGenerator
from ..core.placement import GpuAllocator
from ..farm.spec import TaskSpec, canonical_json
from ..monitoring.mttlf import MttlfModel
from ..monitoring.pingmesh import Pingmesh
from ..monitoring.telemetry import (SwitchCounterRecord, SyslogRecord,
                                    TelemetryStore)
from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..network.flows import reset_flow_ids
from ..resilience.injector import FailureInjector
from ..resilience.pipeline import RecoveryPipeline
from ..topology.astral import build_astral
from .actions import ActionError, apply_cluster_action, normalize_action
from .config import TwinConfig

__all__ = ["TwinSession", "replay", "session_digest"]


def session_digest(fingerprint: Dict[str, Any]) -> str:
    """Canonical-JSON sha256 of a state fingerprint."""
    return hashlib.sha256(
        canonical_json(fingerprint).encode("utf-8")).hexdigest()


class _ClusterStack:
    """The live cluster world: one clock under everything."""

    def __init__(self, config: TwinConfig):
        self.config = config
        self.params = config.astral_params()
        self.topology = build_astral(self.params)
        self.fabric = Fabric(self.topology)
        self.engine = FabricEngine(self.fabric)
        self.sim = self.engine.sim
        self.allocator = GpuAllocator(self.topology)
        self.total_hosts = self.allocator.free_hosts
        self.host_kw = config.host_kw
        self.pingmesh = Pingmesh(self.fabric)
        self.injector = FailureInjector(self.engine,
                                        dampening_s=config.dampening_s)
        workload = WorkloadGenerator(
            seed=f"twin:{config.seed}").generate(
                config.jobs, max_hosts=self.total_hosts)
        self.scheduler = ClusterScheduler(
            self.topology, workload, policy=config.policy,
            allocator=self.allocator, seed=0,
            enforce_cap=config.enforce_cap, sim=self.sim)
        self.pipeline = RecoveryPipeline(
            self.engine, self.allocator, pingmesh=self.pingmesh,
            mttlf=MttlfModel(n_hosts=max(2, self.total_hosts),
                             jitter_frac=0.0),
            probe_interval_s=config.probe_interval_s,
            on_cordon=self._on_cordon)
        self.scheduler.start(until=config.horizon_s)
        self.pipeline.start()

    def _on_cordon(self, record) -> List[str]:
        """Recovery pipeline hook: fail every running job whose
        allocation intersects the cordoned blast radius."""
        cordoned = set(record.cordoned_hosts)
        interrupted: List[str] = []
        for name in self.scheduler.running_jobs():
            allocation = self.allocator.allocation(name)
            if allocation and cordoned.intersection(allocation.hosts):
                if self.scheduler.interrupt_job(name):
                    interrupted.append(name)
        return interrupted

    # -- session protocol ------------------------------------------------
    def validate(self, action: Dict[str, Any]) -> None:
        """Submit-time semantic checks (boundary application does the
        stateful validation; here we only fail what can never work)."""
        if action["kind"] in ("cordon", "uncordon", "drain"):
            for host in action["hosts"]:
                device = self.topology.devices.get(host)
                if device is None or device.tier != 0:
                    raise ActionError(
                        f"{action['kind']}: {host!r} is not a host "
                        f"of this cluster")

    def apply(self, action: Dict[str, Any]) -> Dict[str, Any]:
        return apply_cluster_action(self, action)

    def advance_to(self, t: float) -> None:
        self.sim.run(until=t)

    def collect(self, store: TelemetryStore) -> Dict[str, Any]:
        now = self.sim.now
        census = self.pingmesh.census()
        uplinks = self._healthy_uplinks
        degraded = {host: count for host, count in census.items()
                    if count < uplinks}
        tiers = {}
        for tier, (links, healthy) in \
                self.topology.tier_link_counts().items():
            tiers[f"tier{tier}"] = {
                "links": links, "healthy": healthy,
                "healthy_frac": round(healthy / links, 9)}
            # ``utilization`` stays 0: the scheduler places jobs but
            # puts no flows on the session engine, so no tier carries
            # traffic.
            store.add(SwitchCounterRecord(
                time_s=now, device=f"tier{tier}", link_id=-tier,
                drops=float(links - healthy)))
        for host in sorted(degraded):
            store.add(SyslogRecord(
                time_s=now, device=host, severity="warning",
                message=f"carrier: {degraded[host]} of "
                        f"{self._healthy_uplinks} uplinks healthy"))
        states = self.scheduler.job_states()
        counts: Dict[str, int] = {}
        for status in states.values():
            counts[status] = counts.get(status, 0) + 1
        in_use = self.scheduler.in_use_hosts()
        cap = self.scheduler.power_cap
        allowed = (cap.hosts_allowed(now) if cap is not None
                   else self.total_hosts)
        return {
            "kind": "cluster",
            "t_s": now,
            "hosts": {
                "total": self.total_hosts,
                "in_use": in_use,
                "free": self.allocator.free_hosts,
                "cordoned": len(self.allocator.cordoned_hosts),
                "degraded": len(degraded),
            },
            "tiers": tiers,
            "jobs": counts,
            "power": {
                "draw_mw": round(in_use * self.host_kw / 1000.0, 9),
                "cap_mw": round(allowed * self.host_kw / 1000.0, 9),
                "hosts_allowed": allowed,
            },
            "faults": {
                "injected": len(self.injector.log),
                "recoveries": len(self.pipeline.records),
            },
        }

    @property
    def _healthy_uplinks(self) -> int:
        # Dual-ToR: every host has rails x nic_ports uplinks.
        return self.params.gpus_per_host * self.params.nic_ports

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "t_s": self.sim.now,
            "census": self.pingmesh.census(),
            "cordoned": self.allocator.cordoned_hosts,
            "job_states": self.scheduler.job_states(),
            "in_use_hosts": self.scheduler.in_use_hosts(),
            "injector_log": [
                {"at_s": event.at_s, "action": event.action,
                 "target": event.target}
                for event in self.injector.log],
            "recoveries": [record.as_dict()
                           for record in self.pipeline.records],
            "power_cap": self._cap_params(),
        }

    def _cap_params(self) -> Optional[Dict[str, Any]]:
        cap = self.scheduler.power_cap
        if cap is None:
            return None
        return {"times_s": list(cap.times_s),
                "allowed": list(cap.allowed)}


class TwinSession:
    """One persistent datacenter; see the module docstring."""

    def __init__(self, config: TwinConfig,
                 session_id: str = "twin"):
        self.config = config
        self.session_id = session_id
        # Farm-style seeding choke: same entry discipline as
        # ``execute_spec`` so a session built live in a shard worker
        # and one rebuilt by replay start from identical streams.
        spec = TaskSpec(kind="twin-replay",
                        params={"config": config.to_params(),
                                "action_log": []})
        reset_flow_ids()
        import random
        random.seed(spec.seed_material)
        self.store = TelemetryStore()
        if config.kind == "cluster":
            self.stack = _ClusterStack(config)
        else:
            from .serving_day import ServingDayStack
            self.stack = ServingDayStack(config)
        self.t_s = 0.0
        self.action_log: List[Dict[str, Any]] = []
        self.snapshots: List[Dict[str, Any]] = []
        self._pending: List[Dict[str, Any]] = []

    # -- operator surface ------------------------------------------------
    def submit(self, action: Any) -> Dict[str, Any]:
        """Validate and queue one action for the next boundary."""
        normalized = normalize_action(action)
        self.stack.validate(normalized)
        self._pending.append(normalized)
        return normalized

    def advance(self, dt_s: float) -> Dict[str, Any]:
        """One boundary: apply queued actions, run ``dt_s`` of virtual
        time, cut and return a snapshot."""
        if not isinstance(dt_s, (int, float)) or not dt_s > 0:
            raise ActionError(f"advance dt_s must be positive, "
                              f"got {dt_s!r}")
        dt_s = float(dt_s)
        pending, self._pending = self._pending, []
        effects = [self.stack.apply(action) for action in pending]
        self.t_s += dt_s
        self.stack.advance_to(self.t_s)
        snapshot = self.stack.collect(self.store)
        snapshot["step"] = len(self.action_log)
        snapshot["applied"] = effects
        self.action_log.append({"dt_s": dt_s, "actions": pending})
        self.snapshots.append(snapshot)
        return snapshot

    # -- state ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The latest boundary snapshot (or a fresh cut at t=0)."""
        if self.snapshots:
            return self.snapshots[-1]
        snapshot = self.stack.collect(self.store)
        snapshot["step"] = -1
        snapshot["applied"] = []
        return snapshot

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_params(),
            "t_s": self.t_s,
            "action_log": self.action_log,
            "n_snapshots": len(self.snapshots),
            "last_snapshot": (self.snapshots[-1]
                              if self.snapshots else None),
            "stack": self.stack.fingerprint(),
        }

    def digest(self) -> str:
        return session_digest(self.fingerprint())

    def info(self) -> Dict[str, Any]:
        return {
            "id": self.session_id,
            "kind": self.config.kind,
            "scale": self.config.scale,
            "t_s": self.t_s,
            "steps": len(self.action_log),
            "pending_actions": len(self._pending),
            "n_snapshots": len(self.snapshots),
        }


def replay(config: TwinConfig,
           action_log: Sequence[Dict[str, Any]],
           session_id: str = "replay") -> TwinSession:
    """Rebuild a session from its config and action log.

    The result is bit-identical to the live session that produced the
    log — same digest, same snapshots — because live advancement *is*
    this code path."""
    session = TwinSession(config, session_id=session_id)
    for step in action_log:
        for action in step.get("actions", ()):
            session.submit(action)
        session.advance(step["dt_s"])
    return session
