"""Fault-injection campaigns with localization scoring.

The paper's Figure 10 summarizes one year of production faults.  A
:class:`FaultCampaign` compresses that year: it samples faults from the
Figure-7 taxonomy, runs a monitored training job per fault on a fresh
fabric, diagnoses each from telemetry alone, *scores* the diagnosis
against the injected ground truth, and rolls localization times into an
MTTLF report — giving both the Figure-10 series and a localization
accuracy the paper's narrative claims but does not plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..network.collectives import Endpoint, ring_allreduce_flows
from ..network.fabric import Fabric
from ..network.flows import reset_flow_ids
from ..topology.astral import AstralParams, build_astral
from ..topology.elements import DeviceKind
from .analyzer.hierarchical import Diagnosis, HierarchicalAnalyzer
from .faults import (
    FaultSpec,
    Manifestation,
    RootCause,
    sample_faults,
)
from .jobsim import JobConfig, JobResult, MonitoredTrainingJob
from .mttlf import MttlfModel, MttlfReport

__all__ = ["CampaignRecord", "CampaignResult", "FaultCampaign"]

#: root causes whose diagnosis matches on the cause *label* rather than
#: a specific device (job-wide software problems).
_JOB_SCOPED = {RootCause.USER_CODE}


@dataclass
class CampaignRecord:
    """One injected fault and how the analyzer handled it."""

    fault: FaultSpec
    result: JobResult
    diagnosis: Diagnosis
    #: endpoint device names of the faulted link (for link faults).
    link_endpoints: tuple = ()

    @property
    def manifestation_detected(self) -> bool:
        return self.diagnosis.manifestation is self.fault.manifestation

    @property
    def localized_correctly(self) -> bool:
        """Did the drill-down land on the injected root cause?"""
        fault = self.fault
        diagnosis = self.diagnosis
        if fault.cause in _JOB_SCOPED:
            return diagnosis.inferred_cause == fault.cause.value
        cause_ok = diagnosis.inferred_cause == fault.cause.value
        if fault.cause is RootCause.CCL_BUG:
            # Library bugs have no per-device root; naming the hung
            # host among the abnormal set is the correct outcome
            # (the fix is an offline reproduction, §3.3).
            return cause_ok and (
                diagnosis.root_cause_device == fault.target
                or fault.target in diagnosis.abnormal_hosts)
        if fault.profile.target_kind == "link":
            # Blaming the link itself or either endpoint counts.
            acceptable = {fault.target, *self.link_endpoints}
            return cause_ok \
                and diagnosis.root_cause_device in acceptable
        return cause_ok \
            and diagnosis.root_cause_device == fault.target


@dataclass
class CampaignResult:
    """Aggregate of a whole campaign."""

    records: List[CampaignRecord] = field(default_factory=list)
    mttlf: MttlfReport = field(default_factory=MttlfReport)

    @property
    def n_faults(self) -> int:
        return len(self.records)

    @property
    def detection_rate(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.manifestation_detected for r in self.records) \
            / len(self.records)

    @property
    def localization_accuracy(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.localized_correctly for r in self.records) \
            / len(self.records)

    def by_manifestation(self) -> Dict[Manifestation, List[
            CampaignRecord]]:
        buckets: Dict[Manifestation, List[CampaignRecord]] = {}
        for record in self.records:
            buckets.setdefault(record.fault.manifestation,
                               []).append(record)
        return buckets


class FaultCampaign:
    """Run sampled faults through monitored jobs and score diagnoses."""

    def __init__(self, params: Optional[AstralParams] = None,
                 job_hosts: int = 6, iterations: int = 5,
                 mttlf_cluster_hosts: int = 64, seed: int = 0):
        self.params = params or AstralParams.small()
        self.job_hosts = job_hosts
        self.iterations = iterations
        self.seed = seed
        self.mttlf_model = MttlfModel(n_hosts=mttlf_cluster_hosts,
                                      jitter_frac=0.10, seed=seed)

    # -- target pools -----------------------------------------------------
    def _job_context(self):
        """Fresh fabric + job host list + fault target pools."""
        reset_flow_ids()
        topology = build_astral(self.params)
        fabric = Fabric(topology,
                        host_line_rate_gbps=self.params.nic_port_gbps)
        # Interleave blocks so the ring has cross-block (ToR-Agg-ToR)
        # legs — otherwise no fabric link is ever on a job path.
        ordered = sorted(topology.hosts(),
                         key=lambda h: (h.rank, h.pod, h.block))
        hosts = [h.name for h in ordered][:self.job_hosts]
        flows = ring_allreduce_flows(
            [Endpoint(h, 0) for h in hosts], 8e9)
        switch_pool: List[str] = []
        link_pool: List[int] = []
        for flow in flows:
            path = fabric.router.path(flow)
            for device in path.devices[1:-1]:
                if topology.devices[device].kind in (DeviceKind.TOR,
                                                     DeviceKind.AGG):
                    switch_pool.append(device)
            for index, link_id in enumerate(path.link_ids):
                # Only switch-to-switch segments can "fail" as fabric
                # links; host links are NIC territory.
                if 0 < index < len(path.link_ids) - 1:
                    link_pool.append(link_id)
        reset_flow_ids()
        if not link_pool:
            link_pool = [path.link_ids[0]]
        return fabric, hosts, sorted(set(switch_pool)), \
            sorted(set(link_pool))

    # -- farm fan-out --------------------------------------------------------
    @staticmethod
    def farm_sweep(seeds, n_faults: int = 5, job_hosts: int = 6,
                   iterations: int = 5, workers: int = 1,
                   use_cache: bool = False,
                   cache_dir: Optional[str] = None
                   ) -> List[Dict[str, object]]:
        """Run one scored campaign per seed across farm workers.

        Each seed becomes a ``monitoring-campaign``
        :class:`~repro.farm.spec.TaskSpec`; results are summary dicts
        (detection rate, localization accuracy, per-record scoring) in
        seed order.  Parallel output is bit-identical to serial — the
        campaign threads every draw through its explicit seed.
        """
        from ..farm import ResultCache, run_sweep, seed_specs
        specs = seed_specs(
            "monitoring-campaign",
            base={"n_faults": n_faults, "job_hosts": job_hosts,
                  "iterations": iterations},
            seeds=list(seeds))
        cache = ResultCache(root=cache_dir) if cache_dir else None
        sweep = run_sweep(specs, workers=workers,
                          use_cache=use_cache, cache=cache)
        failed = [result for result in sweep.results if not result.ok]
        if failed:
            raise RuntimeError(
                f"monitoring campaigns failed: "
                f"{[r.spec.params['seed'] for r in failed]}; first "
                f"error: {failed[0].error}")
        return [result.result for result in sweep.results]

    # -- campaign ------------------------------------------------------------
    def run(self, n_faults: int) -> CampaignResult:
        result = CampaignResult()
        rng = random.Random(self.seed)
        for index in range(n_faults):
            fabric, hosts, switches, links = self._job_context()
            fault = sample_faults(
                1, seed=rng.randrange(1 << 30), hosts=hosts,
                switches=switches, link_ids=links,
                iterations=self.iterations)[0]
            config = JobConfig(hosts=tuple(hosts),
                               iterations=self.iterations,
                               seed=self.seed + index)
            job_result = MonitoredTrainingJob(fabric, config,
                                              fault=fault).run()
            analyzer = HierarchicalAnalyzer(
                job_result.store,
                expected_compute_s=job_result.expected_compute_s,
                expected_comm_s=job_result.expected_comm_s,
                nic_port_gbps=self.params.nic_port_gbps)
            diagnosis = analyzer.diagnose(config.name)
            link_endpoints = ()
            if fault.profile.target_kind == "link":
                link = fabric.topology.links[
                    int(fault.target.split(":", 1)[1])]
                link_endpoints = (link.a.device, link.b.device)
            result.records.append(CampaignRecord(
                fault=fault, result=job_result, diagnosis=diagnosis,
                link_endpoints=link_endpoints))
            result.mttlf.samples.append(self.mttlf_model.sample(
                fault.manifestation, diagnosis))
        return result
