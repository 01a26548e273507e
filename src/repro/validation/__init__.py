"""Differential & property-based correctness harness for the stack.

The repo computes the same physics three ways — the event-driven
:class:`~repro.network.engine.FabricEngine`, the epoch-global
``Fabric.complete_batch`` loop, and the packet-granular
``packetsim`` — plus analytic collective models.  This package
cross-checks them systematically:

* :mod:`~repro.validation.scenarios` — seeded random-but-valid
  topologies, workloads, and fault schedules;
* :mod:`~repro.validation.oracles` — invariants any run must satisfy
  (rate feasibility, work conservation, max-min KKT, byte
  conservation, clock monotonicity, bit-identical replay);
* :mod:`~repro.validation.differential` — two models, one scenario
  (engine vs batch, max-min kernel vs reference, flow-mapped vs
  analytic, fluid vs packet);
* :mod:`~repro.validation.metamorphic` — transform the input,
  predict the output (rate scaling, idle job, unused link, component
  isolation);
* :mod:`~repro.validation.runner` — the ``repro validate`` campaign.
"""

from .differential import (
    check_engine_vs_batch,
    check_fluid_vs_packet,
    check_kernel_reference,
    check_ring_vs_analytic,
    check_rs_ag_composition,
    ring_busbw_gbps,
)
from .metamorphic import (
    check_component_isolation,
    check_idle_job_noop,
    check_rate_scaling,
    check_unused_link_noop,
)
from .oracles import (
    TracingSimulator,
    Violation,
    check_clock_monotonic,
    check_incidence_solution,
    check_max_min_bottleneck,
    check_rate_feasibility,
    check_same_result,
    check_solution,
    check_work_conservation,
    link_usage,
    replay_conservation,
)
from .runner import CampaignReport, CaseReport, run_campaign, run_case
from .scenarios import (
    FAMILIES,
    PROFILES,
    FaultAction,
    FlowSpec,
    ScenarioGenerator,
    ScenarioSpec,
    build_flows,
    build_topology,
)

__all__ = [
    "FAMILIES",
    "PROFILES",
    "CampaignReport",
    "CaseReport",
    "FaultAction",
    "FlowSpec",
    "ScenarioGenerator",
    "ScenarioSpec",
    "TracingSimulator",
    "Violation",
    "build_flows",
    "build_topology",
    "check_clock_monotonic",
    "check_component_isolation",
    "check_engine_vs_batch",
    "check_fluid_vs_packet",
    "check_idle_job_noop",
    "check_incidence_solution",
    "check_kernel_reference",
    "check_max_min_bottleneck",
    "check_rate_feasibility",
    "check_rate_scaling",
    "check_ring_vs_analytic",
    "check_rs_ag_composition",
    "check_same_result",
    "check_solution",
    "check_unused_link_noop",
    "check_work_conservation",
    "link_usage",
    "replay_conservation",
    "ring_busbw_gbps",
    "run_campaign",
    "run_case",
]
