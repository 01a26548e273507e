"""Serving-kind twin stack: a diurnal day you can walk through.

The serving pipeline (:mod:`repro.serving.run`) is a deterministic
batch computation over a whole day, so the twin wraps it differently
from the cluster kind: the day's report is computed once up front,
:meth:`advance_to` moves a bucket cursor through it, and snapshots
surface the per-bucket view (arrival rate, replicas, serving vs
training megawatts, day-level TTFT percentiles).  The one operator
action that makes sense here — ``set-power-cap`` — changes the
contract fraction and recomputes the day from the current scenario,
exactly what the capacity desk does when the contract is renegotiated
mid-day.
"""

from __future__ import annotations

from typing import Any, Dict

from ..monitoring.telemetry import IterationReport, TelemetryStore
from ..network.flows import reset_flow_ids
from .actions import ActionError
from .config import TwinConfig

__all__ = ["ServingDayStack"]


class ServingDayStack:
    """Protocol twin of ``_ClusterStack`` for ``kind="serving"``."""

    def __init__(self, config: TwinConfig):
        from ..serving import ServingScenario
        self.config = config
        self.scenario = ServingScenario.from_params(
            dict(config.scenario_params()))
        self.t_s = 0.0
        self.report: Dict[str, Any] = {}
        self._recompute()

    def _recompute(self) -> None:
        """Run the day.  Flow ids reset first so the computation is a
        pure function of the scenario — sessions sharing a worker
        process cannot skew each other's streams."""
        from ..serving import ServingRun
        reset_flow_ids()
        self.report = ServingRun(self.scenario).run().to_dict()

    # -- session protocol ------------------------------------------------
    def validate(self, action: Dict[str, Any]) -> None:
        if action["kind"] != "set-power-cap":
            raise ActionError(
                f"serving sessions accept only 'set-power-cap', "
                f"got {action['kind']!r}")
        if "frac" not in action:
            raise ActionError(
                "serving set-power-cap needs 'frac' (the contract "
                "fraction), not an explicit host schedule")

    def apply(self, action: Dict[str, Any]) -> Dict[str, Any]:
        self.validate(action)
        import dataclasses
        self.scenario = dataclasses.replace(
            self.scenario, power_cap_frac=action["frac"])
        self._recompute()
        return {"kind": "set-power-cap", "frac": action["frac"],
                "contract_mw": self.report["power"]["contract_mw"]}

    def advance_to(self, t: float) -> None:
        self.t_s = t

    def _bucket_index(self) -> int:
        buckets = self.report["autoscale"]["buckets"]
        bucket_s = float(self.report["trace"]["bucket_s"])
        if not buckets or bucket_s <= 0:
            return 0
        return min(int(self.t_s // bucket_s), len(buckets) - 1)

    def collect(self, store: TelemetryStore) -> Dict[str, Any]:
        index = self._bucket_index()
        bucket = self.report["autoscale"]["buckets"][index]
        power = self.report["power"]
        slo = self.report["slo"]
        store.add(IterationReport(
            time_s=self.t_s, job="serving-day", iteration=index,
            iteration_time_s=float(self.report["trace"]["bucket_s"]),
            completed=True))
        return {
            "kind": "serving",
            "t_s": self.t_s,
            "bucket": index,
            "rate_per_s": bucket["rate_per_s"],
            "replicas_per_pair": bucket["replicas_per_pair"],
            "serving_hosts": bucket["serving_hosts"],
            "train_hosts_allowed": bucket["train_hosts_allowed"],
            "power": {
                "serving_mw": power["serving_mw"][index],
                "training_mw": power["training_mw"][index],
                "total_mw": power["total_mw"][index],
                "contract_mw": power["contract_mw"],
            },
            "ttft": {
                "p50_s": slo["ttft_p50_s"],
                "p95_s": slo["ttft_p95_s"],
                "p99_s": slo["ttft_p99_s"],
                "slo_s": slo["slo_ttft_s"],
                "goodput_fraction": slo["goodput_fraction"],
            },
        }

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "t_s": self.t_s,
            "scenario": self.scenario.to_params(),
            "report": self.report,
        }
