"""KV-transfer / training-collective co-simulation on one fabric clock.

Disaggregated serving ships each request's KV cache from its prefill
host to its decode replica; on an Astral pod pair that transfer crosses
the Agg/Core tiers the training tenants' cross-pod collectives also
climb.  This module puts both on one :class:`~repro.network.engine.
FabricEngine` — the training loop as a simcore process issuing ring
all-reduce flows each iteration, the KV transfers as individually
timed flows released at their prefill-completion instants — and
measures the contention both ways:

* per-transfer KV times (they stretch when a collective saturates the
  uplinks: serving tail latency inherits training's bursts);
* per-iteration training times against a *clean* baseline run without
  serving traffic (training efficiency lost to the KV stream).

Both passes reset flow ids and share nothing mutable, so a zero-KV
co-simulation is bit-identical to its baseline — the validation
harness's no-op oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..network.collectives import CollectiveConfig, Endpoint, \
    ring_allreduce_flows
from ..network.engine import FabricEngine
from ..network.fabric import Fabric
from ..network.flows import make_flow, reset_flow_ids
from ..simcore.engine import Simulator
from .pools import SlicePlacement

__all__ = ["CosimConfig", "CosimResult", "KvCosim"]


@dataclass(frozen=True)
class CosimConfig:
    """Shape of the co-simulated traffic."""

    iterations: int = 6
    compute_time_s: float = 0.05
    comm_size_bits: float = 2e9     # training all-reduce per iteration
    kv_bits: float = 8e9            # one request's KV cache (~1 GB)
    max_kv_flows: int = 64
    #: horizon the KV admission pattern is replayed into.  The pool sim
    #: models ONE decode replica; the pair's prefill pool feeds every
    #: replica at once, so inter-arrival gaps compress by the replica
    #: count — rebasing the pattern onto this window reproduces that
    #: density against the training iterations (which span seconds, not
    #: the half-hour trace bucket).
    kv_window_s: float = 2.0
    rail: int = 0


@dataclass
class CosimResult:
    """Contended vs. clean timings from one pod-pair co-simulation."""

    kv_transfer_s: List[float]      # sorted ascending
    iteration_s: List[float]        # contended training iterations
    clean_iteration_s: List[float]  # serving-free baseline
    n_kv_flows: int

    @property
    def training_efficiency(self) -> float:
        """Clean/contended mean iteration time (1.0 = no interference)."""
        if not self.iteration_s:
            return 1.0
        contended = sum(self.iteration_s) / len(self.iteration_s)
        clean = sum(self.clean_iteration_s) / len(self.clean_iteration_s)
        return clean / contended if contended > 0 else 1.0

    def to_dict(self) -> Dict:
        return {
            "n_kv_flows": self.n_kv_flows,
            "kv_transfer_s": [round(t, 9) for t in self.kv_transfer_s],
            "iteration_s": [round(t, 9) for t in self.iteration_s],
            "clean_iteration_s": [round(t, 9)
                                  for t in self.clean_iteration_s],
            "training_efficiency": round(self.training_efficiency, 9),
        }


class KvCosim:
    """Run the contended pass and the clean baseline on a slice pair."""

    def __init__(self, placement: SlicePlacement,
                 config: Optional[CosimConfig] = None,
                 kv_starts_s: Sequence[float] = ()):
        self.placement = placement
        self.config = config or CosimConfig()
        self.kv_starts_s = self._rebase(
            sorted(kv_starts_s)[:self.config.max_kv_flows])

    def _rebase(self, starts: List[float]) -> List[float]:
        """Replay the admission pattern inside ``kv_window_s``.

        Relative spacing is preserved; only the overall span is scaled
        (see :attr:`CosimConfig.kv_window_s`).  Zero or one transfer
        needs no rebasing beyond shifting to t=0.
        """
        if not starts:
            return []
        first, last = starts[0], starts[-1]
        span = last - first
        if span <= 0.0:
            return [0.0 for _ in starts]
        scale = self.config.kv_window_s / span
        return [(t - first) * scale for t in starts]

    def run(self) -> CosimResult:
        kv_times, iteration_s = self._pass(with_kv=True)
        _, clean_iteration_s = self._pass(with_kv=False)
        return CosimResult(
            kv_transfer_s=sorted(kv_times),
            iteration_s=iteration_s,
            clean_iteration_s=clean_iteration_s,
            n_kv_flows=len(self.kv_starts_s),
        )

    # -- one engine pass -------------------------------------------------
    def _pass(self, with_kv: bool):
        cfg = self.config
        place = self.placement
        reset_flow_ids()
        sim = Simulator()
        fabric = Fabric(place.topology)
        engine = FabricEngine(fabric, sim)

        kv_times: List[float] = []
        iteration_ends: List[float] = []

        def kv_watch(flow, start):
            done = engine.submit(flow, start_time_s=start)
            yield done
            kv_times.append(sim.now - start)

        if with_kv and place.prefill_hosts and place.decode_hosts:
            for k, start in enumerate(self.kv_starts_s):
                src = place.prefill_hosts[k % len(place.prefill_hosts)]
                dst = place.decode_hosts[k % len(place.decode_hosts)]
                flow = make_flow(src, dst, cfg.rail, cfg.kv_bits,
                                 job="serving", collective="kv")
                sim.process(kv_watch(flow, start), name=f"kv:{k}")

        endpoints = [Endpoint(host, cfg.rail)
                     for host in place.train_hosts]
        if len(endpoints) >= 2 and cfg.iterations > 0:
            sim.process(
                self._training(sim, engine, endpoints, iteration_ends),
                name="train")
        sim.run()

        starts = [0.0] + iteration_ends[:-1]
        iterations = [end - start
                      for start, end in zip(starts, iteration_ends)]
        return kv_times, iterations

    def _training(self, sim, engine, endpoints, iteration_ends):
        cfg = self.config
        for _ in range(cfg.iterations):
            yield sim.timeout(cfg.compute_time_s)
            flows = ring_allreduce_flows(
                endpoints, cfg.comm_size_bits,
                CollectiveConfig(job="train"))
            yield engine.submit_many(flows)
            iteration_ends.append(sim.now)
