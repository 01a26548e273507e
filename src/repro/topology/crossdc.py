"""Cross-datacenter extension of the Astral network (Appendix B).

To consolidate computing power, Astral connects multiple LLM
datacenters separated by hundreds of kilometers.  Long-distance fiber
is priced like GPUs (~70 $/km per fiber per month; ~250 K$ a year for
300 km in the paper's rental records), so the design question is the
trade-off between fiber-bandwidth oversubscription and training loss —
the Figure 13/18 studies.

:func:`build_cross_dc` stitches ``n_datacenters`` Astral fabrics
together through DCI (datacenter-interconnect) routers: each DC's DCI
routers attach to its Core tier, and DCI pairs are joined by long-haul
links whose capacity expresses the intra:cross oversubscription ratio.
:class:`FiberCostModel` prices the long-haul segment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from .astral import AstralParams, build_astral
from .elements import DeviceKind, Host, PortRef, Switch, Topology

__all__ = ["CrossDcParams", "build_cross_dc", "FiberCostModel"]


@dataclass(frozen=True)
class CrossDcParams:
    """Dimensions of a multi-datacenter Astral deployment."""

    datacenter_params: AstralParams = None  # per-DC fabric dimensions
    n_datacenters: int = 2
    dci_per_datacenter: int = 2
    #: long-haul fiber capacity per DCI pair, Gbps (one direction).
    fiber_gbps: float = 1600.0
    distance_km: float = 300.0

    def __post_init__(self):
        if self.datacenter_params is None:
            object.__setattr__(self, "datacenter_params",
                               AstralParams.tiny())

    @property
    def oversubscription(self) -> float:
        """Intra-DC core capacity vs long-haul capacity ratio."""
        params = self.datacenter_params
        intra = (params.pods * params.rails * params.tor_groups
                 * params.aggs_per_group * params.cores_per_group
                 * params.agg_core_gbps)
        cross = self.dci_per_datacenter * self.fiber_gbps
        return intra / cross if cross else float("inf")


def _copy_into(target: Topology, source: Topology, prefix: str) -> None:
    """Copy a fabric's devices and links under a name prefix."""
    renamed: Dict[str, str] = {}
    for device in source.devices.values():
        name = f"{prefix}{device.name}"
        changes = {"name": name}
        if isinstance(device, Host):
            for attr in ("gpus", "nics"):
                changes[attr] = [
                    replace(item, name=f"{prefix}{item.name}", host=name)
                    for item in getattr(device, attr)]
        renamed[device.name] = name
        target.add_device(replace(device, **changes))
    for link in source.links.values():
        target.add_link(
            PortRef(renamed[link.a.device], link.a.port),
            PortRef(renamed[link.b.device], link.b.port),
            link.capacity_gbps,
        )


def build_cross_dc(params: CrossDcParams | None = None) -> Topology:
    """Multiple Astral fabrics joined by DCI routers and long-haul links.

    Device names are prefixed with ``dc<i>.``; DCI routers are named
    ``dc<i>.dci<j>`` and carry :attr:`DeviceKind.DCI`.  Long-haul links
    form a full mesh between same-index DCI routers of different DCs.
    """
    params = params or CrossDcParams()
    if params.n_datacenters < 2:
        raise ValueError("cross-DC deployment needs at least two DCs")
    topo = Topology(name="astral-crossdc")

    dc_params = params.datacenter_params
    for dc in range(params.n_datacenters):
        fabric = build_astral(dc_params)
        for device in fabric.devices.values():
            device.datacenter = dc
        _copy_into(topo, fabric, f"dc{dc}.")

    # DCI routers: each attaches to one core per core group of its DC.
    cores_by_dc: Dict[int, List[str]] = {}
    for device in topo.devices.values():
        if device.kind is DeviceKind.CORE:
            cores_by_dc.setdefault(device.datacenter, []).append(
                device.name)
    for names in cores_by_dc.values():
        names.sort()

    downlink_gbps = params.fiber_gbps  # non-blocking inside the DC edge
    for dc in range(params.n_datacenters):
        for index in range(params.dci_per_datacenter):
            dci = Switch(name=f"dc{dc}.dci{index}", kind=DeviceKind.DCI,
                         datacenter=dc, rank=index)
            topo.add_device(dci)
            cores = cores_by_dc[dc]
            attach = cores[index::params.dci_per_datacenter]
            if not attach:
                attach = cores
            per_core = downlink_gbps / len(attach)
            for port, core in enumerate(attach):
                topo.add_link(PortRef(dci.name, port),
                              PortRef(core, 50_000 + index), per_core)

    # Long-haul mesh between same-index DCIs of different DCs.
    for index in range(params.dci_per_datacenter):
        for dc_a in range(params.n_datacenters):
            for dc_b in range(dc_a + 1, params.n_datacenters):
                topo.add_link(
                    PortRef(f"dc{dc_a}.dci{index}", 40_000 + dc_b),
                    PortRef(f"dc{dc_b}.dci{index}", 40_000 + dc_a),
                    params.fiber_gbps
                    / max(1, params.n_datacenters - 1),
                )
    return topo


@dataclass(frozen=True)
class FiberCostModel:
    """Long-distance fiber rental economics (Appendix B).

    Paper's records: ~70 $/km per fiber each month; 300 km came to
    ~250 K$ per year — comparable to GPUs, which is why the
    oversubscription trade-off matters at all.
    """

    usd_per_km_month: float = 70.0

    def monthly_cost_usd(self, distance_km: float,
                         fibers: int = 1) -> float:
        if distance_km < 0 or fibers < 0:
            raise ValueError("distance and fiber count must be >= 0")
        return self.usd_per_km_month * distance_km * fibers

    def yearly_cost_usd(self, distance_km: float,
                        fibers: int = 1) -> float:
        return 12.0 * self.monthly_cost_usd(distance_km, fibers)

    def fibers_for_bandwidth(self, required_gbps: float,
                             gbps_per_fiber: float = 400.0) -> int:
        if required_gbps <= 0:
            return 0
        if gbps_per_fiber <= 0:
            raise ValueError("fiber capacity must be positive")
        import math
        return math.ceil(required_gbps / gbps_per_fiber)
