"""Network element model shared by all topology builders.

The reproduction models a datacenter fabric as an explicit graph of
*devices* (hosts and switches) joined by *links*.  Every architectural
claim in the paper — pod scale, same-rail hop counts, oversubscription
ratios, dual-ToR redundancy — is a property of this graph, so the model
keeps exactly the attributes those claims depend on:

* devices carry their tier (host / ToR / Agg / Core) and their position
  (pod, block, rail, group, rank);
* links carry capacity and direction-of-climb (host→ToR→Agg→Core is "up");
* hosts carry GPUs and NICs, with each NIC bound to one GPU rail and
  exposing two ports (the paper's 2x200G dual-port NIC).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DeviceKind",
    "Device",
    "Host",
    "Switch",
    "Nic",
    "Gpu",
    "Link",
    "PortRef",
    "Topology",
    "TopologyError",
]


class TopologyError(ValueError):
    """Raised for structurally invalid topology operations."""


class DeviceKind(enum.Enum):
    HOST = "host"
    TOR = "tor"
    AGG = "agg"
    CORE = "core"
    DCI = "dci"  # cross-datacenter interconnect router (Appendix B)

    def __init__(self, value: str) -> None:
        #: Switching tier: hosts are tier 0, ToR 1, Agg 2, Core 3, DCI 4.
        #: A plain member attribute: topology builds read it per link.
        self.tier = ("host", "tor", "agg", "core", "dci").index(value)


@dataclass(frozen=True, slots=True)
class PortRef:
    """A (device, port index) endpoint of a link."""

    device: str
    port: int


@dataclass(slots=True)
class Gpu:
    """One GPU in a host; ``rail`` is its rank within the host (0..7)."""

    name: str
    host: str
    rail: int


@dataclass(slots=True)
class Nic:
    """A dual-port NIC dedicated to one GPU rail (paper §2.1 host side)."""

    name: str
    host: str
    rail: int
    ports: int = 2
    port_gbps: float = 200.0

    @property
    def total_gbps(self) -> float:
        return self.ports * self.port_gbps


@dataclass(slots=True)
class Device:
    """Base device record. Position attributes are None when inapplicable."""

    name: str
    kind: DeviceKind
    pod: Optional[int] = None
    block: Optional[int] = None
    rail: Optional[int] = None
    group: Optional[int] = None
    rank: Optional[int] = None
    datacenter: int = 0

    @property
    def tier(self) -> int:
        return self.kind.tier


@dataclass(slots=True)
class Host(Device):
    """A GPU server: 8 GPUs and 8 dual-port NICs by default."""

    gpus: List[Gpu] = field(default_factory=list)
    nics: List[Nic] = field(default_factory=list)

    def nic_for_rail(self, rail: int) -> Nic:
        for nic in self.nics:
            if nic.rail == rail:
                return nic
        raise TopologyError(f"host {self.name} has no NIC on rail {rail}")


@dataclass(slots=True)
class Switch(Device):
    """A switch with a total forwarding capacity (e.g. 51.2 Tbps ASICs)."""

    capacity_tbps: float = 51.2
    radix: int = 128


@dataclass(slots=True)
class Link:
    """A bidirectional link between two device ports.

    ``capacity_gbps`` is the per-direction capacity.  ``healthy`` supports
    the monitoring fault-injection campaigns (optical module damage, link
    flap, miswiring all toggle or rewire links).  Only
    :meth:`Topology.fail_link` and :meth:`Topology.restore_link` write
    it, so the topology's health counters stay exact.
    """

    link_id: int
    a: PortRef
    b: PortRef
    capacity_gbps: float
    healthy: bool = True

    def other(self, device: str) -> str:
        if device == self.a.device:
            return self.b.device
        if device == self.b.device:
            return self.a.device
        raise TopologyError(f"device {device} is not on link {self.link_id}")

    def endpoint(self, device: str) -> PortRef:
        if device == self.a.device:
            return self.a
        if device == self.b.device:
            return self.b
        raise TopologyError(f"device {device} is not on link {self.link_id}")


class Topology:
    """A fabric graph with tier-aware queries.

    Devices are indexed by name; links by integer id.  Adjacency maps each
    device to its incident links.  Builders in this package (Astral, CLOS,
    HPN, rail-only) all emit this structure, so the fabric simulator and
    the monitoring system are architecture-agnostic.

    Link health is indexed: :meth:`fail_link` and :meth:`restore_link`
    are the only writers of ``Link.healthy``, and they keep a healthy
    degree per device and total/healthy link counts per tier (a link's
    tier is the higher of its endpoints' tiers).  Health telemetry
    (:meth:`healthy_degree`, :meth:`tier_link_counts`) therefore reads
    counters instead of rescanning the links; the counters always equal
    a recount over :attr:`links`.
    """

    def __init__(self, name: str = "fabric"):
        self.name = name
        self.devices: Dict[str, Device] = {}
        self.links: Dict[int, Link] = {}
        self._adjacency: Dict[str, List[int]] = {}
        self._next_link_id = 0
        #: bumped on any structural or health change; routers use this to
        #: invalidate their cached reachability state.
        self.version = 0
        self._healthy_degree: Dict[str, int] = {}
        #: tier -> [total links, healthy links].
        self._tier_counts: Dict[int, List[int]] = {}

    # -- construction ----------------------------------------------------
    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise TopologyError(f"duplicate device name: {device.name}")
        self.devices[device.name] = device
        self._adjacency[device.name] = []
        self._healthy_degree[device.name] = 0
        self.version += 1
        return device

    def add_link(self, a: PortRef, b: PortRef, capacity_gbps: float) -> Link:
        device_a = self.devices.get(a.device)
        if device_a is None:
            raise TopologyError(f"unknown device in link: {a.device}")
        device_b = self.devices.get(b.device)
        if device_b is None:
            raise TopologyError(f"unknown device in link: {b.device}")
        if a.device == b.device:
            raise TopologyError(f"self-link on {a.device}")
        link_id = self._next_link_id
        self._next_link_id = link_id + 1
        link = Link(link_id, a, b, capacity_gbps)
        self.links[link_id] = link
        self._adjacency[a.device].append(link_id)
        self._adjacency[b.device].append(link_id)
        self._healthy_degree[a.device] += 1
        self._healthy_degree[b.device] += 1
        tier = max(device_a.kind.tier, device_b.kind.tier)
        counts = self._tier_counts.get(tier)
        if counts is None:
            self._tier_counts[tier] = [1, 1]
        else:
            counts[0] += 1
            counts[1] += 1
        self.version += 1
        return link

    # -- queries ---------------------------------------------------------
    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise TopologyError(f"unknown device: {name}") from None

    def links_of(self, device: str) -> List[Link]:
        return [self.links[lid] for lid in self._adjacency[device]]

    def neighbors(self, device: str, healthy_only: bool = True
                  ) -> Iterator[Tuple[Link, Device]]:
        for link in self.links_of(device):
            if healthy_only and not link.healthy:
                continue
            yield link, self.devices[link.other(device)]

    def hosts(self) -> List[Host]:
        return [d for d in self.devices.values() if isinstance(d, Host)]

    def switches(self, kind: Optional[DeviceKind] = None) -> List[Switch]:
        result = [d for d in self.devices.values() if isinstance(d, Switch)]
        if kind is not None:
            result = [s for s in result if s.kind is kind]
        return result

    def gpu_count(self) -> int:
        return sum(len(h.gpus) for h in self.hosts())

    def link_between(self, a: str, b: str) -> List[Link]:
        """All (parallel) links between two devices."""
        return [
            link for link in self.links_of(a)
            if link.other(a) == b
        ]

    def healthy_degree(self, device: str) -> int:
        """Healthy links incident to *device* (a host's live uplinks)."""
        return self._healthy_degree[device]

    def tier_link_counts(self) -> Dict[int, Tuple[int, int]]:
        """``{tier: (links, healthy links)}`` in tier order."""
        return {tier: (counts[0], counts[1])
                for tier, counts in sorted(self._tier_counts.items())}

    # -- health / fault hooks ---------------------------------------------
    def fail_link(self, link_id: int) -> None:
        """Take a link down; failing a failed link changes no count."""
        link = self.links[link_id]
        if link.healthy:
            link.healthy = False
            self._count_health(link, -1)
        self.version += 1

    def restore_link(self, link_id: int) -> None:
        """Bring a link up; restoring a healthy link changes no count."""
        link = self.links[link_id]
        if not link.healthy:
            link.healthy = True
            self._count_health(link, +1)
        self.version += 1

    def _count_health(self, link: Link, delta: int) -> None:
        a, b = link.a.device, link.b.device
        self._healthy_degree[a] += delta
        self._healthy_degree[b] += delta
        tier = max(self.devices[a].kind.tier, self.devices[b].kind.tier)
        self._tier_counts[tier][1] += delta

    def fail_device(self, device: str) -> List[int]:
        """Fail every healthy link of *device* (a dead switch, host or
        NIC takes all its ports down at once); returns the failed link
        ids so the caller can restore exactly what it broke."""
        failed = []
        for link in self.links_of(device):
            if link.healthy:
                self.fail_link(link.link_id)
                failed.append(link.link_id)
        return failed

    def restore_links(self, link_ids: Iterable[int]) -> None:
        for link_id in link_ids:
            self.restore_link(link_id)

    def attached_hosts(self, device: str) -> List[str]:
        """Hosts wired (healthy or not) to *device* — its potential
        blast radius at tier 1, the set operators cordon when the
        device is diagnosed as a fault's root cause."""
        names = []
        for link in self.links_of(device):
            other = self.devices[link.other(device)]
            if other.kind is DeviceKind.HOST:
                names.append(other.name)
        return sorted(set(names))

    def healthy_links(self) -> List[Link]:
        return [link for link in self.links.values() if link.healthy]

    # -- aggregate properties ---------------------------------------------
    def tier_bandwidth_gbps(self, lower: DeviceKind, upper: DeviceKind
                            ) -> float:
        """Total one-direction capacity between two adjacent tiers."""
        total = 0.0
        for link in self.links.values():
            kinds = {
                self.devices[link.a.device].kind,
                self.devices[link.b.device].kind,
            }
            if kinds == {lower, upper}:
                total += link.capacity_gbps
        return total

    def oversubscription(self, kind: DeviceKind) -> float:
        """Down-capacity / up-capacity ratio at a switching tier.

        1.0 means non-blocking; >1.0 means the tier is oversubscribed.
        The paper's P2 requires this to be 1.0 at every tier of Astral.
        """
        down = up = 0.0
        for switch in self.switches(kind):
            for link in self.links_of(switch.name):
                other = self.devices[link.other(switch.name)]
                if other.tier < switch.tier:
                    down += link.capacity_gbps
                elif other.tier > switch.tier:
                    up += link.capacity_gbps
        if up == 0.0:
            return float("inf") if down > 0 else 1.0
        return down / up
