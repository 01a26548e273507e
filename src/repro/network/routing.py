"""Per-hop ECMP routing over a topology graph.

Routing is destination-based up-down shortest path, as in production
datacenter fabrics: every device holds a set of equal-cost next hops
toward each destination, and the switch hashes the flow's five-tuple to
pick one.  All switches share one hash function (operational reality in
Astral's fleet), which is what makes *hash polarization* emerge on
multi-hop paths — the phenomenon principles P1/P2 are designed to limit
and the optimized ECMP controller corrects.

Implementation notes:

* Next-hop sets come from a BFS from the destination over healthy links.
  Hosts never transit traffic, so BFS does not expand through them.
* Rail binding: on rail-aware fabrics the first hop must use the flow's
  source rail and the last hop the destination rail.  The BFS is seeded
  only through destination links whose ToR matches the destination rail,
  and the source host filters its candidate links by source rail.
* One flood serves every destination with the same *seed set*: the
  healthy, rail-matching neighbours the BFS starts from.  On a
  rail-optimised fabric every same-rail NIC of a block hangs off the
  same ToRs, so a block's hosts share one flood.  The flood is a
  multi-source BFS from the seed set at distance 0; a host
  destination's map is that flood shifted by +1 with the destination
  pinned at 0.  Hosts are never expanded, so pre-marking the
  destination changes no other label and the ECMP choices are the
  same as a per-destination BFS.  A non-host destination (scenarios
  may name a switch) must not transit either, so it joins the flood's
  key and is marked non-transit.
* Floods are memoized per (seed set, non-host destination), distance
  maps per (destination, rail); both are dropped whenever the
  topology's version counter changes (link failures, rewiring).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..topology.elements import Device, DeviceKind, Link, Topology
from .ecmp import EcmpHasher
from .flows import Flow, FlowPath

__all__ = ["EcmpRouter", "RoutingError", "PartitionError"]


class RoutingError(RuntimeError):
    """Raised when no route exists for a flow."""


class PartitionError(RoutingError):
    """No surviving path: the source is cut off from the destination.

    Unlike a plain :class:`RoutingError` (which can also mean a
    rail-binding dead end on an otherwise connected fabric), a
    partition is structural — every path is severed by failed links.
    ``cut`` names the failed link ids on the frontier of the source's
    connected component, i.e. the cut set whose repair would reconnect
    the flow.
    """

    def __init__(self, src: str, dst: str, rail: Optional[int],
                 cut: Tuple[int, ...], flow_id: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.rail = rail
        self.cut = tuple(sorted(cut))
        self.flow_id = flow_id
        super().__init__(
            f"{dst} partitioned from {src}"
            + (f" on rail {rail}" if rail is not None else "")
            + (f" (flow {flow_id})" if flow_id is not None else "")
            + f"; cut links: {list(self.cut)}")


def _rail_of(device: Device) -> Optional[int]:
    return device.rail


class EcmpRouter:
    """Destination-based ECMP router with per-hop hashing."""

    def __init__(self, topology: Topology,
                 hasher: Optional[EcmpHasher] = None):
        self.topology = topology
        self.hasher = hasher or EcmpHasher()
        self._dist_cache: Dict[Tuple[str, Optional[int]],
                               Dict[str, int]] = {}
        self._flood_cache: Dict[Tuple[Tuple[str, ...], Optional[str]],
                                Dict[str, int]] = {}
        self._cache_version = topology.version

    # -- distance maps -----------------------------------------------------
    def _invalidate_if_stale(self) -> None:
        if self._cache_version != self.topology.version:
            self._dist_cache.clear()
            self._flood_cache.clear()
            self._cache_version = self.topology.version

    def distances_to(self, dst_host: str, dst_rail: Optional[int]
                     ) -> Dict[str, int]:
        """Hop counts from every device to *dst_host* via *dst_rail*."""
        self._invalidate_if_stale()
        key = (dst_host, dst_rail)
        cached = self._dist_cache.get(key)
        if cached is not None:
            return cached

        topo = self.topology
        # Seed only through the destination's rail-matching ToR links.
        seeds = set()
        for link, neighbor in topo.neighbors(dst_host):
            neighbor_rail = _rail_of(neighbor)
            if (dst_rail is not None and neighbor_rail is not None
                    and neighbor_rail != dst_rail):
                continue
            seeds.add(neighbor.name)
        # Hosts never transit traffic; any other destination must be
        # kept from transiting explicitly, so it joins the flood's key.
        blocked = None if topo.devices[dst_host].kind is DeviceKind.HOST \
            else dst_host
        flood_key = (tuple(sorted(seeds)), blocked)
        flood = self._flood_cache.get(flood_key)
        if flood is None:
            # Multi-source BFS from the seed set at distance 0.
            flood = dict.fromkeys(flood_key[0], 0)
            frontier: deque[str] = deque(flood)
            while frontier:
                current = frontier.popleft()
                if (current == blocked
                        or topo.devices[current].kind is DeviceKind.HOST):
                    continue
                next_hops = flood[current] + 1
                for link, neighbor in topo.neighbors(current):
                    if neighbor.name not in flood:
                        flood[neighbor.name] = next_hops
                        frontier.append(neighbor.name)
            self._flood_cache[flood_key] = flood
        # Shift by one hop and pin the destination: exact, because the
        # destination is never expanded in either flood.
        dist = {name: hops + 1 for name, hops in flood.items()}
        dist[dst_host] = 0
        self._dist_cache[key] = dist
        return dist

    # -- next hops and path walks -------------------------------------------
    def next_hop_links(self, device: str, flow: Flow) -> List[Link]:
        """Equal-cost candidate links from *device* toward the flow's dst.

        At the source host the candidate set is restricted to the flow's
        source rail and the equal-cost criterion is "minimal distance
        among rail-matching neighbours" — the cached distance map is
        rail-agnostic at the source, so a plain ``dist - 1`` descent
        would wrongly assume the host may inject on any rail.
        """
        topo = self.topology
        dst_rail = self._dst_rail(flow)
        dist = self.distances_to(flow.dst_host, dst_rail)

        if device == flow.src_host:
            rail_neighbors = []
            for link, neighbor in topo.neighbors(device):
                neighbor_rail = _rail_of(neighbor)
                if neighbor_rail is not None and neighbor_rail != flow.rail:
                    continue
                neighbor_dist = dist.get(neighbor.name)
                if neighbor_dist is not None:
                    rail_neighbors.append((neighbor_dist, link))
            if not rail_neighbors:
                return []
            best = min(d for d, _ in rail_neighbors)
            candidates = [link for d, link in rail_neighbors if d == best]
            candidates.sort(key=lambda link: link.link_id)
            return candidates

        here = dist.get(device)
        if here is None:
            return []
        candidates = []
        for link, neighbor in topo.neighbors(device):
            if dist.get(neighbor.name, float("inf")) == here - 1:
                candidates.append(link)
        candidates.sort(key=lambda link: link.link_id)
        return candidates

    def partition_cut(self, src: str, dst: str,
                      src_rail: Optional[int] = None
                      ) -> Optional[Tuple[int, ...]]:
        """The failed-link cut isolating *src* from *dst*, if any.

        Links are undirected, so the devices that can reach *src* are
        the keys of its distance map (hosts do not transit; the first
        hop honours *src_rail* when given, mirroring the router's rail
        binding).  Returns None when *dst* is among them, else the
        sorted ids of unhealthy links on that component's frontier —
        the cut whose repair would reconnect the pair.
        """
        reached = self.distances_to(src, src_rail)
        if dst in reached:
            return None
        cut = {
            link.link_id
            for device in reached
            for link in self.topology.links_of(device)
            if not link.healthy
        }
        return tuple(sorted(cut))

    def _no_route(self, device: str, flow: Flow) -> RoutingError:
        """Classify a routing dead end: partition vs rail dead end."""
        cut = self.partition_cut(flow.src_host, flow.dst_host,
                                 src_rail=flow.rail)
        if cut is not None:
            return PartitionError(flow.src_host, flow.dst_host,
                                  flow.rail, cut, flow_id=flow.flow_id)
        return RoutingError(
            f"no route from {device} to {flow.dst_host} "
            f"(flow {flow.flow_id}, rail {flow.rail})")

    def path(self, flow: Flow, max_hops: int = 16) -> FlowPath:
        """Walk the flow hop by hop, hashing at each device.

        Raises :class:`PartitionError` when the destination is cut off
        entirely, :class:`RoutingError` for any other dead end.
        """
        device = flow.src_host
        route = FlowPath(flow_id=flow.flow_id, devices=[device])
        for _ in range(max_hops):
            if device == flow.dst_host:
                return route
            candidates = self.next_hop_links(device, flow)
            if not candidates:
                raise self._no_route(device, flow)
            index = self.hasher.select(flow.five_tuple, len(candidates),
                                       salt=device)
            link = candidates[index]
            device = link.other(device)
            route.devices.append(device)
            route.link_ids.append(link.link_id)
        raise RoutingError(
            f"path exceeded {max_hops} hops for flow {flow.flow_id}")

    def reachable(self, flow: Flow) -> bool:
        if flow.src_host == flow.dst_host:
            return True
        return bool(self.next_hop_links(flow.src_host, flow))

    def min_hops(self, flow: Flow) -> int:
        """Shortest hop count for the flow (link count, not switches)."""
        if flow.src_host == flow.dst_host:
            return 0
        dist = self.distances_to(flow.dst_host, self._dst_rail(flow))
        candidates = self.next_hop_links(flow.src_host, flow)
        if not candidates:
            raise RoutingError(
                f"{flow.dst_host} unreachable from {flow.src_host} "
                f"on rail {flow.rail}")
        first = candidates[0]
        return dist[first.other(flow.src_host)] + 1

    @staticmethod
    def _dst_rail(flow: Flow) -> Optional[int]:
        # The destination NIC rail is encoded in the five-tuple dst ip
        # ("<host>.nic<rail>"), written by flows.make_flow.
        dst_ip = flow.five_tuple.dst_ip
        marker = ".nic"
        if marker in dst_ip:
            try:
                return int(dst_ip.rsplit(marker, 1)[1])
            except ValueError:
                return None
        return None
