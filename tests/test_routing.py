"""Tests for ECMP routing over the fabric graphs."""

from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import EcmpRouter, RoutingError, make_flow, reset_flow_ids
from repro.network.routing import PartitionError
from repro.topology import (
    AstralParams,
    DeviceKind,
    Topology,
    build_astral,
    build_clos,
    build_full_interconnect_tier2,
    build_rail_only,
    ClosParams,
)


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


@pytest.fixture(scope="module")
def astral_small():
    return build_astral(AstralParams.small())


@pytest.fixture()
def router(astral_small):
    return EcmpRouter(astral_small)


def _host(pod, block, host):
    return f"p{pod}.b{block}.h{host}"


class TestAstralPathShapes:
    def test_same_block_same_rail_one_switch(self, router):
        """Intra-block same-rail: host -> ToR -> host (1 switch hop)."""
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        assert path.switch_hops == 1
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert kinds == [DeviceKind.HOST, DeviceKind.TOR, DeviceKind.HOST]

    def test_cross_block_same_rail_stays_below_core(self, router):
        """Same-rail cross-block: ToR -> Agg -> ToR, never Core (P1)."""
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=1,
                         size_bits=8e9)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE not in kinds
        assert kinds == [DeviceKind.HOST, DeviceKind.TOR, DeviceKind.AGG,
                         DeviceKind.TOR, DeviceKind.HOST]

    def test_cross_pod_traverses_core(self, router):
        flow = make_flow(_host(0, 0, 0), _host(1, 0, 0), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE in kinds
        assert path.switch_hops == 5  # ToR-Agg-Core-Agg-ToR

    def test_cross_rail_same_block_traverses_core(self, router):
        """Without PXN, cross-rail traffic must climb to the Core tier."""
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9, dst_rail=2)
        path = router.path(flow)
        kinds = [router.topology.devices[d].kind for d in path.devices]
        assert DeviceKind.CORE in kinds

    def test_path_respects_source_rail(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=3,
                         size_bits=8e9)
        path = router.path(flow)
        first_tor = router.topology.devices[path.devices[1]]
        assert first_tor.rail == 3

    def test_path_respects_destination_rail(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=2,
                         size_bits=8e9)
        path = router.path(flow)
        last_tor = router.topology.devices[path.devices[-2]]
        assert last_tor.rail == 2

    def test_path_never_transits_hosts(self, router):
        flow = make_flow(_host(0, 0, 0), _host(1, 1, 3), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        for name in path.devices[1:-1]:
            assert router.topology.devices[name].kind is not DeviceKind.HOST

    def test_deterministic_paths(self, router):
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        assert router.path(flow).devices == router.path(flow).devices

    def test_different_src_ports_spread_paths(self, router):
        """ECMP: varying the source port changes the chosen Agg."""
        aggs = set()
        for port in range(49152, 49152 + 64):
            flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                             size_bits=8e9, src_port=port)
            path = router.path(flow)
            aggs.add(path.devices[2])
        assert len(aggs) > 1


class TestFailureRerouting:
    def test_reroutes_around_failed_tor_uplink(self):
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9)
        path = router.path(flow)
        # Fail the first ToR->Agg link on the path.
        failed = path.link_ids[1]
        topo.fail_link(failed)
        new_path = router.path(flow)
        assert failed not in new_path.link_ids

    def test_dual_tor_survives_tor_isolation(self):
        """P3: with one ToR's host links all failed, the other carries."""
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        tor0 = "p0.b0.r0.g0.tor"
        for link in topo.links_of(tor0):
            topo.fail_link(link.link_id)
        path = router.path(flow)
        assert tor0 not in path.devices

    def test_unreachable_raises(self):
        topo = build_astral(AstralParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow(_host(0, 0, 0), _host(0, 0, 1), rail=0,
                         size_bits=8e9)
        # Sever the destination host from rail 0 completely.
        dst = _host(0, 0, 1)
        for link in topo.links_of(dst):
            other = topo.devices[link.other(dst)]
            if other.rail == 0:
                topo.fail_link(link.link_id)
        with pytest.raises(RoutingError):
            router.path(flow)

    def test_min_hops_unreachable_raises(self):
        topo = build_rail_only(AstralParams.tiny())
        router = EcmpRouter(topo)
        # Cross-rail flow on a rail-only fabric has no route at all.
        flow = make_flow(_host(0, 0, 0), _host(0, 1, 0), rail=0,
                         size_bits=8e9, dst_rail=1)
        assert not router.reachable(flow)
        with pytest.raises(RoutingError):
            router.min_hops(flow)


class TestClosRouting:
    def test_any_pair_routes(self):
        topo = build_clos(ClosParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow("p0.b0.h0", "p1.b1.h1", rail=0, size_bits=8e9)
        path = router.path(flow)
        assert path.devices[0] == "p0.b0.h0"
        assert path.devices[-1] == "p1.b1.h1"

    def test_same_rail_gets_no_shortcut(self):
        """In CLOS, same-rail cross-block still climbs to the Agg tier
        shared by all rails (no same-rail dedication)."""
        topo = build_clos(ClosParams.tiny())
        router = EcmpRouter(topo)
        flow = make_flow("p0.b0.h0", "p0.b1.h0", rail=0, size_bits=8e9)
        path = router.path(flow)
        kinds = [topo.devices[d].kind for d in path.devices]
        assert DeviceKind.AGG in kinds
        aggs = [topo.devices[d] for d in path.devices
                if topo.devices[d].kind is DeviceKind.AGG]
        assert all(agg.rail is None for agg in aggs)


class TestFloodSharing:
    """One BFS flood serves every destination with the same seed set.

    A flood expands every reachable switch exactly once, so the number
    of ``Topology.neighbors`` calls on a Core switch that no routed
    path crosses counts the floods.
    """

    CORE = "cg0.c0.core"

    @pytest.fixture()
    def counted(self, monkeypatch):
        topo = build_astral(AstralParams.small())
        calls = Counter()
        original = Topology.neighbors

        def neighbors(self, device, healthy_only=True):
            calls[device] += 1
            return original(self, device, healthy_only)

        monkeypatch.setattr(Topology, "neighbors", neighbors)
        return topo, EcmpRouter(topo), calls

    @staticmethod
    def _flows():
        """Rail-0 flows from h0 to the seven other hosts of its block;
        each path is host -> rail-0 ToR -> host, clear of the Core."""
        return [make_flow(_host(0, 0, 0), _host(0, 0, h), rail=0,
                          size_bits=8e9) for h in range(1, 8)]

    def _route_all(self, router, calls):
        calls.clear()
        paths = [router.path(flow) for flow in self._flows()]
        for path in paths:
            assert self.CORE not in path.devices
        return paths, calls[self.CORE]

    def test_same_rail_hosts_share_one_flood(self, counted):
        topo, router, calls = counted
        _, floods = self._route_all(router, calls)
        assert floods == 1

    def test_failed_tor_link_refloods_and_reroutes(self, counted):
        topo, router, calls = counted
        self._route_all(router, calls)
        dst = _host(0, 0, 3)
        link = next(link for link, tor in topo.neighbors(dst)
                    if tor.name == "p0.b0.r0.g0.tor")
        topo.fail_link(link.link_id)
        paths, floods = self._route_all(router, calls)
        # The cache was dropped: one flood for the six hosts that still
        # share a seed set, one for the host that lost a ToR.
        assert floods == 2
        assert paths[2].devices[-1] == dst
        assert link.link_id not in paths[2].link_ids
        assert paths[2].devices[1] == "p0.b0.r0.g1.tor"

    def test_version_bump_invalidates(self, counted):
        topo, router, calls = counted
        self._route_all(router, calls)
        _, floods = self._route_all(router, calls)
        assert floods == 0
        topo.version += 1
        _, floods = self._route_all(router, calls)
        assert floods == 1


# --------------------------------------------------------------------------
# Differential against a per-destination BFS
# --------------------------------------------------------------------------

class PerDestinationRouter(EcmpRouter):
    """The oracle: one BFS per (destination, rail), no sharing, and a
    separate partition flood from the source."""

    def distances_to(self, dst_host, dst_rail):
        topo = self.topology
        dist = {dst_host: 0}
        frontier = deque()
        for link, neighbor in topo.neighbors(dst_host):
            neighbor_rail = neighbor.rail
            if (dst_rail is not None and neighbor_rail is not None
                    and neighbor_rail != dst_rail):
                continue
            if neighbor.name not in dist:
                dist[neighbor.name] = 1
                frontier.append(neighbor.name)
        while frontier:
            current = frontier.popleft()
            if topo.devices[current].kind is DeviceKind.HOST:
                continue
            next_hops = dist[current] + 1
            for link, neighbor in topo.neighbors(current):
                if neighbor.name not in dist:
                    dist[neighbor.name] = next_hops
                    frontier.append(neighbor.name)
        return dist

    def partition_cut(self, src, dst, src_rail=None):
        topo = self.topology
        reached = {src}
        frontier = deque()
        for link, neighbor in topo.neighbors(src):
            neighbor_rail = neighbor.rail
            if (src_rail is not None and neighbor_rail is not None
                    and neighbor_rail != src_rail):
                continue
            if neighbor.name not in reached:
                reached.add(neighbor.name)
                frontier.append(neighbor.name)
        while frontier:
            current = frontier.popleft()
            if current == dst:
                return None
            if topo.devices[current].kind is DeviceKind.HOST:
                continue
            for link, neighbor in topo.neighbors(current):
                if neighbor.name not in reached:
                    reached.add(neighbor.name)
                    frontier.append(neighbor.name)
        if dst in reached:
            return None
        return tuple(sorted({link.link_id for device in reached
                             for link in topo.links_of(device)
                             if not link.healthy}))


BUILDERS = {
    "astral": lambda: build_astral(AstralParams.tiny()),
    "clos": lambda: build_clos(ClosParams.tiny()),
    "rail_only": lambda: build_rail_only(AstralParams.tiny()),
    "tier2_full": lambda: build_full_interconnect_tier2(AstralParams.tiny()),
}


def _outcome(router, flow):
    """Everything the router answers about *flow*, errors included."""
    try:
        path = router.path(flow)
        routed = ("path", path.devices, path.link_ids)
    except PartitionError as exc:
        routed = ("partition", exc.cut)
    except RoutingError:
        routed = ("no-route",)
    try:
        hops = router.min_hops(flow)
    except RoutingError:
        hops = None
    return routed, hops, router.reachable(flow), router.distances_to(
        flow.dst_host, router._dst_rail(flow))


@st.composite
def failed_fabrics(draw):
    """A tiny fabric with random links failed, one host always missing
    one ToR link, and flows between random hosts (some to a switch)."""
    family = draw(st.sampled_from(sorted(BUILDERS)))
    topo = BUILDERS[family]()
    hosts = sorted(name for name, device in topo.devices.items()
                   if device.kind is DeviceKind.HOST)
    switches = sorted(name for name, device in topo.devices.items()
                      if device.kind is not DeviceKind.HOST)
    lone = draw(st.sampled_from(hosts))
    lone_links = sorted(link.link_id for link in topo.links_of(lone))
    failed = {draw(st.sampled_from(lone_links))}
    failed |= draw(st.sets(st.sampled_from(sorted(topo.links)),
                           max_size=len(topo.links) // 4))
    for link_id in sorted(failed):
        topo.fail_link(link_id)
    rails = sorted({device.rail for device in topo.devices.values()
                    if device.rail is not None}) or [0]
    flow_specs = draw(st.lists(st.tuples(
        st.sampled_from(hosts),
        st.one_of(st.sampled_from(hosts), st.just(lone),
                  st.sampled_from(switches)),
        st.sampled_from(rails), st.sampled_from(rails),
        st.integers(min_value=49152, max_value=65535)),
        min_size=1, max_size=12))
    return topo, flow_specs


class TestSeedSetDifferential:
    @settings(max_examples=150, deadline=None)
    @given(failed_fabrics())
    def test_matches_per_destination_bfs(self, case):
        topo, flow_specs = case
        router, oracle = EcmpRouter(topo), PerDestinationRouter(topo)
        for src, dst, rail, dst_rail, port in flow_specs:
            flow = make_flow(src, dst, rail, 8e9, src_port=port,
                             dst_rail=dst_rail)
            assert _outcome(router, flow) == _outcome(oracle, flow)
            assert router.partition_cut(src, dst, rail) \
                == oracle.partition_cut(src, dst, rail)

    def test_switch_destination_does_not_transit(self):
        """A Core destination on rail 0 seeds only through its rail-0
        Aggs.  With its twin Core down, its rail-1 Aggs are seven hops
        away round through the other Core group; letting the
        destination transit would put them at three."""
        topo = build_astral(AstralParams.tiny())
        topo.fail_device("cg0.c1.core")
        router, oracle = EcmpRouter(topo), PerDestinationRouter(topo)
        core = "cg0.c0.core"
        dist = router.distances_to(core, 0)
        assert dist == oracle.distances_to(core, 0)
        rail1_aggs = [n.name for _, n in topo.neighbors(core) if n.rail == 1]
        assert rail1_aggs
        assert all(dist[agg] == 7 for agg in rail1_aggs)
        for src in (_host(0, 0, 0), _host(1, 1, 1)):
            flow = make_flow(src, core, 0, 8e9)
            assert _outcome(router, flow) == _outcome(oracle, flow)
