"""Differential tests for the topology's link-health counters.

:class:`~repro.topology.elements.Topology` keeps a healthy degree per
device and total/healthy link counts per tier, updated only by
``fail_link``/``restore_link``.  Random sequences of fails, restores,
device kills and bulk restores — double fails and double restores
included — must leave every counter equal to a brute-force recount over
``topology.links``, and ``Pingmesh.census`` equal to the per-host scan
it replaced.
"""

import pathlib
import random
import re

import pytest

from repro.monitoring.pingmesh import Pingmesh
from repro.network.fabric import Fabric
from repro.topology.astral import AstralParams, build_astral
from repro.topology.baselines import ClosParams, build_clos, build_rail_only
from repro.topology.crossdc import build_cross_dc

BUILDERS = {
    "astral-tiny": lambda: build_astral(AstralParams.tiny()),
    "astral-small": lambda: build_astral(AstralParams.small()),
    "clos-small": lambda: build_clos(ClosParams.small()),
    "rail-only": lambda: build_rail_only(AstralParams.tiny()),
    "cross-dc": build_cross_dc,
}


def recount_degree(topo):
    degree = {name: 0 for name in topo.devices}
    for link in topo.links.values():
        if link.healthy:
            degree[link.a.device] += 1
            degree[link.b.device] += 1
    return degree


def recount_tiers(topo):
    counts = {}
    for link in topo.links.values():
        tier = max(topo.devices[link.a.device].tier,
                   topo.devices[link.b.device].tier)
        total, healthy = counts.get(tier, (0, 0))
        counts[tier] = (total + 1, healthy + int(link.healthy))
    return dict(sorted(counts.items()))


def old_census(topo, hosts):
    """The census formula before the counters existed."""
    return {host: sum(1 for link in topo.links_of(host) if link.healthy)
            for host in hosts}


def assert_counters_exact(topo, pingmesh):
    degree = recount_degree(topo)
    assert {name: topo.healthy_degree(name)
            for name in topo.devices} == degree
    assert topo.tier_link_counts() == recount_tiers(topo)
    hosts = [host.name for host in topo.hosts()]
    assert pingmesh.census() == old_census(topo, hosts)


def random_walk(topo, rng, steps):
    """Yield after each random health operation."""
    link_ids = sorted(topo.links)
    devices = sorted(topo.devices)
    downed_by_device = []
    for _ in range(steps):
        op = rng.randrange(5)
        if op == 0:
            topo.fail_link(rng.choice(link_ids))
        elif op == 1:
            topo.restore_link(rng.choice(link_ids))
        elif op == 2:
            # Double fail, then double restore, of the same link.
            link_id = rng.choice(link_ids)
            topo.fail_link(link_id)
            topo.fail_link(link_id)
            if rng.random() < 0.5:
                topo.restore_link(link_id)
                topo.restore_link(link_id)
        elif op == 3:
            downed_by_device.append(topo.fail_device(rng.choice(devices)))
        elif downed_by_device:
            topo.restore_links(
                downed_by_device.pop(rng.randrange(len(downed_by_device))))
        yield


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_counters_equal_recount_after_every_step(name):
    topo = BUILDERS[name]()
    pingmesh = Pingmesh(Fabric(topo))
    assert_counters_exact(topo, pingmesh)
    rng = random.Random(f"health-counters:{name}")
    for _ in random_walk(topo, rng, steps=60):
        assert_counters_exact(topo, pingmesh)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_idempotent_fail_and_restore(name):
    topo = BUILDERS[name]()
    link = topo.links[0]
    before = topo.tier_link_counts(), topo.healthy_degree(link.a.device)
    topo.restore_link(0)                      # restore a healthy link
    assert (topo.tier_link_counts(),
            topo.healthy_degree(link.a.device)) == before
    topo.fail_link(0)
    after_fail = topo.tier_link_counts(), topo.healthy_degree(link.a.device)
    topo.fail_link(0)                         # fail a failed link
    assert (topo.tier_link_counts(),
            topo.healthy_degree(link.a.device)) == after_fail
    assert after_fail[1] == before[1] - 1
    topo.restore_link(0)
    assert (topo.tier_link_counts(),
            topo.healthy_degree(link.a.device)) == before


def test_fail_device_on_partly_failed_device():
    topo = build_astral(AstralParams.tiny())
    host = topo.hosts()[0].name
    first = topo.links_of(host)[0].link_id
    topo.fail_link(first)
    downed = topo.fail_device(host)
    assert first not in downed
    assert topo.healthy_degree(host) == 0
    topo.restore_links(downed)
    assert topo.healthy_degree(host) == len(topo.links_of(host)) - 1
    assert topo.tier_link_counts() == recount_tiers(topo)


def test_only_the_topology_writes_link_health():
    """One choke point: no module but ``topology/elements.py`` assigns
    ``.healthy``, so nothing can move health behind the counters."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    writer = re.compile(r"\.healthy\s*=(?!=)")
    writers = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if writer.search(path.read_text(encoding="utf-8")))
    assert writers == ["topology/elements.py"]
