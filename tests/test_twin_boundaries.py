"""Twin boundary telemetry against a recount of the live topology.

A small cluster session takes a dead ToR, a link flap, a cordon and an
uncordon.  At every boundary the snapshot's ``tiers`` block and the
stack fingerprint's ``census`` — both read from the topology's health
counters — must equal a brute-force recount over ``topology.links``,
and ``replay(config, log).digest()`` must ``==`` the live digest under
both ``PYTHONHASHSEED`` values.
"""

import os
import subprocess
import sys

from repro.twin import TwinConfig, TwinSession, replay

CONFIG = dict(kind="cluster", scale="tiny", seed=11, jobs=8)
DEAD_TOR = "p0.b0.r0.g0.tor"
FLAP_HOST = "p1.b0.h0"


def recount_tiers(topo):
    counts = {}
    for link in topo.links.values():
        tier = max(topo.devices[link.a.device].tier,
                   topo.devices[link.b.device].tier)
        total, healthy = counts.get(tier, (0, 0))
        counts[tier] = (total + 1, healthy + int(link.healthy))
    return {f"tier{tier}": {"links": total, "healthy": healthy,
                            "healthy_frac": round(healthy / total, 9)}
            for tier, (total, healthy) in sorted(counts.items())}


def recount_census(topo):
    return {host.name: sum(1 for link in topo.links_of(host.name)
                           if link.healthy)
            for host in topo.hosts()}


def _fault(session, cause, target):
    """An explicit fault document riding on the first running job."""
    job = sorted(session.stack.scheduler.running_jobs())[0]
    return {"kind": "inject-fault", "document": {"faults": [
        {"job": job, "cause": cause, "manifestation": "fail-stop",
         "target": target}]}}


def drive():
    """Run the scenario, checking every boundary; returns the session
    and the snapshots at which some link was down."""
    session = TwinSession(TwinConfig(**CONFIG))
    topo = session.stack.topology
    flap_link = topo.links_of(FLAP_HOST)[0].link_id
    # (dt_s, actions) per boundary; actions are built at their
    # boundary, because a fault rides on a job running then (the first
    # job starts at t=120 s).
    steps = [
        (120.0, lambda: []),
        (30.0, lambda: [_fault(session, "switch-bug", DEAD_TOR)]),
        (30.0, lambda: [{"kind": "cordon", "hosts": ["p0.b1.h0"]}]),
        (30.0, lambda: [_fault(session, "link-flap",
                               f"link:{flap_link}")]),
        (30.0, lambda: []),
        (30.0, lambda: [{"kind": "uncordon", "hosts": ["p0.b1.h0"]}]),
        (30.0, lambda: []),
    ]
    faulted = []
    for dt_s, actions in steps:
        for action in actions():
            session.submit(action)
        snapshot = session.advance(dt_s)
        assert snapshot["tiers"] == recount_tiers(topo)
        census = recount_census(topo)
        assert session.stack.fingerprint()["census"] == census
        uplinks = max(census.values())
        assert snapshot["hosts"]["degraded"] == sum(
            1 for count in census.values() if count < uplinks)
        if any(tier["healthy"] < tier["links"]
               for tier in snapshot["tiers"].values()):
            faulted.append(snapshot["step"])
    return session, faulted


def test_boundary_telemetry_equals_recount():
    session, faulted = drive()
    # The scenario must actually move link health, or the recount
    # comparison above proves nothing.
    assert 1 in faulted                      # the dead ToR
    flap = f"link:{session.stack.topology.links_of(FLAP_HOST)[0].link_id}"
    actions = [(event.action, event.target)
               for event in session.stack.injector.log]
    assert ("kill-device", DEAD_TOR) in actions
    assert ("kill-link", flap) in actions
    assert ("restore-link", flap) in actions


def test_switch_counters_carry_no_health_fraction():
    session, _ = drive()
    counters = [record for tier in session.snapshots[-1]["tiers"]
                for record in session.store.counters_for_device(tier)]
    assert len(counters) == 3 * len(session.snapshots)
    assert sum(record.drops for record in counters) > 0
    assert {record.utilization for record in counters} == {0.0}


_SUBPROCESS = """
import sys
sys.path.insert(0, {tests!r})
from test_twin_boundaries import drive
from repro.twin import replay
session, _ = drive()
print(session.digest(), replay(session.config, session.action_log).digest())
"""


def test_replay_equals_live_across_hash_seeds():
    import repro
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src_dir)
        out = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS.format(tests=tests_dir)],
            capture_output=True, text=True, check=True, env=env).stdout
        live, replayed = out.split()
        assert replayed == live
        digests.append(live)
    assert digests[0] == digests[1]
    session, _ = drive()
    assert replay(session.config, session.action_log).digest() \
        == session.digest() == digests[0]
