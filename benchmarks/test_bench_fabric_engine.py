"""Fabric engine vs epoch-global baseline — solver-work trajectory.

The incremental engine (`repro.network.engine.FabricEngine`) registers
each flow's directed hops once and, on every completion event,
re-solves only the connected component of links the event touched.
The epoch-global baseline (`Fabric.complete_batch`) rebuilds the whole
membership structure and re-runs progressive filling over every
occupied link at every epoch.  Both count their per-link work with the
same ruler (:class:`~repro.network.engine.SolverStats.link_visits`:
hop registrations + capacity reads + per-link share evaluations), so
the ratio is the incremental solver's measured saving.

The two paths also run different max-min kernels
(``repro.network.solver``): the engine solves with the numpy incidence
kernel, the batch loop with the dict-shaped reference loop.  Their
finish-time comparison is therefore a cross-kernel check as well as a
cross-loop one.

Results are merged into ``BENCH_fabric_engine.json`` at the repo root
so the perf trajectory is recorded run over run.  The smoke-scale
scenario runs in CI (``-m "not slow"``); the 256-host and 1024-host
points are ``slow``.  ``alltoall_256host_2rail`` in that file is the
historical ~1 h run of the engine's former pure-python solve path; the
256-host point divides its walls by the current ones.
"""

import json
import pathlib
import time

import pytest

from repro.core import GpuAllocator, PlacementPolicy
from repro.network import Fabric, reset_flow_ids
from repro.network.collectives import all_to_all_flows
from repro.network.engine import FabricEngine, SolverStats
from repro.network.flows import make_flow
from repro.topology import AstralParams, build_astral

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_fabric_engine.json"
A2A_BITS = 64e9
#: fan-out window of the 1024-host point (full all-to-all would be
#: ~1M flows; 128 successors keeps the point recordable while still
#: crossing blocks and pods on every host's flow set).
A2A_WINDOW_1024 = 128


def _params_1024():
    """1024 hosts across 4 pods (8 blocks x 32 hosts), dual-rail."""
    return AstralParams(pods=4, blocks_per_pod=8, hosts_per_block=32,
                        gpus_per_host=2, aggs_per_group=4,
                        cores_per_group=4)


def _a2a_flows(allocation, rails):
    """All-to-all across the allocation's hosts on each rail plane."""
    flows = []
    for rail in rails:
        flows.extend(
            all_to_all_flows(allocation.endpoints(rail=rail), A2A_BITS))
    return flows


def _windowed_a2a_flows(allocation, rails, window):
    """Each host exchanges with its next *window* hosts (wrap-around).

    Same per-pair sizing as the full all-to-all; the truncated fan-out
    bounds the flow count at ``hosts * window`` per rail.
    """
    flows = []
    for rail in rails:
        endpoints = allocation.endpoints(rail=rail)
        n = len(endpoints)
        per_pair_bits = A2A_BITS / n
        for index, src in enumerate(endpoints):
            for step in range(1, window + 1):
                dst = endpoints[(index + step) % n]
                flows.append(make_flow(
                    src.host, dst.host, dst.rail, per_pair_bits,
                    dst_rail=dst.rail, collective="all_to_all"))
    return flows


def _measure(n_hosts, rails, params=None, flows_fn=None,
             run_batch=True):
    """Run the workload through the batch loop and the engine.

    Returns the JSON-ready scenario record.  With ``run_batch=False``
    only the event-driven engine runs (the huge points, where the
    epoch-global baseline is prohibitive).
    """
    topology = build_astral(params or AstralParams.cluster())
    allocation = GpuAllocator(topology).allocate(
        "bench", n_hosts, PlacementPolicy.PACKED)
    flows_fn = flows_fn or _a2a_flows

    result = {"hosts": n_hosts, "rails": len(rails),
              "size_bits": A2A_BITS}
    batch_run = None
    if run_batch:
        reset_flow_ids()
        fabric = Fabric(topology)
        flows = flows_fn(allocation, rails)
        batch_stats = SolverStats()
        t0 = time.perf_counter()
        batch_run = fabric.complete_batch(flows, stats=batch_stats)
        batch_wall = time.perf_counter() - t0
        result["batch"] = {
            "epochs": batch_stats.solves,
            "solver_calls": batch_stats.solves,
            "link_visits": batch_stats.link_visits,
            "wall_s": round(batch_wall, 3),
        }
        result["hops_cache_hits"] = fabric.hops_cache_hits
        result["hops_cache_misses"] = fabric.hops_cache_misses

    reset_flow_ids()
    fabric = Fabric(topology)
    flows = flows_fn(allocation, rails)
    t0 = time.perf_counter()
    engine = FabricEngine(fabric)
    for flow in flows:
        engine.submit(flow, start_time_s=0.0)
    engine_run = engine.run()
    engine_wall = time.perf_counter() - t0

    result["flows"] = len(flows)
    result["engine"] = {
        "solves": engine.stats.solves,
        "components_solved": engine.stats.components_solved,
        "link_visits": engine.stats.link_visits,
        "wall_s": round(engine_wall, 3),
    }
    if batch_run is not None:
        result["max_finish_diff_s"] = max(
            abs(batch_run.finish_times_s[fid]
                - engine_run.finish_times_s[fid])
            for fid in batch_run.finish_times_s)
        result["link_visit_ratio"] = round(
            result["batch"]["link_visits"]
            / max(result["engine"]["link_visits"], 1), 2)
    return result


def _record(key, result):
    """Merge one scenario's numbers into the trajectory file."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            data = {}
    data[key] = result
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _historical(key):
    if not BENCH_JSON.exists():
        return None
    try:
        return json.loads(BENCH_JSON.read_text()).get(key)
    except (ValueError, OSError):
        return None


def _series(result):
    rows = [("flows", result["flows"])]
    if "batch" in result:
        rows += [
            ("batch epochs", result["batch"]["epochs"]),
            ("batch link visits", result["batch"]["link_visits"]),
            ("batch wall (s)", result["batch"]["wall_s"]),
        ]
    rows += [
        ("engine solves", result["engine"]["solves"]),
        ("engine components", result["engine"]["components_solved"]),
        ("engine link visits", result["engine"]["link_visits"]),
        ("engine wall (s)", result["engine"]["wall_s"]),
    ]
    for key in ("link_visit_ratio", "max_finish_diff_s",
                "engine_speedup_vs_python", "batch_speedup_vs_python"):
        if key in result:
            rows.append((key.replace("_", " "), result[key]))
    return rows


def test_engine_vs_batch_smoke(benchmark, series_printer):
    """64-host dual-rail all-to-all: the CI smoke point.

    The two rail planes are link-disjoint, so their completion events
    interleave and the engine re-solves one plane at a time while the
    baseline re-solves both every epoch — the component restriction
    plus one-time hop registration is the measured ≥2× saving.  The
    engine runs the production kernel and the batch loop the reference
    loop, so the finish-time bound is a cross-kernel check too.
    """
    result = benchmark.pedantic(
        _measure, args=(64, (0, 1)), rounds=1, iterations=1)
    _record("alltoall_64host_2rail", result)
    series_printer(
        "Fabric engine vs epoch-global baseline (64 hosts, 2 rails)",
        _series(result), ["metric", "value"])
    # Same fluid model, two kernels, same finish times.
    assert result["max_finish_diff_s"] < 1e-9
    # The incremental solver does measurably less per-link work.
    assert result["link_visit_ratio"] >= 2.0
    # Hop-memoization guard: directed hops are computed once per flow
    # and re-used across every subsequent epoch.
    assert result["hops_cache_hits"] > 10 * result["hops_cache_misses"]


@pytest.mark.slow
def test_engine_vs_batch_256host_vector(benchmark, series_printer):
    """Paper-scale point: 256-host dual-rail all-to-all (130,560
    flows).

    Same scenario as the historical ``alltoall_256host_2rail`` record;
    the recorded speedups divide its pure-python walls by this run's.
    The engine is required to clear ≥10× over that record."""
    result = benchmark.pedantic(
        _measure, args=(256, (0, 1)), rounds=1, iterations=1)
    python_point = _historical("alltoall_256host_2rail")
    if python_point:
        result["engine_speedup_vs_python"] = round(
            python_point["engine"]["wall_s"]
            / result["engine"]["wall_s"], 2)
        result["batch_speedup_vs_python"] = round(
            python_point["batch"]["wall_s"]
            / result["batch"]["wall_s"], 2)
    _record("alltoall_256host_2rail_vector", result)
    series_printer(
        "Fabric engine vs epoch-global baseline (256 hosts, 2 rails)",
        _series(result), ["metric", "value"])
    assert result["max_finish_diff_s"] < 1e-9
    assert result["link_visit_ratio"] >= 2.0
    if python_point:
        assert result["engine_speedup_vs_python"] >= 10.0


@pytest.mark.slow
def test_engine_1024host_vector(benchmark, series_printer):
    """1024-host single-rail windowed all-to-all, engine only.

    The scale point the vector kernel unlocks: four times the hosts of
    the paper-scale scenario on a 4-pod fabric.  Full fan-out at this
    size would be ~1M flows, so each host exchanges with its 128
    successors (131,072 flows — the same order as the 256-host full
    all-to-all, but routed across a 4× larger link universe).  The
    epoch-global baseline is prohibitive here; only the event-driven
    engine runs."""
    result = benchmark.pedantic(
        _measure, args=(1024, (0,)),
        kwargs={"params": _params_1024(),
                "flows_fn": lambda alloc, rails: _windowed_a2a_flows(
                    alloc, rails, A2A_WINDOW_1024),
                "run_batch": False},
        rounds=1, iterations=1)
    result["window"] = A2A_WINDOW_1024
    _record("a2a_w128_1024host_1rail_vector", result)
    series_printer(
        "Fabric engine, 1024 hosts (window-128 all-to-all, 1 rail)",
        _series(result), ["metric", "value"])
    assert result["flows"] == 1024 * A2A_WINDOW_1024
    assert result["engine"]["solves"] > 0
