"""Fast self-test of the benchmark harness (toy sizes, ~1 min).

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload at toy size, untraced and traced, and checks that
every metric ``BENCHMARK.json`` names prints with its unit, that the
result line has the contract's shape, and that the traced run puts
every wrapper back.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def _run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.5", "--trace",
         str(trace), "--toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, lines, json.loads(lines[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for entry in BENCH["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_prints_every_end_to_end_metric(workload):
    done, lines, result = _run(workload, 0)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert reading["value"] > 0
        assert any(line.split()[:1] == [metric["name"]]
                   and line.rstrip().endswith(metric["unit"])
                   for line in lines), metric["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    assert any(line.split()[:1] == ["sim_digest"] for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_prints_every_per_layer_metric(workload):
    done, lines, result = _run(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"]
    names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: r["unit"] for name, r in result["metrics"].items()} \
        == names
    for name in names:
        assert any(line.split()[:1] == [name] for line in lines), name


def test_tracer_removes_every_wrapper(tmp_path):
    import repro.network.engine as engine
    import repro.network.solver as solver
    import repro.simcore.engine as simcore
    from repro.network.fabric import Fabric

    tracing.import_all_repro()
    before = (simcore.Simulator.step, engine.FabricEngine.submit,
              engine.progressive_fill_vector, solver.SolverStats.solves,
              "hops_cache_hits" in vars(Fabric))
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert simcore.Simulator.step is not before[0]
        assert engine.progressive_fill_vector is not before[2]
        assert tracer.installed()
    finally:
        tracer.uninstall()
    after = (simcore.Simulator.step, engine.FabricEngine.submit,
             engine.progressive_fill_vector, solver.SolverStats.solves,
             "hops_cache_hits" in vars(Fabric))
    assert after == before
    assert tracer.installed() == []


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    value, percentile, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert percentile == 90.0
    assert sum(1 for x in range(100) if x > value) == 10


def test_bare_directory_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as src:
                (bare / "perfbench" / name).write_text(src.read())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCH))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class _Broken(Workload):
    """A workload whose body or check fails on demand."""

    def __init__(self, fail_in):
        super().__init__(toy=True)
        self.fail_in = fail_in

    def inputs(self, seed, iteration):
        return None

    def body(self, inputs):
        if self.fail_in == "body":
            raise RuntimeError("body broke")
        return Outcome(sim={"x": 1}, attempted=2)

    def check(self, inputs, outcome):
        if self.fail_in == "check":
            outcome.fail("check broke")


@pytest.mark.parametrize("fail_in", ["body", "check"])
def test_failures_count_as_failed_operations(fail_in):
    runner = run.Runner(_Broken(fail_in), seed=1)
    runner.loop(1e-9)  # one iteration
    assert runner.failed == 1
    assert runner.attempted == (1 if fail_in == "body" else 2)
