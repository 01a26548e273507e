#!/usr/bin/env python3
"""The repo's benchmark: host time of the simulator on five user paths.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload fabric --seed 1 --seconds 10 --trace 0

prints each end-to-end metric with its unit, ``failed_frac``, the
``sim_digest`` and a host stamp, and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs
the same iterations untraced and then traced, and reports the
per-layer metrics instead.  It exits 1 when an output check fails.

Every workload, each in a fresh interpreter, into a result set::

    python3 perfbench/run.py --workload all --seeds 1,2,3 --out r.json

``--trace 0`` there skips the traced pass.  ``perfbench/compare.py``
rules two result sets against each other.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (caches, trace dumps, results).
WORK = os.path.join(ROOT, ".perfbench")

#: end-to-end metrics (name -> unit), printed by every untraced run.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
#: fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 3
#: workload-specific host-time readings (name -> (unit, bound)), ruled
#: by compare.py like the end-to-end metrics but not part of the
#: contract's metric set, which every workload must report.
EXTRA_METRICS = {
    "create_s": ("s", 0.15),
    "replay_s": ("s", 0.15),
    "op_p50_s": ("s", 0.15),
    "op_tail_s": ("s", 0.25),
    "worker_busy_frac": ("ratio", 0.25),
}


def canonical_digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    ``(value, percentile, n)``, or ``None`` while that percentile would
    still be below the median (fewer than 20 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# host stamp
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bench_sha() -> str:
    """Hash of the benchmark's own files: compare.py refuses result
    sets measured with different benchmark code."""
    digest = hashlib.sha256()
    names = sorted(name for name in os.listdir(HERE)
                   if name.endswith(".py"))
    for path in [os.path.join(HERE, name) for name in names] \
            + [os.path.join(ROOT, "BENCHMARK.json")]:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_stamp() -> dict:
    import numpy
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
            "bench_sha": bench_sha()}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _probe_command(args) -> list:
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    return command + (["--toy"] if args.toy else [])


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to inputs ready."""
    times = []
    for _ in range(2 if args.toy else SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(_probe_command(args), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        times.append(ready - started)
    return times


def setup_probe(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](toy=args.toy, work_dir=WORK)
    workload.prepare()
    try:
        workload.inputs(args.seed, 0)
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


class Runner:
    """Runs a workload's iterations and keeps what they produced."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record_failure(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def iteration(self, index: int, tracer=None):
        """``(body seconds, outcome)``; ``None`` when the body raised.
        A *tracer* records the timed body only."""
        workload = self.workload
        inputs = workload.inputs(self.seed, index)
        # Start every body from a collected heap, so one iteration's
        # garbage is not billed to the next.
        gc.collect()
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        try:
            outcome = workload.body(inputs)
        except Exception:  # noqa: BLE001 — a crash is a failed op
            self.record_failure(f"iteration {index} raised:\n"
                                f"{traceback.format_exc(limit=8)}")
            return None
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.active = False
        _reap_children()
        try:
            workload.check(inputs, outcome)
        except Exception:  # noqa: BLE001 — a crashed check is a failure
            outcome.fail(f"iteration {index} check raised:\n"
                         f"{traceback.format_exc(limit=8)}")
        outcome.digest = canonical_digest(outcome.sim)
        outcome.sim = outcome.raw = None
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return elapsed, outcome

    def loop(self, seconds: float):
        """Iterate until the timed bodies add up to *seconds*."""
        results, timed = [], 0.0
        while timed < seconds:
            result = self.iteration(len(results))
            if result is None:
                break
            results.append(result)
            timed += result[0]
        return results


def _median_extra(outcomes, key):
    values = [o.extra[key] for o in outcomes if key in o.extra]
    return statistics.median(values) if values else None


def run_one(args) -> int:
    from workloads import WORKLOADS
    setup_times = [] if args.trace else measure_setup(args)
    workload = WORKLOADS[args.workload](toy=args.toy, work_dir=WORK)
    workload.prepare()
    runner = Runner(workload, args.seed)
    try:
        results = runner.loop(args.seconds)
        traced, traced_times = None, []
        if args.trace and results:
            traced, traced_times = trace_pass(runner, results)
    finally:
        workload.close()
        _reap_children()

    times = [elapsed for elapsed, _ in results]
    outcomes = [outcome for _, outcome in results]
    digests = [o.digest for o in outcomes]
    ops = [t for o in outcomes for t in o.ops_s]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "host": host_stamp(), "iterations": len(results),
        "run_s_samples": times, "setup_s_samples": setup_times,
        "traced_run_s_samples": traced_times,
        "sim_digest": digests[0] if digests else None,
        "iteration_digests": digests,
        "problems": runner.problems[:10],
    }
    extras = {key: _median_extra(outcomes, key)
              for key in ("create_s", "replay_s", "worker_busy_frac")}
    if ops:
        extras["op_p50_s"] = statistics.median(ops)
        ops_tail = tail(ops)
        if ops_tail is not None:
            extras["op_tail_s"] = ops_tail[0]
            detail["op_tail"] = {"percentile": ops_tail[1],
                                 "n": ops_tail[2]}
        detail["op_samples"] = len(ops)
    detail["extra"] = {k: v for k, v in extras.items() if v is not None}

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(results)} iterations in ~{args.seconds:g} s, "
          f"trace {args.trace}")
    host = detail["host"]
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, python "
          f"{host['python']}, numpy {host['numpy']}, git "
          f"{host['git_sha'][:12]}, PYTHONHASHSEED "
          f"{host['pythonhashseed']}")
    metrics = {}
    if results and not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in metrics.items():
            print(f"  {name:<22} {value:.6g} {END_TO_END[name]}")
        _print_extras(workload, detail)
    elif traced is not None:
        metrics = traced
        for name, value in metrics.items():
            print(f"  {name:<30} {value['value']:.6g} {value['unit']}")
        absent = sorted(name for name, value in metrics.items()
                        if value["value"] == 0)
        if absent:
            print(f"  zero here (layer not reached by this workload): "
                  f"{', '.join(absent)}")
    attempted = max(1, runner.attempted)
    print(f"  failed_frac            {runner.failed / attempted:.6g} "
          f"({runner.failed}/{attempted} operations)")
    print(f"  sim_digest             {detail['sim_digest']}")
    for problem in runner.problems[:10]:
        print(f"  CHECK FAILED: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = runner.failed == 0 and bool(results)
    if not args.trace:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_extras(workload, detail) -> None:
    extra = detail["extra"]
    for key in ("create_s", "replay_s", "op_p50_s"):
        if key in extra:
            print(f"  {key:<22} {extra[key]:.6g} s")
    if "op_tail_s" in extra:
        info = detail["op_tail"]
        print(f"  {'op_tail_s':<22} {extra['op_tail_s']:.6g} s "
              f"(p{info['percentile']:.1f}, n={info['n']})")
    elif "op_samples" in detail:
        print(f"  op_tail_s              n/a ({detail['op_samples']} "
              f"samples; needs 20)")
    if workload.op:
        print(f"  (an operation is {workload.op})")
    if "worker_busy_frac" in extra:
        print(f"  farm.worker_busy_frac  {extra['worker_busy_frac']:.6g} "
              f"(nproc {os.cpu_count()})")


def trace_pass(runner: Runner, untraced):
    """Re-run the untraced iterations under the tracer: the per-layer
    metrics and the traced body times."""
    from tracing import Tracer
    dump_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK)
    tracer = Tracer(dump_dir)
    tracer.install()
    tracer.active = False
    traced_times, unattributed = [], 0.0
    try:
        for index, (_, plain) in enumerate(untraced):
            covered = tracer.covered_s
            result = runner.iteration(index, tracer)
            if result is None:
                break
            elapsed, outcome = result
            tracer.merge_worker_dumps()
            traced_times.append(elapsed)
            unattributed += elapsed - (tracer.covered_s - covered)
            runner.attempted += 1
            if outcome.digest != plain.digest:
                runner.failed += 1
                runner.problems.append(
                    f"iteration {index}: traced sim_digest differs")
    finally:
        tracer.uninstall()
        os.rmdir(dump_dir)
    if tracer.installed():
        runner.record_failure("tracer left wrappers installed")
    n = max(1, len(traced_times))
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        if name.endswith("_s"):
            metrics[name] = {"value": value / n, "unit": "s"}
        elif name.endswith(("_ratio", "_frac", "_economy",
                            "fold_factor")):
            metrics[name] = {"value": value, "unit": "ratio"}
        else:
            metrics[name] = {"value": value / n, "unit": "count"}
    plain_times = [elapsed for elapsed, _ in untraced[:len(traced_times)]]
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_times)
        / statistics.median(plain_times) if traced_times else 0.0,
        "unit": "ratio"}
    metrics["trace.unattributed_s"] = {"value": unattributed / n,
                                       "unit": "s"}
    return metrics, traced_times


def _reap_children() -> None:
    """Wait for every worker process the farm left shutting down."""
    deadline = time.monotonic() + 60
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        for child in multiprocessing.active_children():
            child.join(timeout=1)


# ---------------------------------------------------------------------------
# every workload: a result set
# ---------------------------------------------------------------------------

def _parse_run(stdout: str):
    lines = stdout.strip().splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return result, detail


def suite(args) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
        else [DEFAULT_SEED]
    passes = [0, 1] if args.trace else [0]
    runs, ok = [], True
    for trace in passes:
        for name in WORKLOADS:
            for seed in seeds[:1] if trace else seeds:
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.toy:
                    command.append("--toy")
                done = subprocess.run(command, cwd=ROOT, text=True,
                                      stdout=subprocess.PIPE, timeout=900)
                sys.stdout.write(done.stdout)
                result, detail = _parse_run(done.stdout)
                good = done.returncode == 0 and result is not None \
                    and result["correct"]
                ok = ok and good
                runs.append({"workload": name, "seed": seed,
                             "trace": trace, "exit": done.returncode,
                             "result": result, "detail": detail})
    result_set = {"host": host_stamp(), "seconds": args.seconds,
                  "toy": args.toy, "runs": runs}
    out = args.out or os.path.join(
        WORK, time.strftime("results-%Y%m%d-%H%M%S.json"))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result_set, handle, indent=1, sort_keys=True)
    print(f"result set written to {out}")
    if not ok:
        print("FAILED: at least one run failed its output checks")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fabric, scale, twin, serve, fuzz, or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (--workload all)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None,
                        help="result-set path (--workload all)")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.makedirs(WORK, exist_ok=True)
    # The farm's result cache defaults to the home directory; keep every
    # write inside the checkout.
    os.environ["REPRO_FARM_CACHE"] = os.path.join(WORK, "farm-cache")

    if args.workload == "all":
        args.trace = 1 if args.trace is None else args.trace
        return suite(args)
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {sorted(WORKLOADS)} or all")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.setup_probe:
        return setup_probe(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
