#!/usr/bin/env python3
"""Rule a change's result set against its parent's.

    python3 perfbench/compare.py parent.json change.json

Both result sets come from ``perfbench/run.py --workload all``.  For
every workload x metric this prints each side's median and quartiles,
the change/parent ratio of medians with its base, and a verdict:

* ``better``: the change wins at least nine tenths of the seed-paired
  runs (ties count for neither), over at least ten pairs, and the
  medians differ by more than the parent's own quartile spread;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run reads better than every parent run;
* ``unchanged``: none of the above.

Bounds come from ``BENCHMARK.json`` (end-to-end metrics) and from
``run.EXTRA_METRICS``.  Any ``sim_digest`` difference on a shared seed
is flagged: a change that only speeds the simulator up leaves every
simulated statistic identical.  Per-layer metrics of the traced runs
are shown without a verdict; they have no bound.

Exits 2 when the result sets come from different hosts, hash seeds or
benchmark code, 1 when any pair is worse or any digest changed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import EXTRA_METRICS  # noqa: E402

#: host fields that must match; git_sha is expected to differ.
SAME_HOST = ("cpu_model", "nproc", "machine", "python", "numpy",
             "pythonhashseed", "bench_sha")
MIN_PAIRS = 10


def load_bounds(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in bench["end_to_end"]}
    for name, (unit, bound) in EXTRA_METRICS.items():
        bounds[name] = (unit, "higher" if unit == "ratio" else "lower",
                        bound)
    return bounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rule(parent: dict, change: dict, better: str, bound: float):
    """Verdict for one workload x metric; *parent*/*change* map seed
    -> value."""
    sign = 1.0 if better == "lower" else -1.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = max(sign * c for c in c_values) \
        < min(sign * p for p in p_values)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and abs(c_med - p_med) > p_q3 - p_q1 and worse_by < 0:
        return "better"
    if spread > bound:
        return "better" if all_better and len(pairs) >= MIN_PAIRS \
            else "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def collect(result_set: dict, trace: int) -> dict:
    """``{workload: {metric: {seed: value}}}`` over one pass; the
    untraced pass adds the workload-specific extras."""
    table: dict = {}
    for run in result_set["runs"]:
        if run["trace"] != trace or not run.get("result"):
            continue
        metrics = table.setdefault(run["workload"], {})
        readings = {name: reading["value"] for name, reading
                    in run["result"]["metrics"].items()}
        if not trace:
            readings.update((run.get("detail") or {}).get("extra", {}))
        for name, value in readings.items():
            metrics.setdefault(name, {})[run["seed"]] = value
    return table


def digests(result_set: dict) -> dict:
    found = {}
    for run in result_set["runs"]:
        detail = run.get("detail") or {}
        for index, digest in enumerate(
                detail.get("iteration_digests", [])):
            found[(run["workload"], run["seed"], index)] = digest
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        change = json.load(handle)
    mismatched = [key for key in SAME_HOST
                  if parent["host"].get(key) != change["host"].get(key)]
    if parent.get("seconds") != change.get("seconds") \
            or parent.get("toy") != change.get("toy"):
        mismatched.append("run settings")
    if mismatched:
        for key in mismatched:
            print(f"refused: {key} differs: "
                  f"{parent['host'].get(key)!r} vs "
                  f"{change['host'].get(key)!r}")
        return 2
    print(f"parent {parent['host']['git_sha'][:12]} vs change "
          f"{change['host']['git_sha'][:12]} on "
          f"{parent['host']['cpu_model']} (nproc "
          f"{parent['host']['nproc']})")

    bounds = load_bounds(os.path.dirname(HERE))
    p_table, c_table = collect(parent, 0), collect(change, 0)
    bad = False
    header = (f"{'workload':<8} {'metric':<18} {'parent median [q1, q3]':<34}"
              f" {'change median [q1, q3]':<34} {'ratio (base)':<22} verdict")
    print(header)
    for workload in p_table:
        for metric, p_values in p_table[workload].items():
            c_values = c_table.get(workload, {}).get(metric)
            if not c_values or metric not in bounds:
                continue
            unit, better, bound = bounds[metric]
            verdict = rule(p_values, c_values, better, bound)
            bad = bad or verdict == "worse"
            p_q1, p_med, p_q3 = quartiles(list(p_values.values()))
            c_q1, c_med, c_q3 = quartiles(list(c_values.values()))
            ratio = c_med / p_med if p_med else float("nan")
            print(f"{workload:<8} {metric:<18} "
                  f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] {unit}':<34} "
                  f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {unit}':<34} "
                  f"{f'{ratio:.3f} (of {p_med:.4g})':<22} {verdict}"
                  f" (n={len(p_values)}/{len(c_values)}, "
                  f"bound {bound:g})")

    p_digests, c_digests = digests(parent), digests(change)
    changed = sorted(key for key in p_digests
                     if key in c_digests and p_digests[key] != c_digests[key])
    for workload, seed, index in changed:
        print(f"SIM_DIGEST CHANGED: {workload} seed {seed} iteration "
              f"{index}: {p_digests[(workload, seed, index)]} -> "
              f"{c_digests[(workload, seed, index)]}")
    if not changed:
        print(f"sim_digest: identical on all "
              f"{sum(1 for k in p_digests if k in c_digests)} shared "
              f"iterations")

    p_layers, c_layers = collect(parent, 1), collect(change, 1)
    if p_layers:
        print("per-layer (traced runs; no bound):")
    for workload in p_layers:
        for metric, p_values in p_layers[workload].items():
            c_values = c_layers.get(workload, {}).get(metric)
            if not c_values:
                continue
            p_med = statistics.median(p_values.values())
            c_med = statistics.median(c_values.values())
            if p_med == 0 and c_med == 0:
                continue
            ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
            print(f"  {workload:<8} {metric:<30} {p_med:.4g} -> "
                  f"{c_med:.4g} (ratio {ratio})")
    return 1 if bad or changed else 0


if __name__ == "__main__":
    sys.exit(main())
