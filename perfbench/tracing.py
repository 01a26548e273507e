"""Per-layer span tracer for the benchmark's traced run.

The tracer wraps calls into each layer's entry points from outside the
program: module-level function bindings (every ``repro.*`` module that
imported the function gets the wrapper) and class attributes.  Counters
come from the program's own stats fields (``SolverStats``,
``Fabric.hops_cache_*``) through counting descriptors, from farm
reports, and from hierarchy reports.  :meth:`Tracer.uninstall` puts
every original object back.

A span's *self* time is its duration minus the time its child spans
cover.  Spans nest per thread.  A span that opens on a thread with no
open span while a request span is open elsewhere (the twin server
working on behalf of a blocking client call) counts as that request's
child, so ``twin.http_s`` is the HTTP round trip minus the server-side
work.  Farm pool workers are forked with the wrappers in place; each
task's aggregates are written to a file and merged by the parent.

Per-hop hot calls (``Topology.neighbors``) are deliberately not
wrapped: the faulted 512K point calls it tens of millions of times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, function, metric): patched at every ``repro.*`` binding.
FUNCTION_SPANS = [
    ("repro.topology.astral", "build_astral", "topology.build_s"),
    ("repro.network.solver", "progressive_fill_vector", "solver.fill_s"),
    ("repro.network.solver", "fill_rates_python", "solver.fill_s"),
    ("repro.hierarchy.symmetry", "detect_symmetry", "hierarchy.fold_s"),
    ("repro.hierarchy.fold", "fold_pod_class", "hierarchy.fold_s"),
    ("repro.hierarchy.refine", "run_refined_groups", "hierarchy.refine_s"),
    ("repro.validation.oracles", "replay_conservation",
     "validation.oracle_s"),
]

#: modules whose ``check_*`` functions are validation oracles.
ORACLE_MODULES = ["repro.validation.oracles",
                  "repro.validation.differential",
                  "repro.validation.metamorphic"]

#: (module, class, method, metric).  ``ClusterScheduler._dispatch`` and
#: ``_place`` are private: the scheduler makes its decisions inside
#: simcore processes, so it has no public per-decision entry point.
METHOD_SPANS = [
    ("repro.network.routing", "EcmpRouter", "path", "routing.path_s"),
    ("repro.network.routing", "EcmpRouter", "distances_to",
     "routing.distances_s"),
    ("repro.network.engine", "FabricEngine", "run", "engine.self_s"),
    ("repro.network.engine", "FabricEngine", "submit", "engine.self_s"),
    ("repro.simcore.engine", "Simulator", "step", "simcore.step_s"),
    ("repro.cluster.scheduler", "ClusterScheduler", "start",
     "cluster.scheduler_s"),
    ("repro.cluster.scheduler", "ClusterScheduler", "_dispatch",
     "cluster.scheduler_s"),
    ("repro.cluster.scheduler", "ClusterScheduler", "_place",
     "cluster.scheduler_s"),
    ("repro.monitoring.multijob", "MultiJobRun", "run",
     "monitoring.jobsim_s"),
    ("repro.monitoring.jobsim", "MonitoredTrainingJob", "run",
     "monitoring.jobsim_s"),
    ("repro.monitoring.pingmesh", "Pingmesh", "census",
     "monitoring.census_s"),
    ("repro.hierarchy.run", "HierarchicalRun", "run", "hierarchy.fold_s"),
    ("repro.seer.serving", "ServingSimulator", "run",
     "serving.pool_sim_s"),
    ("repro.serving.cosim", "KvCosim", "run", "serving.cosim_s"),
    ("repro.serving.run", "ServingRun", "run", "serving.pipeline_s"),
    ("repro.farm.executor", "FarmExecutor", "run", "farm.dispatch_s"),
    ("repro.twin.session", "TwinSession", "__init__", "twin.session_s"),
    ("repro.twin.session", "TwinSession", "advance", "twin.session_s"),
    ("repro.twin.session", "_ClusterStack", "collect", "twin.collect_s"),
    ("repro.twin.client", "TwinClient", "request", "twin.http_s"),
]

#: (module, function): calls counted, not timed.
COUNTED_CALLS = [("repro.validation.runner", "run_case")]

#: (module, class, field): counters read as the program writes them.
COUNTER_FIELDS = [
    ("repro.network.solver", "SolverStats", "solves"),
    ("repro.network.solver", "SolverStats", "components_solved"),
    ("repro.network.solver", "SolverStats", "link_visits"),
    ("repro.network.fabric", "Fabric", "hops_cache_hits"),
    ("repro.network.fabric", "Fabric", "hops_cache_misses"),
]

#: span whose open frame adopts other threads' top-level spans.
REQUEST_SPAN = "TwinClient.request"
FARM_WORKER = ("repro.farm.executor", "_farm_worker")

#: every self-time metric a span can feed, in report order.
TIME_METRICS = [
    "topology.build_s", "routing.path_s", "routing.distances_s",
    "solver.fill_s", "engine.self_s", "simcore.step_s",
    "cluster.scheduler_s", "monitoring.jobsim_s", "monitoring.census_s",
    "hierarchy.fold_s", "hierarchy.refine_s", "serving.pool_sim_s",
    "serving.cosim_s", "serving.pipeline_s", "farm.dispatch_s",
    "validation.oracle_s",
    "twin.session_s", "twin.collect_s", "twin.http_s",
]


def import_all_repro() -> None:
    """Import every ``repro`` module so each binding can be patched."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class _Counter:
    """Data descriptor that keeps an int field per instance and adds
    every change to the tracer's running total."""

    def __init__(self, tracer: "Tracer", name: str, default: Any):
        self.tracer = tracer
        self.name = name
        self.default = default

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.default
        return obj.__dict__.get(self.name, self.default)

    def __set__(self, obj, value) -> None:
        old = obj.__dict__.get(self.name, self.default)
        obj.__dict__[self.name] = value
        if self.tracer.active:
            self.tracer.add_count(self.name, value - old)


class Tracer:
    """Installs the spans above; aggregates self time and counts."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._pid = os.getpid()
        self._task_seq = 0
        self.reset()

    # -- aggregation ------------------------------------------------------
    def reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._harness_thread = threading.get_ident()
        self.request: Optional[list] = None
        #: spans record only while set: the harness clears it around
        #: the output checks, which are not part of the timed body.
        self.active = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: harness-thread time covered by top-level spans.
        self.covered_s = 0.0

    def add_count(self, name: str, delta: float) -> None:
        with self._lock:
            self.counts[name] += delta

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, metric: str, name: str, frame: list,
               stack: list, failed: bool) -> None:
        duration = time.perf_counter() - frame[0]
        with self._lock:
            self.self_s[metric] += duration - frame[1]
            self.calls[name] += 1
            if failed:
                self.errors[name] += 1
            if stack:
                stack[-1][1] += duration
            elif threading.get_ident() == self._harness_thread:
                self.covered_s += duration
            elif self.request is not None:
                self.request[1] += duration

    def _span(self, metric: str, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            adopt = name == REQUEST_SPAN
            if adopt:
                tracer.request = frame
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                if adopt:
                    tracer.request = None
                stack.pop()
                tracer._close(metric, name, frame, stack, failed)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._lock:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- install / uninstall ----------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _patch_bindings(self, original: Callable, wrapper: Callable
                        ) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` to undo."""
        import_all_repro()
        self._pid = os.getpid()
        afters = self._afters()
        functions = list(FUNCTION_SPANS)
        for module_name in ORACLE_MODULES:
            module = importlib.import_module(module_name)
            functions += [(module_name, attr, "validation.oracle_s")
                          for attr, value in vars(module).items()
                          if attr.startswith("check_") and callable(value)
                          and getattr(value, "__module__", "")
                          == module_name]
        for module_name, attr, metric in functions:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch_bindings(original, self._span(
                metric, attr, original, afters.get(attr)))
        for module_name, cls_name, attr, metric in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = f"{cls_name}.{attr}"
            self._patch(cls, attr, self._span(
                metric, name, vars(cls)[attr], afters.get(name)))
        for module_name, attr in COUNTED_CALLS:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch_bindings(original, self._counted(attr, original))
        for module_name, cls_name, field in COUNTER_FIELDS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, field,
                        _Counter(self, field, getattr(cls, field, 0)))
        module = importlib.import_module(FARM_WORKER[0])
        original = getattr(module, FARM_WORKER[1])
        self._patch(module, FARM_WORKER[1],
                    self._farm_worker(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def installed(self) -> List[Tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._patches]

    # -- counts read from return values -----------------------------------
    def _afters(self) -> Dict[str, Callable]:
        add = self.add_count

        def built(args, topology):
            add("topology.links", len(topology.links))

        def hierarchy(args, _outcomes):
            report = args[0].report
            add("hierarchy.engine_hosts", report.engine_hosts)
            add("hierarchy.refine_engine_hosts",
                report.n_refine_engine_hosts)
            add("hierarchy.full_unfold_hosts", report.n_full_unfold_hosts)

        def farm(args, report):
            executed = [r for r in report.results if not r.cached]
            add("farm.tasks", len(executed))
            add("farm.busy_s", sum(r.elapsed_s for r in executed))
            add("farm.capacity_s", report.wall_s * report.workers)
            stats = report.cache_stats or {}
            add("farm.cache_hits", stats.get("hits", 0))
            add("farm.cache_misses", stats.get("misses", 0))

        def serving(args, report):
            add("serving.fold_factor", report.fold["fold_factor"])

        return {"build_astral": built, "HierarchicalRun.run": hierarchy,
                "FarmExecutor.run": farm, "ServingRun.run": serving}

    # -- farm pool workers --------------------------------------------------
    def _farm_worker(self, original: Callable) -> Callable:
        tracer = self

        def traced_worker(payload):
            if os.getpid() == tracer._pid:
                return original(payload)   # serial farm: same process
            tracer.reset()
            try:
                return original(payload)
            finally:
                tracer._dump_task()

        # Pickled by reference: the pool finds this wrapper under the
        # original's name, and forked workers inherit it.
        traced_worker.__module__ = original.__module__
        traced_worker.__qualname__ = original.__qualname__
        traced_worker.__name__ = original.__name__
        return traced_worker

    def _dump_task(self) -> None:
        self._task_seq += 1
        path = os.path.join(self.dump_dir,
                            f"task-{os.getpid()}-{self._task_seq}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"self_s": self.self_s, "calls": self.calls,
                       "errors": self.errors, "counts": self.counts},
                      handle)

    def merge_worker_dumps(self) -> int:
        """Fold pool workers' task aggregates into this tracer."""
        merged = 0
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.startswith("task-"):
                continue
            path = os.path.join(self.dump_dir, entry)
            with open(path, encoding="utf-8") as handle:
                dump = json.load(handle)
            os.remove(path)
            for key, table in (("self_s", self.self_s),
                               ("calls", self.calls),
                               ("errors", self.errors),
                               ("counts", self.counts)):
                for name, value in dump[key].items():
                    table[name] += value
            merged += 1
        return merged

    # -- the per-layer table ----------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Totals over everything traced since the last reset."""
        c, calls = self.counts, self.calls

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics = {name: self.self_s.get(name, 0.0)
                   for name in TIME_METRICS}
        hits = c.get("hops_cache_hits", 0)
        metrics.update({
            "topology.builds": calls.get("build_astral", 0),
            "topology.links": c.get("topology.links", 0),
            "routing.paths": calls.get("EcmpRouter.path", 0),
            "routing.distances_calls": calls.get(
                "EcmpRouter.distances_to", 0),
            "fabric.hops_cache_hit_ratio": ratio(
                hits, hits + c.get("hops_cache_misses", 0)),
            "solver.solves": c.get("solves", 0),
            "solver.components_solved": c.get("components_solved", 0),
            "solver.link_visits": c.get("link_visits", 0),
            "engine.flows": calls.get("FabricEngine.submit", 0),
            "simcore.steps": calls.get("Simulator.step", 0),
            "cluster.jobs_started": calls.get("ClusterScheduler._place", 0),
            "hierarchy.engine_hosts": c.get("hierarchy.engine_hosts", 0),
            "hierarchy.unfold_economy": ratio(
                c.get("hierarchy.full_unfold_hosts", 0),
                c.get("hierarchy.refine_engine_hosts", 0)),
            "serving.pool_sims": calls.get("ServingSimulator.run", 0),
            "serving.fold_factor": ratio(c.get("serving.fold_factor", 0),
                                         calls.get("ServingRun.run", 0)),
            "farm.tasks": c.get("farm.tasks", 0),
            "farm.cache_hit_ratio": ratio(
                c.get("farm.cache_hits", 0),
                c.get("farm.cache_hits", 0) + c.get("farm.cache_misses", 0)),
            "farm.worker_busy_frac": ratio(c.get("farm.busy_s", 0.0),
                                           c.get("farm.capacity_s", 0.0)),
            "validation.cases": calls.get("run_case", 0),
            "twin.requests": calls.get(REQUEST_SPAN, 0),
            "twin.non2xx": self.errors.get(REQUEST_SPAN, 0),
        })
        return metrics
