"""Per-layer accounting for the traced benchmark run.

The benchmark does not change the program to trace it.  Instead
:func:`install` wraps the public functions at each layer boundary of the
source-to-restriction-set path — analysis, reduction planning, the
verdict cache and fingerprints, the scheduler, the enumerative checker
with its scopes and SOIR interpreter, the SMT checker and its solver, and
the verification service — and records, per layer, how often it ran and
for how long.  A wrapper replaces the function everywhere a ``repro``
module bound it by name, so ``from .x import f`` call sites are covered.

Times are inclusive wall time of the outermost call in a layer (a layer
re-entered from inside itself is counted once).  Work inside spawned
pool workers is invisible here; the pooled workload's layer numbers come
from the scheduler's own report instead.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Layer:
    calls: int = 0
    seconds: float = 0.0
    #: per-call durations, kept only for layers whose percentiles are
    #: reported
    samples: list[float] = field(default_factory=list)
    depth: int = 0


class Recorder:
    """Call counts and busy time per layer, plus sweep reports."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        #: ``(app, sweep wall seconds, report.metrics)`` per pair sweep
        self.sweeps: list[tuple[str, float, dict]] = []
        #: effectful path count per analysis
        self.effectful_paths = 0

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def seconds(self, name: str) -> float:
        return self.layers[name].seconds if name in self.layers else 0.0

    def calls(self, name: str) -> int:
        return self.layers[name].calls if name in self.layers else 0

    def samples(self, name: str) -> list[float]:
        return self.layers[name].samples if name in self.layers else []


def _timed(orig, layer: Layer, keep: bool):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if layer.depth:
            return orig(*args, **kwargs)
        layer.calls += 1
        layer.depth += 1
        started = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            layer.depth -= 1
            layer.seconds += elapsed
            if keep:
                layer.samples.append(elapsed)

    return wrapper


def _rebind(orig, replacement) -> None:
    """Point every loaded ``repro`` module's name for ``orig`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


#: (layer, module, function or ``Class.method``, keep per-call samples)
TARGETS = (
    ("analyzer.analyze", "repro.analyzer.engine", "analyze_application",
     False),
    ("reduction.plan", "repro.engine.reduction", "plan_sweep", False),
    ("cache.load", "repro.engine.cache", "ResultCache.__init__", False),
    ("cache.flush", "repro.engine.cache", "ResultCache.flush", False),
    ("fingerprint", "repro.engine.fingerprint",
     "FingerprintContext.__init__", False),
    ("fingerprint", "repro.engine.fingerprint", "FingerprintContext.pair",
     False),
    ("service.poll", "repro.service.watcher", "SourceWatcher.poll", False),
    ("service.build", "repro.service.specs", "AppSpec.build", False),
    ("enum.commutativity", "repro.verifier.enumcheck",
     "PairChecker.check_commutativity", True),
    ("enum.semantic", "repro.verifier.enumcheck",
     "PairChecker.check_semantic", True),
    ("scopes.build_scope", "repro.verifier.scopes", "build_scope", False),
    ("scopes.state_gen", "repro.verifier.scopes",
     "StateGenerator.canonical_states", False),
    ("scopes.state_gen", "repro.verifier.scopes",
     "StateGenerator.random_state", False),
    ("interp.apply_path", "repro.soir.interp", "apply_path", False),
    ("interp.run_path", "repro.soir.interp", "run_path", False),
    ("smt.commutativity", "repro.verifier.smtcheck",
     "SmtPairChecker.check_commutativity", True),
    ("smt.semantic", "repro.verifier.smtcheck",
     "SmtPairChecker.check_semantic", True),
    ("smt.solver_check", "repro.smt.solver", "Solver.check", False),
)


def install(recorder: Recorder):
    """Wrap every target; returns a function that undoes it."""
    import importlib

    undo = []
    for layer_name, module_name, qualname, keep in TARGETS:
        module = importlib.import_module(module_name)
        layer = recorder.layer(layer_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _timed(orig, layer, keep))
            undo.append(lambda c=cls, m=meth, o=orig: setattr(c, m, o))
        else:
            orig = getattr(module, qualname)
            wrapped = _timed(orig, layer, keep)
            if qualname == "analyze_application":
                wrapped = _counting_analysis(wrapped, recorder)
            _rebind(orig, wrapped)
            undo.append(lambda o=orig, w=wrapped: _rebind(w, o))

    scheduler = importlib.import_module("repro.engine.scheduler")
    sweep_orig = scheduler.run_pair_sweep

    @functools.wraps(sweep_orig)
    def sweep(analysis, *args, **kwargs):
        started = time.perf_counter()
        report = sweep_orig(analysis, *args, **kwargs)
        recorder.sweeps.append((analysis.app_name,
                                time.perf_counter() - started,
                                dict(report.metrics)))
        return report

    _rebind(sweep_orig, sweep)
    undo.append(lambda: _rebind(sweep, sweep_orig))

    def uninstall() -> None:
        for fn in reversed(undo):
            fn()

    return uninstall


def _counting_analysis(wrapped, recorder: Recorder):
    @functools.wraps(wrapped)
    def analyze(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        recorder.effectful_paths += len(result.effectful_paths)
        return result

    return analyze


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: apps that get a ``scheduler.sweep_s.<app>`` row
SWEEP_APPS = ("smallbank", "courseware", "todo", "postgraduation")


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Fold a traced pass into the per-layer metrics (name -> value,
    unit).  Layers a workload does not exercise read 0."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    put("analyzer.analyze_s", rec.seconds("analyzer.analyze"), "s")
    put("analyzer.effectful_paths", rec.effectful_paths, "count")
    put("reduction.plan_s", rec.seconds("reduction.plan"), "s")
    put("reduction.plan_calls", rec.calls("reduction.plan"), "count")

    def total(key: str) -> int:
        return sum(int(m.get(key, 0)) for _, _, m in rec.sweeps)

    pairs = total("pairs_total")
    solver_calls = total("solver_calls")
    put("reduction.pairs", pairs, "count")
    put("reduction.pruned", total("pruned"), "count")
    put("reduction.shared", total("shared"), "count")
    put("reduction.solver_calls", solver_calls, "count")
    put("reduction.solver_call_ratio",
        solver_calls / pairs if pairs else 0.0, "ratio")

    hits, misses = total("cache_hits"), total("cache_misses")
    put("cache.hits", hits, "count")
    put("cache.misses", misses, "count")
    put("cache.hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("cache.load_s", rec.seconds("cache.load"), "s")
    put("cache.flush_s", rec.seconds("cache.flush"), "s")
    put("fingerprint.s", rec.seconds("fingerprint"), "s")
    put("service.poll_s", rec.seconds("service.poll"), "s")
    put("service.build_s", rec.seconds("service.build"), "s")

    for app in SWEEP_APPS:
        put(f"scheduler.sweep_s.{app}",
            sum(s for name, s, _ in rec.sweeps if name == app), "s")
    pooled = [(s, m) for _, s, m in rec.sweeps if m.get("mode") == "parallel"]
    solve_wall = sum(m.get("solve_wall_s", 0.0) for _, m in pooled)
    put("scheduler.worker_utilization",
        sum(m.get("worker_utilization", 0.0) * m.get("solve_wall_s", 0.0)
            for _, m in pooled) / solve_wall if solve_wall else 0.0,
        "ratio")
    # Sweep time beyond a perfect split of the solver work over the
    # workers that ran it: planning, spawn, IPC, stragglers.
    put("scheduler.pool_overhead_s",
        sum(s - m.get("solve_cpu_s", 0.0) / max(1, m.get("jobs_used", 1))
            for s, m in pooled), "s")
    put("scheduler.fallbacks",
        sum(bool(m.get("fallback_reason")) + int(m.get("engine_fallbacks", 0))
            for _, _, m in rec.sweeps), "count")

    enum_checks = (rec.samples("enum.commutativity")
                   + rec.samples("enum.semantic"))
    put("enum.checks", len(enum_checks), "count")
    put("enum.check_p50_s", percentile(enum_checks, 50), "s")
    put("enum.check_p90_s", percentile(enum_checks, 90), "s")
    put("enum.commutativity_s", rec.seconds("enum.commutativity"), "s")
    put("enum.semantic_s", rec.seconds("enum.semantic"), "s")

    put("scopes.build_scope_calls", rec.calls("scopes.build_scope"), "count")
    put("scopes.build_scope_s", rec.seconds("scopes.build_scope"), "s")
    put("scopes.state_gen_s", rec.seconds("scopes.state_gen"), "s")

    for fn in ("apply_path", "run_path"):
        put(f"interp.{fn}_calls", rec.calls(f"interp.{fn}"), "count")
        put(f"interp.{fn}_s", rec.seconds(f"interp.{fn}"), "s")

    smt_checks = rec.samples("smt.commutativity") + rec.samples("smt.semantic")
    smt_s = rec.seconds("smt.commutativity") + rec.seconds("smt.semantic")
    solver_s = rec.seconds("smt.solver_check")
    put("smt.checks", len(smt_checks), "count")
    put("smt.check_p50_s", percentile(smt_checks, 50), "s")
    put("smt.solver_check_calls", rec.calls("smt.solver_check"), "count")
    put("smt.solver_check_s", solver_s, "s")
    put("smt.encode_s", max(0.0, smt_s - solver_s), "s")
    return out
