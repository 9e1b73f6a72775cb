"""Scheduler observability: what the sweep did and where the time went.

Since the observability layer landed, :class:`EngineMetrics` is a
*projection of the trace*: the scheduler wraps every sweep in a
``pair-sweep`` span with one ``pair`` child per pair (route, timings,
worker pid — see docs/OBSERVABILITY.md for the span taxonomy), and
:meth:`EngineMetrics.from_sweep` folds that span tree into the flat
counter dict.  There is no second bookkeeping path: the numbers the CLI
and the benchmarks print are, by construction, the numbers in the trace.

Since the metrics layer landed, the fold itself goes through one shared
routine, :func:`fold_sweep_into`, which emits the
``noctua_engine_*`` counter/histogram families into a
:class:`~repro.metrics.MetricsRegistry`.  ``from_sweep`` folds into a
private registry and projects the flat counters back out of it; the
scheduler *additionally* folds the finished sweep into the ambient
registry (when one is active) so cross-run aggregates accumulate.  The
hand-rolled counter loop this module used to carry is gone — the
registry is the single accounting path.

Attached to ``VerificationReport.metrics`` as a plain dict so the report
layer stays decoupled from the engine, serializes into the deployment
JSON artifact unchanged, and is printable by the CLI and the benchmark
harness without imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics import MetricsRegistry
from ..obs.tracer import Span


def fold_sweep_into(registry: MetricsRegistry, sweep: Span) -> dict:
    """Fold a finished ``pair-sweep`` span into ``registry``.

    Emits the ``noctua_engine_*`` families:

    * ``pairs_total{route=...}`` — every pair outcome by route
      (``pruned:<tag>`` / ``cached`` / ``shared`` / ``solved`` /
      ``unknown``);
    * ``classes_total`` / ``class_shared_total`` /
      ``pruned_pairs_total{tag=...}`` — reduction-pipeline effect:
      signature classes formed, verdicts shared from representatives,
      and solver-free prunes by tag;
    * ``cache_hits_total`` / ``cache_misses_total`` /
      ``cache_saved_seconds_total`` — cache efficiency;
    * ``pair_solve_seconds{backend=...}`` — per-pair solve wall time,
      split by the engine the attempt ran (``engine_used`` on fallback
      pairs, the sweep engine otherwise: a portfolio attempt is
      ``portfolio``, and its ``check`` spans name the lane that ran);
    * ``failures_total{kind=...}`` / ``retries_total`` /
      ``unknowns_total`` / ``fallbacks_total`` — the failure taxonomy
      (``pair-failure`` records count failed attempts; every failed
      attempt was retried except the terminal one of each unknown pair
      that was itself attempted — a class member degrading with its
      failed representative (``shared`` unknown) counts as an unknown
      only: no attempt, no retry, no cache miss);
    * ``checkpoints_total`` / ``respawns_total`` / ``sweeps_total{mode}``
      — sweep-level execution facts from the sweep span attributes.

    Returns the residue that is not a counter: per-worker busy seconds
    (keyed by pid string) and the solved pairs sorted slowest-first —
    the pieces :class:`EngineMetrics` keeps verbatim.
    """
    base_engine = sweep.attrs.get("engine", "enum")
    worker_busy: dict[str, float] = {}
    solved: list[tuple[str, str, float]] = []
    failed_attempts = 0
    terminal_failures = 0
    for span in sweep.children:
        if span.kind == "pair-failure":
            kind = span.attrs.get("failure", "unknown")
            registry.inc("noctua_engine_failures_total", kind=kind)
            failed_attempts += 1
            continue
        if span.kind != "pair":
            continue
        route = span.attrs.get("route", "")
        registry.inc("noctua_engine_pairs_total", route=route or "unknown")
        if route.startswith("pruned:"):
            registry.inc("noctua_engine_pruned_pairs_total",
                         tag=route.split(":", 1)[1])
        if span.attrs.get("engine_fallback"):
            registry.inc("noctua_engine_fallbacks_total")
        if route == "unknown":
            registry.inc("noctua_engine_unknowns_total")
            if not span.attrs.get("shared"):
                terminal_failures += 1
                if span.attrs.get("cache") == "miss":
                    registry.inc("noctua_engine_cache_misses_total")
        elif route == "cached":
            registry.inc("noctua_engine_cache_hits_total")
            registry.inc("noctua_engine_cache_saved_seconds_total",
                         span.attrs.get("saved_s", 0.0))
        elif route == "shared":
            # Served from a class representative: neither a cache hit
            # nor a miss — the pair was never fingerprint-looked-up as
            # solver work in its own right.
            registry.inc("noctua_engine_class_shared_total")
        elif route == "solved":
            if span.attrs.get("cache") == "miss":
                registry.inc("noctua_engine_cache_misses_total")
            elapsed = span.wall_s
            backend = span.attrs.get("engine_used", base_engine)
            registry.observe("noctua_engine_pair_solve_seconds", elapsed,
                             backend=backend)
            pid = str(span.attrs.get("pid", span.pid))
            worker_busy[pid] = worker_busy.get(pid, 0.0) + elapsed
            solved.append((
                span.attrs.get("left", ""),
                span.attrs.get("right", ""),
                elapsed,
            ))
    retries = max(0, failed_attempts - terminal_failures)
    if retries:
        registry.inc("noctua_engine_retries_total", retries)
    checkpoints = sweep.attrs.get("checkpoints", 0)
    if checkpoints:
        registry.inc("noctua_engine_checkpoints_total", checkpoints)
    respawns = sweep.attrs.get("respawns", 0)
    if respawns:
        registry.inc("noctua_engine_respawns_total", respawns)
    classes = sweep.attrs.get("classes", 0)
    if classes:
        registry.inc("noctua_engine_classes_total", classes)
    registry.inc("noctua_engine_sweeps_total",
                 mode=sweep.attrs.get("mode", "serial"))
    solved.sort(key=lambda t: t[2], reverse=True)
    return {"worker_busy_s": worker_busy, "solved": solved,
            "retries": retries}


@dataclass
class EngineMetrics:
    """Counters and timings for one pair sweep."""

    #: requested worker count and what actually ran
    jobs_requested: int = 1
    jobs_used: int = 1
    mode: str = "serial"  # "serial" | "parallel"
    fallback_reason: str = ""

    pairs_total: int = 0
    #: fast-path pruning counts (no solver, no cache involved)
    pruned_conservative: int = 0
    pruned_order: int = 0
    pruned_disjoint: int = 0
    pruned_rw_disjoint: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: reduction pipeline: signature classes formed this sweep and pair
    #: verdicts served by relabeling a class representative's verdict
    class_count: int = 0
    shared: int = 0
    #: pairs actually handed to a checker this run
    solver_calls: int = 0

    #: failure-taxonomy counters (see :mod:`repro.engine.failures`):
    #: failed attempts by kind, attempts retried, pairs re-solved on the
    #: fallback engine, and pairs that degraded to ``unknown`` verdicts
    failures: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    engine_fallbacks: int = 0
    unknowns: int = 0
    #: mid-sweep cache checkpoints flushed and workers respawned after
    #: a crash or watchdog kill
    checkpoints: int = 0
    workers_respawned: int = 0

    #: wall clock of the solve phase only (dispatch to last result)
    solve_wall_s: float = 0.0
    #: sum of per-pair solve times across workers (the "work done")
    solve_cpu_s: float = 0.0
    #: original solve time of verdicts replayed from the cache
    cache_saved_s: float = 0.0

    #: busy seconds per worker (keyed by worker pid as a string so the
    #: dict survives a JSON round-trip unchanged)
    worker_busy_s: dict[str, float] = field(default_factory=dict)

    #: the slowest solved pairs this run: (left, right, seconds)
    slowest_pairs: list[tuple[str, str, float]] = field(default_factory=list)

    @classmethod
    def from_sweep(cls, sweep: Span, *, keep_slowest: int = 5
                   ) -> "EngineMetrics":
        """Fold a ``pair-sweep`` span (and its ``pair`` children) into
        the flat metrics the report/CLI/benchmarks consume.

        The fold runs :func:`fold_sweep_into` against a private
        registry, then projects the counter fields back out of it; the
        execution-mode facts (``jobs_requested``/``jobs_used``/``mode``/
        ``fallback_reason``/``solve_wall_s``) come from the sweep span's
        own attributes.  Per-pair route semantics are documented on
        :func:`fold_sweep_into`.
        """
        registry = MetricsRegistry()
        residue = fold_sweep_into(registry, sweep)
        metrics = cls(jobs_requested=sweep.attrs.get("jobs_requested", 1))
        metrics.jobs_used = sweep.attrs.get("jobs_used", 1)
        metrics.mode = sweep.attrs.get("mode", "serial")
        metrics.fallback_reason = sweep.attrs.get("fallback_reason", "")
        metrics.solve_wall_s = sweep.attrs.get("solve_wall_s", 0.0)
        metrics.checkpoints = sweep.attrs.get("checkpoints", 0)
        metrics.workers_respawned = sweep.attrs.get("respawns", 0)

        pairs = "noctua_engine_pairs_total"
        metrics.pairs_total = int(registry.total(pairs))
        metrics.pruned_conservative = int(
            registry.value(pairs, route="pruned:conservative"))
        metrics.pruned_order = int(registry.value(pairs, route="pruned:order"))
        metrics.pruned_disjoint = int(
            registry.value(pairs, route="pruned:disjoint"))
        metrics.pruned_rw_disjoint = int(
            registry.value(pairs, route="pruned:rw-disjoint"))
        metrics.class_count = int(sweep.attrs.get("classes", 0))
        metrics.shared = int(
            registry.value("noctua_engine_class_shared_total"))
        metrics.solver_calls = int(registry.value(pairs, route="solved"))
        metrics.unknowns = int(registry.value(pairs, route="unknown"))
        metrics.cache_hits = int(
            registry.value("noctua_engine_cache_hits_total"))
        metrics.cache_misses = int(
            registry.value("noctua_engine_cache_misses_total"))
        metrics.cache_saved_s = registry.value(
            "noctua_engine_cache_saved_seconds_total")
        metrics.engine_fallbacks = int(
            registry.value("noctua_engine_fallbacks_total"))
        metrics.failures = {
            labels["kind"]: int(count)
            for labels, count in registry.series("noctua_engine_failures_total")
        }
        metrics.retries = residue["retries"]
        metrics.solve_cpu_s = registry.histogram_sum(
            "noctua_engine_pair_solve_seconds")
        metrics.worker_busy_s = residue["worker_busy_s"]
        metrics.slowest_pairs = residue["solved"][:keep_slowest]
        return metrics

    @property
    def pruned(self) -> int:
        return (self.pruned_conservative + self.pruned_order
                + self.pruned_disjoint + self.pruned_rw_disjoint)

    @property
    def worker_utilization(self) -> float:
        """Mean fraction of the solve phase each worker spent solving.

        1.0 means every worker was busy for the whole solve phase; low
        values flag stragglers or dispatch overhead dominating."""
        if not self.worker_busy_s or self.solve_wall_s <= 0.0:
            return 0.0
        capacity = len(self.worker_busy_s) * self.solve_wall_s
        return min(1.0, sum(self.worker_busy_s.values()) / capacity)

    def to_dict(self) -> dict:
        return {
            "jobs_requested": self.jobs_requested,
            "jobs_used": self.jobs_used,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "pairs_total": self.pairs_total,
            "pruned": self.pruned,
            "pruned_conservative": self.pruned_conservative,
            "pruned_order": self.pruned_order,
            "pruned_disjoint": self.pruned_disjoint,
            "pruned_rw_disjoint": self.pruned_rw_disjoint,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "class_count": self.class_count,
            "shared": self.shared,
            "solver_calls": self.solver_calls,
            "failures": dict(self.failures),
            "retries": self.retries,
            "engine_fallbacks": self.engine_fallbacks,
            "unknowns": self.unknowns,
            "checkpoints": self.checkpoints,
            "workers_respawned": self.workers_respawned,
            "solve_wall_s": self.solve_wall_s,
            "solve_cpu_s": self.solve_cpu_s,
            "cache_saved_s": self.cache_saved_s,
            "worker_utilization": self.worker_utilization,
            "worker_busy_s": dict(self.worker_busy_s),
            "slowest_pairs": [list(t) for t in self.slowest_pairs],
        }
