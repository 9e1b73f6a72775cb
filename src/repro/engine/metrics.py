"""Scheduler accounting: what a sweep did and where the time went.

The scheduler records every sweep as a ``pair-sweep`` span with one
``pair`` child per pair and one ``pair-failure`` record per failed
attempt (span taxonomy: docs/OBSERVABILITY.md).  :func:`fold_sweep`
reads that tree in one pass into the flat ``report.metrics`` dict and,
given a registry, emits the ``noctua_engine_*`` families in the same
pass.  The span tree is the one record: the CLI, the service and the
benchmark print the numbers in the trace.  The dict is plain data, so
the report layer needs no engine import.
"""

from __future__ import annotations

from ..metrics import MetricsRegistry
from ..obs.tracer import Span
from ..verifier.runner import (
    PRUNE_CONSERVATIVE, PRUNE_DISJOINT, PRUNE_ORDER, PRUNE_RW)

#: report key -> ``noctua_engine_*`` counter, incremented when non-zero
_COUNTERS = (
    ("class_count", "noctua_engine_classes_total"),
    ("shared", "noctua_engine_class_shared_total"),
    ("cache_hits", "noctua_engine_cache_hits_total"),
    ("cache_misses", "noctua_engine_cache_misses_total"),
    ("retries", "noctua_engine_retries_total"),
    ("unknowns", "noctua_engine_unknowns_total"),
    ("engine_fallbacks", "noctua_engine_fallbacks_total"),
    ("checkpoints", "noctua_engine_checkpoints_total"),
    ("workers_respawned", "noctua_engine_respawns_total"),
)


def fold_sweep(sweep: Span, registry: MetricsRegistry | None = None) -> dict:
    """Fold a finished ``pair-sweep`` span into ``report.metrics``.

    Pair routes: ``pruned:<tag>`` (no solver, no cache), ``cached`` (a
    cache hit; ``saved_s`` is its original solve time), ``shared``
    (relabeled from a class representative: neither hit nor miss),
    ``solved`` and ``unknown``.  When the sweep's ``cache`` attribute is
    not ``off``, every solved pair and every terminal unknown (one that
    was itself attempted, not a ``shared`` class member degrading with
    its representative) is a cache miss.  Every failed attempt was
    retried except the last one of each terminal unknown.
    ``worker_utilization`` is the solve seconds over (distinct solving
    pids × the solve phase's wall clock), capped at 1.

    With ``registry``, each solved pair's wall time is observed in
    ``noctua_engine_pair_solve_seconds`` under the engine its attempt
    ran (``engine_used`` on a fallback pair, else the sweep's engine),
    and the counter families are incremented from the report counts.
    Only ``inc`` and ``observe`` touch the registry."""
    attrs = sweep.attrs
    routes: dict[str, int] = {}
    failures: dict[str, int] = {}
    fallbacks = terminal = 0
    solve_cpu_s = cache_saved_s = 0.0
    pids = set()
    for span in sweep.children:
        if span.kind == "pair-failure":
            kind = span.attrs["failure"]
            failures[kind] = failures.get(kind, 0) + 1
            continue
        if span.kind != "pair":
            continue
        route = span.attrs["route"]
        routes[route] = routes.get(route, 0) + 1
        fallbacks += bool(span.attrs.get("engine_fallback"))
        if route == "unknown":
            terminal += not span.attrs.get("shared")
        elif route == "cached":
            cache_saved_s += span.attrs["saved_s"]
        elif route == "solved":
            solve_cpu_s += span.wall_s
            pids.add(span.attrs["pid"])
            if registry is not None:
                registry.observe(
                    "noctua_engine_pair_solve_seconds", span.wall_s,
                    backend=span.attrs.get("engine_used", attrs["engine"]))
    solved = routes.get("solved", 0)
    pruned = {tag: routes.get(f"pruned:{tag}", 0) for tag in (
        PRUNE_CONSERVATIVE, PRUNE_ORDER, PRUNE_DISJOINT, PRUNE_RW)}
    solve_wall_s = attrs["solve_wall_s"]
    metrics = {
        "jobs_requested": attrs["jobs_requested"],
        "jobs_used": attrs["jobs_used"],
        "mode": attrs["mode"],
        "fallback_reason": attrs["fallback_reason"],
        "pairs_total": sum(routes.values()),
        "pruned": sum(pruned.values()),
        "pruned_conservative": pruned[PRUNE_CONSERVATIVE],
        "pruned_order": pruned[PRUNE_ORDER],
        "pruned_disjoint": pruned[PRUNE_DISJOINT],
        "pruned_rw_disjoint": pruned[PRUNE_RW],
        "cache_hits": routes.get("cached", 0),
        "cache_misses": (solved + terminal
                         if attrs["cache"] != "off" else 0),
        "class_count": attrs["classes"],
        "shared": routes.get("shared", 0),
        "solver_calls": solved,
        "failures": dict(sorted(failures.items())),
        "retries": max(0, sum(failures.values()) - terminal),
        "engine_fallbacks": fallbacks,
        "unknowns": routes.get("unknown", 0),
        "checkpoints": attrs["checkpoints"],
        "workers_respawned": attrs["respawns"],
        "solve_wall_s": solve_wall_s,
        "solve_cpu_s": solve_cpu_s,
        "cache_saved_s": cache_saved_s,
        "worker_utilization": (
            min(1.0, solve_cpu_s / (len(pids) * solve_wall_s))
            if pids and solve_wall_s > 0.0 else 0.0),
    }
    if registry is None:
        return metrics
    for route, count in routes.items():
        registry.inc("noctua_engine_pairs_total", count, route=route)
        if route.startswith("pruned:"):
            registry.inc("noctua_engine_pruned_pairs_total", count,
                         tag=route.split(":", 1)[1])
    for kind, count in metrics["failures"].items():
        registry.inc("noctua_engine_failures_total", count, kind=kind)
    if metrics["cache_hits"]:
        registry.inc("noctua_engine_cache_saved_seconds_total", cache_saved_s)
    for key, family in _COUNTERS:
        if metrics[key]:
            registry.inc(family, metrics[key])
    registry.inc("noctua_engine_sweeps_total", mode=metrics["mode"])
    return metrics
