"""The continuous verification daemon.

One :class:`VerificationService` owns a set of registered applications
(:mod:`repro.service.specs`), a source watcher per app
(:mod:`repro.service.watcher`), the shared on-disk verdict cache, and a
thread-safe metrics registry.  Its cycle is:

    poll sources -> (on change) rebuild + re-analyze the app
                 -> run the incremental pair sweep (only misses solve);
                    it hands back the plan it executed
                 -> read the invalidated pairs from that plan
                 -> prune stale cache entries
                 -> publish the restriction set if it changed

Invalidation is *free* by construction: pair fingerprints are
content-addressed over ``(path P, path Q, schema, config, engine)``
(:mod:`repro.engine.fingerprint`), so an edited view's pairs simply miss
the cache and everything untouched replays.  A cycle plans its sweep
once: the scheduler's pass-1 planner
(:func:`repro.engine.reduction.plan_sweep` — pruning, cache lookup,
signature-class assignment) runs inside the sweep, and the report hands
that plan back (``report.plan``).  The cycle's invalidated pairs are
read from it, so they are precisely the *representative* pairs the
sweep solved: a class member whose representative misses the cache is
not re-solved, it is re-shared, and is counted accordingly.

Publishing: every app state carries a **restriction-set version**.  The
version bumps only when the endpoint-level conflict table actually
changed — an edit that alters a view body without changing any verdict
re-verifies cheaply and publishes nothing.  Subscribers
(:class:`repro.georep.deployment.RestrictionSetSubscription`) receive
the new table atomically and a live deployment applies it between
simulation events, without restart.

Failure handling rides on PR 5's engine machinery: the sweep runs with
per-pair deadlines and the retry policy, so a hung or crashing pair
degrades to a conservative ``unknown`` verdict instead of wedging the
daemon loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analyzer import analyze_application
from ..engine.cache import DEFAULT_CACHE_DIR, ResultCache
from ..engine.fingerprint import FingerprintContext
from ..engine.reduction import plan_sweep
from ..engine.scheduler import run_pair_sweep
from ..georep.deployment import RestrictionSetSubscription
from ..metrics import registry as metrics_registry
from ..metrics.registry import MetricsRegistry
from ..obs import tracer as obs
from ..soir.path import AnalysisResult
from ..verifier import CheckConfig
from ..verifier.runner import operation_conflict_table
from .specs import AppSpec
from .watcher import SourceWatcher

#: default seconds between daemon polls
DEFAULT_POLL_INTERVAL_S = 2.0


class LockedMetricsRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` safe to share between the daemon loop
    and HTTP handler threads (the base class is deliberately
    single-context; the daemon is the one multi-threaded consumer)."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()

    def inc(self, name, value=1.0, **labels):
        with self._lock:
            super().inc(name, value, **labels)

    def set_gauge(self, name, value, **labels):
        with self._lock:
            super().set_gauge(name, value, **labels)

    def observe(self, name, value, **labels):
        with self._lock:
            super().observe(name, value, **labels)

    def snapshot(self):
        with self._lock:
            return super().snapshot()

    def value(self, name, **labels):
        with self._lock:
            return super().value(name, **labels)

    def total(self, name):
        with self._lock:
            return super().total(name)


@dataclass(frozen=True)
class CycleStats:
    """Outcome of one re-verification of one app."""

    app: str
    trigger: str  # initial | change | forced | once
    files: tuple[str, ...]
    #: pairs whose fingerprint missed the cache before the sweep, in
    #: sweep order — read from the plan the sweep executed, so exactly
    #: what it solved (class members whose representative was solved
    #: are *shared*, not listed)
    invalidated: tuple[tuple[str, str], ...]
    pairs_total: int
    solver_calls: int
    #: reduction-pipeline effect this cycle: signature classes formed
    #: and verdicts shared from representatives
    classes: int
    shared: int
    cache_hits: int
    pruned_entries: int
    restrictions: int
    unknowns: int
    version: int
    version_changed: bool
    wall_s: float

    def to_obj(self) -> dict:
        return {
            "app": self.app,
            "trigger": self.trigger,
            "files": list(self.files),
            "invalidated": [list(pair) for pair in self.invalidated],
            "invalidated_count": len(self.invalidated),
            "pairs_total": self.pairs_total,
            "solver_calls": self.solver_calls,
            "classes": self.classes,
            "shared": self.shared,
            "cache_hits": self.cache_hits,
            "pruned_entries": self.pruned_entries,
            "restrictions": self.restrictions,
            "unknowns": self.unknowns,
            "version": self.version,
            "version_changed": self.version_changed,
            "wall_s": round(self.wall_s, 4),
        }


@dataclass
class AppState:
    """Everything the daemon knows about one registered app."""

    spec: AppSpec
    watcher: SourceWatcher
    analysis: AnalysisResult | None = None
    report_obj: dict | None = None
    restrictions: set[frozenset[str]] = field(default_factory=set)
    conflict_table: set[frozenset[str]] = field(default_factory=set)
    version: int = 0
    last_cycle: CycleStats | None = None
    subscriptions: list[RestrictionSetSubscription] = field(
        default_factory=list)
    error: str = ""


def live_pair_fingerprints(
    analysis: AnalysisResult,
    config: CheckConfig,
    engine: str = "enum",
) -> set[str]:
    """The pair fingerprints a sweep over ``analysis`` would reference —
    the scheduler's ``live`` set, reproduced for out-of-sweep pruning
    (``repro cache --prune`` and the daemon's post-sweep prune).

    Built from the same planner the scheduler executes, so the survivor
    set is exact under reduction too: class members keep their own
    fingerprints live (they cache under them), rw-pruned pairs do not."""
    fingerprints = FingerprintContext(analysis.schema, config, engine)
    plan = plan_sweep(analysis, config, engine=engine,
                      fingerprints=fingerprints)
    return plan.live_fingerprints()


class VerificationService:
    """Watch registered apps, re-verify on change, publish restrictions."""

    def __init__(
        self,
        specs: list[AppSpec],
        config: CheckConfig | None = None,
        *,
        engine: str = "enum",
        jobs: int = 1,
        cache_dir: str | None = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config or CheckConfig()
        self.engine = engine
        self.jobs = jobs
        self.cache_dir = str(cache_dir or DEFAULT_CACHE_DIR)
        self.poll_interval_s = poll_interval_s
        self.registry = registry or LockedMetricsRegistry()
        #: serializes re-verification cycles (daemon loop vs forced HTTP
        #: reverify); never held while answering reads
        self._verify_lock = threading.RLock()
        #: guards app-state swaps so HTTP readers see consistent states
        self._state_lock = threading.RLock()
        self.apps: dict[str, AppState] = {}
        self.last_trace: dict | None = None
        self.started_at = time.time()
        for spec in specs:
            self.register(spec)

    # -- registration ------------------------------------------------------

    def register(self, spec: AppSpec) -> AppState:
        if spec.name in self.apps:
            raise ValueError(f"app {spec.name!r} already registered")
        watcher = SourceWatcher(spec.source_dir)
        watcher.prime()
        state = AppState(spec=spec, watcher=watcher)
        with self._state_lock:
            self.apps[spec.name] = state
        return state

    def _state(self, name: str) -> AppState:
        try:
            return self.apps[name]
        except KeyError:
            raise KeyError(f"unknown app {name!r}") from None

    # -- re-verification ---------------------------------------------------

    def reverify(self, name: str, trigger: str = "forced",
                 files: tuple[str, ...] = ()) -> CycleStats:
        """Rebuild, re-analyze and incrementally re-verify one app."""
        state = self._state(name)
        started = time.perf_counter()
        with self._verify_lock:
            tracer = obs.Tracer()
            with metrics_registry.activate(self.registry), \
                    obs.activate(tracer):
                app = state.spec.build()
                analysis = analyze_application(app)
                report = run_pair_sweep(
                    analysis, self.config, engine=self.engine,
                    jobs=self.jobs, use_cache=True,
                    cache_dir=self.cache_dir,
                )
                # The plan the sweep executed: its solve route is this
                # cycle's invalidation, its fingerprints the prune
                # survivors.
                plan = report.plan
                invalidated = plan.invalidated()
                # Prune *after* the sweep so the removal count is
                # observable in the cycle stats and the metrics.
                cache = ResultCache(self.cache_dir, analysis.app_name)
                pruned = cache.prune(plan.live_fingerprints())
                cache.flush()
            trace_obj = {
                "app": name,
                "trigger": trigger,
                "roots": [obs.span_to_obj(root) for root in tracer.roots],
            } if tracer.roots else None

            restrictions = report.restriction_pairs()
            conflicts = operation_conflict_table(report)
            metrics = report.metrics
            wall_s = time.perf_counter() - started

            with self._state_lock:
                version_changed = (state.version == 0
                                   or conflicts != state.conflict_table)
                if version_changed:
                    state.version += 1
                state.analysis = analysis
                state.report_obj = report.to_json_obj()
                state.restrictions = restrictions
                state.conflict_table = conflicts
                state.error = ""
                if version_changed:
                    for subscription in state.subscriptions:
                        subscription.publish(conflicts, version=state.version)
                stats = CycleStats(
                    app=name, trigger=trigger, files=tuple(files),
                    invalidated=tuple(invalidated),
                    pairs_total=len(plan.pairs),
                    solver_calls=int(metrics.get("solver_calls", 0)),
                    classes=plan.classes,
                    shared=int(metrics.get("shared", 0)),
                    cache_hits=int(metrics.get("cache_hits", 0)),
                    pruned_entries=pruned,
                    restrictions=len(restrictions),
                    unknowns=int(metrics.get("unknowns", 0)),
                    version=state.version,
                    version_changed=version_changed,
                    wall_s=wall_s,
                )
                state.last_cycle = stats
                self.last_trace = trace_obj

            reg = self.registry
            reg.inc("noctua_service_reverifies_total", app=name)
            reg.inc("noctua_service_invalidated_pairs_total",
                    float(len(invalidated)), app=name)
            if pruned:
                reg.inc("noctua_service_pruned_entries_total",
                        float(pruned), app=name)
            if version_changed:
                reg.inc("noctua_service_publishes_total", app=name)
            reg.set_gauge("noctua_service_restriction_version",
                          float(state.version), app=name)
            reg.observe("noctua_service_cycle_seconds", wall_s, app=name)
            return stats

    def run_cycle(self, *, force: bool = False) -> list[CycleStats]:
        """One watch→invalidate→re-verify pass over every app.

        ``force`` re-verifies regardless of watcher deltas — the
        ``--once`` mode, where the previous process's watcher baseline is
        gone and the cache is the cross-process invalidation signal."""
        out: list[CycleStats] = []
        for name, state in list(self.apps.items()):
            delta = state.watcher.poll()
            if state.analysis is None:
                trigger = "initial"
            elif delta.changed:
                trigger = "change"
            elif force:
                trigger = "forced"
            else:
                self.registry.inc("noctua_service_cycles_total",
                                  outcome="clean")
                continue
            self.registry.inc("noctua_service_cycles_total", outcome=trigger)
            try:
                out.append(self.reverify(name, trigger=trigger,
                                         files=delta.files))
            except Exception as exc:  # keep the daemon loop alive
                with self._state_lock:
                    state.error = f"{type(exc).__name__}: {exc}"
        return out

    def serve_forever(self, stop: threading.Event | None = None) -> None:
        """Poll-and-verify loop; returns when ``stop`` is set."""
        stop = stop or threading.Event()
        while not stop.is_set():
            self.run_cycle()
            stop.wait(self.poll_interval_s)

    # -- subscriptions -----------------------------------------------------

    def subscribe(self, name: str) -> RestrictionSetSubscription:
        """A live handle on one app's restriction set.  The current
        table (if any) is published immediately; later verdict changes
        arrive as version bumps."""
        state = self._state(name)
        subscription = RestrictionSetSubscription()
        with self._state_lock:
            if state.version:
                subscription.publish(state.conflict_table,
                                     version=state.version)
            state.subscriptions.append(subscription)
        return subscription

    # -- read API (HTTP control plane) -------------------------------------

    def app_names(self) -> list[str]:
        with self._state_lock:
            return list(self.apps)

    def app_summary(self, name: str) -> dict:
        state = self._state(name)
        with self._state_lock:
            summary: dict = {
                "app": name,
                "builtin": state.spec.builtin,
                "source_dir": str(Path(state.spec.source_dir)),
                "watched_files": state.watcher.file_count,
                "version": state.version,
                "restrictions": len(state.restrictions),
                "conflict_operations": len(state.conflict_table),
                "verified": state.analysis is not None,
                "subscribers": len(state.subscriptions),
            }
            if state.last_cycle is not None:
                summary["last_cycle"] = state.last_cycle.to_obj()
            if state.error:
                summary["error"] = state.error
            return summary

    def restrictions_obj(self, name: str) -> dict:
        state = self._state(name)
        with self._state_lock:
            return {
                "app": name,
                "version": state.version,
                "restrictions": sorted(
                    sorted(pair) for pair in state.restrictions),
                "conflict_table": sorted(
                    sorted(pair) for pair in state.conflict_table),
            }

    def report_obj(self, name: str) -> dict | None:
        state = self._state(name)
        with self._state_lock:
            return state.report_obj
