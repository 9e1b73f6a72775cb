"""Zero-dependency, contextvar-scoped metrics registry.

The registry follows the same discipline as ``repro.obs.tracer``: all
instrumentation sites call the module-level helpers (:func:`inc`,
:func:`observe`, :func:`set_gauge`), which resolve the active registry
through one :class:`contextvars.ContextVar` read and no-op when none is
active.  Enabling metrics is therefore a caller decision
(``with metrics.activate(registry): ...``) and un-metered runs pay a
single attribute read per site.

Three instrument kinds are supported:

* **counter** — monotonically increasing float (``inc``).
* **gauge** — last-write-wins float (``set_gauge``).
* **histogram** — fixed-bucket distribution (``observe``).  Bucket
  edges are *deterministic*: they come from the family declaration in
  :data:`FAMILIES`, never from the observed data, so two runs (or two
  processes) always produce mergeable, comparable histograms.

Families are declared centrally in :data:`FAMILIES` so that the
exposition layer can emit stable ``HELP``/``TYPE`` metadata and tools
can assert on family presence.  Unknown names raise immediately —
typos in instrumentation sites fail loudly in tests rather than
silently creating a new series.
"""
from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Iterator

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Deterministic bucket edge sets.  Strictly increasing, finite; the
# implicit +Inf bucket is appended by the exposition layer.
SECONDS_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)
MILLIS_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)
ROUNDS_BUCKETS: tuple[float, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55)


@dataclass(frozen=True)
class FamilySpec:
    """Declaration of one metric family (name, kind, help, buckets)."""

    name: str
    kind: str
    help: str
    buckets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == HISTOGRAM:
            if not self.buckets:
                raise ValueError(f"histogram family {self.name} needs buckets")
            if list(self.buckets) != sorted(set(self.buckets)):
                raise ValueError(
                    f"histogram family {self.name} buckets must be strictly increasing"
                )


def _specs(*specs: FamilySpec) -> dict[str, FamilySpec]:
    return {s.name: s for s in specs}


#: Central family catalogue.  Every instrumentation site references one
#: of these names; the exposition layer derives HELP/TYPE from it.
FAMILIES: dict[str, FamilySpec] = _specs(
    # -- engine / pair sweep -------------------------------------------------
    FamilySpec("noctua_engine_sweeps_total", COUNTER,
               "Pair sweeps executed, by scheduler mode."),
    FamilySpec("noctua_engine_pairs_total", COUNTER,
               "Pairs classified during sweeps, by route "
               "(pruned:<tag> / cached / shared / solved / unknown)."),
    FamilySpec("noctua_engine_classes_total", COUNTER,
               "Signature equivalence classes formed by the reduction "
               "planner (one solver call per class)."),
    FamilySpec("noctua_engine_class_shared_total", COUNTER,
               "Pair verdicts shared from a class representative instead "
               "of being solved."),
    FamilySpec("noctua_engine_pruned_pairs_total", COUNTER,
               "Pairs resolved by solver-free pruning, by tag "
               "(conservative / order / disjoint / rw-disjoint)."),
    FamilySpec("noctua_engine_cache_hits_total", COUNTER,
               "Pair verdicts served from the cross-run cache."),
    FamilySpec("noctua_engine_cache_misses_total", COUNTER,
               "Pairs that had to be solved (or gave up) after a cache miss."),
    FamilySpec("noctua_engine_cache_saved_seconds_total", COUNTER,
               "Solve wall seconds avoided by cache hits."),
    FamilySpec("noctua_engine_cache_quarantines_total", COUNTER,
               "Corrupt cache files quarantined on load."),
    FamilySpec("noctua_engine_checkpoints_total", COUNTER,
               "Incremental cache checkpoints written mid-sweep."),
    FamilySpec("noctua_engine_retries_total", COUNTER,
               "Failed solve attempts that were retried successfully."),
    FamilySpec("noctua_engine_unknowns_total", COUNTER,
               "Pairs conservatively restricted after retry exhaustion."),
    FamilySpec("noctua_engine_failures_total", COUNTER,
               "Solve-attempt failures, by kind (timeout / crash / solver-error)."),
    FamilySpec("noctua_engine_fallbacks_total", COUNTER,
               "Pairs that fell back from the SMT engine to enumeration."),
    FamilySpec("noctua_engine_respawns_total", COUNTER,
               "Worker processes respawned after a pool death."),
    FamilySpec("noctua_engine_pair_solve_seconds", HISTOGRAM,
               "Wall seconds to solve one pair, by backend.",
               SECONDS_BUCKETS),
    # -- solver backends -----------------------------------------------------
    FamilySpec("noctua_solver_calls_total", COUNTER,
               "Backend invocations, by backend and result."),
    FamilySpec("noctua_solver_call_seconds", HISTOGRAM,
               "Wall seconds per backend invocation, by backend.",
               SECONDS_BUCKETS),
    FamilySpec("noctua_solver_clauses", HISTOGRAM,
               "Clauses asserted per SMT solver call.", COUNT_BUCKETS),
    FamilySpec("noctua_solver_candidates", HISTOGRAM,
               "Candidate schedules examined per enumeration call.",
               COUNT_BUCKETS),
    FamilySpec("noctua_enum_pass_total", COUNTER,
               "Enum PASS verdicts, by coverage (exhaustive: the whole "
               "bounded state space was walked / sampled)."),
    # -- georep runtime ------------------------------------------------------
    FamilySpec("noctua_georep_delivered_total", COUNTER,
               "Operations applied at a replica, by site."),
    FamilySpec("noctua_georep_redelivered_total", COUNTER,
               "Replication log redelivery attempts."),
    FamilySpec("noctua_georep_deduplicated_total", COUNTER,
               "Duplicate deliveries suppressed by idempotent apply."),
    FamilySpec("noctua_georep_delivery_attempts", HISTOGRAM,
               "Delivery attempts needed before a site acked an entry.",
               ROUNDS_BUCKETS),
    FamilySpec("noctua_georep_faults_total", COUNTER,
               "Injected faults observed by the runtime, by kind."),
    FamilySpec("noctua_georep_partition_ms_total", COUNTER,
               "Total milliseconds of injected network partition."),
    FamilySpec("noctua_georep_replication_lag_ms", HISTOGRAM,
               "Simulated WAN lag between commit and remote apply.",
               MILLIS_BUCKETS),
    FamilySpec("noctua_georep_lease_wait_ms", HISTOGRAM,
               "Wait between lease request and grant at the coordinator.",
               MILLIS_BUCKETS),
    FamilySpec("noctua_georep_requests_total", COUNTER,
               "Client requests in the deployment simulator, by op and outcome."),
    FamilySpec("noctua_georep_request_latency_ms", HISTOGRAM,
               "End-to-end request latency in the deployment simulator, by op.",
               MILLIS_BUCKETS),
    # -- chaos harness -------------------------------------------------------
    FamilySpec("noctua_chaos_runs_total", COUNTER,
               "Chaos harness runs, by convergence outcome."),
    FamilySpec("noctua_chaos_recovery_seconds", HISTOGRAM,
               "Wall seconds from heal to full convergence (drain phase).",
               SECONDS_BUCKETS),
    FamilySpec("noctua_chaos_recovery_rounds", HISTOGRAM,
               "Redelivery rounds needed to drain all replication logs.",
               ROUNDS_BUCKETS),
    # -- differential testing ------------------------------------------------
    FamilySpec("noctua_difftest_cases_total", COUNTER,
               "Random differential test cases executed."),
    FamilySpec("noctua_difftest_mismatches_total", COUNTER,
               "Differential mismatches found, by kind."),
    FamilySpec("noctua_difftest_case_seconds", HISTOGRAM,
               "Wall seconds per differential test case.", SECONDS_BUCKETS),
    FamilySpec("noctua_difftest_directed_evals_total", COUNTER,
               "Directed-walk probe evaluations, by mode "
               "(directed / random)."),
    FamilySpec("noctua_difftest_directed_flips_total", COUNTER,
               "Verdict-boundary crossings found by the directed walk, "
               "by first diverging isolation level."),
    FamilySpec("noctua_difftest_directed_mutations_total", COUNTER,
               "Directed-walk mutants probed, by mutation operator."),
    FamilySpec("noctua_difftest_directed_schedules", HISTOGRAM,
               "DPOR-pruned schedules explored per k-path probe.",
               ROUNDS_BUCKETS),
    # -- continuous verification service -------------------------------------
    FamilySpec("noctua_service_cycles_total", COUNTER,
               "Daemon watch cycles, by outcome "
               "(clean / change / initial / forced)."),
    FamilySpec("noctua_service_reverifies_total", COUNTER,
               "Re-verification runs performed by the daemon, by app."),
    FamilySpec("noctua_service_invalidated_pairs_total", COUNTER,
               "Pairs invalidated (scheduled for re-solving) by source "
               "edits, by app."),
    FamilySpec("noctua_service_pruned_entries_total", COUNTER,
               "Stale cache entries dropped by daemon-side pruning, by app."),
    FamilySpec("noctua_service_reloads_total", COUNTER,
               "Restriction-set hot reloads applied by a live deployment."),
    FamilySpec("noctua_service_publishes_total", COUNTER,
               "Restriction-set versions published to subscribers, by app."),
    FamilySpec("noctua_service_restriction_version", GAUGE,
               "Current restriction-set version per registered app."),
    FamilySpec("noctua_service_http_requests_total", COUNTER,
               "Control-plane HTTP requests, by route and status."),
    FamilySpec("noctua_service_cycle_seconds", HISTOGRAM,
               "Wall seconds per daemon re-verification cycle, by app.",
               SECONDS_BUCKETS),
)


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum/count."""

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: tuple[float, ...]):
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.edges)
        while lo < hi:  # first edge >= value (bisect, inclusive upper bound)
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out

    def quantile(self, q: float) -> float:
        """Estimate a quantile by linear interpolation within buckets."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        acc = 0
        for i, c in enumerate(self.counts):
            if acc + c >= target and c > 0:
                lo = 0.0 if i == 0 else self.edges[i - 1]
                hi = self.edges[i] if i < len(self.edges) else lo
                frac = (target - acc) / c
                return lo + (hi - lo) * frac
            acc += c
        return self.edges[-1] if self.edges else 0.0


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Family:
    spec: FamilySpec
    series: dict[LabelKey, object] = field(default_factory=dict)


class MetricsRegistry:
    """Holds all metric families for one metering context.

    Not thread-safe by design: like the tracer, one registry belongs to
    one context (the parallel scheduler folds worker results in the
    parent, so workers never write concurrently).
    """

    def __init__(self, families: dict[str, FamilySpec] | None = None):
        catalogue = FAMILIES if families is None else families
        self._families: dict[str, Family] = {
            name: Family(spec) for name, spec in catalogue.items()
        }

    # -- write path ----------------------------------------------------------

    def _family(self, name: str, kind: str) -> Family:
        fam = self._families.get(name)
        if fam is None:
            raise KeyError(f"unknown metric family {name!r}")
        if fam.spec.kind != kind:
            raise TypeError(
                f"metric family {name!r} is a {fam.spec.kind}, not a {kind}"
            )
        return fam

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        fam = self._family(name, COUNTER)
        key = _label_key(labels)
        fam.series[key] = fam.series.get(key, 0.0) + value  # type: ignore[operator]

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        fam = self._family(name, GAUGE)
        fam.series[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        fam = self._family(name, HISTOGRAM)
        key = _label_key(labels)
        hist = fam.series.get(key)
        if hist is None:
            hist = Histogram(fam.spec.buckets)
            fam.series[key] = hist
        hist.observe(value)  # type: ignore[union-attr]

    # -- read path -----------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Scalar value of one counter/gauge series (0.0 when absent)."""
        fam = self._families[name]
        got = fam.series.get(_label_key(labels))
        return float(got) if got is not None else 0.0  # type: ignore[arg-type]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label series."""
        fam = self._families[name]
        return float(sum(fam.series.values()))  # type: ignore[arg-type]

    def histogram(self, name: str, **labels: str) -> Histogram | None:
        fam = self._families[name]
        got = fam.series.get(_label_key(labels))
        return got  # type: ignore[return-value]

    def histogram_sum(self, name: str) -> float:
        """Sum of observed values across every series of a histogram."""
        fam = self._family(name, HISTOGRAM)
        return sum(h.sum for h in fam.series.values())  # type: ignore[union-attr]

    def series(self, name: str) -> list[tuple[dict[str, str], object]]:
        fam = self._families[name]
        return [(dict(key), val) for key, val in sorted(fam.series.items())]

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data snapshot: JSON-serializable, deterministically ordered."""
        families = []
        for name in sorted(self._families):
            fam = self._families[name]
            if not fam.series:
                continue
            entry: dict = {
                "name": name,
                "kind": fam.spec.kind,
                "help": fam.spec.help,
                "series": [],
            }
            if fam.spec.kind == HISTOGRAM:
                entry["buckets"] = list(fam.spec.buckets)
            for key, val in sorted(fam.series.items()):
                row: dict = {"labels": dict(key)}
                if fam.spec.kind == HISTOGRAM:
                    hist: Histogram = val  # type: ignore[assignment]
                    row["counts"] = list(hist.counts)
                    row["sum"] = hist.sum
                    row["count"] = hist.count
                else:
                    row["value"] = float(val)  # type: ignore[arg-type]
                entry["series"].append(row)
            families.append(entry)
        return {"version": 1, "families": families}


# -- ambient registry (contextvar) -------------------------------------------

_ACTIVE: contextvars.ContextVar[MetricsRegistry | None] = contextvars.ContextVar(
    "repro_metrics_registry", default=None
)


def current() -> MetricsRegistry | None:
    """The registry active in this context, or None (metrics disabled)."""
    return _ACTIVE.get()


def enabled() -> bool:
    return _ACTIVE.get() is not None


@contextlib.contextmanager
def activate(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the ambient registry for the dynamic extent."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def inc(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment a counter on the ambient registry; no-op when disabled."""
    reg = _ACTIVE.get()
    if reg is None:
        return
    reg.inc(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation; no-op when disabled."""
    reg = _ACTIVE.get()
    if reg is None:
        return
    reg.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the ambient registry; no-op when disabled."""
    reg = _ACTIVE.get()
    if reg is None:
        return
    reg.set_gauge(name, value, **labels)
