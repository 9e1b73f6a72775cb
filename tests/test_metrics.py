"""Tests for the unified metrics layer: the registry (counters, gauges,
fixed-bucket histograms), contextvar scoping, the no-metrics-no-cost
contract, the exposition formats (JSON round-trip, Prometheus text
format, snapshot diff), and the end-to-end instrumentation of the
engine, the solver backends and the georep runtime."""

from __future__ import annotations

import contextvars
import threading
import time

import pytest

from repro import metrics as mx
from repro.analyzer import analyze_application
from repro.metrics.registry import FAMILIES, HISTOGRAM, Histogram
from repro.verifier import CheckConfig, verify_application

#: deterministic budget: decided by sample exhaustion, never by the clock
CFG = CheckConfig(timeout_s=60.0, max_samples=60, max_exhaustive=800)


@pytest.fixture(scope="module")
def courseware_analysis():
    from repro.apps.courseware import build_app

    return analyze_application(build_app())


# ---------------------------------------------------------------------------
# Registry core
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_basics(self):
        reg = mx.MetricsRegistry()
        reg.inc("noctua_engine_cache_hits_total")
        reg.inc("noctua_engine_cache_hits_total", 2)
        assert reg.value("noctua_engine_cache_hits_total") == 3

    def test_labeled_series_are_independent(self):
        reg = mx.MetricsRegistry()
        reg.inc("noctua_engine_pairs_total", route="solved")
        reg.inc("noctua_engine_pairs_total", 4, route="cached")
        assert reg.value("noctua_engine_pairs_total", route="solved") == 1
        assert reg.value("noctua_engine_pairs_total", route="cached") == 4
        assert reg.total("noctua_engine_pairs_total") == 5
        assert reg.value("noctua_engine_pairs_total", route="unknown") == 0

    def test_unknown_family_raises(self):
        reg = mx.MetricsRegistry()
        with pytest.raises(KeyError):
            reg.inc("noctua_engine_cache_hitz_total")

    def test_kind_mismatch_raises(self):
        reg = mx.MetricsRegistry()
        with pytest.raises(TypeError):
            reg.inc("noctua_solver_call_seconds")
        with pytest.raises(TypeError):
            reg.observe("noctua_engine_cache_hits_total", 1.0)

    def test_histogram_buckets(self):
        hist = Histogram((1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 3.0, 10.0):
            hist.observe(value)
        # edges are inclusive upper bounds; last slot is +Inf
        assert hist.counts == [2, 1, 1, 1]
        assert hist.cumulative() == [2, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.0)

    def test_every_histogram_family_has_increasing_edges(self):
        for spec in FAMILIES.values():
            if spec.kind == HISTOGRAM:
                edges = list(spec.buckets)
                assert edges == sorted(set(edges)), spec.name


class TestBucketDeterminism:
    def test_same_observations_same_snapshot(self):
        """Bucket edges come from the family declaration, never from the
        data — two registries fed identical observations are identical,
        which is what makes histograms comparable across runs."""
        snaps = []
        for _ in range(2):
            reg = mx.MetricsRegistry()
            for value in (0.0001, 0.003, 0.003, 0.2, 7.0, 100.0):
                reg.observe("noctua_solver_call_seconds", value,
                            backend="enum")
            snaps.append(reg.snapshot())
        assert snaps[0] == snaps[1]
        (fam,) = snaps[0]["families"]
        assert tuple(fam["buckets"]) == mx.SECONDS_BUCKETS

    def test_observation_order_does_not_change_counts(self):
        values = [0.01, 5.0, 0.3, 0.0007, 0.3]
        a, b = mx.MetricsRegistry(), mx.MetricsRegistry()
        for v in values:
            a.observe("noctua_solver_call_seconds", v, backend="enum")
        for v in reversed(values):
            b.observe("noctua_solver_call_seconds", v, backend="enum")
        ha = a.histogram("noctua_solver_call_seconds", backend="enum")
        hb = b.histogram("noctua_solver_call_seconds", backend="enum")
        assert ha.counts == hb.counts
        assert ha.count == hb.count


# ---------------------------------------------------------------------------
# Contextvar scoping and the disabled-mode contract
# ---------------------------------------------------------------------------


class TestScoping:
    def test_disabled_by_default(self):
        assert mx.current() is None
        assert not mx.enabled()
        # module-level helpers are silent no-ops with no registry active
        mx.inc("noctua_engine_cache_hits_total")
        mx.observe("noctua_solver_call_seconds", 1.0, backend="enum")
        mx.set_gauge("noctua_engine_cache_hits_total", 1.0)

    def test_activate_scopes_and_restores(self):
        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            assert mx.current() is reg
            mx.inc("noctua_engine_cache_hits_total")
        assert mx.current() is None
        assert reg.value("noctua_engine_cache_hits_total") == 1

    def test_context_isolation(self):
        """Two contexts metering concurrently never see each other's
        registry — the property that lets concurrent sweeps meter
        independently."""
        regs = [mx.MetricsRegistry(), mx.MetricsRegistry()]

        def meter(reg: mx.MetricsRegistry, n: int) -> None:
            with mx.activate(reg):
                for _ in range(n):
                    assert mx.current() is reg
                    mx.inc("noctua_engine_cache_hits_total")

        ctx_a = contextvars.copy_context()
        ctx_b = contextvars.copy_context()
        ctx_a.run(meter, regs[0], 7)
        ctx_b.run(meter, regs[1], 3)
        assert regs[0].value("noctua_engine_cache_hits_total") == 7
        assert regs[1].value("noctua_engine_cache_hits_total") == 3

    def test_thread_isolation(self):
        regs = [mx.MetricsRegistry() for _ in range(4)]

        def meter(reg: mx.MetricsRegistry, n: int) -> None:
            with mx.activate(reg):
                for _ in range(n):
                    mx.inc("noctua_engine_cache_hits_total")

        threads = [
            threading.Thread(target=meter, args=(reg, 10 * (i + 1)))
            for i, reg in enumerate(regs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [
            reg.value("noctua_engine_cache_hits_total") for reg in regs
        ] == [10, 20, 30, 40]

    def test_disabled_mode_overhead(self):
        """With no registry active each helper call is one contextvar
        read — the budget here is deliberately generous (5 µs/call) so
        the assertion survives loaded CI machines while still catching
        an accidental always-on slow path."""
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            mx.inc("noctua_engine_cache_hits_total")
        elapsed = time.perf_counter() - start
        assert elapsed < n * 5e-6, f"{elapsed / n * 1e9:.0f} ns/call"


# ---------------------------------------------------------------------------
# Exposition: JSON round-trip, Prometheus text format, diff
# ---------------------------------------------------------------------------


def _sample_registry() -> mx.MetricsRegistry:
    reg = mx.MetricsRegistry()
    reg.inc("noctua_engine_cache_hits_total", 3)
    reg.inc("noctua_engine_pairs_total", 2, route="solved")
    reg.inc("noctua_engine_pairs_total", route="pruned:disjoint")
    for value in (0.002, 0.03, 0.03, 1.7):
        reg.observe("noctua_solver_call_seconds", value, backend="enum")
    reg.observe("noctua_solver_call_seconds", 0.2, backend="smt")
    return reg


class TestExposition:
    def test_json_round_trip(self):
        snap = _sample_registry().snapshot()
        text = mx.snapshot_to_json(snap)
        assert mx.snapshot_from_json(text) == snap

    def test_snapshot_rejects_garbage(self):
        with pytest.raises(ValueError):
            mx.snapshot_from_json("{}")
        with pytest.raises(ValueError):
            mx.snapshot_from_json('{"version": 1, "families": 3}')

    def test_prometheus_round_trip(self):
        snap = _sample_registry().snapshot()
        families = mx.parse_prometheus(mx.snapshot_to_prometheus(snap))
        assert set(families) == {fam["name"] for fam in snap["families"]}
        pairs = families["noctua_engine_pairs_total"]
        assert pairs["kind"] == "counter"
        assert (
            "noctua_engine_pairs_total", {"route": "solved"}, 2.0
        ) in pairs["samples"]

    def test_prometheus_histogram_is_cumulative_and_inf_terminated(self):
        snap = _sample_registry().snapshot()
        text = mx.snapshot_to_prometheus(snap)
        families = mx.parse_prometheus(text)  # the parser enforces both
        hist = families["noctua_solver_call_seconds"]
        enum_buckets = [
            (labels["le"], value)
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket") and labels.get("backend") == "enum"
        ]
        assert enum_buckets[-1] == ("+Inf", 4.0)
        counts = [v for _, v in enum_buckets]
        assert counts == sorted(counts)

    def test_prometheus_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            mx.parse_prometheus("loose_sample 1\n")  # no TYPE block
        broken = (
            "# TYPE bad histogram\n"
            'bad_bucket{le="1"} 5\n'
            'bad_bucket{le="+Inf"} 3\n'  # not cumulative
            "bad_sum 1.0\nbad_count 3\n"
        )
        with pytest.raises(ValueError):
            mx.parse_prometheus(broken)

    def test_diff_snapshots(self):
        before = _sample_registry().snapshot()
        reg = _sample_registry()
        reg.inc("noctua_engine_cache_hits_total", 2)
        reg.observe("noctua_solver_call_seconds", 0.5, backend="enum")
        after = reg.snapshot()
        rows = mx.diff_snapshots(before, after)
        by_key = {(r["name"], tuple(sorted(r["labels"].items()))): r
                  for r in rows}
        hits = by_key[("noctua_engine_cache_hits_total", ())]
        assert (hits["before"], hits["after"], hits["delta"]) == (3, 5, 2)
        enum = by_key[(
            "noctua_solver_call_seconds", (("backend", "enum"),)
        )]
        assert enum["delta"] == 1  # one more observation
        assert enum["sum_delta"] == pytest.approx(0.5)
        # identical snapshots diff to nothing
        assert mx.diff_snapshots(after, after) == []
        assert mx.render_diff([]) == ["(no differences)"]

    def test_render_table_mentions_every_family(self):
        snap = _sample_registry().snapshot()
        text = "\n".join(mx.render_table(snap))
        for fam in snap["families"]:
            assert fam["name"] in text


# ---------------------------------------------------------------------------
# End-to-end instrumentation
# ---------------------------------------------------------------------------


class TestEngineInstrumentation:
    def test_sweep_populates_registry(self, courseware_analysis):
        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            report = verify_application(courseware_analysis, CFG,
                                        use_cache=False)
        m = report.metrics
        pairs = "noctua_engine_pairs_total"
        # the ambient registry and the report metrics are projections of
        # the same fold — they must agree exactly
        assert reg.value(pairs, route="solved") == m["solver_calls"]
        assert reg.total(pairs) == m["pairs_total"]
        assert reg.value(pairs, route="pruned:disjoint") == \
            m["pruned_disjoint"]
        assert reg.value("noctua_engine_sweeps_total", mode="serial") == 1
        hist = reg.histogram("noctua_engine_pair_solve_seconds",
                             backend="enum")
        assert hist is not None and hist.count == m["solver_calls"]
        assert hist.sum == pytest.approx(m["solve_cpu_s"])
        # serial sweep: enum checks run in-process, so the backend
        # latency histogram fills too (two checks per solved pair)
        calls = reg.histogram("noctua_solver_call_seconds", backend="enum")
        assert calls is not None and calls.count == 2 * m["solver_calls"]

    def test_cache_hits_and_misses_are_counted(self, courseware_analysis,
                                               tmp_path):
        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            verify_application(courseware_analysis, CFG, use_cache=True,
                               cache_dir=str(tmp_path))
            verify_application(courseware_analysis, CFG, use_cache=True,
                               cache_dir=str(tmp_path))
        hits = reg.value("noctua_engine_cache_hits_total")
        misses = reg.value("noctua_engine_cache_misses_total")
        shared = reg.value("noctua_engine_class_shared_total")
        assert misses > 0  # cold sweep
        # the warm sweep replays every solved pair plus the class
        # members the cold sweep fanned out into the cache
        assert hits == misses + shared

    def test_failure_routes_agree_with_the_report(self, courseware_analysis,
                                                  tmp_path):
        """Crashed, retried and degraded pairs: every engine series the
        sweep's fold emits equals its ``report.metrics`` counterpart."""
        from repro.engine import EngineChaosPlan, RetryPolicy, run_pair_sweep
        from repro.engine.chaos import _solver_bound_pairs

        classes = _solver_bound_pairs(courseware_analysis, CFG)
        crashed, flaky, erroring = sorted(
            classes, key=lambda rep: -len(classes[rep]))[:3]
        assert len(classes[crashed]) > 1  # its members degrade with it
        policy = RetryPolicy(max_attempts=2, backoff_s=0.01)
        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            report = run_pair_sweep(
                courseware_analysis, CFG, jobs=1, use_cache=True,
                cache_dir=str(tmp_path), retry=policy, pair_deadline_s=30.0,
                chaos=EngineChaosPlan(crash=frozenset({crashed}),
                                      flaky_crash=frozenset({flaky}),
                                      error=frozenset({erroring})))
        m = report.metrics
        # the crashed class ends unknown; the other two recover on retry
        assert m["unknowns"] == len(classes[crashed])
        assert m["failures"] == {"crash": policy.max_attempts + 1,
                                 "solver-error": 1}
        assert m["retries"] == 3
        # a miss per solved pair plus the terminal (non-shared) unknown
        assert m["cache_misses"] == m["solver_calls"] + 1

        def by_label(family: str, label: str) -> dict:
            return {labels[label]: value
                    for labels, value in reg.series(family)}

        assert by_label("noctua_engine_failures_total", "kind") == \
            m["failures"]
        assert reg.value("noctua_engine_retries_total") == m["retries"]
        assert reg.value("noctua_engine_unknowns_total") == m["unknowns"]
        assert reg.value("noctua_engine_cache_misses_total") == \
            m["cache_misses"]
        assert reg.value("noctua_engine_cache_hits_total") == m["cache_hits"]
        assert reg.value("noctua_engine_classes_total") == m["class_count"]
        assert reg.value("noctua_engine_class_shared_total") == m["shared"]
        routes = {
            "solved": m["solver_calls"], "shared": m["shared"],
            "unknown": m["unknowns"], "cached": m["cache_hits"],
            "pruned:conservative": m["pruned_conservative"],
            "pruned:order": m["pruned_order"],
            "pruned:disjoint": m["pruned_disjoint"],
            "pruned:rw-disjoint": m["pruned_rw_disjoint"],
        }
        assert by_label("noctua_engine_pairs_total", "route") == \
            {route: count for route, count in routes.items() if count}
        assert reg.value("noctua_engine_sweeps_total", mode="serial") == 1
        hist = reg.histogram("noctua_engine_pair_solve_seconds",
                             backend="enum")
        assert hist is not None and hist.count == m["solver_calls"]

    def test_unmetered_sweep_is_unchanged(self, courseware_analysis):
        """No registry active: the sweep neither fails nor meters."""
        report = verify_application(courseware_analysis, CFG,
                                    use_cache=False)
        assert report.metrics["solver_calls"] > 0


class TestGeorepInstrumentation:
    def test_fault_counters_still_behave_like_attributes(self):
        from repro.georep import FaultCounters

        counters = FaultCounters()
        assert counters.dropped == 0
        counters.dropped += 1
        counters.partition_ms += 2.5
        counters.redelivered = 7
        assert counters.dropped == 1
        assert counters.partition_ms == pytest.approx(2.5)
        assert counters.as_dict()["redelivered"] == 7
        with pytest.raises(AttributeError):
            counters.not_a_counter = 1
        other = FaultCounters(dropped=1, partition_ms=2.5, redelivered=7)
        assert counters.as_dict() == other.as_dict()
        assert counters == other

    def test_fault_counters_forward_to_ambient_registry(self):
        from repro.georep import FaultCounters

        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            counters = FaultCounters()
            counters.dropped += 2
            counters.crashes += 1
            counters.partition_ms += 10.0
            # metered at their source in replication.py, not forwarded
            counters.redelivered = 5
        fam = "noctua_georep_faults_total"
        assert reg.value(fam, kind="dropped") == 2
        assert reg.value(fam, kind="crashes") == 1
        assert reg.value(fam, kind="redelivered") == 0
        assert reg.value("noctua_georep_partition_ms_total") == 10.0

    def test_chaos_run_fills_georep_families(self):
        from repro.apps.todo import build_app
        from repro.georep import FaultConfig, run_chaos

        analysis = analyze_application(build_app())
        faults = FaultConfig.chaos(2, span=60.0, sites=3, outages=1)
        reg = mx.MetricsRegistry()
        with mx.activate(reg):
            run_chaos(analysis, set(), seed=2, operations=60,
                      faults=faults)
        delivered = reg.series("noctua_georep_delivered_total")
        assert delivered and sum(v for _, v in delivered) > 0
        recovery = reg.histogram("noctua_chaos_recovery_seconds")
        assert recovery is not None and recovery.count == 1
        assert reg.total("noctua_chaos_runs_total") == 1

    def test_chaos_determinism_is_preserved_under_metering(self):
        """Metering must not perturb the seeded fault schedule: the same
        seed produces identical counters with and without a registry."""
        from repro.apps.todo import build_app
        from repro.georep import FaultConfig, run_chaos

        analysis = analyze_application(build_app())

        def run():
            faults = FaultConfig.chaos(5, span=40.0, sites=3)
            return run_chaos(analysis, set(), seed=5, operations=40,
                             faults=faults)

        bare = run()
        with mx.activate(mx.MetricsRegistry()):
            metered = run()
        assert bare.counters.as_dict() == metered.counters.as_dict()
