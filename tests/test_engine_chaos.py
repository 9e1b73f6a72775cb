"""Fault-tolerance tests for the verification engine.

Every test injects a seeded :class:`EngineChaosPlan` into a *real* pair
sweep of the smallbank app and asserts the engine's failure contract:

* faults land on signature-class representatives (the pairs a sweep
  hands to a solver), and a crashed / hung / erroring representative
  costs only its class — every other verdict is byte-identical (modulo
  wall-clock fields) to a clean serial sweep;
* pairs the engine cannot decide within the retry budget degrade to
  conservative ``unknown`` verdicts that restrict but are never cached,
  and the class members waiting on them degrade with them;
* a mid-sweep pool death keeps draining through the in-process lane
  with the in-flight pairs recorded, and the report still matches;
* cache checkpoints make an aborted sweep resume warm;
* corrupt cache files are quarantined, not trusted or destroyed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analyzer import analyze_application
from repro.engine import (
    EngineChaosPlan,
    QUARANTINE_SUFFIX,
    ResultCache,
    RetryPolicy,
    SweepAborted,
    run_engine_chaos,
    run_pair_sweep,
)
from repro.engine.cache import _safe_name
from repro.engine.chaos import CHAOS_CHECK_CONFIG, _solver_bound_pairs

from helpers import untimed

CFG = CHAOS_CHECK_CONFIG
POLICY = RetryPolicy(max_attempts=2, backoff_s=0.01)
#: how long a held-back pair sleeps before it solves normally
HOLD_S = 2.0


@pytest.fixture(scope="module")
def analysis():
    from repro.apps.smallbank import build_app

    return analyze_application(build_app())


@pytest.fixture(scope="module")
def baseline(analysis):
    return run_pair_sweep(analysis, CFG)


@pytest.fixture(scope="module")
def classes(analysis):
    """Solver-bound representative -> its class (itself + members)."""
    return _solver_bound_pairs(analysis, CFG)


@pytest.fixture(scope="module")
def solver_pairs(classes):
    return list(classes)


def pair_names(analysis, coords):
    paths = analysis.effectful_paths
    return paths[coords[0]].name, paths[coords[1]].name


def class_size(classes, reps):
    return sum(len(classes[rep]) for rep in reps)


def assert_matches_except(analysis, baseline, chaotic, classes,
                          poisoned_reps):
    """Poisoned classes must be unknown; every other row byte-identical."""
    poisoned = {pair_names(analysis, member)
                for rep in poisoned_reps for member in classes[rep]}
    rows = list(zip(untimed(baseline), untimed(chaotic)))
    assert rows, "empty report"
    for base_row, chaos_row in rows:
        pair = (chaos_row["left"], chaos_row["right"])
        if pair in poisoned:
            assert chaos_row["status"] == "unknown", pair
        else:
            assert chaos_row == base_row, pair


class TestPairIsolation:
    def test_crashing_pair_costs_only_itself(self, tmp_path, analysis,
                                             baseline, classes,
                                             solver_pairs):
        # The pool respawns only while unfinished work outnumbers its live
        # workers, so the other first-round pair is held back (a ``hang``
        # shorter than the deadline only delays it): work stays pending
        # when the crashed worker dies, however fast the survivor solves.
        plan = EngineChaosPlan(crash=frozenset({solver_pairs[0]}),
                               hang=frozenset({solver_pairs[1]}),
                               hang_s=HOLD_S)
        report = run_pair_sweep(
            analysis, CFG, jobs=2, chaos=plan, pair_deadline_s=10.0,
            retry=POLICY, use_cache=True, cache_dir=str(tmp_path),
        )
        assert_matches_except(analysis, baseline, report, classes,
                              [solver_pairs[0]])
        metrics = report.metrics
        assert metrics["unknowns"] == class_size(classes, [solver_pairs[0]])
        assert metrics["failures"]["crash"] == POLICY.max_attempts
        assert metrics["retries"] == POLICY.max_attempts - 1
        assert metrics["workers_respawned"] >= 1
        assert metrics["mode"] == "parallel"  # the pool survived
        # the unknown was never cached: a chaos-free warm run re-solves
        # exactly that pair and then agrees with the baseline everywhere
        warm = run_pair_sweep(analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        assert warm.metrics["solver_calls"] == 1
        assert untimed(warm) == untimed(baseline)

    def test_hanging_pair_is_killed_by_the_watchdog(self, analysis,
                                                    baseline, classes,
                                                    solver_pairs):
        deadline_s = 1.5
        plan = EngineChaosPlan(hang=frozenset({solver_pairs[1]}),
                               hang_s=60.0)
        started = time.perf_counter()
        report = run_pair_sweep(
            analysis, CFG, jobs=2, chaos=plan, pair_deadline_s=deadline_s,
            retry=POLICY,
        )
        wall = time.perf_counter() - started
        assert_matches_except(analysis, baseline, report, classes,
                              [solver_pairs[1]])
        assert report.metrics["unknowns"] == class_size(classes,
                                                        [solver_pairs[1]])
        assert report.metrics["failures"]["timeout"] == POLICY.max_attempts
        # bounded: two killed attempts plus sweep work, nowhere near 60s
        assert wall < 10 * POLICY.max_attempts * deadline_s + 15.0

    def test_flaky_crash_recovers_via_retry(self, analysis, baseline,
                                            solver_pairs):
        plan = EngineChaosPlan(flaky_crash=frozenset({solver_pairs[0]}))
        report = run_pair_sweep(
            analysis, CFG, jobs=2, chaos=plan, pair_deadline_s=5.0,
            retry=POLICY,
        )
        # the retry on a fresh worker decides the pair: full equality
        assert untimed(report) == untimed(baseline)
        assert report.metrics["unknowns"] == 0
        assert report.metrics["failures"]["crash"] == 1
        assert report.metrics["retries"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_unknowns_are_neither_retries_nor_misses(
            self, tmp_path, analysis, classes, jobs):
        """A class member degrading with its failed representative is an
        unknown, not a failed attempt and not a cache lookup."""
        rep = next(r for r, members in classes.items() if len(members) > 1)
        policy = RetryPolicy(max_attempts=3, backoff_s=0.01)
        report = run_pair_sweep(
            analysis, CFG, jobs=jobs, chaos=EngineChaosPlan(
                crash=frozenset({rep})),
            pair_deadline_s=5.0, retry=policy, use_cache=True,
            cache_dir=str(tmp_path),
        )
        metrics = report.metrics
        assert metrics["unknowns"] == len(classes[rep])
        assert metrics["failures"] == {"crash": policy.max_attempts}
        assert metrics["retries"] == policy.max_attempts - 1
        # one miss per solver-bound representative, the poisoned one
        # included; its members were never looked up as solver work
        assert metrics["cache_misses"] == len(classes)

    def test_serial_path_enforces_the_same_contract(self, analysis,
                                                    baseline, classes,
                                                    solver_pairs):
        plan = EngineChaosPlan(crash=frozenset({solver_pairs[0]}),
                               hang=frozenset({solver_pairs[2]}),
                               hang_s=60.0)
        started = time.perf_counter()
        report = run_pair_sweep(
            analysis, CFG, chaos=plan, pair_deadline_s=1.0, retry=POLICY,
        )
        wall = time.perf_counter() - started
        poisoned = [solver_pairs[0], solver_pairs[2]]
        assert_matches_except(analysis, baseline, report, classes, poisoned)
        metrics = report.metrics
        assert metrics["unknowns"] == class_size(classes, poisoned)
        assert metrics["failures"] == {"crash": POLICY.max_attempts,
                                       "timeout": POLICY.max_attempts}
        assert wall < 30.0  # SIGALRM interrupted the 60s hangs


class TestEngineFallback:
    def test_persistent_smt_error_falls_back_to_enum(self, tmp_path,
                                                     analysis, solver_pairs):
        smt_baseline = run_pair_sweep(analysis, CFG, engine="smt")
        plan = EngineChaosPlan(smt_error=frozenset({solver_pairs[0]}))
        report = run_pair_sweep(
            analysis, CFG, engine="smt", chaos=plan, pair_deadline_s=30.0,
            retry=POLICY, use_cache=True, cache_dir=str(tmp_path),
        )
        metrics = report.metrics
        assert metrics["unknowns"] == 0
        assert metrics["engine_fallbacks"] == 1
        assert metrics["failures"]["solver-error"] == 1
        # the fallback verdict decides the pair like the clean smt sweep
        name = pair_names(analysis, solver_pairs[0])
        rows = {(r["left"], r["right"]): r for r in untimed(report)}
        base_rows = {(r["left"], r["right"]): r
                     for r in untimed(smt_baseline)}
        assert rows[name]["status"] == "decided"
        assert rows[name]["commutativity"] == base_rows[name]["commutativity"]
        assert rows[name]["semantic"] == base_rows[name]["semantic"]
        # tainted (computed on the fallback engine): never cached
        warm = run_pair_sweep(analysis, CFG, engine="smt", use_cache=True,
                              cache_dir=str(tmp_path))
        assert warm.metrics["solver_calls"] == 1


class TestPoolDeath:
    def test_mid_sweep_pool_death_falls_back_to_serial(self, analysis,
                                                       baseline, classes,
                                                       solver_pairs):
        plan = EngineChaosPlan(crash=frozenset({solver_pairs[0]}),
                               pool_fail_after=1)
        report = run_pair_sweep(
            analysis, CFG, jobs=2, chaos=plan, pair_deadline_s=5.0,
            retry=POLICY,
        )
        metrics = report.metrics
        assert metrics["mode"] == "serial"
        assert "injected pool failure" in metrics["fallback_reason"]
        assert_matches_except(analysis, baseline, report, classes,
                              [solver_pairs[0]])
        assert metrics["unknowns"] == class_size(classes, [solver_pairs[0]])

    def test_fallback_reason_records_in_flight_pairs(self, analysis,
                                                     solver_pairs):
        # With every worker busy when the pool dies, the poison suspects
        # land in the fallback reason (capped, so traces stay bounded).
        plan = EngineChaosPlan(pool_fail_after=0)
        report = run_pair_sweep(
            analysis, CFG, jobs=2, chaos=plan, pair_deadline_s=5.0,
            retry=POLICY,
        )
        reason = report.metrics["fallback_reason"]
        assert "in flight:" in reason
        assert len(reason) < 500

    def test_portfolio_pool_death_keeps_draining(self, analysis, baseline):
        # Tasks keep their state across the fallback: every pair is
        # decided once, by the same sequential portfolio, in the same loop.
        plan = EngineChaosPlan(pool_fail_after=1)
        report = run_pair_sweep(
            analysis, CFG, engine="portfolio", jobs=2, chaos=plan,
            pair_deadline_s=5.0, retry=POLICY,
        )
        metrics = report.metrics
        assert metrics["mode"] == "serial"
        assert "injected pool failure" in metrics["fallback_reason"]
        assert metrics["unknowns"] == 0
        assert metrics["solver_calls"] == baseline.metrics["solver_calls"]
        assert report.to_json_obj()["restrictions"] == \
            baseline.to_json_obj()["restrictions"]
        assert untimed(report) == untimed(
            run_pair_sweep(analysis, CFG, engine="portfolio"))

    def test_pool_creation_failure_reports_reason(self, analysis, baseline,
                                                  monkeypatch):
        import repro.engine.scheduler as scheduler_module

        def broken_context(*args, **kwargs):
            raise OSError("no spawn for you")

        monkeypatch.setattr(scheduler_module.multiprocessing,
                            "get_context", broken_context)
        report = run_pair_sweep(analysis, CFG, jobs=4)
        assert report.metrics["mode"] == "serial"
        assert "no spawn for you" in report.metrics["fallback_reason"]
        assert untimed(report) == untimed(baseline)


class TestCrashSafeCache:
    def test_aborted_sweep_resumes_from_checkpoints(self, tmp_path,
                                                    analysis, baseline,
                                                    classes, solver_pairs):
        plan = EngineChaosPlan(abort_after_solved=3)
        with pytest.raises(SweepAborted):
            run_pair_sweep(analysis, CFG, use_cache=True,
                           cache_dir=str(tmp_path), checkpoint_every=1,
                           chaos=plan)
        # the checkpointed prefix survives — three representatives and
        # the members they fanned out to: the warm re-run replays it
        # and re-solves only the tail
        warm = run_pair_sweep(analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        assert warm.metrics["cache_hits"] == class_size(classes,
                                                        solver_pairs[:3])
        assert warm.metrics["solver_calls"] == len(solver_pairs) - 3
        assert untimed(warm) == untimed(baseline)

    def test_checkpoint_files_are_complete_snapshots(self, tmp_path,
                                                     analysis, classes,
                                                     solver_pairs):
        plan = EngineChaosPlan(abort_after_solved=2)
        with pytest.raises(SweepAborted):
            run_pair_sweep(analysis, CFG, use_cache=True,
                           cache_dir=str(tmp_path), checkpoint_every=1,
                           chaos=plan)
        cache_file = (Path(tmp_path)
                      / f"{_safe_name(analysis.app_name)}.json")
        payload = json.loads(cache_file.read_text())  # parseable snapshot
        assert len(payload["entries"]) == class_size(classes,
                                                     solver_pairs[:2])

    def test_corrupt_cache_is_quarantined_mid_pipeline(self, tmp_path,
                                                       analysis, baseline):
        run_pair_sweep(analysis, CFG, use_cache=True,
                       cache_dir=str(tmp_path))
        cache_file = (Path(tmp_path)
                      / f"{_safe_name(analysis.app_name)}.json")
        original = cache_file.read_text()
        cache_file.write_text("{broken" + original[:40])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = run_pair_sweep(analysis, CFG, use_cache=True,
                                    cache_dir=str(tmp_path))
        quarantined = cache_file.with_name(cache_file.name
                                           + QUARANTINE_SUFFIX)
        assert quarantined.exists()  # evidence preserved, not overwritten
        assert quarantined.read_text().startswith("{broken")
        assert untimed(report) == untimed(baseline)

    def test_quarantine_is_observable(self, tmp_path):
        from repro.obs import Tracer, activate

        bad = Path(tmp_path) / "demo.json"
        bad.write_text("not json at all")
        tracer = Tracer()
        with activate(tracer):
            with tracer.span("load", "phase"):
                with pytest.warns(RuntimeWarning):
                    cache = ResultCache(tmp_path, "demo")
        assert cache.quarantined == str(bad) + QUARANTINE_SUFFIX
        records = [s for s in tracer.roots[0].children
                   if s.kind == "cache-quarantine"]
        assert len(records) == 1
        assert "corrupt JSON" in records[0].attrs["reason"]


class TestHarness:
    def test_one_seed_end_to_end(self):
        report = run_engine_chaos(seeds=1, start=0, jobs=2,
                                  deadline_s=2.0)
        assert report.ok, report.problems
        assert len(report.outcomes) == 1
        outcome = report.outcomes[0]
        assert outcome.faults  # every seed injects at least a crash
        assert outcome.unknowns >= 1

    def test_plan_round_trips_through_spawn_wire_format(self):
        plan = EngineChaosPlan(
            crash=frozenset({(0, 1)}), hang=frozenset({(2, 3)}),
            flaky_crash=frozenset({(4, 4)}), hang_s=7.5,
            abort_after_solved=3, pool_fail_after=2,
        )
        back = EngineChaosPlan.from_obj(
            json.loads(json.dumps(plan.to_obj())))
        assert back == plan
        assert back.mode_for(0, 1, 5, "enum") == "crash"
        assert back.mode_for(4, 4, 0, "enum") == "crash"
        assert back.mode_for(4, 4, 1, "enum") is None
