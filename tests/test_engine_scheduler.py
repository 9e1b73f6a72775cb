"""Tests for the verification engine: fingerprints, the persistent result
cache, the parallel scheduler, and the fast paths feeding it.

The equality tests use *sample-bounded* configs (high ``timeout_s``): a
wall-clock timeout is the one outcome that legitimately depends on machine
load, so determinism is asserted where the paper's semantics are
deterministic — see docs/ENGINE.md."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analyzer import analyze_application
from repro.engine import (
    CACHE_FORMAT,
    FingerprintContext,
    ResultCache,
    fingerprint_config,
    fingerprint_path,
    fingerprint_schema,
    run_pair_sweep,
)
from repro.engine import scheduler as scheduler_module
from repro.soir import Schema, commands as C, expr as E, make_model
from repro.soir.path import CodePath
from repro.soir.types import STRING
from repro.verifier import (
    CheckConfig,
    CheckResult,
    Counterexample,
    Outcome,
    PairVerdict,
    classify_pair,
    operation_conflict_table,
    verdict_from_obj,
    verdict_to_obj,
    verify_application,
    verify_pair,
)
from repro.verifier.restrictions import VerificationReport
from repro.verifier.runner import (
    PRUNE_CONSERVATIVE,
    PRUNE_DISJOINT,
    PRUNE_ORDER,
)

from helpers import reference_sweep

#: deterministic budget: decided by sample exhaustion, never by the clock
CFG = CheckConfig(timeout_s=60.0, max_samples=60, max_exhaustive=800)


@pytest.fixture(scope="module")
def smallbank_analysis():
    from repro.apps.smallbank import build_app

    return analyze_application(build_app())


@pytest.fixture(scope="module")
def courseware_analysis():
    from repro.apps.courseware import build_app

    return analyze_application(build_app())


def two_model_schema() -> Schema:
    schema = Schema()
    schema.add_model(make_model("Log", {"line": STRING}))
    schema.add_model(make_model("Cache", {"blob": STRING}))
    return schema


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_path_fingerprint_is_stable_and_content_sensitive(self):
        p1 = CodePath("p", (), (C.Delete(E.All("Log")),))
        p2 = CodePath("p", (), (C.Delete(E.All("Log")),))
        p3 = CodePath("p", (), (C.Delete(E.All("Cache")),))
        assert fingerprint_path(p1) == fingerprint_path(p2)
        assert fingerprint_path(p1) != fingerprint_path(p3)

    def test_schema_fingerprint_ignores_declaration_order(self):
        a = Schema()
        a.add_model(make_model("Log", {"line": STRING}))
        a.add_model(make_model("Cache", {"blob": STRING}))
        b = Schema()
        b.add_model(make_model("Cache", {"blob": STRING}))
        b.add_model(make_model("Log", {"line": STRING}))
        assert fingerprint_schema(a) == fingerprint_schema(b)

    def test_config_and_engine_reach_the_digest(self):
        base = fingerprint_config(CFG, "enum")
        assert base != fingerprint_config(CFG, "smt")
        bumped = CheckConfig(timeout_s=60.0, max_samples=61,
                             max_exhaustive=800)
        assert base != fingerprint_config(bumped, "enum")

    def test_pair_fingerprint_is_ordered(self):
        schema = two_model_schema()
        ctx = FingerprintContext(schema, CFG, "enum")
        p = CodePath("p", (), (C.Delete(E.All("Log")),))
        q = CodePath("q", (), (C.Delete(E.All("Cache")),))
        assert ctx.pair(p, q) != ctx.pair(q, p)
        assert ctx.pair(p, q) == ctx.pair(p, q)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def make_verdict() -> PairVerdict:
    v = PairVerdict("P[0]", "Q[0]", left_view="P", right_view="Q")
    v.commutativity = CheckResult(
        "P[0]", "Q[0]", "commutativity", Outcome.FAIL, elapsed_s=0.25,
        witness=Counterexample("diverge", state="S", args_p="{'x': 1}"),
    )
    v.semantic = CheckResult(
        "P[0]", "Q[0]", "semantic", Outcome.PASS, elapsed_s=0.5,
    )
    return v


class TestVerdictSerialization:
    def test_round_trip(self):
        v = make_verdict()
        back = verdict_from_obj(json.loads(json.dumps(verdict_to_obj(v))))
        assert back == v

    def test_legacy_object_without_views(self):
        obj = verdict_to_obj(make_verdict())
        del obj["left_view"], obj["right_view"]
        back = verdict_from_obj(obj)
        assert back.left_view == "" and back.right_view == ""


class TestResultCache:
    def test_round_trip_zeroes_replayed_elapsed(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        cache.put("fp1", make_verdict())
        cache.flush()
        reloaded = ResultCache(tmp_path, "demo")
        assert len(reloaded) == 1
        verdict, saved_s = reloaded.get("fp1")
        assert saved_s == pytest.approx(0.75)
        assert verdict.commutativity.elapsed_s == 0.0
        assert verdict.semantic.elapsed_s == 0.0
        assert verdict.commutativity.outcome is Outcome.FAIL
        assert verdict.commutativity.witness.description == "diverge"
        assert reloaded.get("missing") is None

    def test_version_mismatch_reads_as_empty_and_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        cache.put("fp1", make_verdict())
        cache.flush()
        payload = json.loads(cache.path.read_text())
        payload["format"] = CACHE_FORMAT + 1
        cache.path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            reloaded = ResultCache(tmp_path, "demo")
        assert len(reloaded) == 0
        assert reloaded.quarantined == str(cache.path) + ".corrupt"

    def test_corrupt_file_reads_as_empty_and_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        cache.put("fp1", make_verdict())
        cache.flush()
        cache.path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            reloaded = ResultCache(tmp_path, "demo")
        assert len(reloaded) == 0
        # the bad file is moved aside, not destroyed: evidence survives
        quarantine = cache.path.with_name(cache.path.name + ".corrupt")
        assert quarantine.read_text() == "{not json"
        assert not cache.path.exists()

    def test_cold_cache_does_not_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        assert cache.quarantined is None
        assert len(cache) == 0

    def test_prune_drops_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        cache.put("live", make_verdict())
        cache.put("stale", make_verdict())
        assert cache.prune({"live"}) == 1
        cache.flush()
        assert len(ResultCache(tmp_path, "demo")) == 1

    def test_clean_cache_never_writes(self, tmp_path):
        cache = ResultCache(tmp_path, "demo")
        cache.put("fp1", make_verdict())
        cache.flush()
        stamp = cache.path.stat().st_mtime_ns
        again = ResultCache(tmp_path, "demo")
        again.get("fp1")
        again.flush()
        assert again.path.stat().st_mtime_ns == stamp


# ---------------------------------------------------------------------------
# verify_pair fast paths
# ---------------------------------------------------------------------------


class TestFastPaths:
    def test_conservative_short_circuit(self):
        schema = two_model_schema()
        conservative = CodePath("c[0]", (), (), view="c", conservative=True)
        other = CodePath("o[0]", (), (C.Delete(E.All("Log")),), view="o")
        verdict, tag = classify_pair(conservative, other, schema, CFG)
        assert tag == PRUNE_CONSERVATIVE
        assert verdict.restricted
        assert verdict.commutativity.outcome is Outcome.CONSERVATIVE
        assert verdict.semantic.outcome is Outcome.CONSERVATIVE
        assert (verdict.left_view, verdict.right_view) == ("c", "o")
        # verify_pair resolves it identically, without solving
        assert verify_pair(conservative, other, schema, CFG) == verdict

    def test_order_primitives_with_order_disabled(self):
        schema = two_model_schema()
        ordered = CodePath(
            "p[0]", (),
            (C.Delete(E.FirstOf(E.All("Log"))),), view="p",
        )
        other = CodePath("q[0]", (), (C.Delete(E.All("Log")),), view="q")
        no_order = CheckConfig(order_enabled=False)
        verdict, tag = classify_pair(ordered, other, schema, no_order)
        assert tag == PRUNE_ORDER
        assert verdict.restricted
        assert "order primitives" in verdict.commutativity.detail
        # with the order encoding on, the fast layer does not fire
        assert classify_pair(ordered, other, schema, CFG) is None

    def test_disjoint_footprint_pass(self):
        schema = two_model_schema()
        p = CodePath("p[0]", (), (C.Delete(E.All("Log")),), view="p")
        q = CodePath("q[0]", (), (C.Delete(E.All("Cache")),), view="q")
        verdict, tag = classify_pair(p, q, schema, CFG)
        assert tag == PRUNE_DISJOINT
        assert not verdict.restricted
        assert verdict.commutativity.detail == "disjoint footprint"
        assert verdict.semantic.detail == "disjoint footprint"

    def test_overlapping_footprint_needs_solving(self):
        schema = two_model_schema()
        p = CodePath("p[0]", (), (C.Delete(E.All("Log")),), view="p")
        assert classify_pair(p, p, schema, CFG) is None


# ---------------------------------------------------------------------------
# Conflict table views
# ---------------------------------------------------------------------------


class TestConflictTableViews:
    def _report(self, verdict: PairVerdict) -> VerificationReport:
        report = VerificationReport("demo")
        verdict.commutativity = CheckResult(
            verdict.left, verdict.right, "commutativity", Outcome.FAIL)
        report.verdicts.append(verdict)
        return report

    def test_uses_view_field(self):
        verdict = PairVerdict("weird [name", "other [name",
                              left_view="AddCourse", right_view="DropCourse")
        table = operation_conflict_table(self._report(verdict))
        assert table == {frozenset(("AddCourse", "DropCourse"))}

    def test_legacy_fallback_parses_path_names(self):
        # A verdict deserialized from a legacy report has no view fields.
        verdict = PairVerdict("AddCourse[0]", "DropCourse[2]")
        table = operation_conflict_table(self._report(verdict))
        assert table == {frozenset(("AddCourse", "DropCourse"))}


# ---------------------------------------------------------------------------
# Scheduler: serial == parallel == cached replay
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_serial_parallel_cached_identical(self, tmp_path,
                                              smallbank_analysis):
        serial = verify_application(smallbank_analysis, CFG)
        parallel = verify_application(
            smallbank_analysis, CFG, jobs=2, use_cache=True,
            cache_dir=str(tmp_path),
        )
        cached = verify_application(
            smallbank_analysis, CFG, jobs=2, use_cache=True,
            cache_dir=str(tmp_path),
        )
        def untimed(report):
            # per-pair solve times are wall-clock: populated in every
            # mode but never identical across runs
            return [{k: v for k, v in verdict.items()
                     if not k.endswith("_s")}
                    for verdict in report.to_json_obj()["verdicts"]]

        baseline = serial.to_json_obj()
        assert baseline["restrictions"] == \
            parallel.to_json_obj()["restrictions"]
        assert baseline["restrictions"] == cached.to_json_obj()["restrictions"]
        assert untimed(serial) == untimed(parallel)
        assert untimed(serial) == untimed(cached)
        # serial fallback and worker pool both report per-check timings
        # for pairs that actually hit a solver; shared and pruned
        # verdicts are free by construction (elapsed 0)
        for report in (serial, parallel):
            solved = [v for v in report.to_json_obj()["verdicts"]
                      if "provenance" not in v]
            assert solved
            for verdict in solved:
                assert verdict["commutativity_s"] > 0.0
                assert verdict["semantic_s"] > 0.0
        assert parallel.metrics["mode"] == "parallel"
        assert parallel.metrics["jobs_used"] == 2
        assert cached.metrics["solver_calls"] == 0
        # the warm run replays representatives and fanned-out members
        assert cached.metrics["cache_hits"] == (
            parallel.metrics["solver_calls"] + parallel.metrics["shared"])

    def test_courseware_sweep_prunes_and_agrees(self, tmp_path,
                                                courseware_analysis):
        serial = verify_application(courseware_analysis, CFG)
        replay = verify_application(
            courseware_analysis, CFG, use_cache=True,
            cache_dir=str(tmp_path),
        )
        warm = verify_application(
            courseware_analysis, CFG, use_cache=True,
            cache_dir=str(tmp_path),
        )
        assert serial.restriction_pairs() == replay.restriction_pairs()
        assert serial.restriction_pairs() == warm.restriction_pairs()
        assert warm.metrics["solver_calls"] == 0
        # fast paths never consult the cache
        assert warm.metrics["pruned"] == serial.metrics["pruned"]
        assert warm.metrics["cache_hits"] + warm.metrics["pruned"] == \
            warm.metrics["pairs_total"]

    def test_timing_is_aggregate_not_wall_clock(self, tmp_path,
                                                smallbank_analysis):
        report = verify_application(
            smallbank_analysis, CFG, jobs=2, use_cache=True,
            cache_dir=str(tmp_path),
        )
        per_pair = sum(
            v.commutativity.elapsed_s + v.semantic.elapsed_s
            for v in report.verdicts
        )
        assert report.time_solve_s == pytest.approx(per_pair)
        assert report.time_solve_s > 0.0
        # on a contended pool the work exceeds the wall clock; at minimum
        # the two are independent measurements
        assert report.elapsed_s > 0.0
        warm = verify_application(
            smallbank_analysis, CFG, use_cache=True, cache_dir=str(tmp_path),
        )
        assert warm.time_solve_s == 0.0
        assert warm.metrics["cache_saved_s"] == pytest.approx(
            report.time_solve_s)

    def test_pool_failure_falls_back_to_serial(self, tmp_path, monkeypatch,
                                               smallbank_analysis):
        serial = verify_application(smallbank_analysis, CFG)

        def broken_context(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(scheduler_module.multiprocessing, "get_context",
                            broken_context)
        report = run_pair_sweep(smallbank_analysis, CFG, jobs=4)
        assert report.metrics["mode"] == "serial"
        assert "no fork for you" in report.metrics["fallback_reason"]
        assert serial.restriction_pairs() == report.restriction_pairs()

    def test_pool_that_cannot_start_falls_back_to_serial(self):
        """A sweep run from a script piped to ``python -``: spawn cannot
        re-import a ``<stdin>`` main, so every worker dies starting up.
        The pool must give up after ``jobs`` such deaths and finish
        in-process, not burn every pair's attempts on respawns."""
        script = (
            "import json\n"
            "from repro.analyzer import analyze_application\n"
            "from repro.apps.smallbank import build_app\n"
            "from repro.engine import run_pair_sweep\n"
            "from repro.verifier import CheckConfig\n"
            "analysis = analyze_application(build_app())\n"
            "config = CheckConfig()\n"
            "def pairs(report):\n"
            "    return sorted(sorted(p) for p in report.restriction_pairs())\n"
            "serial = run_pair_sweep(analysis, config, jobs=1)\n"
            "pooled = run_pair_sweep(analysis, config, jobs=2)\n"
            "print(json.dumps({'serial': pairs(serial),\n"
            "                  'pooled': pairs(pooled),\n"
            "                  'metrics': pooled.metrics}))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-"], input=script,
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        out = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = out["metrics"]
        assert out["pooled"] == out["serial"]
        assert metrics["unknowns"] == 0
        assert metrics["mode"] == "serial"
        assert "start-up" in metrics["fallback_reason"]
        # two workers started, at most two respawned: never a loop
        assert 2 + metrics["workers_respawned"] <= 2 * 2

    def test_checkpoints_count_every_cached_put(self, tmp_path,
                                                courseware_analysis):
        """A representative's commit and a class member's share are both
        cache puts, and each put runs the checkpoint test: a cold sweep
        checkpoints ``puts // checkpoint_every`` times whether the pool
        or the in-process lane completes the pairs."""
        # 8 puts: a share that skipped the test would leave 3, not 4
        every = 2
        counts = []
        for jobs in (1, 2):
            cache_dir = tmp_path / f"jobs{jobs}"
            report = run_pair_sweep(
                courseware_analysis, CFG, jobs=jobs, use_cache=True,
                cache_dir=str(cache_dir), checkpoint_every=every)
            assert report.metrics["shared"] > 0
            puts = len(ResultCache(str(cache_dir),
                                   courseware_analysis.app_name))
            assert puts == (report.metrics["solver_calls"]
                            + report.metrics["shared"])
            assert report.metrics["checkpoints"] == puts // every
            counts.append(report.metrics["checkpoints"])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("pooled", [False, True])
    def test_edited_path_invalidates_only_its_pairs(self, tmp_path,
                                                    smallbank_analysis,
                                                    pooled):
        # the in-process lane (jobs=1) and the worker pool (jobs=2) share
        # one cache-invalidation contract
        import copy

        jobs = 2 if pooled else 1
        first = verify_application(
            smallbank_analysis, CFG, use_cache=True, cache_dir=str(tmp_path),
            jobs=jobs,
        )
        assert first.metrics["mode"] == ("parallel" if pooled else "serial")
        assert first.metrics["cache_misses"] == first.metrics["solver_calls"]
        edited = copy.copy(smallbank_analysis)
        paths = list(smallbank_analysis.paths)
        victim = next(p for p in paths if p.is_effectful())
        paths[paths.index(victim)] = CodePath(
            name=victim.name, args=victim.args,
            commands=victim.commands + (C.Delete(E.All("Account")),),
            view=victim.view,
        )
        edited.paths = paths
        second = verify_application(
            edited, CFG, use_cache=True, cache_dir=str(tmp_path), jobs=jobs,
        )
        n = len(edited.effectful_paths)
        # only the victim's row/column re-computes: n pairs, the rest
        # replay from cache.  A re-computed pair may be served by class
        # sharing instead of a fresh solve, so misses plus shared
        # members cover the invalidated set.
        recomputed = second.metrics["cache_misses"] + \
            second.metrics.get("shared", 0)
        assert recomputed == n
        assert second.metrics["cache_hits"] == \
            second.metrics["pairs_total"] - n - \
            second.metrics.get("pruned", 0)


class TestInProcessLane:
    """``jobs=1`` drains the one dispatcher through the in-process lane:
    no spawn context is ever requested, and nothing falls back."""

    @pytest.fixture
    def no_spawn(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(scheduler_module.multiprocessing, "get_context",
                            forbidden)

    def test_cached_sweep_stays_in_process(self, tmp_path, no_spawn,
                                           smallbank_analysis):
        expected = reference_sweep(smallbank_analysis, CFG).to_json_obj()
        for _ in range(2):  # cold, then warm
            report = run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                                    cache_dir=str(tmp_path))
            assert report.metrics["mode"] == "serial"
            assert report.metrics["fallback_reason"] == ""
            assert report.to_json_obj()["restrictions"] == \
                expected["restrictions"]

    def test_portfolio_sweep_stays_in_process(self, no_spawn,
                                              smallbank_analysis):
        report = run_pair_sweep(smallbank_analysis, CFG, engine="portfolio")
        metrics = report.metrics
        assert metrics["mode"] == "serial"
        assert metrics["fallback_reason"] == ""
        assert report.to_json_obj()["restrictions"] == reference_sweep(
            smallbank_analysis, CFG).to_json_obj()["restrictions"]
        assert report.to_json_obj()["restrictions"] == reference_sweep(
            smallbank_analysis, CFG,
            engine="portfolio").to_json_obj()["restrictions"]
