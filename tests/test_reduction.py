"""Tests for the pre-solve reduction pipeline and the portfolio engine.

Covers the three layers that cut the O(n²) pair wall down to size:

* signature equivalence classes — canonicalization up to renaming,
  member → representative renamings, verdict sharing with provenance;
* read/write disjointness pruning — footprint extraction and the
  soundness obligation (a prune must agree with the solver);
* the sequential portfolio engine (enum, then SMT only when the enum
  verdict is not definitive) — pooled sweeps give the serial verdicts;

plus the headline acceptance property: for every builtin app the
sweep produces byte-identical restriction sets to the unreduced
``verify_pair`` reference loop (serial, pooled and portfolio), while
issuing strictly fewer solver calls.
"""

from __future__ import annotations

import json

import pytest

from repro.analyzer import analyze_application
from repro.engine import ResultCache, run_pair_sweep
from repro.engine.cache import CACHE_FORMAT, _safe_name
from repro.engine.fingerprint import FingerprintContext
from repro.engine.reduction import (
    ROUTE_CACHED,
    ROUTE_PRUNED,
    ROUTE_SHARED,
    ROUTE_SOLVE,
    canonical_pair,
    plan_sweep,
    prune_pair,
    renaming_between,
    rw_disjoint,
    rw_footprint,
    shared_verdict,
)
from repro.soir import CodePath, Schema, commands as C, expr as E, make_model
from repro.soir.types import INT, STRING
from repro.verifier import CheckConfig, verify_application, verify_pair
from repro.verifier.restrictions import (
    CheckResult,
    Outcome,
    PairVerdict,
    verdict_to_obj,
)
from repro.verifier.runner import PRUNE_RW, classify_pair

from helpers import blog_schema, reference_sweep, untimed

#: fast but exact enough for the small builtin apps
CFG = CheckConfig(timeout_s=30.0, max_samples=60, max_exhaustive=800)

BUILTIN_APPS = ("todo", "postgraduation", "zhihu", "ownphotos",
                "smallbank", "courseware")


def reference_calls(analysis) -> int:
    """Solver calls of the reference loop: the pairs ``classify_pair``
    cannot decide."""
    paths = analysis.effectful_paths
    return sum(classify_pair(p, q, analysis.schema, CFG) is None
               for i, p in enumerate(paths) for q in paths[i:])


def build_builtin(name: str):
    import importlib

    return importlib.import_module(f"repro.apps.{name}").build_app()


def bump_path(name: str, model: str, field: str, pk: int = 1) -> CodePath:
    """``model[pk].field += 1`` — the canonical isomorphic-path shape."""
    return CodePath(name, (), (
        C.Update(E.Singleton(E.SetField(
            field,
            E.BinOp("+", E.FieldGet(E.Deref(E.intlit(pk), model),
                                    field, INT), E.intlit(1)),
            E.Deref(E.intlit(pk), model),
        ))),
    ))


def setcol_path(name: str, model: str, field: str, pk: int = 1) -> CodePath:
    """``model.filter(id=pk).update(field=pk)`` — a query-set update.

    Unlike :func:`bump_path` this can only touch rows that already
    exist (a filter over state never yields a ghost), so its write
    footprint is exactly the one column.
    """
    return CodePath(name, (), (
        C.Update(E.MapSet(
            E.Filter(E.All(model), (), "id", E.Comparator.EQ, E.intlit(pk)),
            field, E.intlit(pk))),
    ))


def two_counter_schema() -> Schema:
    """Alpha and Gamma are isomorphic (two INT columns); Beta is not."""
    schema = Schema()
    schema.add_model(make_model("Alpha", {"x": INT, "y": INT}))
    schema.add_model(make_model("Gamma", {"u": INT, "v": INT}))
    schema.add_model(make_model("Beta", {"z": INT, "label": STRING}))
    schema.validate()
    return schema


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalPair:
    def test_isomorphic_pairs_share_a_class(self):
        schema = two_counter_schema()
        key_a, _ = canonical_pair(bump_path("pa", "Alpha", "x"),
                                  bump_path("qa", "Alpha", "x"), schema)
        key_b, _ = canonical_pair(bump_path("pb", "Gamma", "u"),
                                  bump_path("qb", "Gamma", "u"), schema)
        assert key_a == key_b  # model and field names canonicalize away

    def test_shape_differences_block_sharing(self):
        # Beta's second column is a STRING: the touched-model shape
        # differs, so the problems stay in separate classes
        schema = two_counter_schema()
        key_a, _ = canonical_pair(bump_path("pa", "Alpha", "x"),
                                  bump_path("qa", "Alpha", "x"), schema)
        key_b, _ = canonical_pair(bump_path("pb", "Beta", "z"),
                                  bump_path("qb", "Beta", "z"), schema)
        assert key_a != key_b

    def test_field_declaration_order_blocks_sharing(self):
        # state enumeration is seeded by declaration order, so bumping
        # the second column is a different search problem from the first
        schema = two_counter_schema()
        key_x, _ = canonical_pair(bump_path("p", "Alpha", "x"),
                                  bump_path("q", "Alpha", "x"), schema)
        key_y, _ = canonical_pair(bump_path("p", "Alpha", "y"),
                                  bump_path("q", "Alpha", "y"), schema)
        assert key_x != key_y

    def test_distinct_problems_never_merge(self):
        schema = two_counter_schema()
        inc = bump_path("p", "Alpha", "x")
        delete = CodePath("d", (), (C.Delete(E.All("Alpha")),))
        key_inc, _ = canonical_pair(inc, inc, schema)
        key_mixed, _ = canonical_pair(inc, delete, schema)
        assert key_inc != key_mixed

    def test_cross_model_pairs_differ_from_same_model_pairs(self):
        # x+=1 / y+=1 on ONE model is a different problem from
        # x+=1 / z+=1 on two disjoint models
        schema = two_counter_schema()
        same, _ = canonical_pair(bump_path("p", "Alpha", "x"),
                                 bump_path("q", "Alpha", "y"), schema)
        cross, _ = canonical_pair(bump_path("p", "Alpha", "x"),
                                  bump_path("q", "Beta", "z"), schema)
        assert same != cross

    def test_deterministic(self):
        schema = blog_schema()
        p = CodePath("p", (), (C.Delete(E.All("Comment")),))
        q = CodePath("q", (), (C.Delete(E.All("Article")),))
        assert canonical_pair(p, q, schema)[0] == \
            canonical_pair(p, q, schema)[0]

    def test_renaming_between_recovers_the_member_map(self):
        schema = two_counter_schema()
        _, member_maps = canonical_pair(bump_path("p", "Gamma", "u"),
                                        bump_path("q", "Gamma", "u"), schema)
        _, rep_maps = canonical_pair(bump_path("p", "Alpha", "x"),
                                     bump_path("q", "Alpha", "x"), schema)
        renaming = renaming_between(member_maps, rep_maps)
        assert renaming["model"] == {"Gamma": "Alpha"}
        assert renaming["field"]["u"] == "x"

    def test_identity_renaming_is_empty(self):
        schema = two_counter_schema()
        _, maps = canonical_pair(bump_path("p", "Alpha", "x"),
                                 bump_path("q", "Alpha", "x"), schema)
        assert renaming_between(maps, maps) == {}


# ---------------------------------------------------------------------------
# Read/write footprints
# ---------------------------------------------------------------------------


class TestRwFootprint:
    def test_queryset_update_writes_only_its_column(self):
        schema = two_counter_schema()
        reads, writes = rw_footprint(setcol_path("p", "Alpha", "y"), schema)
        assert writes == {("field", "Alpha", "y")}
        assert ("field", "Alpha", "id") in reads  # the filter predicate
        assert ("rows", "Alpha") in reads         # the filter's domain
        assert not any(tok[1] == "Beta" for tok in reads | writes
                       if len(tok) > 1)

    def test_upserting_update_writes_the_full_row(self):
        # Deref of a missing pk ghosts under apply semantics and the
        # merge *inserts* the ghost, so a Deref-rooted update writes
        # row existence and every (defaulted) column of the model.
        schema = two_counter_schema()
        reads, writes = rw_footprint(bump_path("p", "Alpha", "x"), schema)
        assert ("rows", "Alpha") in writes
        assert ("field", "Alpha", "x") in writes
        assert ("field", "Alpha", "y") in writes  # ghost default
        assert ("field", "Alpha", "x") in reads   # the increment reads it
        assert ("rows", "Alpha") in reads

    def test_delete_writes_row_existence(self):
        schema = two_counter_schema()
        path = CodePath("d", (), (C.Delete(E.All("Alpha")),))
        _, writes = rw_footprint(path, schema)
        assert ("rows", "Alpha") in writes

    def test_delete_cascades_into_relations(self):
        schema = blog_schema()
        path = CodePath("d", (), (C.Delete(E.All("Comment")),))
        _, writes = rw_footprint(path, schema)
        assert ("rows", "Comment") in writes
        assert ("assoc", "Comment.user") in writes

    def test_disjoint_models_commute(self):
        schema = two_counter_schema()
        assert rw_disjoint(bump_path("p", "Alpha", "x"),
                           bump_path("q", "Beta", "z"), schema)

    def test_disjoint_columns_of_one_model_commute(self):
        schema = two_counter_schema()
        assert rw_disjoint(setcol_path("p", "Alpha", "x"),
                           setcol_path("q", "Alpha", "y"), schema)

    def test_write_write_overlap_is_not_disjoint(self):
        schema = two_counter_schema()
        assert not rw_disjoint(setcol_path("p", "Alpha", "x"),
                               setcol_path("q", "Alpha", "x"), schema)

    def test_upsert_conflicts_with_row_observers(self):
        # Regression: ownphotos' AutoCaption (deref-rooted, can create
        # the row) vs HidePhoto (filter-rooted, observes row existence)
        # diverge on a missing pk — one order creates an unhidden row,
        # the other hides it.  The creating side must not rw-prune
        # against anything that reads the model's population, even when
        # the nominally updated columns are different.
        schema = two_counter_schema()
        assert not rw_disjoint(bump_path("p", "Alpha", "x"),
                               setcol_path("q", "Alpha", "y"), schema)
        assert not rw_disjoint(bump_path("p", "Alpha", "x"),
                               bump_path("q", "Alpha", "y"), schema)

    def test_delete_conflicts_with_any_touch_of_the_model(self):
        schema = two_counter_schema()
        delete = CodePath("d", (), (C.Delete(E.All("Alpha")),))
        assert not rw_disjoint(bump_path("p", "Alpha", "x"), delete, schema)

    def test_rw_prune_is_sound_against_the_solver(self):
        """Every pair the rw layer prunes must pass both checks when the
        solver actually runs it.  Cross-model pairs are caught by the
        older disjoint-footprint prune; rw-disjointness earns its keep
        on same-model pairs touching different columns."""
        schema = two_counter_schema()
        p = setcol_path("p", "Alpha", "x")
        q = setcol_path("q", "Alpha", "y")
        classified = prune_pair(p, q, schema, CFG)
        assert classified is not None and classified[1] == PRUNE_RW
        # verify_pair is the unpruned reference: it really solves
        assert classify_pair(p, q, schema, CFG) is None
        solved = verify_pair(p, q, schema, CFG)
        assert not solved.restricted

    def test_pruned_verdict_carries_provenance(self):
        schema = two_counter_schema()
        verdict, tag = prune_pair(setcol_path("p", "Alpha", "x"),
                                  setcol_path("q", "Alpha", "y"),
                                  schema, CFG)
        assert tag == PRUNE_RW
        assert verdict.provenance == {"source": "pruned", "tag": PRUNE_RW}
        assert not verdict.restricted


# ---------------------------------------------------------------------------
# Sweep planning and verdict sharing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smallbank_analysis():
    return analyze_application(build_builtin("smallbank"))


class TestPlanSweep:
    def test_reduction_shrinks_the_solve_set(self, smallbank_analysis):
        n = len(smallbank_analysis.effectful_paths)
        reduced = plan_sweep(smallbank_analysis, CFG)
        assert len(reduced.pairs) == n * (n + 1) // 2
        assert reduced.solver_calls < reference_calls(smallbank_analysis)
        assert reduced.shared > 0
        assert reduced.classes == reduced.solver_calls

    def test_shared_members_point_at_solved_representatives(
            self, smallbank_analysis):
        plan = plan_sweep(smallbank_analysis, CFG)
        by_slot = {p.slot: p for p in plan.pairs}
        shared = [p for p in plan.pairs if p.route == ROUTE_SHARED]
        assert shared
        for member in shared:
            rep = by_slot[member.rep_slot]
            assert rep.route == ROUTE_SOLVE
            assert rep.class_key == member.class_key
            assert rep.slot < member.slot  # first member represents

    def test_shared_verdict_relabel(self, smallbank_analysis):
        plan = plan_sweep(smallbank_analysis, CFG)
        by_slot = {p.slot: p for p in plan.pairs}
        member = next(p for p in plan.pairs if p.route == ROUTE_SHARED)
        rep = by_slot[member.rep_slot]
        rep_verdict = verify_pair(rep.left, rep.right,
                                  smallbank_analysis.schema, CFG)
        out = shared_verdict(rep_verdict, member)
        assert out.left == member.left.name
        assert out.right == member.right.name
        assert out.restricted == rep_verdict.restricted
        assert out.commutativity.elapsed_s == 0.0
        prov = out.provenance
        assert prov["source"] == "shared"
        assert prov["class"] == member.class_key
        assert prov["representative"] == [rep_verdict.left, rep_verdict.right]

    def test_preview_equals_actual_solver_calls(self, smallbank_analysis):
        """The daemon's invalidation preview and the sweep execute the
        same plan — the invariant SERVICE.md promises."""
        plan = plan_sweep(smallbank_analysis, CFG)
        report = run_pair_sweep(smallbank_analysis, CFG)
        assert len(plan.invalidated()) == plan.solver_calls
        assert report.metrics["solver_calls"] == plan.solver_calls
        assert report.metrics["shared"] == plan.shared
        assert report.metrics["class_count"] == plan.classes


def reference_plan(analysis, cache=None) -> list[dict]:
    """The plan built pair by pair through the per-pair entry points
    (``prune_pair``, ``FingerprintContext.pair``, ``canonical_pair``),
    with the planner's class rule: the first cached or uncached member
    of a class represents it, later members share."""
    schema = analysis.schema
    fingerprints = FingerprintContext(schema, CFG, "enum")
    paths = analysis.effectful_paths
    rows: list[dict] = []
    reps: dict[str, tuple[int, dict]] = {}
    for i, p in enumerate(paths):
        for q in paths[i:]:
            slot = len(rows)
            classified = prune_pair(p, q, schema, CFG)
            if classified is not None:
                rows.append({"route": ROUTE_PRUNED, "tag": classified[1],
                             "verdict": verdict_json(classified[0])})
                continue
            fp = fingerprints.pair(p, q)
            key, maps = canonical_pair(p, q, schema)
            row = {"fp": fp, "class_key": key}
            hit = cache.get(fp) if cache is not None else None
            if hit is not None:
                row.update(route=ROUTE_CACHED, verdict=verdict_json(hit[0]),
                           saved_s=hit[1])
                reps.setdefault(key, (slot, maps))
            elif key in reps:
                rep_slot, rep_maps = reps[key]
                row.update(route=ROUTE_SHARED, rep_slot=rep_slot,
                           renaming=renaming_between(maps, rep_maps))
            else:
                reps[key] = (slot, maps)
                row["route"] = ROUTE_SOLVE
            rows.append(row)
    return rows


def verdict_json(verdict) -> str:
    return json.dumps(verdict_to_obj(verdict), sort_keys=True)


def plan_rows(plan) -> list[dict]:
    """The same projection of a :class:`SweepPlan`."""
    rows = []
    for pp in plan.pairs:
        row = {"route": pp.route}
        if pp.route == ROUTE_PRUNED:
            row.update(tag=pp.tag, verdict=verdict_json(pp.verdict))
            rows.append(row)
            continue
        row.update(fp=pp.fp, class_key=pp.class_key)
        if pp.route == ROUTE_CACHED:
            row.update(verdict=verdict_json(pp.verdict), saved_s=pp.saved_s)
        elif pp.route == ROUTE_SHARED:
            row.update(rep_slot=pp.rep_slot, renaming=pp.renaming)
        rows.append(row)
    return rows


class TestPlanIdentity:
    """``plan_sweep`` derives per-path facts once per plan; the per-pair
    entry points derive them per call.  Both must plan every pair
    identically."""

    @pytest.mark.parametrize("app", ["smallbank", "courseware", "todo",
                                     "postgraduation"])
    def test_plan_equals_per_pair_reference(self, app, tmp_path):
        analysis = analyze_application(build_builtin(app))
        fingerprints = FingerprintContext(analysis.schema, CFG, "enum")
        plan = plan_sweep(analysis, CFG, fingerprints=fingerprints)
        expected = reference_plan(analysis)
        assert plan_rows(plan) == expected
        assert [(pp.slot, pp.i, pp.j) for pp in plan.pairs] == [
            (slot, i, j) for slot, (i, j) in enumerate(
                (i, j) for i in range(len(analysis.effectful_paths))
                for j in range(i, len(analysis.effectful_paths)))]
        # todo forms no signature class of two; the other apps do
        assert any(row["route"] == ROUTE_SHARED
                   for row in expected) == (app != "todo")

        # Warm half the representatives: cached pairs seed their class.
        cache = ResultCache(str(tmp_path), analysis.app_name)
        solved = [pp for pp in plan.pairs if pp.route == ROUTE_SOLVE]
        for pp in solved[::2]:
            verdict = PairVerdict(pp.left.name, pp.right.name)
            for kind in ("commutativity", "semantic"):
                setattr(verdict, kind, CheckResult(
                    pp.left.name, pp.right.name, kind, Outcome.PASS,
                    elapsed_s=0.5))
            cache.put(pp.fp, verdict, class_key=pp.class_key)
        warm = plan_sweep(analysis, CFG, cache=cache,
                          fingerprints=FingerprintContext(
                              analysis.schema, CFG, "enum"))
        expected = reference_plan(analysis, cache)
        assert plan_rows(warm) == expected
        assert any(row["route"] == ROUTE_CACHED for row in expected)


class TestReductionProperty:
    @pytest.mark.parametrize("app", [
        app if app != "zhihu" else pytest.param(app, marks=pytest.mark.slow)
        for app in BUILTIN_APPS if app != "ownphotos"
    ])
    def test_reduced_sweep_is_byte_identical(self, app):
        """Acceptance bar: reduction and lanes change solver-call counts
        and placement, never restriction sets."""
        analysis = analyze_application(build_builtin(app))
        reference = reference_sweep(analysis, CFG)
        expected = reference.to_json_obj()["restrictions"]
        for kwargs in ({}, {"jobs": 2}, {"engine": "portfolio"}):
            reduced = run_pair_sweep(analysis, CFG, **kwargs)
            assert reduced.to_json_obj()["restrictions"] == expected, kwargs
            assert reduced.metrics["solver_calls"] <= \
                reference_calls(analysis)

    @pytest.mark.slow
    def test_ownphotos_reduction_agrees_with_direct_solves(self):
        """The same byte-identity property for the largest builtin app
        (135 effectful paths, ~9k pairs), checked compositionally: a
        full reference loop re-solves ~5k pairs and takes minutes on
        one core, but route-``solve`` pairs issue literally identical
        solver calls in the sweep and the reference, so only the pairs
        the reduction layer *rewrites* carry any information — every shared
        member must agree with a direct solve of itself (via its
        representative's verdict), and rw-pruned pairs must come back
        unrestricted when actually solved."""
        analysis = analyze_application(build_builtin("ownphotos"))
        plan = plan_sweep(analysis, CFG)
        by_slot = {p.slot: p for p in plan.pairs}

        shared = [p for p in plan.pairs if p.route == ROUTE_SHARED]
        assert shared, "ownphotos lost its isomorphic pair classes"
        rep_verdicts: dict[int, object] = {}
        for member in shared:
            rep = by_slot[member.rep_slot]
            if rep.slot not in rep_verdicts:
                rep_verdicts[rep.slot] = verify_pair(
                    rep.left, rep.right, analysis.schema, CFG)
            direct = verify_pair(member.left, member.right,
                                 analysis.schema, CFG)
            assert direct.restricted == rep_verdicts[rep.slot].restricted, (
                f"shared verdict diverges from direct solve: "
                f"{member.left.name} x {member.right.name} (rep "
                f"{rep.left.name} x {rep.right.name})")

        # rw-pruned pairs never reach a solver in a reduced sweep; a
        # deterministic sample must prove unrestricted when one runs
        # (the structural argument lives in TestRwFootprint).
        pruned = [p for p in plan.pairs
                  if p.route == ROUTE_PRUNED and p.tag == PRUNE_RW]
        assert pruned, "ownphotos lost its rw-disjoint prunes"
        step = max(1, len(pruned) // 40)
        for pair_plan in pruned[::step]:
            direct = verify_pair(pair_plan.left, pair_plan.right,
                                 analysis.schema, CFG)
            assert not direct.restricted, (
                f"rw-pruned pair restricts when solved: "
                f"{pair_plan.left.name} x {pair_plan.right.name}")


# ---------------------------------------------------------------------------
# Cache interplay: class fan-out, format 2, v1 migration
# ---------------------------------------------------------------------------


class TestCacheSharing:
    def test_warm_reduced_sweep_solves_nothing(self, tmp_path,
                                               smallbank_analysis):
        cold = run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        warm = run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        assert warm.metrics["solver_calls"] == 0
        # solved representatives and fanned-out members all replay
        assert warm.metrics["cache_hits"] == \
            cold.metrics["solver_calls"] + cold.metrics["shared"]
        assert warm.to_json_obj()["restrictions"] == \
            cold.to_json_obj()["restrictions"]

    def test_cache_file_is_format_2_with_class_keys(self, tmp_path,
                                                    smallbank_analysis):
        run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                       cache_dir=str(tmp_path))
        payload = json.loads(
            (tmp_path / f"{_safe_name('smallbank')}.json").read_text())
        assert payload["format"] == CACHE_FORMAT == 2
        classes = [e["class"] for e in payload["entries"].values()
                   if "class" in e]
        assert classes  # reduced sweeps tag entries with their class
        # shared members carry the same class key as their representative
        assert len(classes) > len(set(classes))

    def test_format_1_cache_migrates_in_place(self, tmp_path,
                                              smallbank_analysis):
        cold = run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        cache_file = tmp_path / f"{_safe_name('smallbank')}.json"
        payload = json.loads(cache_file.read_text())
        # rewrite as a v1 file: same entries, no class tags
        payload["format"] = 1
        for entry in payload["entries"].values():
            entry.pop("class", None)
        cache_file.write_text(json.dumps(payload))

        cache = ResultCache(tmp_path, "smallbank")
        assert cache.migrated_from == 1
        assert len(cache) == len(payload["entries"])
        # a warm sweep over the migrated file still replays everything
        warm = run_pair_sweep(smallbank_analysis, CFG, use_cache=True,
                              cache_dir=str(tmp_path))
        assert warm.metrics["solver_calls"] == 0
        assert warm.to_json_obj()["restrictions"] == \
            cold.to_json_obj()["restrictions"]
        # and the migration rewrote the file at the current format
        assert json.loads(cache_file.read_text())["format"] == CACHE_FORMAT

    def test_unknown_future_format_still_quarantines(self, tmp_path):
        bad = tmp_path / "demo.json"
        bad.write_text(json.dumps({"format": 99, "app": "demo",
                                   "entries": {}}))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache = ResultCache(tmp_path, "demo")
        assert len(cache) == 0
        assert cache.migrated_from is None

    def test_live_fingerprints_cover_solved_and_shared(self):
        # courseware's plan exercises all three routes at once:
        # 2 pruned, 1 shared, 7 solved
        analysis = analyze_application(build_builtin("courseware"))
        fps = FingerprintContext(analysis.schema, CFG, "enum")
        plan = plan_sweep(analysis, CFG, fingerprints=fps)
        live = plan.live_fingerprints()
        routed = {p.route for p in plan.pairs}
        assert {ROUTE_PRUNED, ROUTE_SHARED, ROUTE_SOLVE} <= routed
        for pair_plan in plan.pairs:
            if pair_plan.route == ROUTE_PRUNED:
                assert pair_plan.fp is None
            else:
                assert pair_plan.fp in live


# ---------------------------------------------------------------------------
# Portfolio engine
# ---------------------------------------------------------------------------


class TestPortfolio:
    def test_serial_portfolio_matches_enum(self, smallbank_analysis):
        enum = verify_application(smallbank_analysis, CFG, engine="enum")
        portfolio = verify_application(smallbank_analysis, CFG,
                                       engine="portfolio")
        assert portfolio.restriction_pairs() == enum.restriction_pairs()
        assert portfolio.to_json_obj()["restrictions"] == reference_sweep(
            smallbank_analysis, CFG,
            engine="portfolio").to_json_obj()["restrictions"]

    def test_pooled_portfolio_matches_enum(self, smallbank_analysis):
        enum = verify_application(smallbank_analysis, CFG, engine="enum")
        portfolio = verify_application(smallbank_analysis, CFG,
                                       engine="portfolio", jobs=2)
        assert portfolio.metrics["mode"] == "parallel"
        assert portfolio.restriction_pairs() == enum.restriction_pairs()
        assert untimed(portfolio) == untimed(verify_application(
            smallbank_analysis, CFG, engine="portfolio"))

    @pytest.mark.parametrize("app", ["todo", "smallbank"])
    def test_pooled_portfolio_rows_match_serial(self, app):
        """A portfolio verdict depends on its inputs, not on which lane a
        pool would finish first: pooled rows equal serial rows, kinds
        and coverage included.  The default search runs under a budget
        that never fires, so no verdict depends on the clock either."""
        analysis = analyze_application(build_builtin(app))
        config = CheckConfig(timeout_s=600.0)
        serial = run_pair_sweep(analysis, config, engine="portfolio")
        pooled = run_pair_sweep(analysis, config, engine="portfolio",
                                jobs=2)
        assert pooled.metrics["mode"] == "parallel"
        assert untimed(pooled) == untimed(serial)

    def test_portfolio_lane_verdicts_are_not_cached_as_taint(
            self, tmp_path, smallbank_analysis):
        """A portfolio verdict is what a portfolio sweep's fingerprint
        describes, whichever lane decided it: it is cacheable."""
        cold = run_pair_sweep(smallbank_analysis, CFG, engine="portfolio",
                              use_cache=True, cache_dir=str(tmp_path))
        warm = run_pair_sweep(smallbank_analysis, CFG, engine="portfolio",
                              use_cache=True, cache_dir=str(tmp_path))
        assert cold.metrics["solver_calls"] > 0
        assert warm.metrics["solver_calls"] == 0
