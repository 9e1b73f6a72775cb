"""The enum checker's one walk per pair.

``PairChecker.search`` reads the candidate stream once and decides both
checks, skipping sampled candidates it has already examined and
replaying no candidate that cannot be a witness.  These tests hold it to
the per-check reference walks (``helpers.reference_search``) on every
representative of three apps, check that the repeat key never merges two
different draws, that every candidate skipped unreplayed could not have
been a witness, and check the per-check accounting on the
``solver-call`` records.
"""

from __future__ import annotations

import random
import time

import pytest

import repro.verifier.enumcheck as enumcheck
from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.apps.todo import build_app as build_todo
from repro.engine.reduction import ROUTE_SOLVE, plan_sweep
from repro.obs import tracer as obs
from repro.soir import (Argument, CodePath, RelationSchema, Schema,
                        commands as C, expr as E, make_model)
from repro.soir.interp import apply_path
from repro.soir.types import INT, Comparator
from repro.verifier import CheckConfig, PairChecker
from repro.verifier.restrictions import Outcome
from repro.verifier.scopes import ArgSampler, Scope, StateGenerator

from helpers import reference_search

APPS = {"smallbank": build_smallbank, "courseware": build_courseware,
        "todo": build_todo}

WITNESS_STATES = ("state", "s_pq", "s_qp", "after")


@pytest.fixture(scope="module")
def representatives():
    config = CheckConfig()
    out = []
    for app, build in APPS.items():
        analysis = analyze_application(build())
        out += [(app, plan.left, plan.right, analysis.schema)
                for plan in plan_sweep(analysis, config).pairs
                if plan.route == ROUTE_SOLVE]
    return out


def test_walk_matches_the_per_check_reference(representatives):
    """Same status, candidate count and witness for every check."""
    assert len(representatives) == 6 + 7 + 55
    for app, p, q, schema in representatives:
        got = PairChecker(p, q, schema).search(float("inf"))
        expected = reference_search(PairChecker(p, q, schema))
        for kind, (status, info) in expected.items():
            where = (app, p.name, q.name, kind)
            got_status, got_info = got[kind]
            assert got_status == status, where
            assert got_info["candidates"] == info["candidates"], where
            assert (got_info["exhaustive"] + got_info["sampled"]
                    == got_info["candidates"]), where
            assert got_info["repeats"] <= got_info["sampled"], where
            assert got_info.get("direction") == info.get("direction"), where
            for env in ("env_p", "env_q"):
                assert repr(got_info.get(env)) == repr(info.get(env)), where
            for name in WITNESS_STATES:
                if name in info:
                    assert (got_info[name].canonical(with_order=True)
                            == info[name].canonical(with_order=True)), where
                else:
                    assert name not in got_info, where


def lookalike_scope() -> Scope:
    """A scope whose value domains hold ``1``, ``True`` and ``1.0`` —
    equal (and equally hashed) values that build different states."""
    schema = Schema()
    schema.add_model(make_model("Item", {"v": INT, "u": INT},
                                unique=("u",)))
    schema.add_model(make_model("Tag", {"w": INT}))
    schema.add_relation(RelationSchema("Item.tag", source="Item",
                                       target="Tag", kind="fk",
                                       nullable=True))
    schema.validate()
    lookalikes = [1, True, 1.0]
    return Scope(
        schema=schema,
        models=frozenset({"Item", "Tag"}),
        relations=frozenset({"Item.tag"}),
        ids={"Item": [1, 2], "Tag": [1, 2]},
        fresh_ids={"Item": [], "Tag": []},
        field_domains={("Item", "v"): lookalikes,
                       ("Item", "u"): lookalikes + [2],
                       ("Tag", "w"): lookalikes},
        type_domains={INT: lookalikes},
    )


def test_equal_keys_mean_identical_draws():
    scope = lookalike_scope()
    generator = StateGenerator(scope)
    args = [Argument("a", INT), Argument("b", INT)]
    sampler = ArgSampler(args, args, scope, unique_ids_distinct=True)
    rng = random.Random(7)
    built: dict = {}
    for _ in range(2000):
        outcomes: list[int] = []
        state = generator.random_state(rng, outcomes)
        env_p, env_q = sampler.draw(rng, outcomes)
        # ``repr`` tells 1, True and 1.0 apart; ``==`` and ``hash`` do not.
        drawn = repr((state.canonical(with_order=True),
                      sorted(env_p.items()), sorted(env_q.items())))
        built.setdefault(enumcheck._draw_key(outcomes), set()).add(drawn)
    assert all(len(draws) == 1 for draws in built.values())
    # The draws did mix the lookalikes: a value-keyed repeat check would
    # have merged candidates here.
    values = {repr(v) for draws in built.values() for d in draws
              for v in (1, True, 1.0) if f"('v', {repr(v)!r})" in d}
    assert values == {"1", "True", "1.0"}


def deposit_checking():
    analysis = analyze_application(build_smallbank())
    path = next(p for p in analysis.effectful_paths
                if p.name == "DepositChecking[1]")
    return path, analysis.schema


def test_solver_call_records_split_the_walk(monkeypatch):
    """The first check runs the walk, the second reads it; the two
    records carry the per-check counters and share the walk's time."""
    path, schema = deposit_checking()
    calls = {"n": 0}
    apply_path = enumcheck.apply_path

    def counting(*args):
        calls["n"] += 1
        return apply_path(*args)

    monkeypatch.setattr(enumcheck, "apply_path", counting)
    tracer = obs.Tracer()
    checker = PairChecker(path, path, schema)
    with obs.activate(tracer):
        started = time.perf_counter()
        com = checker.check_commutativity()
        walk_s = time.perf_counter() - started
        walked = calls["n"]
        sem = checker.check_semantic()
    assert walked > 0 and calls["n"] == walked
    assert (com.outcome, sem.outcome) == (Outcome.PASS, Outcome.PASS)
    records = [s for root in tracer.roots for s in root.walk()
               if s.kind == "solver-call"]
    assert [r.attrs["check"] for r in records] == ["commutativity",
                                                   "semantic"]
    for record in records:
        attrs = record.attrs
        assert attrs["exhaustive"] + attrs["sampled"] == attrs["candidates"]
        assert 0 < attrs["repeats"] <= attrs["sampled"]
        assert record.wall_s > 0 and record.cpu_s > 0
    assert [com.elapsed_s, sem.elapsed_s] == [r.wall_s for r in records]
    assert sum(r.wall_s for r in records) <= walk_s


def test_solver_call_records_carry_the_generatability_skips():
    """The commutativity record says how many candidates it skipped as
    ungeneratable and the seconds its generatability scans took, a share
    of its own wall time; the semantic record says 0 for both."""
    path, schema = deposit_checking()
    tracer = obs.Tracer()
    checker = PairChecker(path, path, schema)
    with obs.activate(tracer):
        checker.check_commutativity()
        checker.check_semantic()
    com, sem = [s for root in tracer.roots for s in root.walk()
                if s.kind == "solver-call"]
    assert com.attrs["infeasible"] == checker._searched[
        "commutativity"][1]["infeasible"] > 0
    assert 0 < com.attrs["feasibility_s"] <= com.wall_s
    assert (sem.attrs["infeasible"], sem.attrs["feasibility_s"]) == (0, 0)


def test_the_walk_pools_both_budgets():
    """One deadline covers the walk: an exhausted budget times out both
    checks before either examines a candidate."""
    path, schema = deposit_checking()
    checker = PairChecker(path, path, schema, CheckConfig(timeout_s=0.0))
    for result in (checker.check_commutativity(), checker.check_semantic()):
        assert result.outcome == Outcome.TIMEOUT
    for status, info in checker._searched.values():
        assert (status, info["candidates"]) == ("timeout", 0)


def test_feasibility_counts_the_replays_of_the_feasibility_check(
        representatives, monkeypatch):
    """``feasibility`` on the commutativity info is exactly the
    ``run_path`` calls made inside ``_feasible``; semantic says 0."""
    inside = {"depth": 0, "replays": 0}
    run_path, feasible = enumcheck.run_path, PairChecker._feasible

    def counting(*args):
        if inside["depth"]:
            inside["replays"] += 1
        return run_path(*args)

    def nested(self, *args):
        inside["depth"] += 1
        try:
            return feasible(self, *args)
        finally:
            inside["depth"] -= 1

    monkeypatch.setattr(enumcheck, "run_path", counting)
    monkeypatch.setattr(PairChecker, "_feasible", nested)
    total = 0
    for app, p, q, schema in representatives:
        inside["replays"] = 0
        walk = PairChecker(p, q, schema).search(float("inf"))
        assert walk["semantic"][1]["feasibility"] == 0
        assert walk["commutativity"][1]["feasibility"] == inside["replays"]
        total += inside["replays"]
    assert total > 0


def test_an_ungeneratable_divergence_is_skipped_for_a_later_witness():
    """The first diverging candidate sets ``a`` below the guard of ``p``,
    so no feasibility state generates it; the walk skips it unreplayed
    and reports the later witness the reference walk finds."""
    schema = Schema()
    schema.add_model(make_model("Counter", {"v": INT}))
    schema.validate()
    row = E.Deref(E.intlit(1), "Counter")

    def set_v(name: str, var: E.Var, *guard) -> CodePath:
        return CodePath(name, (Argument(var.name, INT),), (
            *guard, C.Update(E.Singleton(E.SetField("v", var, row)))))

    a = E.Var("a", INT)
    p = set_v("SetAtLeast3", a,
              C.Guard(E.Cmp(Comparator.GE, a, E.intlit(3))))
    q = set_v("Set", E.Var("b", INT))
    checker = PairChecker(p, q, schema)
    first = next(
        (env_p, env_q) for state, env_p, env_q, *_ in checker._candidates()
        if not apply_path(q, apply_path(p, state, env_p, schema), env_q,
                          schema).same_state(
            apply_path(p, apply_path(q, state, env_q, schema), env_p,
                       schema)))
    assert not checker._feasible(p, first[0], {})

    status, info = checker.search(float("inf"))["commutativity"]
    ref_status, ref = reference_search(PairChecker(p, q, schema))[
        "commutativity"]
    assert (status, ref_status) == ("fail", "fail")
    assert (info["env_p"], info["env_q"]) != first
    assert info["candidates"] == ref["candidates"]
    for name in ("env_p", "env_q"):
        assert repr(info[name]) == repr(ref[name])
    for name in ("state", "s_pq", "s_qp"):
        assert (info[name].canonical(with_order=True)
                == ref[name].canonical(with_order=True))
    assert info["infeasible"] >= 1


def test_no_replay_for_a_candidate_that_cannot_be_a_witness(
        representatives, monkeypatch):
    """Every commutativity candidate the walk skips unreplayed has a side
    that a feasibility check outside the walk refuses, and the semantic
    check makes no first-level ``q`` run after ``p``'s aborted."""
    run_path, feasible = enumcheck.run_path, PairChecker._feasible
    independent_of = enumcheck.Footprint.independent_of
    walk: dict = {}

    def candidates(self):
        for candidate in stream(self):
            walk["current"] = candidate
            walk["log"].append([candidate, False])
            yield candidate

    def reached(self, other):
        walk["log"][-1][1] = True
        return independent_of(self, other)

    def nested(self, *args):
        walk["feasibility"] += 1
        try:
            return feasible(self, *args)
        finally:
            walk["feasibility"] -= 1

    def first_level_runs(path, state, env, schema):
        checker = walk["checker"]
        current, env_p, env_q, *_ = walk["current"]
        if (not walk["feasibility"] and path is checker.q
                and state is current and env is env_q and env is not env_p):
            walk["q_runs"] += 1
            assert run_path(checker.p, state, env_p, schema).committed
        return run_path(path, state, env, schema)

    stream = PairChecker._candidates
    monkeypatch.setattr(PairChecker, "_candidates", candidates)
    monkeypatch.setattr(PairChecker, "_feasible", nested)
    monkeypatch.setattr(enumcheck.Footprint, "independent_of", reached)
    monkeypatch.setattr(enumcheck, "run_path", first_level_runs)
    skipped_total = q_runs = 0
    for app, p, q, schema in representatives:
        checker = PairChecker(p, q, schema)
        walk.update(checker=checker, log=[], feasibility=0, q_runs=0)
        status, info = checker.search(float("inf"))["commutativity"]
        q_runs += walk["q_runs"]
        seen, skipped = set(), []
        for (state, env_p, env_q, _, _, key), replayed in \
                walk["log"][:info["candidates"]]:
            if key is not None:
                if key in seen:
                    continue
                seen.add(key)
            if not replayed:
                skipped.append((env_p, env_q))
        # The witness candidate itself diverged, so it was replayed.
        assert len(skipped) == info["infeasible"], (app, p.name, q.name)
        fresh: dict = {}  # this audit's own cache, not the walk's
        for env_p, env_q in skipped:
            assert not (feasible(checker, p, env_p, fresh)
                        and feasible(checker, q, env_q, fresh)), (
                app, p.name, q.name, env_p, env_q)
        skipped_total += len(skipped)
    assert skipped_total > 0 and q_runs > 0
