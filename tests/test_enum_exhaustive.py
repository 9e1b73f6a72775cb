"""The enum search's bounded-exhaustive phase.

When a pair's whole bounded state space (every state
``StateGenerator.random_state`` can return) times its untrimmed env
product fits in ``max_samples``, the candidate stream walks all of it
instead of sampling, and a PASS says so (``coverage="exhaustive"``).
These tests hold the enumerator to the sampler's support, hold every
verdict to a forced-sampling walk, and follow the coverage tag through
the records, the report, the cache format and the metrics.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro.metrics as mx
from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.apps.todo import build_app as build_todo
from repro.engine.reduction import ROUTE_SOLVE, plan_sweep
from repro.engine.scheduler import run_pair_sweep
from repro.obs import tracer as obs
from repro.soir import RelationSchema, Schema, make_model
from repro.soir.types import INT
from repro.verifier import CheckConfig, PairChecker
from repro.verifier.restrictions import (Outcome, verdict_from_obj,
                                         verdict_to_obj)
from repro.verifier.scopes import Scope, StateGenerator, _draws

APPS = {"smallbank": build_smallbank, "courseware": build_courseware,
        "todo": build_todo}

CONFIG = CheckConfig()


@pytest.fixture(scope="module")
def representatives():
    out = []
    for app, build in APPS.items():
        analysis = analyze_application(build())
        out += [(app, plan.left, plan.right, analysis.schema)
                for plan in plan_sweep(analysis, CONFIG).pairs
                if plan.route == ROUTE_SOLVE]
    return out


def canon(state) -> tuple:
    return state.canonical(with_order=True)


def test_enumeration_covers_the_sampler(representatives):
    """Every seeded draw of an enumerated pair's sampled phase is one of
    the enumerated states, and the enumerated states are distinct."""
    enumerated = {app: 0 for app in APPS}
    for app, p, q, schema in representatives:
        checker = PairChecker(p, q, schema, CONFIG)
        if checker._bounded_space is None:
            continue
        enumerated[app] += 1
        states = checker.generator.all_states()
        assert len({canon(s) for s in states.values()}) == len(states)
        assert all(canon(s) == key for key, s in states.items())
        assert len(states) <= checker.generator.space_bound(10 ** 9)
        forced = PairChecker(p, q, schema, CONFIG)
        forced.__dict__["_bounded_space"] = None
        draws = [state for state, *_, key in forced._candidates()
                 if key is not None]
        assert len(draws) == CONFIG.max_samples
        for state in draws:
            assert canon(state) in states, (app, p.name, q.name)
    assert enumerated == {"smallbank": 0, "courseware": 3, "todo": 32}


def test_verdicts_match_a_sampled_walk(representatives, monkeypatch):
    """Every check decides as the sampled walk did, and the exhaustive
    phase stays inside the sample budget."""
    walks = []
    for app, p, q, schema in representatives:
        checker = PairChecker(p, q, schema, CONFIG)
        walks.append((app, p, q, schema, checker._bounded_space is not None,
                      checker.search(float("inf")),
                      len(checker._bounded_space or ())
                      * len(checker._env_plan)))
    monkeypatch.setattr(PairChecker, "_bounded_space",
                        property(lambda self: None))
    for app, p, q, schema, enumerated, got, phase in walks:
        where = (app, p.name, q.name)
        assert phase <= CONFIG.max_samples, where
        sampled = PairChecker(p, q, schema, CONFIG).search(float("inf"))
        for kind, (status, info) in got.items():
            assert status == sampled[kind][0], (*where, kind)
            assert (info["exhaustive"] + info["sampled"]
                    == info["candidates"]), (*where, kind)
            if enumerated:
                assert info["sampled"] == 0, (*where, kind)
            if status == "pass":
                assert info["coverage"] == (
                    "exhaustive" if info["sampled"] == 0 else "sampled")
                assert (info["coverage"] == "exhaustive") == enumerated
            else:
                assert info["coverage"] == ""


def test_only_a_cheap_bound_decides_no():
    """A pair whose space does not fit never builds an enumerated state."""
    analysis = analyze_application(build_smallbank())
    plan = next(plan for plan in plan_sweep(analysis, CONFIG).pairs
                if plan.route == ROUTE_SOLVE)
    checker = PairChecker(plan.left, plan.right, analysis.schema, CONFIG)
    checker.generator.all_states = None  # would raise if called
    assert checker._bounded_space is None


def constrained_scope() -> Scope:
    """A unique field, a nullable and a non-null foreign key and a
    ``unique_together`` group: every branch of the sampler."""
    schema = Schema()
    schema.add_model(make_model("Item", {"v": INT, "u": INT, "w": INT},
                                unique=("u",),
                                unique_together=(("v", "w"),)))
    schema.add_model(make_model("Tag", {"t": INT}))
    schema.add_model(make_model("Note", {"n": INT}))
    schema.add_relation(RelationSchema("Item.tag", source="Item",
                                       target="Tag", kind="fk",
                                       nullable=True))
    schema.add_relation(RelationSchema("Note.tag", source="Note",
                                       target="Tag", kind="fk"))
    schema.validate()
    return Scope(
        schema=schema,
        models=frozenset({"Item", "Tag", "Note"}),
        relations=frozenset({"Item.tag", "Note.tag"}),
        ids={"Item": [1, 2], "Tag": [1], "Note": [1, 2]},
        fresh_ids={"Item": [], "Tag": [], "Note": []},
        field_domains={("Item", "v"): [0, 1], ("Item", "u"): [1, True],
                       ("Item", "w"): [0], ("Tag", "t"): [0],
                       ("Note", "n"): [0]},
        type_domains={INT: [0, 1]},
    )


def test_below_draws_as_random_does():
    """``below`` consumes the ``getrandbits`` stream exactly as
    ``randrange``, ``randint`` and ``choice`` do, and refuses an empty
    range."""
    for seed in range(20):
        mine, ref = random.Random(seed), random.Random(seed)
        below, unread = _draws(mine)
        assert unread is below
        for n in (1, 2, 3, 5, 7, 8, 9, 16, 31, 100, 1000):
            assert below(n) == ref.randrange(n)
            assert below(n + 1) == ref.randint(0, n)
            assert below(n) == ref.choice(range(n))
            assert mine.random() == ref.random()
    with pytest.raises(ValueError):
        below(0)


def test_enumeration_over_every_sampler_branch():
    generator = StateGenerator(constrained_scope())
    states = generator.all_states()
    assert len(states) <= generator.space_bound(10 ** 9)
    rng = random.Random(5)
    drawn: set = set()
    for _ in range(100_000):
        state = canon(generator.random_state(rng))
        assert state in states
        drawn.add(state)
        if len(drawn) == len(states):
            break
    # The draws hit every state: the enumeration is the exact support.
    assert drawn == set(states)


def test_enumeration_order_ignores_the_hash_seed():
    """String pks and values hash differently per process; the walk's
    order must not follow them."""
    script = (
        "import dataclasses, hashlib\n"
        "from test_enum_exhaustive import constrained_scope\n"
        "from repro.verifier.scopes import StateGenerator\n"
        "scope = constrained_scope()\n"
        "scope = dataclasses.replace(scope, ids={\n"
        "    m: [f'{m}{i}' for i in range(len(pks))]\n"
        "    for m, pks in scope.ids.items()})\n"
        "keys = StateGenerator(scope).all_states()\n"
        "print(len(keys), hashlib.sha256(repr(list(keys)).encode())"
        ".hexdigest())\n")
    tests = pathlib.Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    outputs = {subprocess.run(
        [sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed},
        capture_output=True, text=True, check=True, timeout=120).stdout
        for seed in ("1", "2")}
    assert len(outputs) == 1


@pytest.fixture(scope="module")
def courseware_sweep():
    tracer = obs.Tracer()
    registry = mx.MetricsRegistry()
    with obs.activate(tracer), mx.activate(registry):
        report = run_pair_sweep(analyze_application(build_courseware()),
                                CONFIG, jobs=1)
    return report, tracer, registry


def test_coverage_reaches_records_report_and_metrics(courseware_sweep):
    report, tracer, registry = courseware_sweep
    records = [s.attrs for root in tracer.roots for s in root.walk()
               if s.kind == "solver-call" and s.attrs["backend"] == "enum"]
    passes = [r for r in records if r["result"] == "pass"]
    coverages = [r["coverage"] for r in passes]
    assert coverages.count("exhaustive") == 5
    assert coverages.count("sampled") == 7
    for record in passes:
        assert (record["coverage"] == "exhaustive") == (record["sampled"]
                                                         == 0)
    for coverage in ("exhaustive", "sampled"):
        assert registry.value("noctua_enum_pass_total",
                              coverage=coverage) == coverages.count(coverage)
    for row in report.to_json_obj()["verdicts"]:
        for kind in ("commutativity", "semantic"):
            if row[kind] is None:
                continue
            assert isinstance(row[kind], str)
            if row[kind] != "pass":
                assert row[f"{kind}_coverage"] == ""


def test_coverage_round_trips_and_is_shared(courseware_sweep):
    report, _, _ = courseware_sweep
    by_pair = {(v.left, v.right): v for v in report.verdicts}
    shared = 0
    for verdict in report.verdicts:
        again = verdict_from_obj(verdict_to_obj(verdict))
        for kind in ("commutativity", "semantic"):
            check = getattr(verdict, kind)
            assert getattr(again, kind).coverage == check.coverage
            # A solver-free PASS (a fast path's ``detail``) covers no
            # search space.
            if check.outcome is Outcome.PASS and not check.detail:
                assert check.coverage in ("exhaustive", "sampled")
            else:
                assert check.coverage == ""
        if (verdict.provenance or {}).get("source") == "shared":
            rep = by_pair[tuple(verdict.provenance["representative"])]
            for kind in ("commutativity", "semantic"):
                assert (getattr(verdict, kind).coverage
                        == getattr(rep, kind).coverage)
            shared += 1
    assert shared
