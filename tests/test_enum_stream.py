"""Pins of the enum checker's candidate stream.

The bounded search's verdicts are a function of the candidates it
examines, and the random phase of that stream is a function of the exact
``rng`` draws (which, how many, in which order).  For every pair a
smallbank or courseware sweep hands to the solver, these tests pin a
digest of the full ``PairChecker._candidates()`` stream, how many
candidates each check examines, and how many times the search replays a
path through the interpreter.  The values were recorded before the
search's per-pair plans and memo bookkeeping were introduced; a change
here means the search itself changed, not just its speed.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.verifier.enumcheck as enumcheck
from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.engine.reduction import ROUTE_SOLVE, plan_sweep
from repro.soir import Argument, CodePath, commands as C, expr as E
from repro.soir.types import INT, Comparator
from repro.verifier import CheckConfig, PairChecker, build_scope
from repro.verifier.scopes import ArgSampler, StateGenerator, collect_args

from helpers import blog_schema

#: pair -> (stream digest, stream length, commutativity candidates,
#: semantic candidates, apply_path calls, run_path calls)
PINNED = {
    "courseware:AddCourse[0] x DeleteCourse[0]":
        ("fbf5df1516adce8a", 1232, 4, 1232, 13, 4558),
    "courseware:AddCourse[0] x Enroll[0]":
        ("e08734212b05a170", 1328, 1328, 1328, 5128, 2730),
    "courseware:DeleteCourse[0] x DeleteCourse[0]":
        ("b538181e1fde064b", 1236, 1236, 1236, 4083, 3471),
    "courseware:Enroll[0] x DeleteCourse[0]":
        ("f2c3013d66e24267", 1456, 1456, 70, 5392, 49),
    "courseware:Enroll[0] x Enroll[0]":
        ("5dbea3bbe46200ca", 2224, 2224, 2224, 6976, 2708),
    "courseware:Register[0] x Enroll[0]":
        ("43980da1b1843ebf", 1328, 1328, 1328, 5128, 2770),
    "courseware:Register[0] x Register[0]":
        ("37dd0624ae455692", 1216, 1216, 1216, 4848, 4848),
    "smallbank:DepositChecking[1] x DepositChecking[1]":
        ("cd323433d679bb87", 1920, 1920, 1920, 5806, 2300),
    "smallbank:DepositChecking[1] x SendPayment[1]":
        ("9a255101879e0484", 4080, 4080, 4080, 10860, 2944),
    "smallbank:DepositChecking[1] x TransactSavings[0]":
        ("7b148c1cc9fa1562", 1920, 1920, 1920, 6360, 2900),
    "smallbank:SendPayment[1] x SendPayment[1]":
        ("71c8897fc0fb9a41", 12720, 12720, 687, 27850, 91),
    "smallbank:TransactSavings[0] x SendPayment[1]":
        ("64e7bc374e783403", 4080, 4080, 4080, 10860, 2986),
    "smallbank:TransactSavings[0] x TransactSavings[0]":
        ("e8a4a2c71e7c3f2a", 1920, 1920, 40, 5789, 37),
}


def stream_digest(checker: PairChecker) -> tuple[str, int]:
    """sha256 over every candidate's state ``canonical()`` and both
    sorted environments, plus the candidate count."""
    h = hashlib.sha256()
    count = 0
    last_state, last_canon = None, b""
    for state, env_p, env_q in checker._candidates():
        if state is not last_state:
            last_state, last_canon = state, repr(state.canonical()).encode()
        h.update(last_canon)
        h.update(repr(sorted(env_p.items())).encode())
        h.update(repr(sorted(env_q.items())).encode())
        count += 1
    return h.hexdigest()[:16], count


def searched(checker: PairChecker, monkeypatch) -> tuple[int, ...]:
    """Both searches, unbounded in time: their candidate counts and the
    interpreter calls they made."""
    calls = {"apply_path": 0, "run_path": 0}

    def counting(name):
        orig = getattr(enumcheck, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        return wrapper

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(enumcheck, name, counting(name))
        _, com = checker.search_commutativity(float("inf"))
        _, sem = checker.search_semantic(float("inf"))
    return (com["candidates"], sem["candidates"], calls["apply_path"],
            calls["run_path"])


@pytest.fixture(scope="module")
def representatives():
    config = CheckConfig()
    out = {}
    for app, build in (("smallbank", build_smallbank),
                       ("courseware", build_courseware)):
        analysis = analyze_application(build())
        for plan in plan_sweep(analysis, config).pairs:
            if plan.route == ROUTE_SOLVE:
                out[f"{app}:{plan.left.name} x {plan.right.name}"] = (
                    plan.left, plan.right, analysis.schema)
    return out


def test_representatives_are_the_pinned_pairs(representatives):
    assert sorted(representatives) == sorted(PINNED)


@pytest.mark.parametrize("pair", sorted(PINNED))
def test_candidate_stream_and_search_are_pinned(pair, representatives,
                                                monkeypatch):
    p, q, schema = representatives[pair]
    checker = PairChecker(p, q, schema, CheckConfig())
    got = (*stream_digest(checker), *searched(checker, monkeypatch))
    assert got == PINNED[pair]


def test_random_draws_over_a_constrained_schema_are_pinned():
    """The apps above have no non-pk unique field and no nullable
    foreign key; the blog schema has both, so this pins the sampler's
    draws through those branches (and the order shuffle)."""
    v = E.Var("v", INT)
    path = CodePath("p", (Argument("v", INT),), (
        C.Guard(E.Cmp(Comparator.GE, v, E.intlit(5))),
        C.Delete(E.Filter(E.All("Article"), (), "created", Comparator.EQ, v)),
    ))
    scope = build_scope(blog_schema(), [path])
    generator = StateGenerator(scope)
    args = collect_args(path)
    sampler = ArgSampler(args, args, scope, unique_ids_distinct=True)
    rng = random.Random(11)
    h = hashlib.sha256()
    for _ in range(300):
        state = generator.random_state(rng)
        h.update(repr(state.canonical(with_order=True)).encode())
        env_p, env_q = sampler.draw(rng)
        h.update(repr((sorted(env_p.items()), sorted(env_q.items()))).encode())
    assert h.hexdigest()[:16] == "8c595e60067077bc"
    assert rng.random() == 0.09155220250489349
