"""Effect footprints let the commutativity search skip replays soundly.

``PairChecker.search`` decides a candidate without its two second-level
``apply_path`` calls when the first-level effects' footprints are
independent (neither writes a row, table or relation the other read).
These tests hold that rule to the replays it skips: on every
representative of three apps, each candidate the walk judges
independent is replayed in both orders anyway, and the orders must
agree; on a hand-built schema, a dependent pair for every recorded site
(row lookups, scans, relation hops, merges, deletes and their
referential actions, link commands) must not be judged independent.
"""

from __future__ import annotations

import pytest

import repro.verifier.enumcheck as enumcheck
from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.apps.todo import build_app as build_todo
from repro.engine.reduction import ROUTE_SOLVE, plan_sweep
from repro.soir import (
    CodePath,
    DBState,
    RelationSchema,
    Schema,
    commands as C,
    expr as E,
    make_model,
)
from repro.soir.interp import Footprint, apply_path
from repro.soir.types import (
    INT,
    STRING,
    Aggregation,
    Comparator,
    Direction,
    DRelation,
)
from repro.verifier import CheckConfig, PairChecker

APPS = {"smallbank": build_smallbank, "courseware": build_courseware,
        "todo": build_todo}


def test_skipped_candidates_agree_in_both_orders(monkeypatch):
    """Every candidate the walk decides by footprint alone, replayed in
    both orders, ends in the same state; and the walk's ``independent``
    counter counts exactly those candidates."""
    first_level: dict[int, tuple] = {}

    def recording(path, state, env, schema, footprint=None):
        out = apply_path(path, state, env, schema, footprint)
        if footprint is not None:
            first_level[id(footprint)] = (path, env, out, schema)
        return out

    judged = {"independent": 0, "disagree": []}
    independent_of = Footprint.independent_of

    def audited(self, other):
        verdict = independent_of(self, other)
        if verdict:
            p, env_p, after_p, schema = first_level[id(self)]
            q, env_q, after_q, _ = first_level[id(other)]
            judged["independent"] += 1
            s_pq = apply_path(q, after_p, env_q, schema)
            s_qp = apply_path(p, after_q, env_p, schema)
            if not s_pq.same_state(s_qp):
                judged["disagree"].append((p.name, q.name, env_p, env_q))
        return verdict

    monkeypatch.setattr(enumcheck, "apply_path", recording)
    monkeypatch.setattr(Footprint, "independent_of", audited)
    counted = 0
    for build in APPS.values():
        analysis = analyze_application(build())
        for plan in plan_sweep(analysis, CheckConfig()).pairs:
            if plan.route != ROUTE_SOLVE:
                continue
            walk = PairChecker(plan.left, plan.right,
                               analysis.schema).search(float("inf"))
            com, sem = walk["commutativity"][1], walk["semantic"][1]
            assert sem["independent"] == 0
            assert com["independent"] <= com["candidates"] - com["repeats"]
            counted += com["independent"]
            first_level.clear()
    assert judged["disagree"] == []
    assert counted == judged["independent"] > 0


# -- hand-built schema: one dependent pair per recorded site ---------------

TEAM_BACK = DRelation("Player.team", Direction.BACKWARD)
MENTOR = DRelation("Player.mentor")
BADGES_BACK = DRelation("Player.badges", Direction.BACKWARD)


def league() -> Schema:
    schema = Schema()
    schema.add_model(make_model("Team", {"name": STRING, "size": INT}))
    schema.add_model(make_model("Player", {"score": INT}))
    schema.add_model(make_model("Badge", {"label": STRING}))
    schema.add_model(make_model("Note", {"text": STRING}))
    schema.add_relation(RelationSchema("Player.team", "Player", "Team",
                                       on_delete="cascade"))
    schema.add_relation(RelationSchema("Player.mentor", "Player", "Team",
                                       on_delete="set_null", nullable=True))
    schema.add_relation(RelationSchema("Note.team", "Note", "Team",
                                       on_delete="protect"))
    schema.add_relation(RelationSchema("Player.badges", "Player", "Badge",
                                       kind="m2m"))
    schema.validate()
    return schema


def league_state(schema: Schema) -> DBState:
    """Teams 1 and 2 with one player each; player 1's mentor is team 2;
    note 1 protects team 1; player 1 holds badge 1 of two."""
    state = DBState.empty(schema)
    for pk in (1, 2):
        state.insert_row("Team", pk, {"id": pk, "name": "", "size": 0})
        state.insert_row("Player", pk, {"id": pk, "score": 0})
        state.insert_row("Badge", pk, {"id": pk, "label": ""})
        state.relation("Player.team").add((pk, pk))
    state.insert_row("Note", 1, {"id": 1, "text": ""})
    state.relation("Player.mentor").add((1, 2))
    state.relation("Note.team").add((1, 1))
    state.relation("Player.badges").add((1, 1))
    return state


def ref(model: str, pk: int) -> E.Expr:
    return E.Deref(E.intlit(pk), model)


def one(obj: E.Expr) -> E.Expr:
    return E.Singleton(obj)


def set_field(model: str, pk: int, name: str, value: E.Expr) -> C.Command:
    return C.Update(one(E.SetField(name, value, ref(model, pk))))


def count(qs: E.Expr) -> E.Expr:
    return E.Aggregate(qs, Aggregation.CNT, "id", INT)


def new_player(pk: int, score: int) -> C.Command:
    return C.Update(one(E.MakeObj("Player", (("id", E.intlit(pk)),
                                             ("score", E.intlit(score))))))


def delete(model: str, pk: int) -> C.Command:
    return C.Delete(one(ref(model, pk)))


#: name -> (p's effects, q's effects); both orders diverge on
#: ``league_state``, and the site named is what ties the two
DEPENDENT = {
    "ghost deref": ([new_player(3, 1)],
                    [set_field("Player", 3, "score", E.intlit(5))]),
    "exists": ([new_player(3, 1)],
               [set_field("Team", 1, "name",
                          E.Ite(E.Exists("Player", E.intlit(3)),
                                E.strlit("yes"), E.strlit("no")))]),
    "all scan": ([new_player(3, 1)],
                 [set_field("Team", 1, "size", count(E.All("Player")))]),
    "follow": ([C.Link("Player.team", ref("Player", 1), ref("Team", 2))],
               [set_field("Team", 1, "size",
                          count(E.Follow(one(ref("Team", 1)), (TEAM_BACK,),
                                         "Player")))]),
    "filter": ([set_field("Player", 1, "score", E.intlit(10))],
               [C.Delete(E.Filter(E.All("Team"), (TEAM_BACK,), "score",
                                  Comparator.GE, E.intlit(5)))]),
    "insert vs insert": ([new_player(3, 1)], [new_player(3, 2)]),
    "update vs update": ([set_field("Player", 1, "score", E.intlit(1))],
                         [set_field("Player", 1, "score", E.intlit(2))]),
    "delete cascade": ([delete("Team", 1)],
                       [set_field("Player", 1, "score", E.intlit(7))]),
    "delete set-null": ([delete("Team", 2)],
                        [set_field("Team", 1, "size",
                                   count(E.Follow(one(ref("Player", 1)),
                                                  (MENTOR,), "Team")))]),
    "delete protect": ([delete("Team", 1)],
                       [set_field("Team", 1, "name", E.strlit("back"))]),
    "fk link": ([C.Link("Player.team", ref("Player", 1), ref("Team", 1))],
                [C.Link("Player.team", ref("Player", 1), ref("Team", 2))]),
    "m2m link": ([C.Link("Player.badges", ref("Player", 2), ref("Badge", 1))],
                 [set_field("Team", 1, "size",
                            count(E.Follow(one(ref("Badge", 1)),
                                           (BADGES_BACK,), "Player")))]),
    "rlink": ([C.RLink("Player.team", E.All("Player"), ref("Team", 2))],
              [C.Link("Player.team", ref("Player", 1), ref("Team", 1))]),
    "delink": ([C.Delink("Player.badges", ref("Player", 1), ref("Badge", 1))],
               [C.Link("Player.badges", ref("Player", 1), ref("Badge", 1))]),
    "clear links": ([C.ClearLinks("Player.badges", ref("Player", 1))],
                    [C.Link("Player.badges", ref("Player", 1),
                            ref("Badge", 2))]),
    "aborted read": ([set_field("Player", 2, "score", E.intlit(9))],
                     [C.Update(one(E.SetField(
                         "score", E.intlit(0),
                         E.FirstOf(E.Filter(E.All("Player"), (), "score",
                                            Comparator.GE,
                                            E.intlit(5))))))]),
}

#: pairs the rule must let through: both orders agree
INDEPENDENT = {
    "rows of one table": ([set_field("Player", 1, "score", E.intlit(1))],
                          [set_field("Player", 2, "score", E.intlit(2))]),
    "two inserts": ([new_player(3, 1)], [new_player(4, 1)]),
    "scan vs other table": ([set_field("Team", 1, "size",
                                       count(E.All("Player")))],
                            [set_field("Badge", 1, "label",
                                       E.strlit("x"))]),
}


def replay(p_effects, q_effects):
    schema = league()
    state = league_state(schema)
    p = CodePath("P", (), tuple(p_effects))
    q = CodePath("Q", (), tuple(q_effects))
    fp_p, fp_q = Footprint(), Footprint()
    after_p = apply_path(p, state, {}, schema, fp_p)
    after_q = apply_path(q, state, {}, schema, fp_q)
    agree = apply_path(q, after_p, {}, schema).same_state(
        apply_path(p, after_q, {}, schema))
    return fp_p, fp_q, agree


@pytest.mark.parametrize("case", sorted(DEPENDENT))
def test_dependent_pairs_are_never_judged_independent(case):
    fp_p, fp_q, agree = replay(*DEPENDENT[case])
    assert not agree, "the case must really diverge"
    assert not fp_p.independent_of(fp_q)
    assert not fp_q.independent_of(fp_p)


@pytest.mark.parametrize("case", sorted(INDEPENDENT))
def test_independent_pairs_are_judged_independent(case):
    fp_p, fp_q, agree = replay(*INDEPENDENT[case])
    assert agree
    assert fp_p.independent_of(fp_q)


def test_footprints_are_recorded_in_apply_mode_only():
    from repro.soir.interp import InterpError, Interpreter

    schema = league()
    with pytest.raises(InterpError):
        Interpreter(schema, league_state(schema), {}, footprint=Footprint())
