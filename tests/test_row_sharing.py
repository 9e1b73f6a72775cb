"""The immutable-row contract of :class:`~repro.soir.state.DBState`.

A stored row, like an ``ObjVal``'s ``fields``, is never written after it
is created, so ``clone`` shares rows and the interpreter hands stored rows
out as snapshots without copying them.  These tests make any in-place row
write fail loudly during real sweeps, and check that a replay never
touches its input state.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.engine.scheduler import run_pair_sweep
from repro.soir import (Argument, CodePath, Schema, commands as C,
                        expr as E, make_model)
from repro.soir.types import INT
from repro.soir.interp import Interpreter, PathAborted, apply_path, run_path
from repro.soir.state import DBState, ObjVal
from repro.verifier import CheckConfig, build_scope
from repro.verifier.scopes import ArgSampler, StateGenerator, collect_args

from helpers import blog_schema, blog_state, reference_sweep

APPS = {"smallbank": build_smallbank, "courseware": build_courseware}

#: the CLI's sample budget; the clock never ends a search
CONFIG = CheckConfig(timeout_s=600.0)


class FrozenRow(dict):
    """A row whose every in-place write raises."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("rows are immutable: replace the row instead")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


def frozen(row: dict) -> FrozenRow:
    return row if type(row) is FrozenRow else FrozenRow(row)


def freeze_rows(state: DBState | None) -> DBState | None:
    if state is not None:
        for table in state.tables.values():
            for pk, row in table.items():
                table[pk] = frozen(row)
    return state


def freeze_inserts(monkeypatch) -> None:
    """Make ``insert_row`` store read-only rows."""
    insert_row = DBState.insert_row
    monkeypatch.setattr(DBState, "insert_row", lambda self, model, pk, row:
                        insert_row(self, model, pk, frozen(row)))


@pytest.fixture(scope="module")
def analyses():
    return {app: analyze_application(build()) for app, build in APPS.items()}


@pytest.mark.parametrize("app", sorted(APPS))
def test_sweep_with_read_only_rows_matches_reference(app, analyses,
                                                     monkeypatch):
    """Every row the interpreter or a state generator stores, and every
    object snapshot, refuses in-place writes; the in-process sweep still
    runs to the reference loop's restriction set."""
    analysis = analyses[app]
    expected = reference_sweep(analysis, CONFIG).to_json_obj()["restrictions"]

    objval_init = ObjVal.__init__
    canonical_states = StateGenerator.canonical_states
    random_state = StateGenerator.random_state

    def frozen_objval_init(self, model, fields):
        objval_init(self, model, frozen(fields))

    freeze_inserts(monkeypatch)
    monkeypatch.setattr(ObjVal, "__init__", frozen_objval_init)
    monkeypatch.setattr(StateGenerator, "canonical_states", lambda self: [
        freeze_rows(s) for s in canonical_states(self)])
    monkeypatch.setattr(StateGenerator, "random_state",
                        lambda self, rng, key=None:
                        freeze_rows(random_state(self, rng, key)))

    report = run_pair_sweep(analysis, CONFIG, jobs=1)
    assert report.metrics["mode"] == "serial"
    # A refused write would surface as a crashed, unknown pair.
    assert report.metrics["failures"] == {}
    assert report.metrics["unknowns"] == 0
    assert report.to_json_obj()["restrictions"] == expected


def test_group_collision_states_replace_rows(monkeypatch):
    """The ``unique_together`` collision probes build their two agreeing
    rows by replacing stored rows, not by writing into them (none of the
    swept apps has such a group)."""
    schema = Schema()
    schema.add_model(make_model("Follow", {"user": INT, "topic": INT},
                                unique_together=(("user", "topic"),)))
    schema.validate()
    topic = E.Var("topic", INT)
    path = CodePath("follow", (Argument("topic", INT),), (C.Update(
        E.MapSet(E.All("Follow"), "topic", topic)),))
    freeze_inserts(monkeypatch)
    states = StateGenerator(build_scope(schema, [path])).canonical_states()
    probes = [rows for rows in (list(s.tables["Follow"].values())
                                for s in states)
              if len(rows) == 2 and rows[0]["user"] == rows[1]["user"]]
    assert probes
    assert all(a["topic"] != b["topic"] for a, b in probes)


def _rows(state: DBState) -> dict:
    """Every stored row object, with a copy of its contents."""
    return {(m, pk): (row, dict(row))
            for m, table in state.tables.items() for pk, row in table.items()}


def _apply_aborts(path, state: DBState, env: dict, schema) -> bool:
    """Whether ``path``'s effect aborts on ``state`` (on a clone)."""
    interp = Interpreter(schema, state.clone(), env, mode="apply")
    try:
        for cmd in path.effects:
            interp.exec(cmd)
    except PathAborted:
        return True
    return False


def _assert_untouched(state: DBState, canon: tuple, next_order: dict,
                      rows: dict) -> None:
    assert state.canonical(with_order=True) == canon
    assert state.next_order == next_order
    assert _rows(state).keys() == rows.keys()
    for key, (row, contents) in rows.items():
        model, pk = key
        assert state.tables[model][pk] is row
        assert row == contents


@pytest.mark.parametrize("app", sorted(APPS))
def test_replays_leave_their_input_untouched(app, analyses):
    """Over every pair's canonical and seeded random states, a committed
    or aborted ``run_path``/``apply_path`` leaves its input's contents,
    order and row objects as they were, and an aborted replay returns
    the input object itself."""
    analysis = analyses[app]
    schema = analysis.schema
    seen = {"run": [0, 0], "apply": [0, 0]}  # [committed, aborted]
    pairs = itertools.combinations_with_replacement(analysis.effectful_paths, 2)
    for pair_no, (p, q) in enumerate(pairs):
        scope = build_scope(schema, [p, q])
        generator = StateGenerator(scope)
        sampler = ArgSampler(collect_args(p), collect_args(q), scope,
                             unique_ids_distinct=True)
        rng = random.Random(pair_no)
        states = generator.canonical_states()
        states += [s for s in (generator.random_state(rng) for _ in range(8))
                   if s is not None]
        for state in states:
            env_p, env_q = sampler.draw(rng)
            # A replay's output is a replay's input too.
            inputs = [state, apply_path(p, state, env_p, schema)]
            for base in inputs:
                canon = base.canonical(with_order=True)
                next_order = dict(base.next_order)
                rows = _rows(base)
                for path, env in ((p, env_p), (q, env_q)):
                    out = run_path(path, base, env, schema)
                    seen["run"][not out.committed] += 1
                    assert (out.state is base) == (not out.committed)
                    _assert_untouched(base, canon, next_order, rows)

                    aborts = _apply_aborts(path, base, env, schema)
                    seen["apply"][aborts] += 1
                    after = apply_path(path, base, env, schema)
                    assert (after is base) == aborts
                    _assert_untouched(base, canon, next_order, rows)
    # Both apps' effects apply everywhere; ``test_aborted_apply_*`` below
    # covers an effect that does not.
    assert all(seen["run"]), seen
    assert seen["apply"][0], seen


def test_aborted_apply_returns_its_input():
    """``first()`` of an empty set feeding an effect aborts the apply:
    the replay returns the input object, untouched; where the effect
    lands it returns a new state and leaves the input as it was."""
    schema = blog_schema()
    retitle = CodePath("retitle", (), (C.Update(E.Singleton(E.SetField(
        "title", E.strlit("Omega"), E.FirstOf(E.All("Article"))))),))
    empty = DBState.empty(schema)
    assert apply_path(retitle, empty, {}, schema) is empty
    assert not run_path(retitle, empty, {}, schema).committed

    state = blog_state(schema)
    canon, rows = state.canonical(with_order=True), _rows(state)
    after = apply_path(retitle, state, {}, schema)
    assert after is not state
    assert after.tables["Article"][1]["title"] == "Omega"
    _assert_untouched(state, canon, dict(state.next_order), rows)
