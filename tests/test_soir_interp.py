"""Tests of the SOIR reference interpreter against the blog schema."""

import copy
import pickle
from dataclasses import dataclass

import pytest

from repro.soir import (
    Argument,
    CodePath,
    DBState,
    ObjVal,
    commands as C,
    expr as E,
    run_path,
    precondition_holds,
)
from repro.soir.interp import (
    _COMMAND_COMPILERS,
    _EXPR_COMPILERS,
    Interpreter,
    InterpError,
    PathAborted,
    apply_path,
    compare,
)
from repro.soir.types import (
    INT,
    STRING,
    Aggregation,
    Comparator,
    Direction,
    DRelation,
    ObjType,
    Order,
    RefType,
)
from repro.soir.schema import SchemaError
from repro.soir.serialize import path_to_obj

from helpers import blog_schema, blog_state


@pytest.fixture()
def schema():
    return blog_schema()


@pytest.fixture()
def state(schema):
    return blog_state(schema)


def interp(schema, state, env=None):
    return Interpreter(schema, state, env or {})


AUTHOR = DRelation("Article.author", Direction.FORWARD)
AUTHOR_REV = DRelation("Article.author", Direction.BACKWARD)


class TestExpressions:
    def test_all_returns_insertion_order(self, schema, state):
        qs = interp(schema, state).eval(E.All("Article"))
        assert [o.fields["id"] for o in qs.objs] == [1, 2, 3]

    def test_filter_plain_field(self, schema, state):
        e = E.Filter(E.All("Article"), (), "title", Comparator.EQ, E.strlit("Beta"))
        qs = interp(schema, state).eval(e)
        assert [o.fields["id"] for o in qs.objs] == [2]

    def test_filter_through_relation(self, schema, state):
        e = E.Filter(E.All("Article"), (AUTHOR,), "name", Comparator.EQ, E.strlit("john"))
        qs = interp(schema, state).eval(e)
        assert [o.fields["id"] for o in qs.objs] == [1, 2]

    def test_filter_multi_hop(self, schema, state):
        # Comments on articles authored by mary.
        e = E.Filter(
            E.All("Comment"),
            (DRelation("Comment.article"), AUTHOR),
            "name",
            Comparator.EQ,
            E.strlit("mary"),
        )
        qs = interp(schema, state).eval(e)
        assert [o.fields["id"] for o in qs.objs] == [11]

    def test_follow_forward(self, schema, state):
        e = E.Follow(E.All("Article"), (AUTHOR,), "User")
        qs = interp(schema, state).eval(e)
        assert sorted(o.fields["name"] for o in qs.objs) == ["john", "mary"]

    def test_follow_backward(self, schema, state):
        john = E.Filter(E.All("User"), (), "name", Comparator.EQ, E.strlit("john"))
        e = E.Follow(john, (AUTHOR_REV,), "Article")
        qs = interp(schema, state).eval(e)
        assert [o.fields["id"] for o in qs.objs] == [1, 2]

    def test_orderby_and_first_last(self, schema, state):
        by_created_desc = E.OrderBy(E.All("Article"), "created", Order.DESC)
        it = interp(schema, state)
        assert it.eval(E.FirstOf(by_created_desc)).fields["id"] == 3
        assert it.eval(E.LastOf(by_created_desc)).fields["id"] == 1

    def test_reverse(self, schema, state):
        e = E.ReverseSet(E.All("Article"))
        qs = interp(schema, state).eval(e)
        assert [o.fields["id"] for o in qs.objs] == [3, 2, 1]

    def test_first_of_empty_aborts(self, schema, state):
        e = E.FirstOf(E.Filter(E.All("Article"), (), "id", Comparator.EQ, E.intlit(99)))
        with pytest.raises(PathAborted):
            interp(schema, state).eval(e)

    def test_aggregates(self, schema, state):
        it = interp(schema, state)
        qs = E.All("Article")
        assert it.eval(E.Aggregate(qs, Aggregation.CNT, "id", INT)) == 3
        assert it.eval(E.Aggregate(qs, Aggregation.MAX, "created", INT)) == 300
        assert it.eval(E.Aggregate(qs, Aggregation.MIN, "created", INT)) == 100
        assert it.eval(E.Aggregate(qs, Aggregation.SUM, "created", INT)) == 600
        assert it.eval(E.Aggregate(qs, Aggregation.AVG, "created", INT)) == 200

    def test_aggregate_empty(self, schema, state):
        empty = E.Filter(E.All("Article"), (), "id", Comparator.EQ, E.intlit(99))
        it = interp(schema, state)
        assert it.eval(E.Aggregate(empty, Aggregation.CNT, "id", INT)) == 0
        assert it.eval(E.Aggregate(empty, Aggregation.MAX, "created", INT)) is None

    def test_exists_and_deref(self, schema, state):
        it = interp(schema, state)
        assert it.eval(E.Exists("User", E.strlit("john"))) is True
        assert it.eval(E.Exists("User", E.strlit("ghost"))) is False
        u = it.eval(E.Deref(E.strlit("john"), "User"))
        assert u.fields["name"] == "john"
        with pytest.raises(PathAborted):
            it.eval(E.Deref(E.strlit("ghost"), "User"))

    def test_member_and_empty(self, schema, state):
        it = interp(schema, state)
        art1 = E.Deref(E.intlit(1), "Article")
        johns = E.Filter(E.All("Article"), (AUTHOR,), "name", Comparator.EQ, E.strlit("john"))
        assert it.eval(E.MemberOf(art1, johns)) is True
        assert it.eval(E.IsEmpty(johns)) is False

    def test_setfield_is_functional(self, schema, state):
        it = interp(schema, state)
        base = E.Deref(E.intlit(1), "Article")
        changed = E.SetField("title", E.strlit("New"), base)
        obj = it.eval(changed)
        assert obj.fields["title"] == "New"
        # The database row is untouched.
        assert state.tables["Article"][1]["title"] == "Alpha"

    def test_arithmetic(self, schema, state):
        it = interp(schema, state)
        assert it.eval(E.BinOp("+", E.intlit(2), E.intlit(3))) == 5
        assert it.eval(E.BinOp("/", E.intlit(7), E.intlit(2))) == 3
        assert it.eval(E.BinOp("/", E.intlit(-7), E.intlit(2))) == -3
        assert it.eval(E.BinOp("concat", E.strlit("a"), E.strlit("b"))) == "ab"
        assert it.eval(E.Neg(E.intlit(4))) == -4
        with pytest.raises(PathAborted):
            it.eval(E.BinOp("/", E.intlit(1), E.intlit(0)))

    def test_boolean_connectives(self, schema, state):
        it = interp(schema, state)
        assert it.eval(E.And((E.true(), E.true()))) is True
        assert it.eval(E.Or((E.false(), E.true()))) is True
        assert it.eval(E.Not(E.false())) is True
        assert it.eval(E.Ite(E.true(), E.intlit(1), E.intlit(2))) == 1

    def test_var_binding(self, schema, state):
        it = interp(schema, state, {"x": 42})
        assert it.eval(E.Var("x", INT)) == 42

    def test_opaque_requires_pin(self, schema, state):
        from repro.soir.interp import InterpError

        it = interp(schema, state)
        with pytest.raises(InterpError):
            it.eval(E.Opaque("mystery", INT))
        it2 = interp(schema, state, {"mystery": 7})
        assert it2.eval(E.Opaque("mystery", INT)) == 7


class TestCompare:
    def test_null_semantics(self):
        assert compare(Comparator.EQ, None, None)
        assert not compare(Comparator.EQ, None, 1)
        assert compare(Comparator.NE, None, 1)
        assert not compare(Comparator.LT, None, 1)
        assert not compare(Comparator.GE, 1, None)

    def test_string_ops(self):
        assert compare(Comparator.CONTAINS, "hello world", "lo w")
        assert compare(Comparator.STARTSWITH, "hello", "he")
        assert compare(Comparator.IN, 2, (1, 2, 3))


class TestCommands:
    def test_update_modifies_rows(self, schema, state):
        renamed = E.SetField(
            "title", E.strlit("Renamed"), E.Deref(E.intlit(1), "Article")
        )
        path = CodePath("t", (), (C.Update(E.Singleton(renamed)),))
        out = run_path(path, state, {}, schema)
        assert out.committed
        assert out.state.tables["Article"][1]["title"] == "Renamed"
        # Input state untouched.
        assert state.tables["Article"][1]["title"] == "Alpha"

    def test_update_inserts_new_object(self, schema, state):
        new = E.MakeObj(
            "Article",
            (
                ("id", E.intlit(50)),
                ("url", E.strlit("a/50")),
                ("title", E.strlit("Delta")),
                ("content", E.strlit("x")),
                ("created", E.intlit(400)),
            ),
        )
        path = CodePath("t", (), (C.Update(E.Singleton(new)),))
        out = run_path(path, state, {}, schema)
        assert out.committed
        assert 50 in out.state.tables["Article"]
        # New row receives the next order number.
        assert out.state.order["Article"][50] == 3

    def test_update_unique_violation_aborts(self, schema, state):
        clash = E.MakeObj(
            "Article",
            (
                ("id", E.intlit(51)),
                ("url", E.strlit("a/1")),  # duplicates article 1's unique url
                ("title", E.strlit("Dup")),
                ("content", E.strlit("x")),
                ("created", E.intlit(1)),
            ),
        )
        path = CodePath("t", (), (C.Update(E.Singleton(clash)),))
        out = run_path(path, state, {}, schema)
        assert not out.committed
        assert "unique" in out.reason

    def test_guard_aborts(self, schema, state):
        path = CodePath(
            "t",
            (),
            (
                C.Guard(E.Exists("User", E.strlit("ghost"))),
                C.Delete(E.All("Comment")),
            ),
        )
        out = run_path(path, state, {}, schema)
        assert not out.committed
        assert out.state.tables["Comment"]  # unchanged

    def test_delete_cascades(self, schema, state):
        # Deleting article 1 cascades into comment 10 (Comment.article CASCADE).
        target = E.Filter(E.All("Article"), (), "id", Comparator.EQ, E.intlit(1))
        path = CodePath("t", (), (C.Delete(target),))
        out = run_path(path, state, {}, schema)
        assert out.committed
        assert 1 not in out.state.tables["Article"]
        assert 10 not in out.state.tables["Comment"]
        assert (10, 1) not in out.state.assocs["Comment.article"]
        assert (10, "mary") not in out.state.assocs["Comment.user"]

    def test_delete_set_null(self, schema, state):
        # Deleting user john clears Article.author pairs (SET_NULL) but
        # cascades comments authored by john.
        target = E.Filter(E.All("User"), (), "name", Comparator.EQ, E.strlit("john"))
        path = CodePath("t", (), (C.Delete(target),))
        out = run_path(path, state, {}, schema)
        assert out.committed
        assert "john" not in out.state.tables["User"]
        assert 1 in out.state.tables["Article"]  # article survives
        assert not {p for p in out.state.assocs["Article.author"] if p[1] == "john"}
        assert 11 not in out.state.tables["Comment"]  # comment cascaded

    def test_delete_protect_aborts(self, schema):
        from repro.soir import RelationSchema, Schema, make_model
        from repro.soir.types import STRING

        s = Schema()
        s.add_model(make_model("A", {}))
        s.add_model(make_model("B", {}))
        s.add_relation(RelationSchema("B.a", "B", "A", on_delete="protect"))
        state = DBState.empty(s)
        state.insert_row("A", 1, {"id": 1})
        state.insert_row("B", 2, {"id": 2})
        state.relation("B.a").add((2, 1))
        path = CodePath("t", (), (C.Delete(E.All("A")),))
        out = run_path(path, state, {}, s)
        assert not out.committed
        assert "protected" in out.reason

    def test_link_replaces_fk(self, schema, state):
        art = E.Deref(E.intlit(1), "Article")
        mary = E.Deref(E.strlit("mary"), "User")
        path = CodePath("t", (), (C.Link("Article.author", art, mary),))
        out = run_path(path, state, {}, schema)
        pairs = out.state.assocs["Article.author"]
        assert (1, "mary") in pairs
        assert (1, "john") not in pairs

    def test_delink(self, schema, state):
        art = E.Deref(E.intlit(1), "Article")
        john = E.Deref(E.strlit("john"), "User")
        path = CodePath("t", (), (C.Delink("Article.author", art, john),))
        out = run_path(path, state, {}, schema)
        assert (1, "john") not in out.state.assocs["Article.author"]

    def test_rlink_batch_transfer(self, schema, state):
        johns = E.Filter(E.All("Article"), (AUTHOR,), "name", Comparator.EQ, E.strlit("john"))
        mary = E.Deref(E.strlit("mary"), "User")
        path = CodePath("t", (), (C.RLink("Article.author", johns, mary),))
        out = run_path(path, state, {}, schema)
        pairs = out.state.assocs["Article.author"]
        assert pairs == {(1, "mary"), (2, "mary"), (3, "mary")}

    def test_clearlinks_target_end(self, schema, state):
        john = E.Deref(E.strlit("john"), "User")
        path = CodePath("t", (), (C.ClearLinks("Article.author", john, "target"),))
        out = run_path(path, state, {}, schema)
        assert {p for p in out.state.assocs["Article.author"] if p[1] == "john"} == set()
        assert (3, "mary") in out.state.assocs["Article.author"]

    def test_clearlinks_source_end(self, schema, state):
        art = E.Deref(E.intlit(1), "Article")
        path = CodePath("t", (), (C.ClearLinks("Article.author", art, "source"),))
        out = run_path(path, state, {}, schema)
        assert {p for p in out.state.assocs["Article.author"] if p[0] == 1} == set()
        assert (2, "john") in out.state.assocs["Article.author"]

    def test_apply_mode_ghost_keeps_field_order(self, schema, state):
        # Replication semantics: a missing object dereferences to a ghost
        # of type defaults, and a write through it lands as a full row.
        ghost = E.Deref(E.intlit(7), "Article")
        path = CodePath("t", (), (
            C.Update(E.Singleton(E.SetField("title", E.strlit("T"), ghost))),
        ))
        row = apply_path(path, state, {}, schema).tables["Article"][7]
        assert list(row.items()) == [
            ("id", 7), ("url", ""), ("title", "T"), ("content", ""),
            ("created", 0),
        ]
        assert list(schema.model("Article").default_row.values()) == [
            0, "", "", "", 0]

    def test_precondition_helper(self, schema, state):
        ok = CodePath("t", (), (C.Guard(E.Exists("User", E.strlit("john"))),))
        bad = CodePath("t", (), (C.Guard(E.Exists("User", E.strlit("ghost"))),))
        assert precondition_holds(ok, state, {}, schema)
        assert not precondition_holds(bad, state, {}, schema)


class TestStateEquality:
    def test_same_state_modulo_order(self, schema, state):
        other = state.clone()
        assert state.same_state(other)
        other.order["Article"][1] = 99
        assert state.same_state(other)  # order ignored by default
        assert not state.same_state(other, with_order=True)

    def test_data_difference_detected(self, schema, state):
        other = state.clone()
        other.insert_row("Article", 1, {**state.tables["Article"][1],
                                        "title": "X"})
        assert not state.same_state(other)
        assert not other.same_state(state)
        assert state.tables["Article"][1]["title"] == "Alpha"

    def test_empty_order_maps_are_normalized(self):
        """An order map emptied by ``delete_row`` (or materialized with no
        rows) never distinguishes two states, with or without order."""
        a = DBState()
        a.insert_row("X", 1, {"id": 1})
        a.delete_row("X", 1)
        b = DBState()
        assert a.same_state(b) and b.same_state(a)
        assert a.same_state(b, with_order=True)
        assert b.same_state(a, with_order=True)
        c = DBState(order={"X": {}})
        assert c.same_state(b, with_order=True)
        assert b.same_state(c, with_order=True)
        b.insert_row("X", 1, {"id": 1})
        assert not a.same_state(b, with_order=True)

    def test_assoc_difference_detected(self, schema, state):
        other = state.clone()
        other.assocs["Article.author"].discard((1, "john"))
        assert not state.same_state(other)


def _concrete_nodes(base: type, module) -> set[type]:
    """Every subclass of ``base`` defined in ``module``."""
    found, stack = set(), [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__ == module.__name__:
                found.add(sub)
    return found


class TestDispatch:
    """Each node class compiles, through a table keyed by class, to the
    closure that evaluates or executes it."""

    def test_every_expression_class_has_an_evaluator(self):
        assert _concrete_nodes(E.Expr, E) == set(_EXPR_COMPILERS)

    def test_every_command_class_has_an_executor(self):
        assert _concrete_nodes(C.Command, C) == set(_COMMAND_COMPILERS)

    def test_unknown_nodes_raise_interp_error(self, schema, state):
        @dataclass(frozen=True)
        class Mystery(E.Expr):
            pass

        @dataclass(frozen=True)
        class Shrug(C.Command):
            pass

        with pytest.raises(InterpError, match="no evaluator for Mystery"):
            interp(schema, state).eval(Mystery())
        with pytest.raises(InterpError, match="no executor for Shrug"):
            interp(schema, state).exec(Shrug())
        mystery = CodePath("t", (), (C.Guard(Mystery()),))
        assert mystery.program  # compiles without raising
        with pytest.raises(InterpError, match="no evaluator for Mystery"):
            run_path(mystery, state, {}, schema)
        # Behind a failing guard the unknown node is never evaluated.
        guarded = CodePath("t", (), (C.Guard(E.false()),
                                     C.Guard(Mystery())))
        assert run_path(guarded, state, {}, schema).reason == "guard failed"

    def test_ill_formed_new_behind_failing_guard_aborts(self, schema, state):
        """A ``new<µ>`` of an unknown model, or missing a field, raises
        only when evaluated: behind a failing guard the path aborts."""
        for bad in (E.MakeObj("Nowhere", (("id", E.intlit(9)),)),
                    E.MakeObj("Article", (("id", E.intlit(9)),))):
            insert = C.Update(E.Singleton(bad))
            guarded = CodePath("t", (), (C.Guard(E.false()), insert))
            out = run_path(guarded, state, {}, schema)
            assert not out.committed and out.reason == "guard failed"
            assert out.state is state
            with pytest.raises((SchemaError, InterpError),
                               match="Nowhere|missing field"):
                run_path(CodePath("t", (), (insert,)), state, {}, schema)

    def test_replayed_path_pickles_copies_compares_and_hashes(self, schema,
                                                              state):
        """The compiled program is a cache on the path: it stays out of
        equality, hashing, serialization, pickles and copies."""

        def build() -> CodePath:
            return CodePath("t", (Argument("a", INT),), (
                C.Guard(E.Exists("Article", E.Var("a", INT))),
                C.Delete(E.Singleton(E.Deref(E.Var("a", INT), "Article"))),
            ))

        path, fresh = build(), build()
        env = {"a": 1}
        run = run_path(path, state, env, schema)
        applied = apply_path(path, state, env, schema)
        assert "program" in vars(path) and "effect_program" in vars(path)
        assert path == fresh and hash(path) == hash(fresh)
        assert path_to_obj(path) == path_to_obj(fresh)
        assert pickle.dumps(path) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(path)), copy.deepcopy(path),
                     copy.copy(path)):
            assert "program" not in vars(twin)
            assert twin == path and hash(twin) == hash(path)
            again = run_path(twin, state, env, schema)
            assert (again.committed, again.reason) == (run.committed,
                                                      run.reason)
            assert again.state.same_state(run.state, with_order=True)
            assert apply_path(twin, state, env, schema).same_state(
                applied, with_order=True)
