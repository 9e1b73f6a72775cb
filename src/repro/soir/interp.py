"""Concrete interpreter for SOIR code paths.

Executes a code path against a :class:`~repro.soir.state.DBState` with a
concrete argument environment.  The interpreter defines the *reference
semantics* of SOIR: the verifier's grounded counterexample search and the
geo-replication simulator both apply effects through it, so a single
definition of the semantics backs every experiment.

Execution either *commits* (all guards held; effects applied) or *aborts*
(a guard failed, a partial query hit an empty set, or a protected relation
blocked a delete).  ``g_P(x, S)`` — the paper's precondition — is exactly
"``run_path`` commits".

Each expression and command node is *compiled* into a closure over its
compiled children and its constants (field names, models, comparators,
relation hops); the closure runs against an :class:`Interpreter`, which
carries what one execution owns: the state, the argument environment, the
mode, the footprint and the schema.  A path is compiled once, on first
replay (:attr:`CodePath.program <repro.soir.path.CodePath.program>`), and
the verifier then replays it per candidate.  Compiling reads no schema and
raises nothing: every error — an unbound variable, an unknown model, an
ill-formed node — surfaces when its node is evaluated, as it would under
a tree walk, so a node behind a failing guard never raises.

In apply mode the interpreter can also record a replay's
:class:`Footprint`: the rows, whole tables and relations it read and
wrote.  Two effects whose footprints are independent (neither writes
what the other reads) end in the same state in either order, which lets
the commutativity search skip replaying both orders.  Recording is off
unless ``apply_path`` is handed a footprint to fill.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from . import commands as C
from . import expr as E
from .schema import Schema
from .state import DBState, ObjVal, QuerySetVal
from .types import Aggregation, Comparator, Direction, Order
from .path import CodePath


class PathAborted(Exception):
    """Internal control flow: the path cannot run to completion."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class InterpError(Exception):
    """A genuine interpreter bug or unsupported construct (not an abort)."""


@dataclass
class Outcome:
    """Result of executing a code path."""

    committed: bool
    state: DBState
    reason: str = ""


@dataclass
class Footprint:
    """What one apply-mode replay read and wrote, as keys: ``(model, pk)``
    for a row, the bare ``model`` name for a whole table, ``(relation,)``
    for a relation's association set.

    ``reads`` holds the rows a ``Deref``, an ``Exists`` or a delete's
    presence check looked up (found or not), a table key for every scan
    (``All``, and both ends of a relation hop, whose results are
    ordered by the table's order map), every row written, and every
    relation read or written.  ``writes`` holds every row merged or
    deleted (cascades included), the table key of every model written,
    and every relation a link, delink, clear-links or delete touched.
    A replay that aborts keeps what it recorded up to the abort: its
    reads decided the abort, and its discarded writes over-approximate
    the (empty) effect."""

    reads: set = field(default_factory=set)
    writes: set = field(default_factory=set)

    def touch(self, key) -> None:
        """Record a read-modify-write of ``key``."""
        self.reads.add(key)
        self.writes.add(key)

    def independent_of(self, other: "Footprint") -> bool:
        """Whether neither replay wrote anything the other read.

        Then each effect does the same on the other's result as on the
        common input, the two touch disjoint rows and relations (every
        row or relation written is also read), and both orders end in
        the same tables and associations.  Only the order map can
        differ, and every order-dependent read is a recorded table
        scan."""
        return (self.writes.isdisjoint(other.reads)
                and other.writes.isdisjoint(self.reads))


class Interpreter:
    """One execution context: evaluates SOIR expressions and executes
    commands over a DBState.

    ``mode`` selects the semantics:

    * ``"run"`` — *generation*: guards checked, unique constraints and
      referential protections enforced; any violation aborts the path.
    * ``"apply"`` — *replication*: the effect of an already-accepted
      operation lands on a replica.  Mirroring the paper's total
      array-based encoding (§4.2: ``data`` is a total map), dereferencing
      a missing object yields a *ghost* (primary key plus type-default
      fields), merges write unconditionally (constraint anomalies are the
      semantic check's concern, not convergence's), and PROTECT deletes
      proceed, leaving incident associations dangling.

    ``footprint``, in apply mode only, is filled with what the execution
    reads and writes (:class:`Footprint`).

    :meth:`eval` and :meth:`exec` compile the node they are given and run
    it here: the same closures a path replay runs.
    """

    __slots__ = ("schema", "state", "env", "mode", "footprint")

    def __init__(
        self,
        schema: Schema,
        state: DBState,
        env: dict[str, object],
        *,
        mode: str = "run",
        footprint: Footprint | None = None,
    ):
        self.schema = schema
        self.state = state
        self.env = env
        if mode not in ("run", "apply"):
            raise InterpError(f"unknown interpreter mode {mode!r}")
        if footprint is not None and mode != "apply":
            # Run mode's unique checks read whole tables unrecorded.
            raise InterpError("footprints are recorded in apply mode only")
        self.mode = mode
        self.footprint = footprint

    def eval(self, e: E.Expr) -> object:
        return compile_expr(e)(self)

    def exec(self, cmd: C.Command) -> None:
        compile_command(cmd)(self)

    # ------------------------------------------------------------------
    # Value-level effects (shared with the ORM backend)
    # ------------------------------------------------------------------

    def merge_objects(self, model_name: str, objs: list[ObjVal]) -> None:
        """Value-level ``update`` semantics (shared with the ORM backend)."""
        model = self.schema.model(model_name)
        if self.mode != "apply":
            self._check_unique(model, objs)
        fp = self.footprint
        for obj in objs:
            pk = obj.fields[model.pk]
            if fp is not None:
                fp.touch((model_name, pk))
                fp.writes.add(model_name)
            self.state.insert_row(model_name, pk, obj.fields)

    def _check_unique(self, model, objs: list[ObjVal]) -> None:
        """Unique-constraint preconditions for merged objects.

        Merging an object whose unique field collides with a *different*
        existing row violates the constraint; in a serializable execution
        that attempt aborts, so it is part of ``g_P``.
        """
        table = self.state.table(model.name)
        unique_fields = model.unique_fields
        groups = model.unique_together
        if not (unique_fields or groups):
            return
        for obj in objs:
            pk = obj.fields[model.pk]
            for fname in unique_fields:
                v = obj.fields.get(fname)
                if v is None:
                    continue
                for other_pk, row in table.items():
                    if other_pk != pk and row.get(fname) == v:
                        raise PathAborted(
                            f"unique violation on {model.name}.{fname}"
                        )
            for group in groups:
                values = tuple(obj.fields.get(f) for f in group)
                for other_pk, row in table.items():
                    if other_pk != pk and tuple(row.get(f) for f in group) == values:
                        raise PathAborted(
                            f"unique_together violation on {model.name}{group}"
                        )
        # Objects within the same merge must be mutually consistent too.
        for i, a in enumerate(objs):
            for b in objs[i + 1:]:
                if a.fields[model.pk] == b.fields[model.pk]:
                    continue
                for fname in unique_fields:
                    if (
                        a.fields.get(fname) is not None
                        and a.fields.get(fname) == b.fields.get(fname)
                    ):
                        raise PathAborted(
                            f"unique violation on {model.name}.{fname}"
                        )

    def _delete_pks(self, model_name: str, pks: set[object]) -> None:
        """Delete rows and apply referential actions, transitively."""
        fp = self.footprint
        if fp is not None:
            fp.reads.update((model_name, pk) for pk in pks)
        pks = {pk for pk in pks if pk in self.state.table(model_name)}
        if not pks:
            return
        if fp is not None:
            fp.writes.update((model_name, pk) for pk in pks)
            fp.writes.add(model_name)
        # Referential actions on relations targeting this model.
        for rel in self.schema.relations_of(model_name):
            if fp is not None:
                fp.touch((rel.name,))
            pairs = self.state.relation(rel.name)
            if rel.target == model_name:
                hit = {(s, t) for s, t in pairs if t in pks}
                if not hit:
                    continue
                if rel.on_delete == "protect":
                    if self.mode == "apply":
                        # The protection held at the originating site; a
                        # replica applies the delete and leaves the (now
                        # dangling) associations in place.
                        continue
                    raise PathAborted(
                        f"protected relation {rel.name} blocks delete"
                    )
                pairs -= hit
                if rel.on_delete == "cascade" and rel.kind == "fk":
                    self._delete_pks(rel.source, {s for s, _ in hit})
                # set_null / do_nothing / m2m-cascade: association removal
                # is all that happens (for fk set_null the field itself is
                # modelled by the association, so removal *is* nulling).
            if rel.source == model_name:
                pairs -= {(s, t) for s, t in pairs if s in pks}
        for pk in pks:
            self.state.delete_row(model_name, pk)

    def delete_pks(self, model_name: str, pks: set[object]) -> None:
        """Value-level ``delete`` semantics (shared with the ORM backend)."""
        self._delete_pks(model_name, set(pks))

    def link_objects(self, relation: str, src: ObjVal, dst: ObjVal) -> None:
        """Value-level ``link`` (fk: replaces the source's association)."""
        self._link_one(self.schema.relation(relation), src, dst)

    def delink_objects(self, relation: str, src: ObjVal, dst: ObjVal) -> None:
        rel = self.schema.relation(relation)
        src_pk = src.fields[self.schema.model(rel.source).pk]
        dst_pk = dst.fields[self.schema.model(rel.target).pk]
        if self.footprint is not None:
            self.footprint.touch((relation,))
        self.state.relation(relation).discard((src_pk, dst_pk))

    def clear_links(self, relation: str, obj: ObjVal, end: str) -> None:
        rel = self.schema.relation(relation)
        side = 0 if end == "source" else 1
        pk = obj.fields[self.schema.model((rel.source, rel.target)[side]).pk]
        if self.footprint is not None:
            self.footprint.touch((relation,))
        self.state.assocs[relation] = {
            p for p in self.state.relation(relation) if p[side] != pk
        }

    def _link_one(self, rel, src: ObjVal, dst: ObjVal) -> None:
        src_pk = src.fields[self.schema.model(rel.source).pk]
        dst_pk = dst.fields[self.schema.model(rel.target).pk]
        if self.footprint is not None:
            self.footprint.touch((rel.name,))
        pairs = self.state.relation(rel.name)
        if rel.kind == "fk":
            pairs -= {(s, t) for s, t in pairs if s == src_pk}
        pairs.add((src_pk, dst_pk))


# ---------------------------------------------------------------------------
# Compilation.  A compiled node is a closure taking the Interpreter it runs
# in.  Compiling reads only the node: the schema, the state and the
# environment are read when the closure runs, so a program stays valid
# for every schema and every replay.
# ---------------------------------------------------------------------------

Closure = Callable[[Interpreter], object]

#: node class -> function compiling a node of that class
_EXPR_COMPILERS: dict[type, Callable[[E.Expr], Closure]] = {}
_COMMAND_COMPILERS: dict[type, Callable[[C.Command], Closure]] = {}


def _compiles(cls: type):
    table = (_EXPR_COMPILERS if issubclass(cls, E.Expr)
             else _COMMAND_COMPILERS)

    def register(fn):
        table[cls] = fn
        return fn

    return register


def _fails(error: str) -> Closure:
    def fail(it):
        raise InterpError(error)

    return fail


def compile_expr(e: E.Expr) -> Closure:
    """The closure evaluating ``e``; an unknown node class compiles to
    one raising :class:`InterpError` when evaluated."""
    compiler = _EXPR_COMPILERS.get(type(e))
    if compiler is None:
        return _fails(f"no evaluator for {type(e).__name__}")
    return compiler(e)


def compile_command(cmd: C.Command) -> Closure:
    """The closure executing ``cmd`` (see :func:`compile_expr`)."""
    compiler = _COMMAND_COMPILERS.get(type(cmd))
    if compiler is None:
        return _fails(f"no executor for {type(cmd).__name__}")
    return compiler(cmd)


def compile_commands(cmds) -> tuple[Closure, ...]:
    """One closure per command, in order: a path's program."""
    return tuple(compile_command(cmd) for cmd in cmds)


# -- expressions -------------------------------------------------------------


@_compiles(E.Lit)
def _compile_lit(e: E.Lit) -> Closure:
    value = e.value
    return lambda it: value


@_compiles(E.NoneLit)
def _compile_none(e: E.NoneLit) -> Closure:
    return lambda it: None


@_compiles(E.Var)
def _compile_var(e: E.Var) -> Closure:
    name = e.name

    def var(it):
        try:
            return it.env[name]
        except KeyError:
            raise InterpError(f"unbound variable {name!r}") from None

    return var


@_compiles(E.Opaque)
def _compile_opaque(e: E.Opaque) -> Closure:
    name = e.name

    def opaque(it):
        # Concrete execution of an opaque value: the environment may pin
        # it (the verifier enumerates opaque values like any other
        # argument).
        env = it.env
        if name in env:
            return env[name]
        raise InterpError(f"opaque value {name!r} not pinned by environment")

    return opaque


def _divide(left, right):
    if right == 0:
        raise PathAborted("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # SQL / Python 3 semantics differ; SOIR integer division
        # truncates toward zero, matching SQL.
        q = abs(left) // abs(right)
        return q if (left >= 0) == (right >= 0) else -q
    return left / right


def _modulo(left, right):
    if right == 0:
        raise PathAborted("modulo by zero")
    return left % right


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "concat": lambda left, right: str(left) + str(right),
}


@_compiles(E.BinOp)
def _compile_binop(e: E.BinOp) -> Closure:
    left, right = compile_expr(e.left), compile_expr(e.right)
    apply = _ARITHMETIC.get(e.op)
    if apply is None:
        error = f"unknown operator {e.op}"

        def apply(left_value, right_value):
            raise InterpError(error)

    def binop(it):
        lv = left(it)
        rv = right(it)
        if lv is None or rv is None:
            raise PathAborted("arithmetic on NULL")
        return apply(lv, rv)

    return binop


@_compiles(E.Neg)
def _compile_neg(e: E.Neg) -> Closure:
    operand = compile_expr(e.operand)

    def neg(it):
        v = operand(it)
        if v is None:
            raise PathAborted("negation of NULL")
        return -v

    return neg


@_compiles(E.Cmp)
def _compile_cmp(e: E.Cmp) -> Closure:
    left, right = compile_expr(e.left), compile_expr(e.right)
    test = comparator(e.op)
    return lambda it: test(left(it), right(it))


@_compiles(E.Not)
def _compile_not(e: E.Not) -> Closure:
    operand = compile_expr(e.operand)
    return lambda it: not operand(it)


@_compiles(E.And)
def _compile_and(e: E.And) -> Closure:
    args = tuple(compile_expr(a) for a in e.args)

    def conj(it):
        for arg in args:
            if not arg(it):
                return False
        return True

    return conj


@_compiles(E.Or)
def _compile_or(e: E.Or) -> Closure:
    args = tuple(compile_expr(a) for a in e.args)

    def disj(it):
        for arg in args:
            if arg(it):
                return True
        return False

    return disj


@_compiles(E.Ite)
def _compile_ite(e: E.Ite) -> Closure:
    cond = compile_expr(e.cond)
    then_, else_ = compile_expr(e.then_), compile_expr(e.else_)
    return lambda it: then_(it) if cond(it) else else_(it)


@_compiles(E.FieldGet)
def _compile_fieldget(e: E.FieldGet) -> Closure:
    obj_of, name = compile_expr(e.obj), e.field

    def fieldget(it):
        obj = obj_of(it)
        if not isinstance(obj, ObjVal):
            raise InterpError("field access on non-object")
        try:
            return obj.fields[name]
        except KeyError:
            raise InterpError(
                f"object of {obj.model} has no field {name!r}"
            ) from None

    return fieldget


@_compiles(E.SetField)
def _compile_setfield(e: E.SetField) -> Closure:
    obj_of, value_of, name = compile_expr(e.obj), compile_expr(e.value), e.field

    def setfield(it):
        obj = obj_of(it)
        if not isinstance(obj, ObjVal):
            raise InterpError("setf on non-object")
        return obj.replace(name, value_of(it))

    return setfield


@_compiles(E.MakeObj)
def _compile_makeobj(e: E.MakeObj) -> Closure:
    model_name = e.model
    values = tuple((name, compile_expr(v)) for name, v in e.fields)

    def makeobj(it):
        model = it.schema.model(model_name)
        fields = {name: value(it) for name, value in values}
        for fname in model.field_names:
            if fname not in fields:
                raise InterpError(
                    f"new<{model_name}> missing field {fname!r}"
                )
        return ObjVal(model_name, fields)

    return makeobj


@_compiles(E.MapSet)
def _compile_mapset(e: E.MapSet) -> Closure:
    qs_of, value_of, name = compile_expr(e.qs), compile_expr(e.value), e.field

    def mapset(it):
        qs = qs_of(it)
        value = value_of(it)
        return QuerySetVal(qs.model,
                           [o.replace(name, value) for o in qs.objs])

    return mapset


@_compiles(E.Singleton)
def _compile_singleton(e: E.Singleton) -> Closure:
    obj_of = compile_expr(e.obj)

    def singleton(it):
        obj = obj_of(it)
        if not isinstance(obj, ObjVal):
            raise InterpError("singleton of non-object")
        return QuerySetVal(obj.model, [obj])

    return singleton


def _ghost(schema: Schema, model_name: str, pk: object) -> ObjVal:
    """A deterministic stand-in for a dereferenced missing object."""
    model = schema.model(model_name)
    fields = dict(model.default_row)
    fields[model.pk] = pk
    return ObjVal(model_name, fields)


@_compiles(E.Deref)
def _compile_deref(e: E.Deref) -> Closure:
    ref, model = compile_expr(e.ref), e.model

    def deref(it):
        pk = ref(it)
        fp = it.footprint
        if fp is not None:
            fp.reads.add((model, pk))
        row = it.state.table(model).get(pk)
        if row is None:
            if it.mode == "apply":
                return _ghost(it.schema, model, pk)
            raise PathAborted(f"deref of missing {model}[{pk!r}]")
        return ObjVal(model, row)

    return deref


@_compiles(E.RefOf)
def _compile_refof(e: E.RefOf) -> Closure:
    obj_of = compile_expr(e.obj)

    def refof(it):
        obj = obj_of(it)
        if not isinstance(obj, ObjVal):
            raise InterpError("refof non-object")
        return obj.fields[it.schema.model(obj.model).pk]

    return refof


def _pick(qs_of: Closure, reason: str, index: int) -> Closure:
    def pick(it):
        objs = qs_of(it).objs
        if not objs:
            raise PathAborted(reason)
        return objs[index]

    return pick


@_compiles(E.AnyOf)
def _compile_anyof(e: E.AnyOf) -> Closure:
    return _pick(compile_expr(e.qs), "any() of empty query set", 0)


@_compiles(E.FirstOf)
def _compile_firstof(e: E.FirstOf) -> Closure:
    return _pick(compile_expr(e.qs), "first() of empty query set", 0)


@_compiles(E.LastOf)
def _compile_lastof(e: E.LastOf) -> Closure:
    return _pick(compile_expr(e.qs), "last() of empty query set", -1)


@_compiles(E.All)
def _compile_all(e: E.All) -> Closure:
    model = e.model

    def scan(it):
        it.schema.model(model)  # an unknown model raises here
        if it.footprint is not None:
            it.footprint.reads.add(model)
        state = it.state
        order = state.order.get(model, {})
        rows = sorted(
            state.table(model).items(),
            key=lambda item: order.get(item[0], 0),
        )
        return QuerySetVal(model, [ObjVal(model, r) for _, r in rows])

    return scan


def _hops(relpath) -> tuple[tuple[str, bool], ...]:
    """``(relation, forward?)`` per hop of a relation path."""
    return tuple((hop.relation, hop.direction == Direction.FORWARD)
                 for hop in relpath)


def _follow(it: Interpreter, objs: list[ObjVal], hops) -> list[ObjVal]:
    """The objects related to ``objs`` through ``hops``, each hop's
    result in its target table's order."""
    schema, state, fp = it.schema, it.state, it.footprint
    current = objs
    for relation, forward in hops:
        rel = schema.relation(relation)
        pairs = state.relation(relation)
        if forward:
            src_model, dst_model = rel.source, rel.target
        else:
            src_model, dst_model = rel.target, rel.source
        if fp is not None:
            fp.reads.update((src_model, dst_model, (relation,)))
        pk_field = schema.model(src_model).pk
        src_pks = {o.fields[pk_field] for o in current}
        if forward:
            dst_pks = {b for a, b in pairs if a in src_pks}
        else:
            dst_pks = {a for a, b in pairs if b in src_pks}
        dst_table = state.table(dst_model)
        dst_order = state.order.get(dst_model, {})
        current = [
            ObjVal(dst_model, dst_table[pk])
            for pk in sorted(dst_pks, key=lambda p: dst_order.get(p, 0))
            if pk in dst_table
        ]
    return current


@_compiles(E.Filter)
def _compile_filter(e: E.Filter) -> Closure:
    qs_of, value_of = compile_expr(e.qs), compile_expr(e.value)
    hops, name = _hops(e.relpath), e.field
    isnull = e.op == Comparator.ISNULL
    test = None if isnull else comparator(e.op)

    def keep(it, obj, value) -> bool:
        related = _follow(it, [obj], hops) if hops else (obj,)
        if isnull:
            # "null" over a relation path means no associated object
            # carries a non-null value for the field.
            has_value = any(r.fields.get(name) is not None for r in related)
            return (not has_value) == bool(value)
        return any(test(r.fields.get(name), value) for r in related)

    def filter_(it):
        qs = qs_of(it)
        value = value_of(it)
        return QuerySetVal(qs.model,
                           [obj for obj in qs.objs if keep(it, obj, value)])

    return filter_


@_compiles(E.Follow)
def _compile_follow(e: E.Follow) -> Closure:
    qs_of, hops, target = compile_expr(e.qs), _hops(e.relpath), e.target_model
    return lambda it: QuerySetVal(target, _follow(it, qs_of(it).objs, hops))


@_compiles(E.OrderBy)
def _compile_orderby(e: E.OrderBy) -> Closure:
    qs_of, name, descending = compile_expr(e.qs), e.field, e.order == Order.DESC

    # Sort stably; NULLs first, matching common SQL dialect defaults.
    def key(o: ObjVal):
        v = o.fields.get(name)
        return (v is not None, v)

    def orderby(it):
        qs = qs_of(it)
        return QuerySetVal(qs.model,
                           sorted(qs.objs, key=key, reverse=descending))

    return orderby


@_compiles(E.ReverseSet)
def _compile_reverse(e: E.ReverseSet) -> Closure:
    qs_of = compile_expr(e.qs)

    def reverse(it):
        qs = qs_of(it)
        return QuerySetVal(qs.model, list(reversed(qs.objs)))

    return reverse


_AGGREGATES = {
    Aggregation.MAX: max,
    Aggregation.MIN: min,
    Aggregation.SUM: sum,
    Aggregation.AVG: lambda values: sum(values) / len(values),
}


@_compiles(E.Aggregate)
def _compile_aggregate(e: E.Aggregate) -> Closure:
    qs_of, name = compile_expr(e.qs), e.field
    if e.agg == Aggregation.CNT:
        return lambda it: len(qs_of(it).objs)
    combine = _AGGREGATES.get(e.agg)
    if combine is None:
        error = f"unknown aggregation {e.agg}"

        def combine(values):
            raise InterpError(error)

    def aggregate(it):
        values = [
            o.fields.get(name)
            for o in qs_of(it).objs
            if o.fields.get(name) is not None
        ]
        if not values:
            return None
        return combine(values)

    return aggregate


@_compiles(E.IsEmpty)
def _compile_isempty(e: E.IsEmpty) -> Closure:
    qs_of = compile_expr(e.qs)
    return lambda it: not qs_of(it).objs


@_compiles(E.Exists)
def _compile_exists(e: E.Exists) -> Closure:
    ref, model = compile_expr(e.ref), e.model

    def exists(it):
        pk = ref(it)
        fp = it.footprint
        if fp is not None:
            fp.reads.add((model, pk))
        return pk in it.state.table(model)

    return exists


@_compiles(E.MemberOf)
def _compile_memberof(e: E.MemberOf) -> Closure:
    obj_of, qs_of = compile_expr(e.obj), compile_expr(e.qs)

    def memberof(it):
        obj = obj_of(it)
        qs = qs_of(it)
        pk_field = it.schema.model(qs.model).pk
        pk = obj.fields[pk_field]
        return any(o.fields[pk_field] == pk for o in qs.objs)

    return memberof


# -- commands ----------------------------------------------------------------


@_compiles(C.Guard)
def _compile_guard(cmd: C.Guard) -> Closure:
    cond = compile_expr(cmd.cond)

    def guard(it):
        if not cond(it):
            raise PathAborted("guard failed")

    return guard


@_compiles(C.Update)
def _compile_update(cmd: C.Update) -> Closure:
    qs_of = compile_expr(cmd.qs)

    def update(it):
        qs = qs_of(it)
        it.merge_objects(qs.model, qs.objs)

    return update


@_compiles(C.Delete)
def _compile_delete(cmd: C.Delete) -> Closure:
    qs_of = compile_expr(cmd.qs)

    def delete(it):
        qs = qs_of(it)
        pk_field = it.schema.model(qs.model).pk
        it._delete_pks(qs.model, {o.fields[pk_field] for o in qs.objs})

    return delete


@_compiles(C.Link)
def _compile_link(cmd: C.Link) -> Closure:
    relation = cmd.relation
    src_of, dst_of = compile_expr(cmd.src), compile_expr(cmd.dst)

    def link(it):
        rel = it.schema.relation(relation)
        src = src_of(it)
        it._link_one(rel, src, dst_of(it))

    return link


@_compiles(C.Delink)
def _compile_delink(cmd: C.Delink) -> Closure:
    relation = cmd.relation
    src_of, dst_of = compile_expr(cmd.src), compile_expr(cmd.dst)

    def delink(it):
        src = src_of(it)
        it.delink_objects(relation, src, dst_of(it))

    return delink


@_compiles(C.RLink)
def _compile_rlink(cmd: C.RLink) -> Closure:
    relation = cmd.relation
    srcs_of, dst_of = compile_expr(cmd.srcs), compile_expr(cmd.dst)

    def rlink(it):
        rel = it.schema.relation(relation)
        srcs = srcs_of(it)
        dst = dst_of(it)
        for src in srcs.objs:
            it._link_one(rel, src, dst)

    return rlink


@_compiles(C.ClearLinks)
def _compile_clearlinks(cmd: C.ClearLinks) -> Closure:
    relation, obj_of, end = cmd.relation, compile_expr(cmd.obj), cmd.end
    return lambda it: it.clear_links(relation, obj_of(it), end)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _non_null(test: Callable[[object, object], bool]):
    """``test``, false when either side is NULL."""
    def checked(left, right):
        if left is None or right is None:
            return False
        return test(left, right)

    return checked


def _ordered(test: Callable[[object, object], bool]):
    """``test``, false when either side is NULL, and false on a
    cross-type comparison (e.g. a string request parameter flowing into
    an integer column), like SQL's failed casts under strict mode."""
    def ordered(left, right):
        if left is None or right is None:
            return False
        try:
            return test(left, right)
        except TypeError:
            return False

    return ordered


#: SQL-flavoured comparison per comparator: NULL compares equal only to
#: NULL via EQ/NE; every other comparison with NULL is false
_COMPARATORS = {
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
    Comparator.LT: _ordered(operator.lt),
    Comparator.LE: _ordered(operator.le),
    Comparator.GT: _ordered(operator.gt),
    Comparator.GE: _ordered(operator.ge),
    Comparator.CONTAINS: _non_null(lambda left, right:
                                   str(right) in str(left)),
    Comparator.STARTSWITH: _non_null(lambda left, right:
                                     str(left).startswith(str(right))),
    Comparator.IN: _non_null(lambda left, right: left in right),
}


def comparator(op: Comparator) -> Callable[[object, object], bool]:
    """The two-argument comparison ``op`` denotes; an unknown ``op``
    raises :class:`InterpError` when it compares two non-NULL values."""
    test = _COMPARATORS.get(op)
    if test is None:
        error = f"unknown comparator {op}"

        def unknown(left, right):
            raise InterpError(error)

        test = _non_null(unknown)
    return test


def compare(op: Comparator, left: object, right: object) -> bool:
    """SQL-flavoured comparison (see :func:`comparator`)."""
    return comparator(op)(left, right)


# ---------------------------------------------------------------------------
# Path replays
# ---------------------------------------------------------------------------


def run_path(
    path: CodePath,
    state: DBState,
    env: dict[str, object],
    schema: Schema,
) -> Outcome:
    """Execute ``path`` with arguments ``env`` against a clone of ``state``.

    This is *generation* semantics: guards are checked, and any abort means
    the transaction rolls back.  The input state is never modified: a
    committed outcome carries the clone, an aborted one carries ``state``
    itself (the same object; states are read-only values to callers).
    """
    working = state.clone()
    it = Interpreter(schema, working, env)
    try:
        for step in path.program:
            step(it)
    except PathAborted as abort:
        return Outcome(False, state, abort.reason)
    return Outcome(True, working, "")


def apply_path(
    path: CodePath,
    state: DBState,
    env: dict[str, object],
    schema: Schema,
    footprint: Footprint | None = None,
) -> DBState:
    """Apply ``path``'s *effect* to a clone of ``state``.

    This is *replication* semantics (paper §2.1): the side effect of an
    accepted request is propagated and applied at every replica without
    re-checking its guards — those were validated at the originating site.
    Guards are therefore skipped.  If the effect is not applicable at all
    (a referenced object vanished, a merge is ill-defined), the application
    no-ops and returns ``state`` itself.  The input is never modified.

    A ``footprint``, when given, is filled with what the application read
    and wrote (:class:`Footprint`), also when it no-ops.
    """
    working = state.clone()
    it = Interpreter(schema, working, env, mode="apply", footprint=footprint)
    try:
        for step in path.effect_program:
            step(it)
    except PathAborted:
        # Residual partiality (e.g. first() of an empty set feeding an
        # effect): the effect is inapplicable here and lands as a no-op.
        return state
    return working


def precondition_holds(
    path: CodePath,
    state: DBState,
    env: dict[str, object],
    schema: Schema,
) -> bool:
    """``g_P(x, S)`` — whether ``path`` runs to completion from ``state``."""
    return run_path(path, state, env, schema).committed
