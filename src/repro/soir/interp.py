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
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Interpreter:
    """Evaluates SOIR expressions and executes commands over a DBState.

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
    """

    def __init__(
        self,
        schema: Schema,
        state: DBState,
        env: dict[str, object],
        *,
        mode: str = "run",
    ):
        self.schema = schema
        self.state = state
        self.env = env
        if mode not in ("run", "apply"):
            raise InterpError(f"unknown interpreter mode {mode!r}")
        self.mode = mode

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def eval(self, e: E.Expr) -> object:
        return _EVALUATORS[type(e)](self, e)

    def _eval_Lit(self, e: E.Lit) -> object:
        return e.value

    def _eval_NoneLit(self, e: E.NoneLit) -> object:
        return None

    def _eval_Var(self, e: E.Var) -> object:
        try:
            return self.env[e.name]
        except KeyError:
            raise InterpError(f"unbound variable {e.name!r}") from None

    def _eval_Opaque(self, e: E.Opaque) -> object:
        # Concrete execution of an opaque value: the environment may pin it
        # (the verifier enumerates opaque values like any other argument).
        if e.name in self.env:
            return self.env[e.name]
        raise InterpError(f"opaque value {e.name!r} not pinned by environment")

    def _eval_BinOp(self, e: E.BinOp) -> object:
        left = self.eval(e.left)
        right = self.eval(e.right)
        if left is None or right is None:
            raise PathAborted("arithmetic on NULL")
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0:
                raise PathAborted("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                # SQL / Python 3 semantics differ; SOIR integer division
                # truncates toward zero, matching SQL.
                q = abs(left) // abs(right)
                return q if (left >= 0) == (right >= 0) else -q
            return left / right
        if e.op == "%":
            if right == 0:
                raise PathAborted("modulo by zero")
            return left % right
        if e.op == "concat":
            return str(left) + str(right)
        raise InterpError(f"unknown operator {e.op}")

    def _eval_Neg(self, e: E.Neg) -> object:
        v = self.eval(e.operand)
        if v is None:
            raise PathAborted("negation of NULL")
        return -v

    def _eval_Cmp(self, e: E.Cmp) -> bool:
        left = self.eval(e.left)
        right = self.eval(e.right)
        return compare(e.op, left, right)

    def _eval_Not(self, e: E.Not) -> bool:
        return not self.eval(e.operand)

    def _eval_And(self, e: E.And) -> bool:
        return all(self.eval(a) for a in e.args)

    def _eval_Or(self, e: E.Or) -> bool:
        return any(self.eval(a) for a in e.args)

    def _eval_Ite(self, e: E.Ite) -> object:
        return self.eval(e.then_) if self.eval(e.cond) else self.eval(e.else_)

    def _eval_FieldGet(self, e: E.FieldGet) -> object:
        obj = self.eval(e.obj)
        if not isinstance(obj, ObjVal):
            raise InterpError("field access on non-object")
        try:
            return obj.fields[e.field]
        except KeyError:
            raise InterpError(
                f"object of {obj.model} has no field {e.field!r}"
            ) from None

    def _eval_SetField(self, e: E.SetField) -> ObjVal:
        obj = self.eval(e.obj)
        if not isinstance(obj, ObjVal):
            raise InterpError("setf on non-object")
        return obj.replace(e.field, self.eval(e.value))

    def _eval_MakeObj(self, e: E.MakeObj) -> ObjVal:
        model = self.schema.model(e.model)
        fields = {name: self.eval(v) for name, v in e.fields}
        for fname in model.field_names:
            if fname not in fields:
                raise InterpError(
                    f"new<{e.model}> missing field {fname!r}"
                )
        return ObjVal(e.model, fields)

    def _eval_MapSet(self, e: E.MapSet) -> QuerySetVal:
        qs = self.eval(e.qs)
        value = self.eval(e.value)
        return QuerySetVal(qs.model, [o.replace(e.field, value) for o in qs.objs])

    def _eval_Singleton(self, e: E.Singleton) -> QuerySetVal:
        obj = self.eval(e.obj)
        if not isinstance(obj, ObjVal):
            raise InterpError("singleton of non-object")
        return QuerySetVal(obj.model, [obj])

    def _eval_Deref(self, e: E.Deref) -> ObjVal:
        pk = self.eval(e.ref)
        row = self.state.table(e.model).get(pk)
        if row is None:
            if self.mode == "apply":
                return self._ghost(e.model, pk)
            raise PathAborted(f"deref of missing {e.model}[{pk!r}]")
        return ObjVal(e.model, row)

    def _ghost(self, model_name: str, pk: object) -> ObjVal:
        """A deterministic stand-in for a dereferenced missing object."""
        model = self.schema.model(model_name)
        fields = dict(model.default_row)
        fields[model.pk] = pk
        return ObjVal(model_name, fields)

    def _eval_RefOf(self, e: E.RefOf) -> object:
        obj = self.eval(e.obj)
        if not isinstance(obj, ObjVal):
            raise InterpError("refof non-object")
        return obj.fields[self.schema.model(obj.model).pk]

    def _eval_AnyOf(self, e: E.AnyOf) -> ObjVal:
        qs = self.eval(e.qs)
        if not qs.objs:
            raise PathAborted("any() of empty query set")
        return qs.objs[0]

    def _eval_All(self, e: E.All) -> QuerySetVal:
        model = self.schema.model(e.model)
        order = self.state.order.get(e.model, {})
        rows = sorted(
            self.state.table(e.model).items(),
            key=lambda item: order.get(item[0], 0),
        )
        return QuerySetVal(e.model, [ObjVal(e.model, r) for _, r in rows])

    def _eval_Filter(self, e: E.Filter) -> QuerySetVal:
        qs = self.eval(e.qs)
        value = self.eval(e.value)
        kept = []
        for obj in qs.objs:
            related = self._follow_objs([obj], e.relpath)
            if e.op == Comparator.ISNULL:
                # "null" over a relation path means no associated object
                # carries a non-null value for the field.
                has_value = any(r.fields.get(e.field) is not None for r in related)
                if (not has_value) == bool(value):
                    kept.append(obj)
            elif any(compare(e.op, r.fields.get(e.field), value) for r in related):
                kept.append(obj)
        return QuerySetVal(qs.model, kept)

    def _eval_Follow(self, e: E.Follow) -> QuerySetVal:
        qs = self.eval(e.qs)
        related = self._follow_objs(qs.objs, e.relpath)
        return QuerySetVal(e.target_model, related)

    def _follow_objs(self, objs: list[ObjVal], relpath) -> list[ObjVal]:
        current = objs
        for hop in relpath:
            rel = self.schema.relation(hop.relation)
            pairs = self.state.relation(hop.relation)
            if hop.direction == Direction.FORWARD:
                src_model, dst_model = rel.source, rel.target
                mapping = pairs
            else:
                src_model, dst_model = rel.target, rel.source
                mapping = {(b, a) for a, b in pairs}
            pk_field = self.schema.model(src_model).pk
            src_pks = {o.fields[pk_field] for o in current}
            dst_pks = {b for a, b in mapping if a in src_pks}
            dst_table = self.state.table(dst_model)
            dst_order = self.state.order.get(dst_model, {})
            current = [
                ObjVal(dst_model, dst_table[pk])
                for pk in sorted(dst_pks, key=lambda p: dst_order.get(p, 0))
                if pk in dst_table
            ]
        return current

    def _eval_OrderBy(self, e: E.OrderBy) -> QuerySetVal:
        qs = self.eval(e.qs)
        # Sort stably; NULLs first, matching common SQL dialect defaults.
        def key(o: ObjVal):
            v = o.fields.get(e.field)
            return (v is not None, v)

        objs = sorted(qs.objs, key=key, reverse=(e.order == Order.DESC))
        return QuerySetVal(qs.model, objs)

    def _eval_ReverseSet(self, e: E.ReverseSet) -> QuerySetVal:
        qs = self.eval(e.qs)
        return QuerySetVal(qs.model, list(reversed(qs.objs)))

    def _eval_FirstOf(self, e: E.FirstOf) -> ObjVal:
        qs = self.eval(e.qs)
        if not qs.objs:
            raise PathAborted("first() of empty query set")
        return qs.objs[0]

    def _eval_LastOf(self, e: E.LastOf) -> ObjVal:
        qs = self.eval(e.qs)
        if not qs.objs:
            raise PathAborted("last() of empty query set")
        return qs.objs[-1]

    def _eval_Aggregate(self, e: E.Aggregate) -> object:
        qs = self.eval(e.qs)
        if e.agg == Aggregation.CNT:
            return len(qs.objs)
        values = [
            o.fields.get(e.field)
            for o in qs.objs
            if o.fields.get(e.field) is not None
        ]
        if not values:
            return None
        if e.agg == Aggregation.MAX:
            return max(values)
        if e.agg == Aggregation.MIN:
            return min(values)
        if e.agg == Aggregation.SUM:
            return sum(values)
        if e.agg == Aggregation.AVG:
            return sum(values) / len(values)
        raise InterpError(f"unknown aggregation {e.agg}")

    def _eval_IsEmpty(self, e: E.IsEmpty) -> bool:
        qs = self.eval(e.qs)
        return not qs.objs

    def _eval_Exists(self, e: E.Exists) -> bool:
        pk = self.eval(e.ref)
        return pk in self.state.table(e.model)

    def _eval_MemberOf(self, e: E.MemberOf) -> bool:
        obj = self.eval(e.obj)
        qs = self.eval(e.qs)
        pk_field = self.schema.model(qs.model).pk
        pk = obj.fields[pk_field]
        return any(o.fields[pk_field] == pk for o in qs.objs)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def exec(self, cmd: C.Command) -> None:
        _EXECUTORS[type(cmd)](self, cmd)

    def _exec_Guard(self, cmd: C.Guard) -> None:
        if not self.eval(cmd.cond):
            raise PathAborted("guard failed")

    def _exec_Update(self, cmd: C.Update) -> None:
        qs = self.eval(cmd.qs)
        self.merge_objects(qs.model, qs.objs)

    def merge_objects(self, model_name: str, objs: list[ObjVal]) -> None:
        """Value-level ``update`` semantics (shared with the ORM backend)."""
        model = self.schema.model(model_name)
        if self.mode != "apply":
            self._check_unique(model, objs)
        for obj in objs:
            pk = obj.fields[model.pk]
            self.state.insert_row(model_name, pk, obj.fields)

    def _check_unique(self, model, objs: list[ObjVal]) -> None:
        """Unique-constraint preconditions for merged objects.

        Merging an object whose unique field collides with a *different*
        existing row violates the constraint; in a serializable execution
        that attempt aborts, so it is part of ``g_P``.
        """
        table = self.state.table(model.name)
        unique_fields = [f.name for f in model.fields if f.unique and f.name != model.pk]
        groups = list(model.unique_together)
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

    def _exec_Delete(self, cmd: C.Delete) -> None:
        qs = self.eval(cmd.qs)
        model = self.schema.model(qs.model)
        pks = {o.fields[model.pk] for o in qs.objs}
        self._delete_pks(qs.model, pks)

    def _delete_pks(self, model_name: str, pks: set[object]) -> None:
        """Delete rows and apply referential actions, transitively."""
        pks = {pk for pk in pks if pk in self.state.table(model_name)}
        if not pks:
            return
        # Referential actions on relations targeting this model.
        for rel in self.schema.relations_of(model_name):
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
        self.state.relation(relation).discard((src_pk, dst_pk))

    def clear_links(self, relation: str, obj: ObjVal, end: str) -> None:
        rel = self.schema.relation(relation)
        side = 0 if end == "source" else 1
        pk = obj.fields[self.schema.model((rel.source, rel.target)[side]).pk]
        self.state.assocs[relation] = {
            p for p in self.state.relation(relation) if p[side] != pk
        }

    def _exec_Link(self, cmd: C.Link) -> None:
        rel = self.schema.relation(cmd.relation)
        src = self.eval(cmd.src)
        dst = self.eval(cmd.dst)
        self._link_one(rel, src, dst)

    def _link_one(self, rel, src: ObjVal, dst: ObjVal) -> None:
        src_pk = src.fields[self.schema.model(rel.source).pk]
        dst_pk = dst.fields[self.schema.model(rel.target).pk]
        pairs = self.state.relation(rel.name)
        if rel.kind == "fk":
            pairs -= {(s, t) for s, t in pairs if s == src_pk}
        pairs.add((src_pk, dst_pk))

    def _exec_Delink(self, cmd: C.Delink) -> None:
        self.delink_objects(cmd.relation, self.eval(cmd.src), self.eval(cmd.dst))

    def _exec_RLink(self, cmd: C.RLink) -> None:
        rel = self.schema.relation(cmd.relation)
        srcs = self.eval(cmd.srcs)
        dst = self.eval(cmd.dst)
        for src in srcs.objs:
            self._link_one(rel, src, dst)

    def _exec_ClearLinks(self, cmd: C.ClearLinks) -> None:
        self.clear_links(cmd.relation, self.eval(cmd.obj), cmd.end)


class _Dispatch(dict):
    """Node class -> handler; an unknown class is an interpreter error."""

    def __init__(self, kind: str, prefix: str, module) -> None:
        super().__init__(
            (getattr(module, name[len(prefix):]), handler)
            for name, handler in vars(Interpreter).items()
            if name.startswith(prefix)
        )
        self.kind = kind

    def __missing__(self, cls: type):
        raise InterpError(f"no {self.kind} for {cls.__name__}")


#: Type-keyed dispatch, built once: ``eval``/``exec`` run millions of times
#: per sweep, so the handler lookup is one dict probe per node.
_EVALUATORS = _Dispatch("evaluator", "_eval_", E)
_EXECUTORS = _Dispatch("executor", "_exec_", C)


def compare(op: Comparator, left: object, right: object) -> bool:
    """SQL-flavoured comparison: NULL compares equal only to NULL via EQ/NE;
    ordered comparisons with NULL are false."""
    if op == Comparator.EQ:
        return left == right
    if op == Comparator.NE:
        return left != right
    if left is None or right is None:
        return False
    try:
        if op == Comparator.LT:
            return left < right
        if op == Comparator.LE:
            return left <= right
        if op == Comparator.GT:
            return left > right
        if op == Comparator.GE:
            return left >= right
    except TypeError:
        # Cross-type ordered comparison (e.g. a string request parameter
        # flowing into an integer column): never satisfied, like SQL's
        # failed casts under strict mode.
        return False
    if op == Comparator.CONTAINS:
        return str(right) in str(left)
    if op == Comparator.STARTSWITH:
        return str(left).startswith(str(right))
    if op == Comparator.IN:
        return left in right  # type: ignore[operator]
    raise InterpError(f"unknown comparator {op}")


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
    interp = Interpreter(schema, working, env)
    try:
        for cmd in path.commands:
            interp.exec(cmd)
    except PathAborted as abort:
        return Outcome(False, state, abort.reason)
    return Outcome(True, working, "")


def apply_path(
    path: CodePath,
    state: DBState,
    env: dict[str, object],
    schema: Schema,
) -> DBState:
    """Apply ``path``'s *effect* to a clone of ``state``.

    This is *replication* semantics (paper §2.1): the side effect of an
    accepted request is propagated and applied at every replica without
    re-checking its guards — those were validated at the originating site.
    Guards are therefore skipped.  If the effect is not applicable at all
    (a referenced object vanished, a merge is ill-defined), the application
    no-ops and returns ``state`` itself.  The input is never modified.
    """
    working = state.clone()
    interp = Interpreter(schema, working, env, mode="apply")
    try:
        for cmd in path.effects:
            interp.exec(cmd)
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
