"""In-memory relational database and the concrete execution backend.

The database stores rows, association sets and order counters in a SOIR
:class:`~repro.soir.state.DBState`, and the concrete backend executes
queries by *compiling query-set descriptions to SOIR expressions* and
evaluating them with the SOIR reference interpreter.  Real Django compiles
query sets to SQL lazily; we compile to SOIR lazily — which guarantees that
what the application actually does and what the analyzer says it does are
interpreted by one and the same semantics.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

from ..soir import expr as E
from ..soir.interp import Interpreter, PathAborted
from ..soir.schema import Schema
from ..soir.state import DBState, ObjVal
from ..soir.types import BOOL, Comparator, ListType, Order
from . import runtime
from .clock import now as clock_now
from .exceptions import (
    FieldError,
    IntegrityError,
    ProtectedError,
    TransactionError,
)
from .fields import AutoField, DateTimeField
from .query import Lookup, QuerySet
from .registry import Registry


class Database:
    """One replica's database: schema + state + ID allocation."""

    def __init__(self, registry: Registry, *, site_id: int = 0, sites: int = 1):
        self.registry = registry
        self.schema: Schema = registry.to_soir_schema()
        self.state = DBState.empty(self.schema)
        #: fresh-ID allocation is striped across sites so concurrently
        #: generated IDs are globally unique (the storage-tier property the
        #: verifier's unique-ID optimisation relies on, paper §5.2).
        self.site_id = site_id
        self.sites = max(1, sites)
        self._id_counters: dict[str, int] = {}
        self._tx_depth = 0
        self._tx_snapshot: DBState | None = None

    def allocate_id(self, model_name: str) -> int:
        counter = self._id_counters.get(model_name, 0)
        self._id_counters[model_name] = counter + 1
        return 1 + self.site_id + counter * self.sites

    @contextlib.contextmanager
    def activate(self) -> Iterator["ConcreteBackend"]:
        """Make this database the execution target of ORM operations."""
        with runtime.use_backend(ConcreteBackend(self)) as b:
            yield b

    @contextlib.contextmanager
    def atomic(self) -> Iterator[None]:
        """Transaction: roll back all changes if the block raises.

        Nested ``atomic`` blocks join the outermost transaction, like
        Django's default behaviour without savepoints."""
        if self._tx_depth == 0:
            self._tx_snapshot = self.state.clone()
        self._tx_depth += 1
        try:
            yield
        except BaseException:
            if self._tx_depth == 1:
                assert self._tx_snapshot is not None
                self.state = self._tx_snapshot
            raise
        finally:
            self._tx_depth -= 1
            if self._tx_depth == 0:
                self._tx_snapshot = None

    def in_transaction(self) -> bool:
        return self._tx_depth > 0

    def flush(self) -> None:
        """Drop all rows (tests)."""
        if self.in_transaction():
            raise TransactionError("cannot flush inside a transaction")
        self.state = DBState.empty(self.schema)
        self._id_counters.clear()


def qs_to_soir(qs: QuerySet, schema: Schema) -> E.Expr:
    """Compile a query-set description to a SOIR expression."""
    model_name = qs.model.__name__
    expr: E.Expr = E.All(model_name)
    for lk in qs.lookups:
        expr = E.Filter(expr, lk.relpath, lk.field, lk.op, _value_expr(lk, qs, schema))
    for field_spec in reversed(qs.order_fields):
        if field_spec.startswith("-"):
            expr = E.OrderBy(expr, field_spec[1:], Order.DESC)
        else:
            expr = E.OrderBy(expr, field_spec, Order.ASC)
    if qs.is_reversed:
        expr = E.ReverseSet(expr)
    return expr


def _value_expr(lk: Lookup, qs: QuerySet, schema: Schema) -> E.Expr:
    """Wrap a concrete lookup value as a SOIR literal of the right type."""
    terminal = _terminal_model(schema, qs.model.__name__, lk.relpath)
    ftype = schema.model(terminal).field(lk.field).type
    value = lk.value
    if isinstance(value, E.Expr):
        return value
    if getattr(value, "__soir_symbolic__", False):
        return value.expr
    if lk.op == Comparator.ISNULL:
        return E.Lit(bool(value), BOOL)
    if lk.op == Comparator.IN:
        elems = tuple(value)
        if not all(isinstance(v, (bool, int, float, str)) for v in elems):
            raise FieldError(f"unsupported IN-list value {value!r}")
        return E.Lit(elems, ListType(ftype))
    if value is None:
        return E.NoneLit(ftype)
    if not isinstance(value, (bool, int, float, str)):
        raise FieldError(f"unsupported filter value {value!r}")
    return E.Lit(value, ftype)


def _terminal_model(schema: Schema, start: str, relpath) -> str:
    from ..soir.types import Direction

    current = start
    for hop in relpath:
        rel = schema.relation(hop.relation)
        current = rel.target if hop.direction == Direction.FORWARD else rel.source
    return current


class ConcreteBackend:
    """Executes ORM operations against a :class:`Database`."""

    def __init__(self, db: Database):
        self.db = db

    def _interp(self) -> Interpreter:
        return Interpreter(self.db.schema, self.db.state, {})

    # -- reads -----------------------------------------------------------

    def fetch(self, qs: QuerySet) -> list:
        expr = qs_to_soir(qs, self.db.schema)
        result = self._interp().eval(expr)
        return [self._to_instance(qs.model, obj) for obj in result.objs]

    def fetch_by_pk(self, model: type, pk: Any):
        row = self.db.state.table(model.__name__).get(pk)
        if row is None:
            return None
        return self._to_instance(model, ObjVal(model.__name__, row))

    def get(self, qs: QuerySet):
        found = self.fetch(qs)
        if not found:
            raise qs.model.DoesNotExist(f"{qs.model.__name__} matching query")
        if len(found) > 1:
            raise qs.model.MultipleObjectsReturned(
                f"{qs.model.__name__}: {len(found)} rows"
            )
        return found[0]

    def first(self, qs: QuerySet):
        found = self.fetch(qs)
        return found[0] if found else None

    def last(self, qs: QuerySet):
        found = self.fetch(qs)
        return found[-1] if found else None

    def exists(self, qs: QuerySet) -> bool:
        return bool(self.fetch(qs))

    def count(self, qs: QuerySet) -> int:
        return len(self.fetch(qs))

    def aggregate(self, qs: QuerySet, agg: str, field_name: str):
        values = [
            obj._data.get(field_name)
            for obj in self.fetch(qs)
            if obj._data.get(field_name) is not None
        ]
        if agg == "sum":
            return sum(values) if values else 0
        if not values:
            return None
        if agg == "avg":
            return sum(values) / len(values)
        if agg == "max":
            return max(values)
        if agg == "min":
            return min(values)
        raise ValueError(f"unknown aggregate {agg!r}")

    def _to_instance(self, model: type, obj: ObjVal):
        instance = model.__new__(model)
        instance._data = dict(obj.fields)
        instance._rel_cache = {}
        instance._saved = True
        pk = obj.fields[model._meta.pk.name]
        for rel in model._meta.fk_relations():
            pairs = self.db.state.relation(rel.relation_name())
            target_pk = next((t for s, t in pairs if s == pk), None)
            instance._data[f"{rel.name}_id"] = target_pk
        return instance

    # -- writes ----------------------------------------------------------

    def create(self, model: type, kwargs: dict):
        instance = model(**kwargs)
        self.save_instance(instance)
        return instance

    def save_instance(self, instance) -> None:
        model = type(instance)
        meta = model._meta
        is_insert = not instance._saved
        if instance.pk is None:
            if isinstance(meta.pk, AutoField):
                instance._data[meta.pk.name] = self.db.allocate_id(model.__name__)
                is_insert = True
            else:
                raise IntegrityError(
                    f"{model.__name__}: primary key {meta.pk.name!r} not set"
                )
        for field in meta.columns:
            if isinstance(field, DateTimeField):
                if field.auto_now or (field.auto_now_add and is_insert):
                    instance._data[field.name] = clock_now()
        instance.full_clean()
        for rel in meta.fk_relations():
            target_pk = instance._data.get(f"{rel.name}_id")
            if target_pk is None:
                if not rel.null:
                    raise IntegrityError(
                        f"{model.__name__}.{rel.name}: NULL foreign key"
                    )
                continue
            target_table = self.db.state.table(rel.target_name())
            if target_pk not in target_table:
                raise IntegrityError(
                    f"{model.__name__}.{rel.name}: dangling reference "
                    f"{target_pk!r}"
                )
        row = {f.name: instance._data.get(f.name) for f in meta.columns}
        interp = self._interp()
        try:
            interp.merge_objects(model.__name__, [ObjVal(model.__name__, row)])
        except PathAborted as abort:
            raise IntegrityError(abort.reason) from None
        pk = instance.pk
        for rel in meta.fk_relations():
            target_pk = instance._data.get(f"{rel.name}_id")
            pairs = self.db.state.relation(rel.relation_name())
            pairs -= {(s, t) for s, t in pairs if s == pk}
            if target_pk is not None:
                pairs.add((pk, target_pk))
        instance._saved = True

    def delete_instance(self, instance) -> None:
        try:
            self._interp().delete_pks(type(instance).__name__, {instance.pk})
        except PathAborted as abort:
            raise ProtectedError(abort.reason) from None
        instance._saved = False

    def update_qs(self, qs: QuerySet, kwargs: dict) -> None:
        model = qs.model
        meta = model._meta
        expr = qs_to_soir(qs, self.db.schema)
        interp = self._interp()
        matched = interp.eval(expr)
        column_updates: dict[str, Any] = {}
        fk_updates: dict[str, Any] = {}
        for key, value in kwargs.items():
            if any(f.name == key for f in meta.columns):
                meta.column(key).validate(value)
                column_updates[key] = value
            elif any(r.name == key for r in meta.fk_relations()):
                fk_updates[key] = value
            elif key.endswith("_id") and any(
                r.name == key[:-3] for r in meta.fk_relations()
            ):
                fk_updates[key[:-3]] = self.fetch_by_pk(
                    model._registry.get_model(meta.relation(key[:-3]).target_name()),
                    value,
                )
            else:
                raise IntegrityError(f"update(): unknown field {key!r}")
        if column_updates:
            changed = []
            for obj in matched.objs:
                new = obj
                for fname, value in column_updates.items():
                    new = new.replace(fname, value)
                changed.append(new)
            try:
                interp.merge_objects(model.__name__, changed)
            except PathAborted as abort:
                raise IntegrityError(abort.reason) from None
        for rel_name, target in fk_updates.items():
            rel = meta.relation(rel_name)
            pairs = self.db.state.relation(rel.relation_name())
            src_pks = {o.fields[meta.pk.name] for o in matched.objs}
            if target is None:
                if not rel.null:
                    raise IntegrityError(
                        f"{model.__name__}.{rel_name}: NULL foreign key"
                    )
                pairs -= {(s, t) for s, t in pairs if s in src_pks}
            else:
                pairs -= {(s, t) for s, t in pairs if s in src_pks}
                pairs |= {(s, target.pk) for s in src_pks}

    def delete_qs(self, qs: QuerySet) -> None:
        expr = qs_to_soir(qs, self.db.schema)
        interp = self._interp()
        matched = interp.eval(expr)
        pk_field = qs.model._meta.pk.name
        try:
            interp.delete_pks(
                qs.model.__name__, {o.fields[pk_field] for o in matched.objs}
            )
        except PathAborted as abort:
            raise ProtectedError(abort.reason) from None

    # -- relation commands -------------------------------------------------

    def link(self, rel, src, dst) -> None:
        self._interp().link_objects(
            rel.relation_name(), _objval(src), _objval(dst)
        )

    def delink(self, rel, src, dst) -> None:
        self._interp().delink_objects(
            rel.relation_name(), _objval(src), _objval(dst)
        )

    def clearlinks(self, rel, instance, end: str) -> None:
        self._interp().clear_links(rel.relation_name(), _objval(instance), end)


def _objval(instance) -> ObjVal:
    return ObjVal(type(instance).__name__, dict(instance._data))
