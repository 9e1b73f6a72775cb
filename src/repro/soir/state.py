"""Concrete database states for SOIR execution.

A :class:`DBState` is a concrete snapshot of the replicated database:

* ``tables`` — per model, a mapping from primary-key value to row (a dict
  from field name to scalar value);
* ``assocs`` — per relation, the set of ``(source_pk, target_pk)``
  association pairs (paper §3.2 represents a relation as a set of
  associations);
* ``order`` — per model, a mapping from primary-key value to an integer
  order number (the decoupled order component of the paper's encoding,
  §4.2); and a per-model counter for assigning order to inserts.

Rows are immutable values.  A row dict stored in a state, like an
:class:`ObjVal`'s ``fields``, is never written after it is created; every
write replaces the whole row (``insert_row``, ``delete_row``) or goes
through a container the state owns (``table()``, ``relation()``,
``order``).  That contract lets :meth:`DBState.clone` copy only the
containers and share the rows, and lets the interpreter hand stored rows
out as object snapshots without copying them.  A replay works on a clone,
so callers keep the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import Schema


@dataclass
class DBState:
    """A concrete database state."""

    tables: dict[str, dict[object, dict[str, object]]] = field(default_factory=dict)
    assocs: dict[str, set[tuple[object, object]]] = field(default_factory=dict)
    order: dict[str, dict[object, int]] = field(default_factory=dict)
    next_order: dict[str, int] = field(default_factory=dict)

    @classmethod
    def empty(cls, schema: Schema) -> "DBState":
        state = cls()
        for name in schema.models:
            state.tables[name] = {}
            state.order[name] = {}
            state.next_order[name] = 0
        for name in schema.relations:
            state.assocs[name] = set()
        return state

    def clone(self) -> "DBState":
        """A copy of the containers; the (immutable) rows are shared.

        Every path replay clones its input.  Per-container comprehensions
        beat ``dict(zip(keys, map(dict.copy, values)))`` here at every
        state size measured (1 to 20 tables, CPython 3.11)."""
        return DBState(
            tables={m: t.copy() for m, t in self.tables.items()},
            assocs={r: p.copy() for r, p in self.assocs.items()},
            order={m: o.copy() for m, o in self.order.items()},
            next_order=self.next_order.copy(),
        )

    def table(self, model: str) -> dict[object, dict[str, object]]:
        table = self.tables.get(model)
        if table is None:
            table = self.tables[model] = {}
        return table

    def relation(self, name: str) -> set[tuple[object, object]]:
        pairs = self.assocs.get(name)
        if pairs is None:
            pairs = self.assocs[name] = set()
        return pairs

    def insert_row(self, model: str, pk: object, row: dict[str, object]) -> None:
        """Store ``row`` as ``model``'s row ``pk``.  The state takes
        ownership: neither side writes ``row`` afterwards."""
        self.table(model)[pk] = row
        order = self.order.setdefault(model, {})
        if pk not in order:
            counter = self.next_order.get(model, 0)
            order[pk] = counter
            self.next_order[model] = counter + 1

    def delete_row(self, model: str, pk: object) -> None:
        self.table(model).pop(pk, None)
        self.order.setdefault(model, {}).pop(pk, None)

    def canonical(self, *, with_order: bool = False) -> tuple:
        """A hashable canonical form, used for state-equality comparison.

        The commutativity check compares states *without* the order
        component by default: the paper's encoding makes merged-in order
        opaque (§4.2), so bare insertion order is not a divergence witness —
        order differences only count when they become observable through
        ``first``/``last``/``orderby`` reads, which surface in ``data``.
        """
        tables = tuple(
            (m, tuple(sorted((repr(pk), tuple(sorted((k, repr(v)) for k, v in row.items())))
                             for pk, row in t.items())))
            for m, t in sorted(self.tables.items())
        )
        assocs = tuple(
            (r, tuple(sorted((repr(a), repr(b)) for a, b in pairs)))
            for r, pairs in sorted(self.assocs.items())
        )
        if not with_order:
            return (tables, assocs)
        order = tuple(
            (m, tuple(sorted((repr(pk), n) for pk, n in o.items())))
            for m, o in sorted(self.order.items())
        )
        return (tables, assocs, order)

    def same_state(self, other: "DBState", *, with_order: bool = False) -> bool:
        # Empty tables, association sets and order maps are materialized
        # lazily by ``table()``, ``relation()`` and ``insert_row``/
        # ``delete_row``, so they never distinguish two states.
        if not (_same_nonempty(self.tables, other.tables)
                and _same_nonempty(self.assocs, other.assocs)):
            return False
        return not with_order or _same_nonempty(self.order, other.order)


def _same_nonempty(a: dict, b: dict) -> bool:
    """``a == b`` ignoring keys mapped to an empty container (the plain
    comparison, the common case, is tried first)."""
    return a == b or {k: v for k, v in a.items() if v} == {
        k: v for k, v in b.items() if v
    }


@dataclass(slots=True)
class ObjVal:
    """A runtime object value: a snapshot of one row of ``model``.

    ``fields`` is never written after creation (it may be the stored row
    itself); :meth:`replace` builds a new snapshot."""

    model: str
    fields: dict[str, object]

    def get(self, name: str) -> object:
        return self.fields[name]

    def replace(self, name: str, value: object) -> "ObjVal":
        new_fields = dict(self.fields)
        new_fields[name] = value
        return ObjVal(self.model, new_fields)


@dataclass(slots=True)
class QuerySetVal:
    """A runtime query set value: an ordered list of object snapshots."""

    model: str
    objs: list[ObjVal]

    def pks(self, pk_field: str) -> list[object]:
        return [o.fields[pk_field] for o in self.objs]
