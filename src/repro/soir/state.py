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

States are plain mutable containers; the interpreter copies them before
executing a path so callers keep the original.
"""

from __future__ import annotations

import copy
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
        # Every path replay clones its input, so the copies stay in C
        # (``map``/``zip``) rather than in per-container comprehensions.
        return DBState(
            tables={m: dict(zip(t, map(dict.copy, t.values())))
                    for m, t in self.tables.items()},
            assocs=dict(zip(self.assocs, map(set.copy, self.assocs.values()))),
            order=dict(zip(self.order, map(dict.copy, self.order.values()))),
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
        self.table(model)[pk] = dict(row)
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
        # Empty tables / association sets are materialized lazily by
        # ``table()`` / ``relation()``; normalize them away (unless the
        # plain comparison already agrees, the common case).
        if self.tables == other.tables and self.assocs == other.assocs:
            return not with_order or self.order == other.order
        if {m: t for m, t in self.tables.items() if t} != {
            m: t for m, t in other.tables.items() if t
        }:
            return False
        mine = {r: pairs for r, pairs in self.assocs.items() if pairs}
        theirs = {r: pairs for r, pairs in other.assocs.items() if pairs}
        if mine != theirs:
            return False
        if with_order:
            return self.order == other.order
        return True

    def deepcopy(self) -> "DBState":
        return copy.deepcopy(self)


@dataclass
class ObjVal:
    """A runtime object value: a snapshot of one row of ``model``."""

    model: str
    fields: dict[str, object]

    def get(self, name: str) -> object:
        return self.fields[name]

    def replace(self, name: str, value: object) -> "ObjVal":
        new_fields = dict(self.fields)
        new_fields[name] = value
        return ObjVal(self.model, new_fields)

    def clone(self) -> "ObjVal":
        return ObjVal(self.model, dict(self.fields))


@dataclass
class QuerySetVal:
    """A runtime query set value: an ordered list of object snapshots."""

    model: str
    objs: list[ObjVal]

    def pks(self, pk_field: str) -> list[object]:
        return [o.fields[pk_field] for o in self.objs]
