"""Finite scopes for the bounded model finder.

The verifier proves facts by *failing to find counterexamples* (paper §5.2
runs Z3 the same way).  This module derives, for a pair of code paths, a
finite search space of well-formed database states and argument vectors:

* the *footprint* (models/relations either path can touch) bounds which
  state components vary at all;
* per-field value domains are seeded with the constants the paths mention
  (plus boundary neighbours for integers), so guard boundaries are hit;
* fields irrelevant to the pair are pinned to a single value;
* generated states satisfy the schema's well-formedness axioms (pk
  consistency, unique fields, non-null FKs) — the same axioms the paper
  asserts on symbolic states (§5.2).

State/argument candidates are produced as a deterministic stream: a small
canonical suite first (empty and fully-populated states with exhaustive
argument products), then seeded pseudo-random sampling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from ..soir import expr as E
from ..soir.path import Argument, CodePath
from ..soir.schema import Schema
from ..soir.state import DBState
from ..soir.types import (
    BOOL,
    DATETIME,
    FLOAT,
    INT,
    STRING,
    SoirType,
)


@dataclass
class Scope:
    """The finite search space for one pair of code paths."""

    schema: Schema
    models: frozenset[str]
    relations: frozenset[str]
    ids: dict[str, list]              # model -> candidate row pks
    fresh_ids: dict[str, list]        # model -> pks for fresh-id arguments
    field_domains: dict[tuple[str, str], list]  # (model, field) -> values
    type_domains: dict[SoirType, list]          # scalar domains for args
    #: types at which either path declares a unique (fresh-ID) argument;
    #: plain arguments of these types may collide with a fresh ID
    fresh_arg_types: frozenset[SoirType] = frozenset()
    #: models into which either path inserts fresh-ID rows; only these
    #: need fresh-pool slots in a symbolic universe
    fresh_models: frozenset[str] = frozenset()
    #: arguments used *only* in id positions (deref/exists/pk-filter/
    #: CNT bounds); they take the lean pks-plus-absent domain instead of
    #: the arithmetic boundary domain
    pure_id_args: frozenset[str] = frozenset()
    #: arguments in id positions *and* value positions: boundary domain
    #: unioned with the id values
    mixed_id_args: frozenset[str] = frozenset()
    #: per-type id-position values: every integer pk plus one absent probe
    id_values: dict[SoirType, list] = field(default_factory=dict)


def _int_domain(constants: set[int]) -> list[int]:
    values: set[int] = {0, 1, -1}
    for c in constants:
        values.update((c - 1, c, c + 1))
    return sorted(values)[:9]


def _collect_constants(paths: list[CodePath]) -> dict[SoirType, set]:
    out: dict[SoirType, set] = {INT: set(), STRING: set(), FLOAT: set(),
                                DATETIME: set(), BOOL: set()}
    for path in paths:
        for cmd in path.commands:
            for node in cmd.walk_exprs():
                if isinstance(node, E.Lit) and node.lit_type in out:
                    if isinstance(node.value, (list, tuple)):
                        out[node.lit_type].update(
                            v for v in node.value
                            if isinstance(v, (int, float, str, bool))
                        )
                    else:
                        out[node.lit_type].add(node.value)
    return out


def _relevant_fields(paths: list[CodePath], schema: Schema) -> set[tuple[str, str]]:
    """(model, field) pairs whose values can influence either path."""
    relevant: set[tuple[str, str]] = set()
    for path in paths:
        for cmd in path.commands:
            for node in cmd.walk_exprs():
                fname = getattr(node, "field", None)
                if fname is None:
                    continue
                if isinstance(node, (E.Filter, E.OrderBy, E.Aggregate, E.MapSet)):
                    qs_model = node.qs.type.model
                    if isinstance(node, E.Filter) and node.relpath:
                        qs_model = _terminal(schema, qs_model, node.relpath)
                    relevant.add((qs_model, fname))
                elif isinstance(node, (E.FieldGet, E.SetField)):
                    relevant.add((node.obj.type.model, fname))
    # Unique fields always matter (they carry implicit preconditions).
    for mname in schema.models:
        model = schema.model(mname)
        for f in model.fields:
            if f.unique:
                relevant.add((mname, f.name))
        for group in model.unique_together:
            for f in group:
                relevant.add((mname, f))
    return relevant


def _arg_id_positions(
    paths: list[CodePath], schema: Schema
) -> tuple[set[str], set[str]]:
    """Split argument names by how the paths consume them.

    Returns ``(pure_id, mixed)``: *pure_id* arguments appear **only** in
    id positions — ``Deref``/``Exists`` references, filters on a pk
    field, ``MakeObj`` pk slots, comparisons against a pk ``FieldGet``/
    ``RefOf`` or a CNT aggregate — where the only values worth testing
    are the scope's pks, one absent probe, and the counts they induce.
    *mixed* arguments also flow into arithmetic or non-pk comparisons
    and need the pk values unioned onto the boundary domain.  Giving
    every integer argument the union instead would square the symbolic
    engine's search space per argument pair (8 plain INT args took one
    corpus pin from 6s to over 60s)."""
    from ..soir.types import Aggregation

    id_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    for path in paths:
        for cmd in path.commands:
            for node in cmd.walk_exprs():
                if isinstance(node, E.Var):
                    total_counts[node.name] = total_counts.get(node.name, 0) + 1
                    continue
                id_children: list[E.Expr] = []
                if isinstance(node, (E.Deref, E.Exists)):
                    id_children.append(node.ref)
                elif isinstance(node, E.Filter):
                    qs_model = node.qs.type.model
                    if node.relpath:
                        qs_model = _terminal(schema, qs_model, node.relpath)
                    if node.field == schema.model(qs_model).pk:
                        id_children.append(node.value)
                elif isinstance(node, E.MakeObj):
                    model = schema.model(node.model)
                    try:
                        id_children.append(node.field_expr(model.pk))
                    except KeyError:
                        pass
                elif isinstance(node, E.Cmp):
                    for a, b in ((node.left, node.right),
                                 (node.right, node.left)):
                        if isinstance(a, E.RefOf):
                            id_children.append(b)
                        elif isinstance(a, E.FieldGet):
                            m = schema.model(a.obj.type.model)
                            if a.field == m.pk:
                                id_children.append(b)
                        elif (isinstance(a, E.Aggregate)
                              and a.agg == Aggregation.CNT):
                            id_children.append(b)
                for child in id_children:
                    if isinstance(child, E.Var):
                        id_counts[child.name] = id_counts.get(child.name, 0) + 1
    pure = {n for n, c in id_counts.items() if total_counts.get(n, 0) == c}
    mixed = set(id_counts) - pure
    return pure, mixed


def _terminal(schema: Schema, start: str, relpath) -> str:
    from ..soir.types import Direction

    current = start
    for hop in relpath:
        rel = schema.relation(hop.relation)
        current = rel.target if hop.direction == Direction.FORWARD else rel.source
    return current


def build_scope(
    schema: Schema,
    paths: list[CodePath],
    *,
    ids_per_model: int = 2,
) -> Scope:
    models: set[str] = set()
    relations: set[str] = set()
    for path in paths:
        models |= path.models_touched(schema)
        relations |= path.relations_touched(schema)
    # Relations drag both endpoints in.
    for rname in relations:
        rel = schema.relation(rname)
        models.add(rel.source)
        models.add(rel.target)

    constants = _collect_constants(paths)
    relevant = _relevant_fields(paths, schema)

    # The symbolic universe needs one fresh-pool slot per fresh-ID argument
    # the pair can pin (each occupies its own pool constant) — with only
    # two slots, a pair of double-insert paths writes rows the encoded
    # state cannot see, hiding guard invalidations.
    n_fresh = max(
        2, sum(1 for path in paths for arg in path.args if arg.unique_id)
    )
    ids: dict[str, list] = {}
    fresh_ids: dict[str, list] = {}
    for mname in models:
        model = schema.model(mname)
        pk_type = model.pk_field.type
        if pk_type == STRING:
            ids[mname] = [f"{mname[:2].lower()}{i}" for i in range(ids_per_model)]
        else:
            ids[mname] = list(range(1, ids_per_model + 1))
        # The fresh-ID rows must carry the *same* values that
        # ``env_products`` pins fresh arguments to (and ``arg_domain``
        # offers to colliding plain arguments): feasibility states and
        # the symbolic universe extend the id space with these rows, and
        # a differently-named row can never witness a pinned argument.
        fresh_ids[mname] = fresh_pool_for(pk_type)[:n_fresh]

    string_constants = {v for v in constants[STRING] if isinstance(v, str)}
    type_domains: dict[SoirType, list] = {
        INT: _int_domain({v for v in constants[INT] if isinstance(v, int)}),
        FLOAT: sorted({0.0, 1.0, -1.0} | set(constants[FLOAT]))[:6],
        BOOL: [True, False],
        DATETIME: [0, 1],
        # Two fillers so string-valued writes can differ (a single value
        # would hide last-writer divergence between two inserts).
        STRING: sorted(string_constants)[:6] + ["zz", "yy"],
    }
    # A unique field must never saturate its scalar domain: with
    # ``ids_per_model`` rows alive, a well-formed state already holds that
    # many distinct values, and an insert needs a free one to be
    # generatable at all.  Too small a domain makes full states block
    # every insert, hiding real guard invalidations from the bounded
    # search (the scope must witness feasibility, not forbid it).
    min_unique_domain = ids_per_model + 2
    unique_value_types = set()
    for mname in models:
        model = schema.model(mname)
        grouped = {f for group in model.unique_together for f in group}
        for f in model.fields:
            if f.name == model.pk or f.choices is not None:
                continue
            if f.unique or f.name in grouped:
                unique_value_types.add(f.type)
    if STRING in unique_value_types:
        dom = type_domains[STRING]
        for filler in ("xx", "ww", "vv", "uu", "tt", "ss"):
            if len(dom) >= min_unique_domain:
                break
            if filler not in dom:
                dom.append(filler)
    if INT in unique_value_types:
        dom = type_domains[INT]
        value = max(dom) + 1
        while len(dom) < min_unique_domain:
            dom.append(value)
            value += 1

    # Argument strings must be able to hit existing string pks.
    arg_strings = list(type_domains[STRING])
    for mname in models:
        if schema.model(mname).pk_field.type == STRING:
            arg_strings = ids[mname] + arg_strings
    type_domains[STRING] = arg_strings[:8]
    # Integer arguments addressing rows must be able to hit every pk —
    # the boundary values only cover pk 1, so a witness addressing a
    # later row (or a CNT-aggregate bound equal to the table size) would
    # be unrepresentable.  The pks live in a dedicated id domain rather
    # than ``type_domains[INT]`` so pure-value arguments stay lean (see
    # ``_arg_id_positions``); ``arg_domain`` picks or unions per use.
    pure_id_args, mixed_id_args = _arg_id_positions(paths, schema)
    int_ids = sorted({v for mname in models for v in ids[mname]
                      if isinstance(v, int)})
    id_values: dict[SoirType, list] = {INT: int_ids + [0]}

    field_domains: dict[tuple[str, str], list] = {}
    for mname in models:
        model = schema.model(mname)
        for f in model.fields:
            if f.name == model.pk:
                continue
            if (mname, f.name) in relevant:
                domain = list(type_domains.get(f.type, [None]))
                if f.min_value is not None:
                    domain = [v for v in domain if v >= f.min_value] or [f.min_value]
                if f.choices is not None:
                    domain = list(f.choices)
            else:
                domain = [_pinned_value(f.type)]
            if f.nullable:
                domain = domain + [None]
            field_domains[(mname, f.name)] = domain

    fresh_arg_types = frozenset(
        arg.type for path in paths for arg in path.args if arg.unique_id
    )
    fresh_models = set()
    unique_arg_names = {
        arg.name for path in paths for arg in path.args if arg.unique_id
    }
    for path in paths:
        for cmd in path.commands:
            for node in cmd.walk_exprs():
                if isinstance(node, E.MakeObj):
                    model = schema.model(node.model)
                    try:
                        pk_expr = node.field_expr(model.pk)
                    except KeyError:
                        continue
                    if isinstance(pk_expr, E.Var) and pk_expr.name in unique_arg_names:
                        fresh_models.add(node.model)
    return Scope(
        schema=schema,
        models=frozenset(models),
        relations=frozenset(relations),
        ids=ids,
        fresh_ids=fresh_ids,
        field_domains=field_domains,
        type_domains=type_domains,
        fresh_arg_types=fresh_arg_types,
        fresh_models=frozenset(fresh_models),
        pure_id_args=frozenset(pure_id_args),
        mixed_id_args=frozenset(mixed_id_args),
        id_values=id_values,
    )


def _synthesize_unique(domain: list, index: int):
    """A value guaranteed distinct from the domain and from other indices,
    matching the domain's type."""
    sample = next((v for v in domain if v is not None), "u")
    if isinstance(sample, bool) or not isinstance(sample, (int, float, str)):
        return f"u{index}"
    if isinstance(sample, (int, float)):
        return max(v for v in domain if v is not None) + 1 + index
    return f"u{index}!"


def _pinned_value(t: SoirType):
    if t == BOOL:
        return False
    if t == INT or t == DATETIME:
        return 0
    if t == FLOAT:
        return 0.0
    return "p"


# ---------------------------------------------------------------------------
# State generation
# ---------------------------------------------------------------------------


class StateGenerator:
    """Produces well-formed states within a scope."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.schema = scope.schema

    def canonical_states(self) -> list[DBState]:
        """The deterministic suite: varied full tables first (preconditions
        are most often satisfiable there, so truncated budgets still search
        fertile ground), then shrinking tables down to the empty state."""
        states = []
        k = max(len(v) for v in self.scope.ids.values()) if self.scope.ids else 0
        if k >= 2:
            states.append(self._populated(k, vary=True))
        # Rotated suites: the plain states above only ever exercise the
        # *leading* values of each field domain, so a witness that needs a
        # row holding a later value (e.g. a positive balance where the
        # domain leads with boundary values) would never appear in a
        # deterministic state.  Rotate the domains so every value shows up
        # in some full state.
        if k >= 1:
            width = max(
                (len(d) for d in self.scope.field_domains.values()), default=0
            )
            for shift in range(1, min(width, 4)):
                states.append(self._populated(k, vary=True, shift=shift))
        for rows in range(k, -1, -1):
            states.append(self._populated(rows))
        states.extend(self._group_collision_states())
        return [s for s in states if s is not None]

    def _group_collision_states(self) -> list[DBState]:
        """``unique_together`` collision probes: two rows agreeing on every
        group field but one.  A write landing on the free field can
        collide with the other row only from such a state, and the plain
        suites never build one — ``vary`` assigns distinct values to every
        field, uniform assignment tripped the group constraint and dropped
        the second row.  The free field runs over *all* value pairs, not
        just adjacent ones: an update typically shifts the value by an
        argument-sized step, so the colliding pair may be far apart."""
        states: list[DBState] = []
        for mname in sorted(self.scope.models):
            model = self.schema.model(mname)
            pks = self.scope.ids[mname]
            if len(pks) < 2:
                continue
            for group in model.unique_together:
                fields = [f for f in group if f != model.pk]
                if len(fields) < 2:
                    continue
                # A group member that is individually unique cannot agree
                # across rows, so the group can never collide through it.
                if any(model.field(f).unique for f in fields):
                    continue
                for free in fields:
                    pinned = {}
                    for other in fields:
                        if other == free:
                            continue
                        dom = self.scope.field_domains[(mname, other)]
                        pin = next((v for v in dom if v is not None), None)
                        if pin is None:
                            break
                        pinned[other] = pin
                    if len(pinned) != len(fields) - 1:
                        continue
                    dom = self.scope.field_domains[(mname, free)]
                    values = [v for v in dom if v is not None]
                    for i in range(len(values)):
                        for j in range(i + 1, len(values)):
                            base = self._populated(len(pks), vary=True)
                            if base is None:
                                continue
                            table = base.table(mname)
                            probe = [pk for pk in pks[:2] if pk in table]
                            if len(probe) < 2:
                                continue
                            for pk, v in zip(probe, (values[i], values[j])):
                                table[pk] = {**table[pk], free: v, **pinned}
                            self._fix_unique_together(base)
                            if len(base.table(mname)) < 2:
                                continue
                            states.append(base)
        return states

    def _empty(self) -> DBState:
        """A state carrying only the scope's footprint — checks clone
        states on every execution, so keeping them minimal matters."""
        state = DBState()
        for mname in self.scope.models:
            state.tables[mname] = {}
            state.order[mname] = {}
            state.next_order[mname] = 0
        for rname in self.scope.relations:
            state.assocs[rname] = set()
        return state

    def _populated(
        self, rows: int, *, vary: bool = False, shift: int = 0
    ) -> DBState:
        state = self._empty()
        for mname in sorted(self.scope.models):
            model = self.schema.model(mname)
            pks = self.scope.ids[mname][:rows]
            for idx, pk in enumerate(pks):
                row = {model.pk: pk}
                for f in model.fields:
                    if f.name == model.pk:
                        continue
                    domain = self.scope.field_domains[(mname, f.name)]
                    if f.unique and idx >= len(domain):
                        # More rows than distinct domain values: synthesize
                        # fresh values so the state stays well-formed.
                        row[f.name] = _synthesize_unique(domain, idx)
                        continue
                    offset = (idx if (vary or f.unique) else 0) + shift
                    row[f.name] = domain[offset % len(domain)]
                state.insert_row(mname, pk, row)
        self._fix_unique_together(state)
        for rname in sorted(self.scope.relations):
            rel = self.schema.relation(rname)
            sources = list(state.table(rel.source))
            targets = list(state.table(rel.target))
            if not targets:
                if rel.kind == "fk" and not rel.nullable:
                    # Non-null FK with no targets forces an empty source.
                    for pk in sources:
                        state.delete_row(rel.source, pk)
                continue
            for idx, src in enumerate(sources):
                dst = targets[idx % len(targets)] if vary else targets[0]
                state.relation(rname).add((src, dst))
        self._prune_dangling(state)
        return state

    def _prune_dangling(self, state: DBState) -> None:
        """Drop association pairs whose endpoint rows were removed while
        satisfying a *different* relation's non-null constraint."""
        for rname in self.scope.relations:
            rel = self.schema.relation(rname)
            sources = state.table(rel.source)
            targets = state.table(rel.target)
            pairs = state.relation(rname)
            state.assocs[rname] = {
                (s, t) for s, t in pairs if s in sources and t in targets
            }

    @cached_property
    def _unique_groups(self) -> list[tuple[str, tuple]]:
        """``(model, unique_together)`` of every constrained model, sorted."""
        models = (self.schema.model(m) for m in sorted(self.scope.models))
        return [(m.name, m.unique_together) for m in models
                if m.unique_together]

    def _fix_unique_together(self, state: DBState) -> None:
        """Drop rows violating unique_together in generated states."""
        for mname, groups in self._unique_groups:
            for group in groups:
                seen: set[tuple] = set()
                for pk, row in list(state.table(mname).items()):
                    key = tuple(row.get(f) for f in group)
                    if key in seen:
                        state.delete_row(mname, pk)
                    else:
                        seen.add(key)

    @cached_property
    def _sampling_plan(self) -> tuple[list, list]:
        """What ``random_state`` reads on every draw, resolved once per
        generator: per model (sorted) its name, pk field, candidate pks
        and ``(field, domain, unique)`` for every other field; per
        relation (sorted) its name and schema."""
        models = []
        for mname in sorted(self.scope.models):
            model = self.schema.model(mname)
            fields = [
                (f.name, self.scope.field_domains[(mname, f.name)], f.unique)
                for f in model.fields if f.name != model.pk
            ]
            models.append((mname, model.pk, self.scope.ids[mname], fields))
        relations = [(rname, self.schema.relation(rname))
                     for rname in sorted(self.scope.relations)]
        return models, relations

    def random_state(self, rng: random.Random) -> DBState | None:
        """One sampled well-formed state, or None if sampling failed.

        The ``rng`` draws — which, how many, in which order — are part of
        the verdict contract: the candidate stream, and so every verdict,
        is a function of them."""
        models, relations = self._sampling_plan
        state = self._empty()
        for mname, pk_field, all_pks, fields in models:
            nrows = rng.randint(0, len(all_pks))
            table, order = state.tables[mname], state.order[mname]
            used_unique: dict[str, set] = {}
            for rank, pk in enumerate(all_pks[:nrows]):
                row = {pk_field: pk}
                for fname, domain, unique in fields:
                    value = rng.choice(domain)
                    if unique:
                        taken = used_unique.setdefault(fname, set())
                        free = [v for v in domain if v not in taken]
                        if not free:
                            value = _synthesize_unique(domain, len(taken))
                        else:
                            value = rng.choice(free)
                        taken.add(value)
                    row[fname] = value
                table[pk] = row
                order[pk] = rank
            state.next_order[mname] = nrows
        self._fix_unique_together(state)
        for rname, rel in relations:
            sources = list(state.table(rel.source))
            targets = list(state.table(rel.target))
            pairs = state.relation(rname)
            if rel.kind == "fk":
                for src in sources:
                    if not targets:
                        if not rel.nullable:
                            state.delete_row(rel.source, src)
                        continue
                    if rel.nullable and rng.random() < 0.34:
                        continue
                    pairs.add((src, rng.choice(targets)))
            else:
                for src in sources:
                    for dst in targets:
                        if rng.random() < 0.5:
                            pairs.add((src, dst))
        self._prune_dangling(state)
        # Occasionally shuffle insertion order so order-sensitive reads vary.
        if rng.random() < 0.5:
            for mname, _, _, _ in models:
                order = state.order.get(mname, {})
                pks = list(order)
                rng.shuffle(pks)
                for rank, pk in enumerate(pks):
                    order[pk] = rank
        return state


# ---------------------------------------------------------------------------
# Argument generation
# ---------------------------------------------------------------------------


def collect_args(path: CodePath) -> list[Argument]:
    """Declared arguments plus any Opaque placeholders in the commands."""
    args = list(path.args)
    seen = {a.name for a in args}
    for cmd in path.commands:
        for node in cmd.walk_exprs():
            if isinstance(node, E.Opaque) and node.name not in seen:
                args.append(Argument(node.name, node.opaque_type, source="opaque"))
                seen.add(node.name)
    return args


def fresh_pool_for(t: SoirType) -> list:
    """Candidate storage-generated fresh IDs, by SOIR type."""
    if t == STRING:
        return ["F0", "F1", "F2", "F3"]
    return [101, 102, 103, 104]


def arg_domain(arg: Argument, scope: Scope) -> list:
    if arg.unique_id:
        return list(fresh_pool_for(arg.type))
    domain = scope.type_domains.get(arg.type)
    if domain is None:
        # Model-typed arguments are not produced by the analyzer today;
        # fall back to a single placeholder.
        return [None]
    domain = list(domain)
    id_values = scope.id_values.get(arg.type, [])
    if arg.name in scope.pure_id_args and id_values:
        # Only ever an object reference: the pks, one absent probe, and
        # (below) a fresh-pool collision cover every distinguishable case.
        domain = list(id_values)
    elif arg.name in scope.mixed_id_args:
        domain = domain + [v for v in id_values if v not in domain]
    # A plain argument can name a storage-generated fresh ID (a client may
    # reference an object another operation is creating concurrently —
    # the 'AddCourse/DeleteCourse can carry the same ID' case, paper §6.2),
    # but only when a fresh-ID argument of this type is actually in play.
    if arg.type in scope.fresh_arg_types:
        domain += fresh_pool_for(arg.type)[:1]
    return domain


def env_products(
    args_p: list[Argument],
    args_q: list[Argument],
    scope: Scope,
    *,
    unique_ids_distinct: bool,
    cap: int,
):
    """Exhaustive product of argument assignments (capped)."""
    specs: list[tuple[str, str, list]] = []  # (side, name, domain)
    fresh_counter = 0
    for side, args in (("p", args_p), ("q", args_q)):
        for arg in args:
            if arg.unique_id:
                pool = fresh_pool_for(arg.type)
                if unique_ids_distinct:
                    # The storage tier guarantees global distinctness
                    # (paper §5.2): pin each fresh argument to its own ID.
                    pool = [pool[fresh_counter % len(pool)]]
                    fresh_counter += 1
                else:
                    pool = pool[:2]
            else:
                pool = arg_domain(arg, scope)
            specs.append((side, arg.name, pool))
    total = 1
    for _, _, pool in specs:
        total *= max(1, len(pool))
    if total > cap:
        # Don't abandon exhaustive coverage wholesale: shrink the widest
        # domains until the product fits, shedding the least
        # witness-relevant values first — scope ids are moved to the
        # front before trimming because a value that names an existing
        # row is what guards and derefs hinge on.  The sampling phase
        # still explores the full domains.
        id_values = {v for pks in scope.ids.values() for v in pks}
        pools = [
            [v for v in pool if v in id_values]
            + [v for v in pool if v not in id_values]
            for _, _, pool in specs
        ]
        while total > cap:
            widest = max(range(len(pools)), key=lambda k: len(pools[k]))
            if len(pools[widest]) <= 1:
                return None  # cannot fit: caller falls back to sampling
            total //= len(pools[widest])
            pools[widest].pop()
            total *= max(1, len(pools[widest]))
        specs = [
            (side, name, pool)
            for (side, name, _), pool in zip(specs, pools)
        ]
    out = []
    for combo in itertools.product(*(pool for _, _, pool in specs)):
        env_p: dict[str, object] = {}
        env_q: dict[str, object] = {}
        for (side, name, _), value in zip(specs, combo):
            (env_p if side == "p" else env_q)[name] = value
        out.append((env_p, env_q))
    return out


class ArgSampler:
    """Seeded argument draws for one pair of paths.

    Each argument's domain, and the type slot its collision bias reuses
    values from, is resolved once here; :meth:`draw` then only draws."""

    def __init__(
        self,
        args_p: list[Argument],
        args_q: list[Argument],
        scope: Scope,
        *,
        unique_ids_distinct: bool,
    ):
        self.unique_ids_distinct = unique_ids_distinct
        slots: dict[SoirType, int] = {}
        #: per argument, p's then q's: (side, name, fresh?, domain, slot)
        self.plan: list[tuple[int, str, bool, list, int]] = []
        for side, args in enumerate((args_p, args_q)):
            for arg in args:
                if arg.unique_id:
                    pool = fresh_pool_for(arg.type)
                    domain = pool if unique_ids_distinct else pool[:2]
                else:
                    domain = arg_domain(arg, scope)
                slot = slots.setdefault(arg.type, len(slots))
                self.plan.append((side, arg.name, arg.unique_id, domain, slot))
        self.slots = len(slots)

    def draw(self, rng: random.Random) -> tuple[dict, dict]:
        """One assignment per side (the ``rng`` draws are part of the
        verdict contract, see :meth:`StateGenerator.random_state`)."""
        envs: tuple[dict, dict] = ({}, {})
        fresh_used: list = []
        used_by_slot: list[list] = [[] for _ in range(self.slots)]
        for side, name, fresh, domain, slot in self.plan:
            if fresh:
                pool = domain
                if self.unique_ids_distinct:
                    pool = [v for v in pool if v not in fresh_used] or pool
                value = rng.choice(pool)
                fresh_used.append(value)
            else:
                # Collision bias: conflicts almost always require two
                # arguments to name the same object/value, so reuse a
                # previously drawn value of the same type half of the time.
                used = used_by_slot[slot]
                if used and rng.random() < 0.5:
                    value = rng.choice(used)
                else:
                    value = rng.choice(domain)
                used.append(value)
            envs[side][name] = value
        return envs

