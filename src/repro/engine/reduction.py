"""Pre-solve reduction: signature classes and read/write disjointness.

The pair sweep is quadratic in effectful paths, and most of the matrix is
redundant: real applications contain many *isomorphic* check problems
(the same CRUD shape stamped out over different models) and many pairs
that touch overlapping models without ever touching the same column.
This module removes both kinds of redundancy before any solver runs:

* **Operation-signature equivalence classes** — :func:`canonical_pair`
  rewrites a pair's complete check problem (both SOIR paths plus the
  sub-schema their footprints touch) into a canonical form in which
  models, relations, fields, arguments and opaques are renamed to
  positional tokens (``M0``, ``R0``, ``F0``, ``v0``, …) in first-
  occurrence order.  Two pairs with the same canonical digest are the
  same problem up to renaming: the scheduler solves one *representative*
  and shares the verdict with every other member, recording the member →
  representative renaming as provenance.  Renaming is injective, so two
  *different* problems can never collapse into one class — imperfect
  canonicalization only costs sharing, never soundness.

* **Read/write-set disjointness** — :func:`rw_footprint` extracts the
  column-level footprint of a path as ``(reads, writes)`` sets of tokens
  (``("rows", model)``, ``("field", model, field)``, ``("assoc",
  relation)``) and :func:`rw_disjoint` applies the classic conflict
  condition: if neither path writes anything the other reads or writes,
  the pair provably commutes and cannot invalidate, so both checks pass
  without a solver call.  This is strictly finer than the model-level
  disjointness fast path in :func:`repro.verifier.runner.classify_pair`:
  two paths updating *different columns of the same table* prune here.
  :func:`prune_pair` stacks it on top of ``classify_pair``; the sweep
  and the explainer both go through it, while
  :func:`~repro.verifier.runner.verify_pair` stays the unpruned per-pair
  reference.

* **Sweep planning** — :func:`plan_sweep` runs the complete solver-free
  pass (pruning, cache lookup, class assignment) and returns one
  :class:`PairPlan` per pair, deriving each path's facts
  (:class:`PlanFacts`) once per plan rather than once per pair.  The
  scheduler executes the plan and hands it back on its report; the
  service daemon reads its invalidation from that same plan, which is
  what keeps ``preview == actual solver calls`` true by construction
  under class sharing.

Soundness notes (also in docs/REDUCTION.md): verdicts are shared even
when the representative's outcome is a budget artifact (``TIMEOUT``),
because the bounded checkers are deterministic given the canonical
structure — the only name-sensitivity left is the enum checker's
per-pair sampling seed, which can in principle make two isomorphic
problems diverge *near* a budget edge.  Reduction is always on; the
builtin-app property test (the sweep ≡ a plain ``verify_pair`` loop,
byte-identical restriction sets) pins this in practice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from ..soir import commands as C
from ..soir import expr as E
from ..soir.path import AnalysisResult, CodePath
from ..soir.schema import ModelSchema, RelationSchema, Schema
from ..soir.serialize import path_to_obj, type_to_obj
from ..verifier.enumcheck import CheckConfig
from ..verifier.restrictions import CheckResult, Outcome, PairVerdict
from ..verifier.runner import PRUNE_RW, PathFacts, classify_facts

#: bump when canonicalization rules change — part of the class digest, so
#: stale class keys can never alias across versions of the rules
REDUCTION_VERSION = 1

_PREFIX = {"model": "M", "relation": "R", "field": "F",
           "var": "v", "opaque": "u"}


class _Renamer:
    """First-occurrence positional renaming, one namespace per kind.

    Injective by construction: within a kind, distinct original names
    always get distinct tokens, so canonicalization can merge only
    genuinely isomorphic problems."""

    def __init__(self) -> None:
        self.maps: dict[str, dict[str, str]] = {
            kind: {} for kind in _PREFIX
        }

    def rename(self, kind: str, name: str) -> str:
        table = self.maps[kind]
        token = table.get(name)
        if token is None:
            token = f"{_PREFIX[kind]}{len(table)}"
            table[name] = token
        return token

    def index(self, kind: str, name: str) -> int | None:
        token = self.maps[kind].get(name)
        return None if token is None else int(token[len(_PREFIX[kind]):])


class PlanFacts(PathFacts):
    """Everything the sweep's per-pair rules read from one path: the
    fast layers' :class:`~repro.verifier.runner.PathFacts` plus the
    read/write footprint and the serialized form canonicalization walks.
    :func:`plan_sweep` builds one per effectful path, so each fact is
    derived at most once per plan; the per-pair wrappers
    (:func:`prune_pair`, :func:`rw_disjoint`, :func:`canonical_case`)
    build fresh ones and reach the same answers."""

    @cached_property
    def footprint(self) -> tuple[frozenset, frozenset]:
        return rw_footprint(self.path, self.schema)

    @cached_property
    def obj(self) -> dict:
        return path_to_obj(self.path)


# ---------------------------------------------------------------------------
# Canonicalization.  Operates on the serialize.py JSON shapes so the
# canonical form is exactly what the checkers consume, then renames every
# name-bearing key through one shared renamer.
# ---------------------------------------------------------------------------


def _canon_type(t, rn: _Renamer):
    if isinstance(t, str):
        return t
    kind = t["kind"]
    if kind in ("obj", "set", "ref"):
        return {"kind": kind, "model": rn.rename("model", t["model"])}
    if kind == "list":
        return {"kind": "list", "elem": _canon_type(t["elem"], rn)}
    return t


def _canon_relpath(relpath, rn: _Renamer):
    return [{"relation": rn.rename("relation", h["relation"]),
             "direction": h["direction"]} for h in relpath]


def _canon_expr(o: dict, rn: _Renamer) -> dict:
    n = o["node"]
    out: dict = {"node": n}
    if n == "Lit":
        out["value"] = o["value"]
        out["type"] = _canon_type(o["type"], rn)
    elif n == "NoneLit":
        out["type"] = _canon_type(o["type"], rn)
    elif n == "Var":
        out["name"] = rn.rename("var", o["name"])
        out["type"] = _canon_type(o["type"], rn)
    elif n == "Opaque":
        out["name"] = rn.rename("opaque", o["name"])
        out["type"] = _canon_type(o["type"], rn)
        out["deps"] = [_canon_expr(d, rn) for d in o.get("deps", ())]
    elif n in ("BinOp", "Cmp"):
        out["op"] = o["op"]
        out["left"] = _canon_expr(o["left"], rn)
        out["right"] = _canon_expr(o["right"], rn)
    elif n in ("Neg", "Not"):
        out["operand"] = _canon_expr(o["operand"], rn)
    elif n in ("And", "Or"):
        out["args"] = [_canon_expr(a, rn) for a in o["args"]]
    elif n == "Ite":
        out["cond"] = _canon_expr(o["cond"], rn)
        out["then"] = _canon_expr(o["then"], rn)
        out["else"] = _canon_expr(o["else"], rn)
    elif n == "FieldGet":
        out["obj"] = _canon_expr(o["obj"], rn)
        out["field"] = rn.rename("field", o["field"])
        out["type"] = _canon_type(o["type"], rn)
    elif n == "SetField":
        out["field"] = rn.rename("field", o["field"])
        out["value"] = _canon_expr(o["value"], rn)
        out["obj"] = _canon_expr(o["obj"], rn)
    elif n == "MakeObj":
        out["model"] = rn.rename("model", o["model"])
        out["fields"] = [[rn.rename("field", fname), _canon_expr(v, rn)]
                         for fname, v in o["fields"]]
    elif n == "MapSet":
        out["qs"] = _canon_expr(o["qs"], rn)
        out["field"] = rn.rename("field", o["field"])
        out["value"] = _canon_expr(o["value"], rn)
    elif n in ("Singleton", "RefOf"):
        out["obj"] = _canon_expr(o["obj"], rn)
    elif n == "Deref":
        out["ref"] = _canon_expr(o["ref"], rn)
        out["model"] = rn.rename("model", o["model"])
    elif n in ("AnyOf", "FirstOf", "LastOf", "ReverseSet", "IsEmpty"):
        out["qs"] = _canon_expr(o["qs"], rn)
    elif n == "All":
        out["model"] = rn.rename("model", o["model"])
    elif n == "Filter":
        out["qs"] = _canon_expr(o["qs"], rn)
        out["relpath"] = _canon_relpath(o["relpath"], rn)
        out["field"] = rn.rename("field", o["field"])
        out["op"] = o["op"]
        out["value"] = _canon_expr(o["value"], rn)
    elif n == "Follow":
        out["qs"] = _canon_expr(o["qs"], rn)
        out["relpath"] = _canon_relpath(o["relpath"], rn)
        out["target"] = rn.rename("model", o["target"])
    elif n == "OrderBy":
        out["qs"] = _canon_expr(o["qs"], rn)
        out["field"] = rn.rename("field", o["field"])
        out["order"] = o["order"]
    elif n == "Aggregate":
        out["qs"] = _canon_expr(o["qs"], rn)
        out["agg"] = o["agg"]
        out["field"] = rn.rename("field", o["field"])
        out["type"] = _canon_type(o["type"], rn)
    elif n == "Exists":
        out["model"] = rn.rename("model", o["model"])
        out["ref"] = _canon_expr(o["ref"], rn)
    elif n == "MemberOf":
        out["obj"] = _canon_expr(o["obj"], rn)
        out["qs"] = _canon_expr(o["qs"], rn)
    else:  # future node kinds: fall back to no sharing, never to aliasing
        raise ValueError(f"uncanonicalizable node {n!r}")
    return out


def _canon_command(o: dict, rn: _Renamer) -> dict:
    kind = o["cmd"]
    out: dict = {"cmd": kind}
    if kind == "guard":
        out["cond"] = _canon_expr(o["cond"], rn)
    elif kind in ("update", "delete"):
        out["qs"] = _canon_expr(o["qs"], rn)
    elif kind in ("link", "delink"):
        out["relation"] = rn.rename("relation", o["relation"])
        out["src"] = _canon_expr(o["src"], rn)
        out["dst"] = _canon_expr(o["dst"], rn)
    elif kind == "rlink":
        out["relation"] = rn.rename("relation", o["relation"])
        out["srcs"] = _canon_expr(o["srcs"], rn)
        out["dst"] = _canon_expr(o["dst"], rn)
    elif kind == "clearlinks":
        out["relation"] = rn.rename("relation", o["relation"])
        out["obj"] = _canon_expr(o["obj"], rn)
        out["end"] = o["end"]
    else:
        raise ValueError(f"uncanonicalizable command {kind!r}")
    return out


def _canon_path(o: dict, rn: _Renamer, label: str) -> dict:
    return {
        # labels (name, view, branch_trace, abort_reason) carry no check
        # semantics — normalized away so label-only differences share
        "name": label,
        "args": [
            {"name": rn.rename("var", a["name"]),
             "type": _canon_type(a["type"], rn),
             "source": a["source"], "unique_id": a["unique_id"]}
            for a in o["args"]
        ],
        "commands": [_canon_command(c, rn) for c in o["commands"]],
        "aborted": o["aborted"],
        "conservative": o["conservative"],
    }


def _canon_model(m: ModelSchema, rn: _Renamer) -> dict:
    return {
        "name": rn.rename("model", m.name),
        "pk": rn.rename("field", m.pk),
        "auto_pk": m.auto_pk,
        "unique_together": [[rn.rename("field", f) for f in group]
                            for group in m.unique_together],
        # declaration order is kept: it seeds state enumeration order
        "fields": [
            {"name": rn.rename("field", f.name),
             "type": _canon_type(type_to_obj(f.type), rn),
             "unique": f.unique, "nullable": f.nullable,
             "min_value": f.min_value,
             "choices": list(f.choices) if f.choices else None}
            for f in m.fields
        ],
    }


def _canon_relation(r: RelationSchema, rn: _Renamer) -> dict:
    return {
        "name": rn.rename("relation", r.name),
        "source": rn.rename("model", r.source),
        "target": rn.rename("model", r.target),
        "kind": r.kind, "on_delete": r.on_delete,
        # reverse_name is an analyzer-side label, not check semantics
        "nullable": r.nullable,
    }


def canonical_case(
    paths: tuple[CodePath, ...] | list[CodePath], schema: Schema,
) -> tuple[str, dict[str, dict[str, str]]]:
    """Canonicalize a complete check problem over ``len(paths)`` paths.

    The two-path payload shape is exactly :func:`canonical_pair`'s
    historical one (``"p"``/``"q"`` keys), so pair digests — and with
    them every signature-class cache key — are unchanged; k-path
    problems (the difftest schedule oracle) use a ``"paths"`` list and
    can never alias a pair digest."""
    return canonical_facts([PlanFacts(p, schema) for p in paths], schema)


def canonical_facts(
    facts: tuple[PlanFacts, ...] | list[PlanFacts], schema: Schema,
) -> tuple[str, dict[str, dict[str, str]]]:
    """:func:`canonical_case` over precomputed :class:`PlanFacts`."""
    rn = _Renamer()
    labels = [chr(ord("P") + i) for i in range(len(facts))]
    objs = [_canon_path(f.obj, rn, label) for f, label in zip(facts, labels)]

    # The touched sub-schema is exactly the model-finder's scope footprint:
    # touched models ∪ touched relations (``models_touched`` already
    # holds every touched relation's endpoint models).
    models: set[str] = set()
    rels: set[str] = set()
    for f in facts:
        models |= f.models
        rels |= f.relations

    # Elements already named during the path walk come first, in token
    # order; the rest follow in original-name order (deterministic, at
    # worst costing sharing across pure schema-name permutations).
    def ordered(names: set[str], kind: str) -> list[str]:
        return sorted(names, key=lambda n: (
            (0, rn.index(kind, n)) if rn.index(kind, n) is not None
            else (1, n)))

    payload = {
        "v": REDUCTION_VERSION,
        "models": [_canon_model(schema.model(name), rn)
                   for name in ordered(models, "model")],
        "relations": [_canon_relation(schema.relation(name), rn)
                      for name in ordered(rels, "relation")],
    }
    if len(facts) == 2:
        payload["p"], payload["q"] = objs
    else:
        payload["paths"] = objs
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), rn.maps


def canonical_pair(
    p: CodePath, q: CodePath, schema: Schema,
) -> tuple[str, dict[str, dict[str, str]]]:
    """Canonicalize one pair's complete check problem.

    Returns ``(class_key, maps)``: the signature-class digest and the
    per-kind ``original name -> token`` maps used to produce it (the raw
    material for member → representative renamings)."""
    return canonical_case((p, q), schema)


def renaming_between(
    member_maps: dict[str, dict[str, str]],
    rep_maps: dict[str, dict[str, str]],
) -> dict[str, dict[str, str]]:
    """Member → representative renaming, composed through the canonical
    tokens.  Identity entries are dropped; empty kinds are omitted."""
    out: dict[str, dict[str, str]] = {}
    for kind, table in member_maps.items():
        inverse = {tok: name for name, tok in rep_maps.get(kind, {}).items()}
        pairs = {
            name: inverse[tok]
            for name, tok in table.items()
            if tok in inverse and inverse[tok] != name
        }
        if pairs:
            out[kind] = pairs
    return out


# ---------------------------------------------------------------------------
# Read/write footprints.
# ---------------------------------------------------------------------------

_ROWS = "rows"
_FIELD = "field"
_ASSOC = "assoc"


def _qs_model(e: E.Expr) -> str | None:
    t = e.type
    return t.model if t.is_model_type() else None


def _terminal_model(qs: E.Expr, relpath, schema: Schema) -> str | None:
    """The model a filter's field lives on: the query-set model, or the
    far end of the final relation hop when a relpath is present."""
    if relpath:
        hop = relpath[-1]
        r = schema.relation(hop.relation)
        forward = getattr(hop.direction, "value", hop.direction) == "forward"
        return r.target if forward else r.source
    return _qs_model(qs)


def rw_footprint(
    path: CodePath, schema: Schema,
) -> tuple[frozenset, frozenset]:
    """Column-level ``(reads, writes)`` footprint of one path.

    Tokens: ``("rows", model)`` for row existence/cardinality/order,
    ``("field", model, field)`` for one column, ``("assoc", relation)``
    for one association set.  The extraction is deliberately
    conservative: uniqueness constraints add implicit reads (an insert or
    unique-column write observes the competing rows), deletes write the
    full cascade closure, updates whose query set can denote a *missing*
    row (``Deref``/``MakeObj``-rooted — upserts under apply semantics,
    since guards do not re-run at remote replicas and a missing ``Deref``
    ghosts) write row existence and every defaulted column, and any
    model-typed expression reads row existence — so a missed interaction
    means a missed *prune*, never a missed conflict."""
    reads: set = set()
    writes: set = set()

    def field_groups(model: str, fname: str) -> list[tuple[str, ...]]:
        m = schema.model(model)
        groups = [g for g in m.unique_together if fname in g]
        f = next((f for f in m.fields if f.name == fname), None)
        if f is not None and (f.unique or fname == m.pk):
            groups.append((fname,))
        return groups

    def write_field(model: str | None, fname: str) -> None:
        if model is None:
            return
        writes.add((_FIELD, model, fname))
        # Writing into a uniqueness constraint observes every competing
        # row: the write's validity reads the group columns and the row
        # population itself.
        for group in field_groups(model, fname):
            reads.add((_ROWS, model))
            for member in group:
                reads.add((_FIELD, model, member))

    def visit(node: E.Expr) -> None:
        t = node.type
        if t.is_model_type():
            reads.add((_ROWS, t.model))
        if isinstance(node, E.FieldGet):
            model = _qs_model(node.obj)
            if model is not None:
                reads.add((_FIELD, model, node.field))
        elif isinstance(node, E.SetField):
            write_field(_qs_model(node.obj), node.field)
        elif isinstance(node, E.MapSet):
            write_field(_qs_model(node.qs), node.field)
        elif isinstance(node, E.MakeObj):
            m = schema.model(node.model)
            reads.add((_ROWS, node.model))
            writes.add((_ROWS, node.model))
            for fname, _ in node.fields:
                write_field(node.model, fname)
            write_field(node.model, m.pk)
        elif isinstance(node, (E.Filter, E.Follow)):
            for hop in node.relpath:
                reads.add((_ASSOC, hop.relation))
            if isinstance(node, E.Filter):
                model = _terminal_model(node.qs, node.relpath, schema)
                if model is not None:
                    reads.add((_FIELD, model, node.field))
        elif isinstance(node, (E.OrderBy, E.Aggregate)):
            model = _qs_model(node.qs)
            if model is not None and node.field:
                reads.add((_FIELD, model, node.field))
        elif isinstance(node, E.Exists):
            reads.add((_ROWS, node.model))

    def may_create(e: E.Expr) -> bool:
        """Whether an object/query-set expression can denote a row that
        is absent from the state.  Merging such an object *inserts* it:
        ``Deref`` of a missing pk ghosts under apply semantics (guards
        do not re-run at remote replicas) and ``MakeObj`` is a literal
        insert, so an update rooted in either writes row existence —
        and, through the ghost's defaulted columns, every field."""
        if isinstance(e, (E.Deref, E.MakeObj)):
            return True
        if isinstance(e, (E.All, E.Filter, E.Follow, E.OrderBy,
                          E.ReverseSet)):
            return False  # state queries only yield existing rows
        if isinstance(e, (E.SetField, E.FieldGet)):
            return may_create(e.obj)
        if isinstance(e, E.MapSet):
            return may_create(e.qs)
        if isinstance(e, E.Singleton):
            return may_create(e.obj)
        if isinstance(e, (E.AnyOf, E.FirstOf, E.LastOf)):
            return may_create(e.qs)
        if isinstance(e, E.Ite):
            return may_create(e.then_) or may_create(e.else_)
        return True  # unknown provenance: assume it can create

    for cmd in path.commands:
        for node in cmd.walk_exprs():
            visit(node)
        rel = getattr(cmd, "relation", None)
        if rel is not None:  # link / delink / rlink / clearlinks
            reads.add((_ASSOC, rel))
            writes.add((_ASSOC, rel))
        if isinstance(cmd, C.Update):
            t = cmd.qs.type
            if t.is_model_type() and may_create(cmd.qs):
                # An upserting update writes the row population and the
                # full ghost row; insertion validity also observes the
                # competing rows (uniqueness).
                reads.add((_ROWS, t.model))
                writes.add((_ROWS, t.model))
                for f in schema.model(t.model).fields:
                    write_field(t.model, f.name)
        if isinstance(cmd, C.Delete):
            # Deleting writes row existence for the whole cascade closure
            # and rewrites every incident association set; referential
            # actions (protect) also read them.  Mirrors the closure in
            # CodePath.relations_touched.
            t = cmd.qs.type
            if t.is_model_type():
                frontier = {t.model}
                seen = {t.model}
                while frontier:
                    m = frontier.pop()
                    reads.add((_ROWS, m))
                    writes.add((_ROWS, m))
                    for r in schema.relations_of(m):
                        reads.add((_ASSOC, r.name))
                        writes.add((_ASSOC, r.name))
                        if (r.target == m and r.on_delete == "cascade"
                                and r.source not in seen):
                            seen.add(r.source)
                            frontier.add(r.source)
    return frozenset(reads), frozenset(writes)


def rw_disjoint(p: CodePath, q: CodePath, schema: Schema) -> bool:
    """Whether the classic conflict condition clears this pair: neither
    path writes anything the other reads or writes.  Such a pair
    commutes and cannot invalidate — both checks pass solver-free."""
    return rw_disjoint_facts(PlanFacts(p, schema), PlanFacts(q, schema))


def rw_disjoint_facts(pf: PlanFacts, qf: PlanFacts) -> bool:
    """:func:`rw_disjoint` over precomputed :class:`PlanFacts`."""
    p_reads, p_writes = pf.footprint
    q_reads, q_writes = qf.footprint
    return (
        not (p_writes & (q_reads | q_writes))
        and not (q_writes & (p_reads | p_writes))
    )


def prune_pair(
    p: CodePath, q: CodePath, schema: Schema, config: CheckConfig,
) -> tuple[PairVerdict, str] | None:
    """The sweep's solver-free layers: :func:`~repro.verifier.runner
    .classify_pair`'s fast paths, then read/write disjointness.

    Returns ``(verdict, prune_tag)`` when a layer decides the pair, or
    ``None`` when it needs a solver."""
    return prune_facts(PlanFacts(p, schema), PlanFacts(q, schema),
                       config or CheckConfig())


def prune_facts(
    pf: PlanFacts, qf: PlanFacts, config: CheckConfig,
) -> tuple[PairVerdict, str] | None:
    """:func:`prune_pair` over precomputed :class:`PlanFacts`."""
    classified = classify_facts(pf, qf, config)
    if classified is not None or not rw_disjoint_facts(pf, qf):
        return classified
    p, q = pf.path, qf.path
    verdict = PairVerdict(p.name, q.name, left_view=p.view,
                          right_view=q.view)
    for kind in ("commutativity", "semantic"):
        setattr(verdict, kind, CheckResult(
            p.name, q.name, kind, Outcome.PASS,
            detail="disjoint read/write footprints"))
    verdict.provenance = {"source": "pruned", "tag": PRUNE_RW}
    return verdict, PRUNE_RW


# ---------------------------------------------------------------------------
# Sweep planning.  One solver-free pass: the scheduler executes it and
# hands it back, the service daemon and cache maintenance read it.
# ---------------------------------------------------------------------------

ROUTE_PRUNED = "pruned"
ROUTE_CACHED = "cached"
ROUTE_SHARED = "shared"
ROUTE_SOLVE = "solve"


@dataclass
class PairPlan:
    """The solver-free resolution of one sweep pair."""

    slot: int
    i: int
    j: int
    left: CodePath
    right: CodePath
    route: str
    tag: str = ""                      # prune tag when route == "pruned"
    verdict: PairVerdict | None = None  # pruned / cached verdict
    saved_s: float = 0.0               # cached only
    fp: str | None = None              # pair fingerprint (non-pruned)
    class_key: str = ""                # signature class
    rep_slot: int | None = None        # shared: the representative's slot
    renaming: dict | None = None       # shared: member -> rep names


@dataclass
class SweepPlan:
    """Every pair's plan plus the class-level summary."""

    pairs: list[PairPlan] = field(default_factory=list)
    classes: int = 0        # distinct signature classes seen
    shared: int = 0         # pairs resolved by verdict sharing
    solver_calls: int = 0   # pairs the solver must actually visit

    def live_fingerprints(self) -> set[str]:
        return {p.fp for p in self.pairs if p.fp is not None}

    def invalidated(self) -> list[tuple[str, str]]:
        return [(p.left.name, p.right.name)
                for p in self.pairs if p.route == ROUTE_SOLVE]


def plan_sweep(
    analysis: AnalysisResult,
    config: CheckConfig | None = None,
    *,
    engine: str = "enum",
    cache=None,
    fingerprints=None,
) -> SweepPlan:
    """Resolve every sweep pair through the solver-free layers.

    ``cache``/``fingerprints`` are a :class:`~repro.engine.cache
    .ResultCache` and :class:`~repro.engine.fingerprint
    .FingerprintContext` (both optional, supplied together).  Pairs that
    :func:`prune_pair` cannot decide are assigned to their signature
    class: the first member of a class becomes its *representative* (a
    cache hit also claims representativeship — its stored verdict is
    shared), and later members resolve as :data:`ROUTE_SHARED` with the
    member → representative renaming attached.

    Determinism: pairs are visited in sweep order (``i <= j``), so the
    representative choice — and therefore solver-call count — is a pure
    function of the analysis, config and cache state.  This is the
    single source of truth for "which pairs does a sweep solve": the
    scheduler executes this plan and returns it as ``report.plan``, and
    the service daemon reads :meth:`SweepPlan.invalidated` from it.

    Each effectful path's :class:`PlanFacts` is built once here, so the
    per-pair work is set intersections, canonical renaming and hashing;
    the per-pair entry points (:func:`prune_pair`,
    :func:`canonical_pair`) reach the same answers."""
    config = config or CheckConfig()
    schema = analysis.schema
    facts = [PlanFacts(p, schema) for p in analysis.effectful_paths]
    plan = SweepPlan()
    # class key -> (representative slot, representative maps)
    class_index: dict[str, tuple[int, dict]] = {}

    for i, pf in enumerate(facts):
        p = pf.path
        for j in range(i, len(facts)):
            qf = facts[j]
            q = qf.path
            slot = len(plan.pairs)
            classified = prune_facts(pf, qf, config)
            if classified is not None:
                verdict, tag = classified
                plan.pairs.append(PairPlan(
                    slot, i, j, p, q, ROUTE_PRUNED, tag=tag,
                    verdict=verdict))
                continue
            fp = None
            if fingerprints is not None:
                fp = fingerprints.pair(p, q)
            class_key, maps = canonical_facts((pf, qf), schema)
            hit = cache.get(fp) if (cache is not None and fp) else None
            if hit is not None:
                verdict, saved_s = hit
                plan.pairs.append(PairPlan(
                    slot, i, j, p, q, ROUTE_CACHED, verdict=verdict,
                    saved_s=saved_s, fp=fp, class_key=class_key))
                # A warm verdict seeds its class: later members share it
                # instead of re-solving.
                class_index.setdefault(class_key, (slot, maps))
                continue
            if class_key in class_index:
                rep_slot, rep_maps = class_index[class_key]
                plan.pairs.append(PairPlan(
                    slot, i, j, p, q, ROUTE_SHARED, fp=fp,
                    class_key=class_key, rep_slot=rep_slot,
                    renaming=renaming_between(maps, rep_maps)))
                plan.shared += 1
                continue
            class_index[class_key] = (slot, maps)
            plan.pairs.append(PairPlan(
                slot, i, j, p, q, ROUTE_SOLVE, fp=fp,
                class_key=class_key))
            plan.solver_calls += 1

    plan.classes = len(class_index)
    return plan


def shared_verdict(
    rep_verdict: PairVerdict,
    member: PairPlan,
) -> PairVerdict:
    """Relabel a representative's verdict for a class member.

    The member keeps the representative's outcomes and witnesses (valid
    modulo the recorded renaming) but reports zero solve time — no
    solver ran for it — and carries full provenance: class key,
    representative pair and member → representative renaming."""
    p, q = member.left, member.right
    out = PairVerdict(p.name, q.name, left_view=p.view, right_view=q.view)
    out.provenance = {
        "source": "shared",
        "class": member.class_key,
        "representative": [rep_verdict.left, rep_verdict.right],
        "renaming": member.renaming or {},
    }
    for attr in ("commutativity", "semantic"):
        check = getattr(rep_verdict, attr)
        if check is not None:
            setattr(out, attr, dataclasses.replace(
                check, left=p.name, right=q.name, elapsed_s=0.0))
    return out
