"""Code paths: the unit of analysis and verification.

The analysis result of an application is a set of code paths encoded in
SOIR.  Each code path consists of (1) arguments, (2) path conditions and
(3) commands (paper §3.1).  We interleave guards with effectful commands in
a single command list, preserving program order; the path conditions are
exactly the guard conditions, each interpreted at its program point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .commands import Command, Guard
from .expr import Expr, Var
from .schema import Schema
from .types import SoirType


@dataclass(frozen=True)
class Argument:
    """One argument of a code path.

    ``source`` records where the analyzer discovered the argument:
    ``"url"`` (URL pattern parameter), ``"post"``/``"get"`` (request data),
    ``"fresh"`` (a storage-assigned fresh ID for an inserted object) or
    ``"opaque"`` (an unanalyzable external value).

    ``unique_id`` marks arguments that the geo-replicated storage
    guarantees to be globally unique; the verifier's unique-ID optimisation
    asserts ``distinct`` over them (paper §5.2).
    """

    name: str
    type: SoirType
    source: str = "post"
    unique_id: bool = False

    def var(self) -> Var:
        return Var(self.name, self.type)


@dataclass(frozen=True)
class CodePath:
    """One effectful (or read-only) code path of one view function."""

    name: str
    args: tuple[Argument, ...]
    commands: tuple[Command, ...]
    view: str = ""
    #: truth assignment of branch decisions that selects this path, for
    #: provenance / debugging (e.g. ``(("action == 'delete'", True),)``).
    branch_trace: tuple[tuple[str, bool], ...] = ()
    #: the path terminated in an exception: its effects are rolled back and
    #: never replicate, so it is never effectful.
    aborted: bool = False
    #: the analyzer met unsupported semantics on this path and fell back to
    #: the conservative strategy: the verifier restricts it against every
    #: operation, including itself (paper §3.3).
    conservative: bool = False
    abort_reason: str = ""

    @property
    def conditions(self) -> tuple[Expr, ...]:
        """The path conditions: every guard's condition, in program order."""
        return tuple(c.cond for c in self.commands if isinstance(c, Guard))

    @cached_property
    def effects(self) -> tuple[Command, ...]:
        """The effectful commands (everything except guards); computed
        once per path, since replication replays it per candidate."""
        return tuple(c for c in self.commands if not isinstance(c, Guard))

    def is_effectful(self) -> bool:
        """Whether this path updates system state (paper §4.1)."""
        if self.aborted:
            return False
        if self.conservative:
            return True
        return any(c.is_effectful() for c in self.commands)

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(name)

    def models_touched(self, schema: Schema) -> frozenset[str]:
        """Every model this path reads or writes, including models reached
        through relation hops and referential actions — the *footprint* used
        by the verifier's fast disjointness layer."""
        out: set[str] = set()
        for cmd in self.commands:
            for node in cmd.walk_exprs():
                t = node.type
                if t.is_model_type():
                    out.add(t.model)
        for rname in self.relations_touched(schema):
            r = schema.relation(rname)
            out.add(r.source)
            out.add(r.target)
        return frozenset(out)

    def relations_touched(self, schema: Schema) -> frozenset[str]:
        """Every relation this path reads or writes."""
        rels: set[str] = set()
        for cmd in self.commands:
            rel = getattr(cmd, "relation", None)
            if rel is not None:
                rels.add(rel)
            for node in cmd.walk_exprs():
                relpath = getattr(node, "relpath", None)
                if relpath:
                    for hop in relpath:
                        rels.add(hop.relation)
        # Deletes implicitly touch every relation incident to the deleted
        # model — target-side through referential actions, source-side
        # because the deleted rows' own associations are removed —
        # transitively through cascades.
        deleted = self._deleted_models(schema)
        frontier = set(deleted)
        seen: set[str] = set(deleted)
        while frontier:
            m = frontier.pop()
            for r in schema.relations_of(m):
                rels.add(r.name)
                if (
                    r.target == m
                    and r.on_delete == "cascade"
                    and r.source not in seen
                ):
                    seen.add(r.source)
                    frontier.add(r.source)
        return frozenset(rels)

    def _deleted_models(self, schema: Schema) -> set[str]:
        from .commands import Delete

        out: set[str] = set()
        for cmd in self.commands:
            if isinstance(cmd, Delete):
                t = cmd.qs.type
                if t.is_model_type():
                    out.add(t.model)
        return out

    def uses_order(self) -> bool:
        """Whether any order-related primitive occurs in this path.

        Drives the lazy materialisation of the ``order`` component in the
        verifier's decoupled encoding (paper §4.2)."""
        from .expr import FirstOf, LastOf, OrderBy, ReverseSet

        for cmd in self.commands:
            for node in cmd.walk_exprs():
                if isinstance(node, (OrderBy, ReverseSet, FirstOf, LastOf)):
                    return True
        return False


@dataclass
class AnalysisResult:
    """Everything the analyzer learned about one application."""

    app_name: str
    schema: Schema
    paths: list[CodePath] = field(default_factory=list)
    #: wall-clock seconds spent analyzing, per phase
    timings: dict[str, float] = field(default_factory=dict)
    #: free-form notes (conservative fallbacks taken, annotations used, ...)
    notes: list[str] = field(default_factory=list)

    @property
    def effectful_paths(self) -> list[CodePath]:
        return [p for p in self.paths if p.is_effectful()]

    def stats(self) -> dict[str, object]:
        """The per-application statistics reported in the paper's Table 4."""
        return {
            "app": self.app_name,
            "models": len(self.schema.models),
            "relations": len(self.schema.relations),
            "code_paths": len(self.paths),
            "effectful_paths": len(self.effectful_paths),
            "analysis_time_s": self.timings.get("analysis", 0.0),
        }
