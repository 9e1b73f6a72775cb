"""A finite-domain model finder over the term language.

The reproduction's stand-in for Z3 (DESIGN.md §2): every free variable is
given a finite candidate domain, and the solver searches for an assignment
satisfying all asserted terms by depth-first enumeration with *partial
evaluation* — under a partial assignment every assertion evaluates to
``True``, ``False`` or *unknown*; any definite ``False`` prunes the whole
subtree.  Three-valued evaluation makes the common case cheap: equality
chains and guard contradictions cut the search space long before all
variables are assigned.

Like the paper's use of Z3 (§5.2), the intended mode is *counterexample
finding*: assert the negation of the property and ask for a model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..metrics.registry import inc as _metric_inc, observe as _metric_observe
from ..obs import tracer as obs
from .terms import App, Const, Term, Var

#: three-valued "unknown"
UNKNOWN = object()


class SolverTimeout(Exception):
    """The search budget was exhausted before a verdict."""


class SolverError(Exception):
    """An internal solver invariant broke (bad encoding, missing domain,
    blown recursion...).

    Distinct from :class:`SolverTimeout`: a timeout is a *decided*,
    conservative outcome, while a ``SolverError`` means the backend
    produced no verdict at all.  The verification engine classifies it
    as a ``solver-error`` failure and retries the pair on the enum
    backend before degrading to an ``unknown`` verdict."""


@dataclass
class Model:
    """A satisfying assignment."""

    assignment: dict[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.assignment[name]


@dataclass
class Solver:
    """Assert terms, declare domains, search for a model."""

    assertions: list[Term] = field(default_factory=list)
    domains: dict[str, list] = field(default_factory=dict)

    def add(self, term: Term) -> None:
        self.assertions.append(term)

    def declare(self, name: str, domain: list) -> None:
        if not domain:
            raise ValueError(f"empty domain for {name!r}")
        self.domains[name] = list(domain)

    # ------------------------------------------------------------------

    def check(
        self, *, timeout_s: float = 5.0, priority: list[str] | None = None
    ) -> Model | None:
        """Return a model or ``None`` (no model within the domains).

        ``priority`` names variables to branch on first (a cheap static
        ordering heuristic: the caller knows which variables drive the
        strongest constraints, e.g. operation arguments).

        Each call is traced as a ``solver-call`` span (clause count, free
        variable count, result, model size) when a tracer is active.

        Raises :class:`SolverTimeout` if the budget runs out."""
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            model = self._check(timeout_s=timeout_s, priority=priority)
        except SolverTimeout:
            self._account(started, "timeout")
            obs.record(
                "solver.check", "solver-call",
                wall_s=time.perf_counter() - started,
                cpu_s=time.process_time() - cpu_started, backend="smt",
                clauses=len(self.assertions), variables=len(self.domains),
                result="timeout",
            )
            raise
        result = "sat" if model is not None else "unsat"
        self._account(started, result)
        obs.record(
            "solver.check", "solver-call",
            wall_s=time.perf_counter() - started,
            cpu_s=time.process_time() - cpu_started, backend="smt",
            clauses=len(self.assertions), variables=len(self.domains),
            result=result,
            model_size=len(model.assignment) if model is not None else 0,
        )
        return model

    def _account(self, started: float, result: str) -> None:
        """Feed the ambient metrics registry (no-op when disabled)."""
        _metric_inc("noctua_solver_calls_total", backend="smt", result=result)
        _metric_observe("noctua_solver_call_seconds",
                        time.perf_counter() - started, backend="smt")
        _metric_observe("noctua_solver_clauses", len(self.assertions),
                        backend="smt")

    def _check(
        self, *, timeout_s: float = 5.0, priority: list[str] | None = None
    ) -> Model | None:
        free: list[str] = []
        seen: set[str] = set()
        for assertion in self.assertions:
            for node in assertion.walk():
                if isinstance(node, Var) and node.name not in seen:
                    seen.add(node.name)
                    if node.name not in self.domains:
                        raise ValueError(f"no domain declared for {node.name!r}")
                    free.append(node.name)
        if priority:
            # Dedupe while keeping order: a name listed twice would be
            # re-bound mid-search after assertions mentioning it were
            # already dropped as satisfied, yielding unsound models.
            ranked = list(dict.fromkeys(n for n in priority if n in seen))
            rest = [n for n in free if n not in set(ranked)]
            free = ranked + rest
        deadline = time.perf_counter() + timeout_s
        env: dict[str, Any] = {}
        # Assertions are re-checked as variables get bound; track which are
        # already definitely true to avoid re-evaluating them.
        pending = list(self.assertions)
        result = self._search(free, 0, env, pending, deadline)
        if result is None:
            return None
        return Model(dict(result))

    def _search(self, free, index, env, pending, deadline):
        if time.perf_counter() > deadline:
            raise SolverTimeout()
        still_pending = []
        for assertion in pending:
            value = evaluate(assertion, env)
            if value is False:
                return None
            if value is not True:
                still_pending.append(assertion)
        if not still_pending:
            # Every assertion already holds: the remaining variables are
            # unconstrained — fill them with arbitrary domain values.
            for name in free[index:]:
                env.setdefault(name, self.domains[name][0])
            return env
        if index == len(free):
            return None
        name = free[index]
        for candidate in self.domains[name]:
            env[name] = candidate
            result = self._search(free, index + 1, env, still_pending, deadline)
            if result is not None:
                return result
        del env[name]
        return None


# ---------------------------------------------------------------------------
# Three-valued evaluation
# ---------------------------------------------------------------------------


def evaluate(term: Term, env: dict[str, Any]):
    """Evaluate under a partial assignment: value, or UNKNOWN."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return env.get(term.name, UNKNOWN)
    assert isinstance(term, App)
    op = term.op

    if op == "and":
        any_unknown = False
        for arg in term.args:
            value = evaluate(arg, env)
            if value is False:
                return False
            if value is UNKNOWN:
                any_unknown = True
        return UNKNOWN if any_unknown else True
    if op == "or":
        any_unknown = False
        for arg in term.args:
            value = evaluate(arg, env)
            if value is True:
                return True
            if value is UNKNOWN:
                any_unknown = True
        return UNKNOWN if any_unknown else False
    if op == "not":
        value = evaluate(term.args[0], env)
        return UNKNOWN if value is UNKNOWN else not value
    if op == "ite":
        cond = evaluate(term.args[0], env)
        if cond is UNKNOWN:
            # Both branches agreeing still yields a definite value.
            then = evaluate(term.args[1], env)
            other = evaluate(term.args[2], env)
            if then is not UNKNOWN and then == other:
                return then
            return UNKNOWN
        return evaluate(term.args[1 if cond else 2], env)

    values = [evaluate(arg, env) for arg in term.args]
    if any(v is UNKNOWN for v in values):
        return UNKNOWN

    if op == "eq":
        return values[0] == values[1]
    if op == "is_null":
        return values[0] is None
    if op in ("add", "sub", "mul", "neg", "lt", "le", "concat",
              "contains", "startswith"):
        left = values[0]
        right = values[1] if len(values) > 1 else None
        if left is None or right is None and op != "neg":
            # NULL propagation: arithmetic on NULL is NULL-ish; ordered
            # comparisons with NULL are false (SQL semantics).
            return False if op in ("lt", "le", "contains", "startswith") else None
        try:
            if op == "add":
                return left + right
            if op == "sub":
                return left - right
            if op == "mul":
                return left * right
            if op == "neg":
                return -left
            if op == "lt":
                return left < right
            if op == "le":
                return left <= right
            if op == "concat":
                return str(left) + str(right)
            if op == "contains":
                return str(right) in str(left)
            if op == "startswith":
                return str(left).startswith(str(right))
        except TypeError:
            return False if op in ("lt", "le") else None
    raise ValueError(f"unknown operator {op!r}")
