"""The pairwise verification driver.

For every unordered pair of *effectful* code paths (including a path with
itself), runs the commutativity and semantic checks and aggregates the
restriction set.  Fast paths keep the quadratic sweep tractable:

* a pair involving a *conservative* path is restricted without solving
  (paper §3.3);
* with the order encoding disabled, a pair using order primitives is
  restricted without solving (the classic order-less array encoding);
* a pair whose footprints (models + relations, including referential-action
  spill-over) are disjoint cannot interact: both checks pass immediately.

``classify_pair`` resolves the fast layers without touching a solver;
``solve_pair`` runs the actual checkers.  ``verify_pair`` composes the two
and is the unpruned per-pair reference.  The whole-application sweep
(``verify_application``) is executed by the scheduler in
:mod:`repro.engine`, which adds read/write-disjointness pruning,
signature-class sharing, pair memoization and a multiprocessing worker
pool on top of these primitives.
"""

from __future__ import annotations

from functools import cached_property

from ..obs import tracer as obs
from ..soir.path import AnalysisResult, CodePath
from ..soir.schema import Schema
from .enumcheck import CheckConfig, PairChecker
from .restrictions import (
    CheckResult,
    Outcome,
    PairVerdict,
    VerificationReport,
)

#: fast-path tags reported by :func:`classify_pair` (the scheduler's
#: pruning counters are keyed by these)
PRUNE_CONSERVATIVE = "conservative"
PRUNE_ORDER = "order"
PRUNE_DISJOINT = "disjoint"
PRUNE_RW = "rw-disjoint"

#: backends the ``portfolio`` engine tries, in order: a later lane runs
#: only when every earlier one left the pair without a definitive verdict
PORTFOLIO_LANES = ("enum", "smt")


def _new_verdict(p: CodePath, q: CodePath) -> PairVerdict:
    return PairVerdict(p.name, q.name, left_view=p.view, right_view=q.view)


class PathFacts:
    """The per-path inputs of the solver-free fast layers under one
    schema: the models and relations the path touches and whether it uses
    order primitives.  Each is derived on first use and then kept, so a
    sweep plan that builds one per effectful path derives them once per
    path instead of once per pair."""

    def __init__(self, path: CodePath, schema: Schema):
        self.path = path
        self.schema = schema

    @cached_property
    def models(self) -> frozenset[str]:
        return self.path.models_touched(self.schema)

    @cached_property
    def relations(self) -> frozenset[str]:
        return self.path.relations_touched(self.schema)

    @cached_property
    def uses_order(self) -> bool:
        return self.path.uses_order()


def classify_pair(
    p: CodePath,
    q: CodePath,
    schema: Schema,
    config: CheckConfig | None = None,
) -> tuple[PairVerdict, str] | None:
    """Resolve a pair through the solver-free fast layers.

    Returns ``(verdict, prune_tag)`` when one of the fast paths decides
    the pair, or ``None`` when the pair needs actual solving.  The
    sweep adds the finer column-level read/write layer on top
    (:func:`repro.engine.reduction.prune_pair`)."""
    return classify_facts(PathFacts(p, schema), PathFacts(q, schema),
                          config or CheckConfig())


def classify_facts(
    pf: PathFacts, qf: PathFacts, config: CheckConfig,
) -> tuple[PairVerdict, str] | None:
    """:func:`classify_pair` over precomputed :class:`PathFacts`."""
    p, q = pf.path, qf.path
    if p.conservative or q.conservative:
        why = p.name if p.conservative else q.name
        verdict = _new_verdict(p, q)
        for kind in ("commutativity", "semantic"):
            _attach(verdict, CheckResult(
                p.name, q.name, kind, Outcome.CONSERVATIVE,
                detail=f"{why} analyzed conservatively",
            ))
        return verdict, PRUNE_CONSERVATIVE
    if not config.order_enabled and (pf.uses_order or qf.uses_order):
        # Classic order-less array encoding: order-related semantics are
        # unverifiable, so the pair is restricted without solving.
        why = p.name if pf.uses_order else q.name
        verdict = _new_verdict(p, q)
        for kind in ("commutativity", "semantic"):
            _attach(verdict, CheckResult(
                p.name, q.name, kind, Outcome.CONSERVATIVE,
                detail=f"{why} uses order primitives (order encoding off)",
            ))
        return verdict, PRUNE_ORDER
    if not (pf.models & qf.models) and not (pf.relations & qf.relations):
        verdict = _new_verdict(p, q)
        for kind in ("commutativity", "semantic"):
            _attach(verdict, CheckResult(
                p.name, q.name, kind, Outcome.PASS,
                detail="disjoint footprint",
            ))
        return verdict, PRUNE_DISJOINT
    return None


def definitive(verdict: PairVerdict) -> bool:
    """Whether every check of ``verdict`` reached a real answer.

    ``PASS`` and ``FAIL`` are definitive; ``TIMEOUT`` / ``CONSERVATIVE``
    / ``UNKNOWN`` are budget or capability artifacts the next portfolio
    lane might still resolve.  The portfolio engine's stop condition."""
    outcomes = [
        check.outcome
        for check in (verdict.commutativity, verdict.semantic)
        if check is not None
    ]
    return bool(outcomes) and all(
        o in (Outcome.PASS, Outcome.FAIL) for o in outcomes
    )


def solve_pair(
    p: CodePath,
    q: CodePath,
    schema: Schema,
    config: CheckConfig | None = None,
    *,
    engine: str = "enum",
) -> PairVerdict:
    """Run both checkers for one pair, skipping the fast layers.

    ``engine`` selects the verification backend: ``"enum"`` (the bounded
    model finder over concrete states — the default), ``"smt"`` (the
    symbolic engine: Table-2 encoding + finite-domain solver), or
    ``"portfolio"`` (enum, then SMT only when the enum verdict is not
    :func:`definitive`; every caller, the scheduler's lanes included,
    gets this one sequential form).  Enum and SMT are independent
    implementations of the same checking rules and agree on the paper's
    benchmarks (see tests/test_smt_engine.py)."""
    config = config or CheckConfig()
    if engine == "portfolio":
        return _solve_portfolio(p, q, schema, config)
    verdict = _new_verdict(p, q)
    if engine == "smt":
        from .smtcheck import SmtPairChecker

        checker = SmtPairChecker(p, q, schema, config)
    else:
        checker = PairChecker(p, q, schema, config)
    for run_check, check_kind in (
        (checker.check_commutativity, "commutativity"),
        (checker.check_semantic, "semantic"),
    ):
        with obs.span(f"{p.name} x {q.name}", "check",
                      check=check_kind, backend=engine) as sp:
            result = run_check()
            sp.set(outcome=result.outcome.value)
        _attach(verdict, result)
    return verdict


def _solve_portfolio(
    p: CodePath,
    q: CodePath,
    schema: Schema,
    config: CheckConfig,
) -> PairVerdict:
    """The portfolio engine: lanes run in sequence, in one attempt.

    The enum lane runs first (cheaper on the common case); a definitive
    answer short-circuits, otherwise the SMT lane gets its shot.  With no
    definitive answer anywhere the enum verdict is kept, so the verdict
    depends only on the inputs, never on which lane finishes first."""
    fallback = None
    for lane in PORTFOLIO_LANES:
        verdict = solve_pair(p, q, schema, config, engine=lane)
        if definitive(verdict):
            return verdict
        if fallback is None:
            fallback = verdict
    return fallback


def verify_pair(
    p: CodePath,
    q: CodePath,
    schema: Schema,
    config: CheckConfig | None = None,
    *,
    engine: str = "enum",
) -> PairVerdict:
    """Run both checks for one pair: fast layers first, then the solver."""
    config = config or CheckConfig()
    classified = classify_pair(p, q, schema, config)
    if classified is not None:
        return classified[0]
    return solve_pair(p, q, schema, config, engine=engine)


def _attach(verdict: PairVerdict, result: CheckResult) -> None:
    if result.kind == "commutativity":
        verdict.commutativity = result
    else:
        verdict.semantic = result


def verify_application(
    analysis: AnalysisResult,
    config: CheckConfig | None = None,
    *,
    engine: str = "enum",
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
    pair_deadline_s: float | None = None,
) -> VerificationReport:
    """Verify every pair of effectful paths of an analyzed application.

    Execution is delegated to the :mod:`repro.engine` scheduler:
    ``jobs > 1`` dispatches the pair sweep across a fault-tolerant worker
    pool (a crashed or deadline-blown worker loses only its pair; total
    pool failure keeps draining in-process), ``use_cache=True``
    memoizes verdicts in a versioned on-disk cache under ``cache_dir``
    (default ``.noctua-cache/``) so re-verification only re-solves pairs
    whose content fingerprints changed, and ``pair_deadline_s`` bounds
    the wall clock of each solve attempt (pairs the engine cannot decide
    within the retry budget degrade to conservative ``unknown``
    verdicts).  Results are deterministic and identical across all
    execution modes on every pair the engine decides."""
    from ..engine.scheduler import run_pair_sweep

    return run_pair_sweep(
        analysis, config, engine=engine, jobs=jobs,
        use_cache=use_cache, cache_dir=cache_dir,
        pair_deadline_s=pair_deadline_s,
    )


def verdict_views(verdict: PairVerdict) -> tuple[str, str]:
    """The pair's views, falling back to the ``view[index]`` path-name
    convention for verdicts deserialized from legacy reports."""
    left = verdict.left_view or verdict.left.split("[")[0]
    right = verdict.right_view or verdict.right.split("[")[0]
    return left, right


def operation_conflict_table(report: VerificationReport) -> set[frozenset[str]]:
    """Lift path-level restrictions to view-level (operation) conflicts.

    Two *operations* (HTTP endpoints) conflict if any pair of their code
    paths is restricted.  This is the table a PoR coordination service
    consumes (paper §6.5 coordinates on endpoints + parameters).
    """
    conflicts: set[frozenset[str]] = set()
    for verdict in report.restrictions:
        left_view, right_view = verdict_views(verdict)
        conflicts.add(frozenset((left_view, right_view)))
    return conflicts
