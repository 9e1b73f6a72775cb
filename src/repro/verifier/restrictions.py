"""Verification result types.

The verifier's output is a *restriction set*: the set of operation pairs
that must not run concurrently because their concurrent execution can
diverge state (commutativity failure) or invalidate a precondition
(semantic failure).  A PoR-consistent runtime coordinates exactly these
pairs (paper §2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Outcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"  # treated as fail (restricted), conservatively
    CONSERVATIVE = "conservative"  # a path the analyzer could not translate
    #: the engine could not produce a verdict at all (worker crash, blown
    #: deadline, persistent solver error) — restricted conservatively so
    #: the restriction set stays sound; never cached, always surfaced in
    #: the report's ``metrics["unknowns"]`` and its JSON
    UNKNOWN = "unknown"

    @property
    def restricts(self) -> bool:
        return self is not Outcome.PASS


@dataclass(frozen=True)
class Counterexample:
    """A witness found by the model finder.

    ``args_p``/``args_q`` are human-readable reprs; ``env_p``/``env_q``
    carry the same argument bindings as structured name→value dicts when
    the engine has them in concrete form (the enumerative checker always
    does; the symbolic engine's model reprs stay string-only).  Directed
    difftest harvests these to seed its mutation walk."""

    description: str
    state: str = ""
    args_p: str = ""
    args_q: str = ""
    env_p: dict | None = None
    env_q: dict | None = None


@dataclass
class CheckResult:
    """The result of one check (one rule on one pair)."""

    left: str
    right: str
    kind: str  # "commutativity" | "semantic"
    outcome: Outcome
    elapsed_s: float = 0.0
    witness: Counterexample | None = None
    detail: str = ""
    #: what an enum PASS covers: ``"exhaustive"`` when the search walked
    #: the whole bounded state space × the untrimmed argument product,
    #: ``"sampled"`` when it drew samples from it.  Empty for every other
    #: outcome and for the SMT engine.
    coverage: str = ""


@dataclass
class PairVerdict:
    """Combined verdict for one unordered pair of code paths."""

    left: str
    right: str
    commutativity: CheckResult | None = None
    semantic: CheckResult | None = None
    #: the view (HTTP endpoint) each code path belongs to.  Empty on
    #: verdicts deserialized from legacy reports, in which case consumers
    #: fall back to parsing the ``view[index]`` path-name convention.
    left_view: str = ""
    right_view: str = ""
    #: where this verdict came from when it was not solved directly for
    #: this pair: ``{"source": "shared", "class": ..., "representative":
    #: [left, right], "renaming": {...}}`` for a signature-class member,
    #: ``{"source": "pruned", "tag": ...}`` for the read/write
    #: disjointness fast path.  ``None`` for directly solved verdicts.
    provenance: dict | None = None

    @property
    def restricted(self) -> bool:
        for check in (self.commutativity, self.semantic):
            if check is not None and check.outcome.restricts:
                return True
        return False

    @property
    def unknown(self) -> bool:
        """True when the engine failed to decide this pair and degraded
        to the conservative ``Outcome.UNKNOWN`` verdict."""
        for check in (self.commutativity, self.semantic):
            if check is not None and check.outcome is Outcome.UNKNOWN:
                return True
        return False


# ---------------------------------------------------------------------------
# Verdict (de)serialization — used by the engine's result cache and by the
# deployment JSON artifact.  Round-trips exactly; legacy objects without
# view fields load with empty views.
# ---------------------------------------------------------------------------


def check_result_to_obj(result: CheckResult) -> dict:
    obj: dict = {
        "left": result.left,
        "right": result.right,
        "kind": result.kind,
        "outcome": result.outcome.value,
        "elapsed_s": result.elapsed_s,
        "detail": result.detail,
        "coverage": result.coverage,
    }
    if result.witness is not None:
        obj["witness"] = {
            "description": result.witness.description,
            "state": result.witness.state,
            "args_p": result.witness.args_p,
            "args_q": result.witness.args_q,
            "env_p": result.witness.env_p,
            "env_q": result.witness.env_q,
        }
    return obj


def check_result_from_obj(obj: dict) -> CheckResult:
    witness = None
    if obj.get("witness") is not None:
        w = obj["witness"]
        witness = Counterexample(
            description=w.get("description", ""),
            state=w.get("state", ""),
            args_p=w.get("args_p", ""),
            args_q=w.get("args_q", ""),
            env_p=w.get("env_p"),
            env_q=w.get("env_q"),
        )
    return CheckResult(
        left=obj["left"],
        right=obj["right"],
        kind=obj["kind"],
        outcome=Outcome(obj["outcome"]),
        elapsed_s=obj.get("elapsed_s", 0.0),
        witness=witness,
        detail=obj.get("detail", ""),
        coverage=obj.get("coverage", ""),
    )


def verdict_to_obj(verdict: PairVerdict) -> dict:
    obj = {
        "left": verdict.left,
        "right": verdict.right,
        "left_view": verdict.left_view,
        "right_view": verdict.right_view,
        "commutativity": check_result_to_obj(verdict.commutativity)
        if verdict.commutativity else None,
        "semantic": check_result_to_obj(verdict.semantic)
        if verdict.semantic else None,
    }
    if verdict.provenance is not None:
        obj["provenance"] = verdict.provenance
    return obj


def verdict_from_obj(obj: dict) -> PairVerdict:
    return PairVerdict(
        left=obj["left"],
        right=obj["right"],
        commutativity=check_result_from_obj(obj["commutativity"])
        if obj.get("commutativity") else None,
        semantic=check_result_from_obj(obj["semantic"])
        if obj.get("semantic") else None,
        left_view=obj.get("left_view", ""),
        right_view=obj.get("right_view", ""),
        provenance=obj.get("provenance"),
    )


@dataclass
class VerificationReport:
    """Aggregate results for one application (the rows of Table 6)."""

    app_name: str
    verdicts: list[PairVerdict] = field(default_factory=list)
    #: wall clock of the whole sweep (what the user waited for)
    elapsed_s: float = 0.0
    #: aggregate per-pair solve time split by check kind (Figure 9's
    #: com/sem stacking).  Sums of each check's own elapsed time, so the
    #: split stays meaningful under parallel execution, where the wall
    #: clock is smaller than the work performed.
    time_commutativity_s: float = 0.0
    time_semantic_s: float = 0.0
    #: scheduler metrics (cache hits/misses, pruning counts, worker
    #: utilization, ...) when the sweep ran through ``repro.engine``
    metrics: dict = field(default_factory=dict)
    #: the :class:`~repro.engine.reduction.SweepPlan` the scheduler
    #: executed (never serialized), so a caller that needs the plan —
    #: the service's invalidation and prune survivors — does not plan
    #: the same sweep a second time
    plan: object | None = field(default=None, repr=False, compare=False)

    @property
    def time_solve_s(self) -> float:
        """Aggregate solver time across all pairs (≥ wall clock when
        serial, typically > wall clock when parallel)."""
        return self.time_commutativity_s + self.time_semantic_s

    @property
    def checks(self) -> int:
        """Number of verified pairs (the paper's '#Checks')."""
        return len(self.verdicts)

    @property
    def restrictions(self) -> list[PairVerdict]:
        return [v for v in self.verdicts if v.restricted]

    @property
    def unknown_verdicts(self) -> list[PairVerdict]:
        """Pairs the engine could not decide (restricted conservatively)."""
        return [v for v in self.verdicts if v.unknown]

    @property
    def commutativity_failures(self) -> list[PairVerdict]:
        return [
            v
            for v in self.verdicts
            if v.commutativity is not None and v.commutativity.outcome.restricts
        ]

    @property
    def semantic_failures(self) -> list[PairVerdict]:
        return [
            v
            for v in self.verdicts
            if v.semantic is not None and v.semantic.outcome.restricts
        ]

    def restriction_pairs(self) -> set[frozenset[str]]:
        """The restriction set over operation (code path) names."""
        return {frozenset((v.left, v.right)) for v in self.restrictions}

    def coordination_free_operations(self) -> set[str]:
        """Operations (code paths) never named by any restriction.

        These are the 'blue' operations in RedBlue terms (paper §7): a
        PoR runtime can accept and replicate them with no coordination at
        all, which is where the end-to-end speedup comes from."""
        everyone = {v.left for v in self.verdicts} | {
            v.right for v in self.verdicts
        }
        restricted = {
            name
            for v in self.restrictions
            for name in (v.left, v.right)
        }
        return everyone - restricted

    def to_json_obj(self) -> dict:
        """A deployment-facing artifact: the restriction set and per-check
        outcomes, consumable by a coordination service."""
        return {
            "app": self.app_name,
            "checks": self.checks,
            "restrictions": sorted(
                sorted(pair) for pair in self.restriction_pairs()
            ),
            "coordination_free": sorted(self.coordination_free_operations()),
            # Pairs restricted because the engine failed on them, not
            # because a witness was found: conservative, re-attempted on
            # the next sweep (never cached).
            "unknowns": sorted(
                sorted((v.left, v.right)) for v in self.unknown_verdicts
            ),
            "verdicts": [
                {
                    "left": v.left,
                    "right": v.right,
                    "left_view": v.left_view,
                    "right_view": v.right_view,
                    "status": "unknown" if v.unknown else "decided",
                    "commutativity": v.commutativity.outcome.value
                    if v.commutativity else None,
                    "semantic": v.semantic.outcome.value
                    if v.semantic else None,
                    # What each enum PASS covers ("exhaustive" /
                    # "sampled"); empty for any other outcome.
                    "commutativity_coverage": v.commutativity.coverage
                    if v.commutativity else None,
                    "semantic_coverage": v.semantic.coverage
                    if v.semantic else None,
                    # Per-pair solve timing.  Populated identically on the
                    # parallel and the serial(-fallback) code paths: the
                    # checkers stamp ``elapsed_s`` on each CheckResult and
                    # the worker protocol round-trips it verbatim, so the
                    # JSON artifact never loses the split on a fallback.
                    "commutativity_s": v.commutativity.elapsed_s
                    if v.commutativity else None,
                    "semantic_s": v.semantic.elapsed_s
                    if v.semantic else None,
                    # Shared/pruned verdicts say where they came from
                    # (signature class + representative + renaming, or
                    # the rw-disjointness prune tag).
                    **({"provenance": v.provenance}
                       if v.provenance is not None else {}),
                }
                for v in self.verdicts
            ],
            "timing": {
                "wall_s": self.elapsed_s,
                "solve_s": self.time_solve_s,
                "commutativity_s": self.time_commutativity_s,
                "semantic_s": self.time_semantic_s,
            },
            "metrics": self.metrics,
        }

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = {
            "app": self.app_name,
            "checks": self.checks,
            "restrictions": len(self.restrictions),
            "com_failures": len(self.commutativity_failures),
            "sem_failures": len(self.semantic_failures),
            "time_s": self.elapsed_s,
            "solve_time_s": self.time_solve_s,
        }
        if self.unknown_verdicts:
            out["unknowns"] = len(self.unknown_verdicts)
        if self.metrics:
            for key in ("cache_hits", "cache_misses", "solver_calls"):
                if key in self.metrics:
                    out[key] = self.metrics[key]
        return out
