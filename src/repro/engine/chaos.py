"""Fault injection for the verification engine itself.

PR 1's chaos layer asks whether the *georep runtime* survives a hostile
environment; this module asks the same of the *engine*: does a sweep
containing a crashing worker, a wedged solver, a dying pool or a corrupt
cache file still terminate within its deadline budget and produce a
report that is — poisoned signature classes aside — byte-identical to a
clean serial sweep?  Following Silhouette's targeted failure plans
(``/root/related/iaoing__Silhouette/``), faults are *enumerated and
seeded*, not random at runtime: an :class:`EngineChaosPlan` names exact
pairs and fault modes, so every run is reproducible from its seed.

Faults are planned on a sweep's solver-bound pairs — the plan's
signature-class representatives — so a poisoned representative poisons
its whole class: its shared members degrade to ``unknown`` with it.

Fault modes (``apply_chaos`` is consulted by both lane kinds right
before solving):

* ``crash`` — the worker ``os._exit``\\ s (in-process lane: raises
  :class:`~repro.engine.failures.WorkerCrash`) on **every** attempt;
* ``hang`` — sleeps past the pair deadline, forcing the parent watchdog
  to kill the worker (in-process lane: the ``SIGALRM`` deadline fires);
* ``flaky_crash`` — crashes on the first attempt only: the retry on a
  fresh worker must succeed and the verdict must match a clean sweep;
* ``error`` — raises a solver error on the first attempt only;
* ``smt_error`` — raises a solver error whenever the pair is attempted
  on the SMT backend, modelling a persistent backend failure: the
  engine must fall back to the enum engine and still decide the pair.

Two parent-side faults complete the coverage: ``pool_fail_after`` kills
the whole pool drive after N results (exercising the in-process fallback
and its in-flight attribution) and ``abort_after_solved`` aborts the sweep
itself after N solved pairs (exercising cache checkpoint recovery; the
sweep raises :class:`SweepAborted`).

``run_engine_chaos`` is the seeded harness behind ``noctua engine-chaos``
and ``make engine-chaos``.
"""

from __future__ import annotations

import importlib
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..smt.solver import SolverError
from ..verifier.enumcheck import CheckConfig
from .cache import QUARANTINE_SUFFIX, _safe_name
from .failures import RetryPolicy, WorkerCrash


class SweepAborted(RuntimeError):
    """Raised by an injected sweep abort (simulated parent crash)."""


class ChaosSolverError(SolverError):
    """The injected stand-in for an internal solver failure."""


#: worker exit code used by injected crashes (visible in failure details)
CRASH_EXIT_CODE = 13


@dataclass(frozen=True)
class EngineChaosPlan:
    """A deterministic fault plan over one pair sweep.

    Pair-level faults are keyed by the sweep coordinates ``(i, j)`` of
    the pair (``i <= j`` over the effectful-path list), matching the
    scheduler's task tuples."""

    crash: frozenset = frozenset()        # always crash the attempt
    hang: frozenset = frozenset()         # always sleep past the deadline
    flaky_crash: frozenset = frozenset()  # crash on attempt 0 only
    error: frozenset = frozenset()        # solver error on attempt 0 only
    smt_error: frozenset = frozenset()    # solver error while engine == smt
    hang_s: float = 30.0
    #: parent-side: raise SweepAborted after N solver-solved pairs
    abort_after_solved: int | None = None
    #: parent-side: blow up the pool drive after N worker results
    pool_fail_after: int | None = None

    def mode_for(self, i: int, j: int, attempt: int,
                 engine: str) -> str | None:
        pair = (i, j)
        if pair in self.crash:
            return "crash"
        if pair in self.hang:
            return "hang"
        if pair in self.flaky_crash and attempt == 0:
            return "crash"
        if pair in self.error and attempt == 0:
            return "error"
        if pair in self.smt_error and engine == "smt":
            return "error"
        return None

    @property
    def always_poisoned(self) -> frozenset:
        """Pairs no retry can save — they must degrade to ``unknown``."""
        return self.crash | self.hang

    # -- spawn-safe wire format (workers get the plan via initargs) ------

    def to_obj(self) -> dict:
        return {
            "crash": sorted(self.crash),
            "hang": sorted(self.hang),
            "flaky_crash": sorted(self.flaky_crash),
            "error": sorted(self.error),
            "smt_error": sorted(self.smt_error),
            "hang_s": self.hang_s,
            "abort_after_solved": self.abort_after_solved,
            "pool_fail_after": self.pool_fail_after,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "EngineChaosPlan":
        pairs = lambda key: frozenset(tuple(p) for p in obj.get(key, ()))
        return cls(
            crash=pairs("crash"), hang=pairs("hang"),
            flaky_crash=pairs("flaky_crash"), error=pairs("error"),
            smt_error=pairs("smt_error"),
            hang_s=obj.get("hang_s", 30.0),
            abort_after_solved=obj.get("abort_after_solved"),
            pool_fail_after=obj.get("pool_fail_after"),
        )


def apply_chaos(plan: EngineChaosPlan | None, i: int, j: int, attempt: int,
                engine: str, *, stage: str) -> None:
    """Inject the planned fault for this attempt, if any.

    ``stage`` is ``"worker"`` (crash = hard process exit) or ``"serial"``
    for the in-process lane (crash = :class:`WorkerCrash`, since killing
    the parent would take the sweep down for real)."""
    if plan is None:
        return
    mode = plan.mode_for(i, j, attempt, engine)
    if mode is None:
        return
    if mode == "crash":
        if stage == "worker":
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrash(f"chaos: injected crash for pair ({i}, {j})")
    if mode == "hang":
        time.sleep(plan.hang_s)
        return  # deadline shorter than hang_s kills/interrupts us first
    raise ChaosSolverError(
        f"chaos: injected solver error for pair ({i}, {j})")


# ---------------------------------------------------------------------------
# The seeded harness: `noctua engine-chaos` / `make engine-chaos`.
# ---------------------------------------------------------------------------

#: deterministic budget: verdicts decided by sample exhaustion, never by
#: the clock (see docs/ENGINE.md on determinism), so chaos runs compare
#: byte-identical against the clean baseline
CHAOS_CHECK_CONFIG = CheckConfig(timeout_s=30.0, max_samples=60,
                                 max_exhaustive=800)


@dataclass
class SeedOutcome:
    """What one chaos seed injected and what the sweep did about it."""

    seed: int
    faults: dict = field(default_factory=dict)  # mode -> [pair names]
    unknowns: int = 0
    retries: int = 0
    fallback: str = ""
    wall_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class EngineChaosReport:
    """Aggregate result of an engine-chaos run."""

    app: str
    outcomes: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def problems(self) -> list:
        return [f"seed {o.seed}: {p}" for o in self.outcomes
                for p in o.problems]


def _build_analysis(app: str):
    from ..analyzer import analyze_application

    module = importlib.import_module(f"repro.apps.{app}")
    return analyze_application(module.build_app())


def _untimed(report) -> list[dict]:
    """Per-verdict JSON rows with the wall-clock fields stripped."""
    return [{k: v for k, v in row.items() if not k.endswith("_s")}
            for row in report.to_json_obj()["verdicts"]]


def _solver_bound_pairs(analysis, config) -> dict[tuple, list[tuple]]:
    """The pairs a cold sweep hands to a solver — the plan's route-
    ``solve`` representatives, as ``(i, j)`` in sweep order — each
    mapped to its class: the representative followed by its shared
    members."""
    from .reduction import ROUTE_SHARED, ROUTE_SOLVE, plan_sweep

    plan = plan_sweep(analysis, config)
    classes: dict[tuple, list[tuple]] = {}
    for pp in plan.pairs:
        if pp.route == ROUTE_SOLVE:
            classes[(pp.i, pp.j)] = [(pp.i, pp.j)]
        elif pp.route == ROUTE_SHARED:
            rep = plan.pairs[pp.rep_slot]
            classes[(rep.i, rep.j)].append((pp.i, pp.j))
    return classes


def _pair_names(analysis, pair: tuple[int, int]) -> tuple[str, str]:
    effectful = analysis.effectful_paths
    return effectful[pair[0]].name, effectful[pair[1]].name


def run_engine_chaos(
    app: str = "smallbank",
    *,
    seeds: int = 10,
    start: int = 0,
    jobs: int = 2,
    deadline_s: float = 2.0,
    log=None,
) -> EngineChaosReport:
    """Run ``seeds`` seeded fault plans against real sweeps of ``app``.

    Every seed checks the whole fault-tolerance contract: the classes of
    always-poisoned representatives (and only those) degrade to
    conservative ``unknown`` verdicts, every other verdict is
    byte-identical to a clean serial sweep, unknowns are never cached (a
    chaos-free warm re-run re-solves exactly the poisoned
    representatives and then matches the baseline everywhere), wall
    time stays within the deadline budget, and — on the seeds that
    corrupt the cache — the corrupt file is quarantined, not trusted and
    not silently destroyed."""
    from .scheduler import run_pair_sweep

    emit = log or (lambda *_: None)
    t_run = time.perf_counter()
    analysis = _build_analysis(app)
    config = CHAOS_CHECK_CONFIG
    baseline = run_pair_sweep(analysis, config)
    base_rows = _untimed(baseline)
    classes = _solver_bound_pairs(analysis, config)
    candidates = list(classes)
    if len(candidates) < 3:
        raise ValueError(
            f"{app} has only {len(candidates)} solver-bound pairs; "
            f"engine chaos needs at least 3")
    policy = RetryPolicy(max_attempts=2, backoff_s=0.02)
    report = EngineChaosReport(app=app)

    for seed in range(start, start + seeds):
        rng = random.Random(seed * 2654435761 % (2 ** 31))
        picks = rng.sample(candidates, 3)
        plan_kwargs: dict = {"crash": frozenset({picks[0]}),
                             "hang_s": 6.0 * deadline_s}
        if rng.random() < 0.3:
            plan_kwargs["hang"] = frozenset({picks[1]})
        elif rng.random() < 0.5:
            plan_kwargs["flaky_crash"] = frozenset({picks[1]})
        if rng.random() < 0.4:
            plan_kwargs["error"] = frozenset({picks[2]})
        if rng.random() < 0.25:
            plan_kwargs["pool_fail_after"] = rng.randint(1, 3)
        plan = EngineChaosPlan(**plan_kwargs)
        outcome = SeedOutcome(seed=seed, faults={
            mode: [f"{l} x {r}" for l, r in
                   (_pair_names(analysis, p) for p in sorted(pairs))]
            for mode, pairs in (
                ("crash", plan.crash), ("hang", plan.hang),
                ("flaky_crash", plan.flaky_crash), ("error", plan.error),
            ) if pairs
        })
        if plan.pool_fail_after is not None:
            outcome.faults["pool_fail_after"] = [str(plan.pool_fail_after)]

        poisoned_names = {_pair_names(analysis, member)
                          for rep in plan.always_poisoned
                          for member in classes[rep]}
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="noctua-chaos-") as tmp:
            chaotic = run_pair_sweep(
                analysis, config, jobs=jobs, use_cache=True, cache_dir=tmp,
                chaos=plan, pair_deadline_s=deadline_s, retry=policy,
            )
            outcome.wall_s = time.perf_counter() - t0
            metrics = chaotic.metrics
            outcome.unknowns = metrics.get("unknowns", 0)
            outcome.retries = metrics.get("retries", 0)
            outcome.fallback = metrics.get("fallback_reason", "")
            _check_verdicts(outcome, base_rows, _untimed(chaotic),
                            poisoned_names)
            if outcome.unknowns != len(poisoned_names):
                outcome.problems.append(
                    f"expected {len(poisoned_names)} unknowns, metrics "
                    f"report {outcome.unknowns}")
            budget = 20.0 + 3.0 * len(plan.always_poisoned) * \
                policy.max_attempts * deadline_s
            if outcome.wall_s > budget:
                outcome.problems.append(
                    f"sweep took {outcome.wall_s:.1f}s "
                    f"(budget {budget:.1f}s)")

            # Recovery: a chaos-free warm sweep must re-solve exactly the
            # poisoned representatives (unknowns were never cached) and
            # then agree with the clean baseline everywhere.
            warm = run_pair_sweep(analysis, config, use_cache=True,
                                  cache_dir=tmp)
            expected_calls = len(plan.always_poisoned)
            if warm.metrics["solver_calls"] != expected_calls:
                outcome.problems.append(
                    f"warm re-run solved {warm.metrics['solver_calls']} "
                    f"pairs, expected the {expected_calls} poisoned "
                    f"representatives")
            if _untimed(warm) != base_rows:
                outcome.problems.append(
                    "warm re-run after chaos differs from clean baseline")

            if seed % 3 == 0:
                _check_cache_quarantine(outcome, analysis, config, app,
                                        base_rows, run_pair_sweep)

        report.outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAIL"
        faults = ", ".join(f"{m}={'|'.join(v)}"
                           for m, v in sorted(outcome.faults.items()))
        emit(f"  seed {seed:3d} [{status}] {outcome.wall_s:5.1f}s "
             f"unknowns={outcome.unknowns} retries={outcome.retries} "
             f"({faults})")
        for problem in outcome.problems:
            emit(f"    ! {problem}")

    report.elapsed_s = time.perf_counter() - t_run
    return report


def _check_verdicts(outcome: SeedOutcome, base_rows: list[dict],
                    chaos_rows: list[dict], poisoned_names: set) -> None:
    """Poisoned classes must be unknown; everything else byte-identical."""
    if len(base_rows) != len(chaos_rows):
        outcome.problems.append(
            f"verdict count {len(chaos_rows)} != baseline "
            f"{len(base_rows)}")
        return
    for base_row, chaos_row in zip(base_rows, chaos_rows):
        pair = (chaos_row["left"], chaos_row["right"])
        if pair in poisoned_names:
            if chaos_row["status"] != "unknown":
                outcome.problems.append(
                    f"poisoned pair {pair} not marked unknown")
        elif chaos_row != base_row:
            outcome.problems.append(
                f"clean pair {pair} diverged from baseline: "
                f"{chaos_row} != {base_row}")


def _check_cache_quarantine(outcome: SeedOutcome, analysis, config,
                            app: str, base_rows: list[dict],
                            run_pair_sweep) -> None:
    """Corrupt the cache file, re-sweep, and require quarantine + a
    baseline-identical report."""
    with tempfile.TemporaryDirectory(prefix="noctua-chaos-cache-") as tmp:
        run_pair_sweep(analysis, config, use_cache=True, cache_dir=tmp)
        cache_file = Path(tmp) / f"{_safe_name(analysis.app_name)}.json"
        cache_file.write_text("{corrupt" + cache_file.read_text()[:64])
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", RuntimeWarning)
            after = run_pair_sweep(analysis, config, use_cache=True,
                                   cache_dir=tmp)
        quarantined = cache_file.with_name(
            cache_file.name + QUARANTINE_SUFFIX)
        if not quarantined.exists():
            outcome.problems.append(
                "corrupt cache file was not quarantined")
        if _untimed(after) != base_rows:
            outcome.problems.append(
                "sweep over a corrupt cache diverged from baseline")
