"""Failure taxonomy and degradation policies for the verification engine.

"On the Complexity of Checking Transactional Consistency" (PAPERS.md)
puts the pair check in NP-hard territory in the worst case, so an engine
that sweeps hundreds of pairs *will* eventually meet one it cannot decide
within budget — and a continuous verification service must treat that as
a routine event, not a crash.  This module gives the scheduler the
vocabulary and the policies for that event:

* :class:`PairFailure` — one failed attempt at one pair, classified into
  the three-way taxonomy ``timeout`` / ``crash`` / ``solver-error``
  (:data:`FAILURE_KINDS`);
* :func:`deadline` — a wall-clock guard for the scheduler's in-process
  lane (``SIGALRM``-based; worker-side deadlines are enforced by the
  parent watchdog, which can actually kill a wedged process);
* :class:`RetryPolicy` / :func:`plan_retry` — bounded retry with
  exponential backoff, budget degradation on timeout
  (:func:`degrade_config`) and SMT→enum engine fallback on persistent
  solver failure;
* :func:`unknown_verdict` — the terminal degradation: a conservative
  ``Outcome.UNKNOWN`` verdict that *restricts* the pair, keeping the
  restriction set sound when the engine could not decide (restricting
  too much is safe; restricting too little is not).

Unknown verdicts are never written to the result cache: they describe
the engine's failure, not the pair's semantics, and must be re-attempted
on the next sweep.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..verifier.enumcheck import CheckConfig
from ..verifier.restrictions import CheckResult, Outcome, PairVerdict

#: the failure taxonomy attached to verdicts, spans and metrics
TIMEOUT = "timeout"
CRASH = "crash"
SOLVER_ERROR = "solver-error"
FAILURE_KINDS = (TIMEOUT, CRASH, SOLVER_ERROR)

#: hard cap on failure details copied into span attributes and
#: ``fallback_reason`` — a pathological exception repr must not bloat
#: traces or the report JSON
MAX_DETAIL_CHARS = 160


def cap_text(text: str, limit: int = MAX_DETAIL_CHARS) -> str:
    """Truncate ``text`` to ``limit`` characters with an ellipsis marker."""
    text = str(text)
    if len(text) <= limit:
        return text
    return text[: max(0, limit - 3)] + "..."


class DeadlineExceeded(Exception):
    """A per-pair wall-clock deadline fired (in-process lane)."""


class WorkerCrash(Exception):
    """An in-process stand-in for a worker crash.

    The chaos layer raises it on the in-process lane (where ``os._exit``
    would take the whole sweep down); the parent classifies a genuinely
    dead worker process the same way."""


@contextmanager
def deadline(seconds: float | None) -> Iterator[None]:
    """Enforce a wall-clock deadline on the enclosed block.

    Uses ``SIGALRM``/``setitimer``, so it only arms on the main thread of
    a Unix process; anywhere else it is a no-op and the cooperative
    ``CheckConfig.timeout_s`` budget is the only guard.  The previous
    itimer and handler are restored on exit, so nesting with other alarm
    users is safe as long as their intervals do not overlap."""
    if (
        seconds is None
        or seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise DeadlineExceeded(f"pair exceeded {seconds:.1f}s deadline")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def default_deadline(config: CheckConfig) -> float:
    """The watchdog deadline used when the caller does not pick one.

    Generous by construction, so a well-behaved checker always times out
    cooperatively (a *decided*, conservative ``TIMEOUT`` outcome) before
    the watchdog kills it (an *undecided* ``unknown``).  The longest
    attempt is a portfolio one: the enum walk decides both checks in one
    pass under a pooled ``2 * timeout_s`` budget, and when its verdict
    is not definitive the SMT lane runs both checks, ``timeout_s`` each —
    ``4 * timeout_s`` of cooperative budget in one attempt.  The
    ``+ 5`` s covers scope construction and worker start-up outside
    those budgets, and the 10 s floor keeps tiny budgets from turning
    scheduling jitter into kills."""
    return max(10.0, 4.0 * config.timeout_s + 5.0)


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map an exception from a solve attempt onto the failure taxonomy."""
    if isinstance(exc, DeadlineExceeded):
        return TIMEOUT, cap_text(str(exc) or "pair deadline exceeded")
    if isinstance(exc, WorkerCrash):
        return CRASH, cap_text(str(exc) or "worker crashed")
    return SOLVER_ERROR, cap_text(f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class PairFailure:
    """One failed attempt at solving one pair."""

    kind: str  # one of FAILURE_KINDS
    left: str
    right: str
    attempt: int  # 1-based attempt number that failed
    stage: str  # "worker" | "serial" (the in-process lane)
    detail: str = ""

    def describe(self) -> str:
        base = (f"engine {self.kind} on attempt {self.attempt} "
                f"({self.stage})")
        if self.detail:
            base += f": {self.detail}"
        return cap_text(base, MAX_DETAIL_CHARS + 60)


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler reacts to a :class:`PairFailure`.

    ``max_attempts`` bounds the total tries per pair (the first attempt
    included); retries run after an exponential backoff.  How a retry
    differs from the failed attempt is fixed by :func:`plan_retry`."""

    max_attempts: int = 3
    backoff_s: float = 0.05

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retrying after 1-based failed attempt N."""
        return self.backoff_s * (2 ** max(0, attempt - 1))


#: the engine a persistently failing SMT pair retries on — the two
#: backends implement the same rules, so its verdict is still a verdict
FALLBACK_ENGINE = "enum"

#: a solve task as it travels the scheduler and the worker protocol:
#: (slot, i, j, attempt, engine, degrade_level)
Task = tuple[int, int, int, int, str, int]


def plan_retry(task: Task, kind: str, policy: RetryPolicy,
               *, base_engine: str) -> Task | None:
    """The follow-up task for a failed attempt, or ``None`` to degrade.

    Three levers: the policy's attempt budget, engine fallback (an SMT
    sweep's crash/solver-error → :data:`FALLBACK_ENGINE`), and budget
    degradation (timeout → next :func:`degrade_config` level, so the
    retry has a chance of *deciding* conservatively instead of being
    killed again)."""
    slot, i, j, attempt, engine, level = task
    if attempt + 1 >= policy.max_attempts:
        return None
    next_engine = engine
    if (base_engine == "smt" and engine == "smt"
            and kind in (CRASH, SOLVER_ERROR)):
        next_engine = FALLBACK_ENGINE
    next_level = level + 1 if kind == TIMEOUT else level
    return (slot, i, j, attempt + 1, next_engine, next_level)


def degrade_config(config: CheckConfig, level: int) -> CheckConfig:
    """A reduced-budget copy of ``config`` for retry level ``level``.

    Every budget knob is halved per level (with floors), so a pair that
    blew its deadline gets a realistic chance to finish cooperatively —
    a ``TIMEOUT`` outcome is a decided, conservative verdict, which
    beats an ``unknown``.  Degraded verdicts are never cached: they were
    computed under a different budget than the fingerprint claims."""
    if level <= 0:
        return config
    factor = 2 ** level
    return dataclasses.replace(
        config,
        timeout_s=max(0.1, config.timeout_s / factor),
        max_samples=max(20, config.max_samples // factor),
        max_exhaustive=max(200, config.max_exhaustive // factor),
        env_product_cap=max(64, config.env_product_cap // factor),
    )


def unknown_verdict(left: str, right: str, failure: PairFailure, *,
                    left_view: str = "", right_view: str = "") -> PairVerdict:
    """The conservative terminal verdict for an undecidable pair.

    Both checks carry ``Outcome.UNKNOWN`` (which restricts — see
    ``Outcome.restricts``) and the failure description, so the report,
    the explainer and the JSON artifact can all say *why* the pair is
    restricted without a witness."""
    detail = failure.describe()
    verdict = PairVerdict(left, right, left_view=left_view,
                          right_view=right_view)
    verdict.commutativity = CheckResult(
        left, right, "commutativity", Outcome.UNKNOWN, detail=detail)
    verdict.semantic = CheckResult(
        left, right, "semantic", Outcome.UNKNOWN, detail=detail)
    return verdict
