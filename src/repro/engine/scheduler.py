"""The verification scheduler: incremental, parallel, fault-tolerant
pair sweeps.

Sits between the analyzer and the pair checkers (paper Figure 1 gains a
box): ``run_pair_sweep`` drives the quadratic sweep over effectful code
paths that ``verify_application`` used to run inline, adding four layers
while preserving the restriction set of a plain ``verify_pair`` loop:

1. **reduction** — one solver-free plan (:func:`~repro.engine.reduction
   .plan_sweep`) prunes conservative, order-disabled, disjoint-footprint
   and read/write-disjoint pairs and assigns the rest to signature
   classes: one representative is solved per class and its verdict is
   shared with the members;
2. **memoization** — remaining pairs are looked up in a content-addressed
   on-disk cache (:mod:`repro.engine.cache`) keyed by the pair fingerprint
   (:mod:`repro.engine.fingerprint`); after an edit, only pairs whose
   fingerprints changed are re-solved, and the cache is *checkpointed*
   mid-sweep every ``checkpoint_every`` cached verdicts so a killed
   sweep resumes warm;
3. **one dispatcher** — the solver queue drains through *lanes*: a
   hand-rolled pool of ``spawn`` worker processes (``jobs > 1``), or the
   in-process lane, which runs each attempt in the parent.  Both answer
   with the same message, so there is one settle / retry / checkpoint
   path; a pool that cannot start or dies mid-sweep is reaped and the
   same loop keeps draining in-process, every task at its attempt state;
4. **fault tolerance** — every solve attempt runs under a per-pair
   wall-clock deadline (parent watchdog for workers, ``SIGALRM`` for the
   in-process lane) and failures are classified into the ``timeout`` /
   ``crash`` / ``solver-error`` taxonomy (:mod:`repro.engine.failures`).
   A failed pair costs only itself: the queue keeps draining, the pair
   is retried with backoff (optionally with a degraded budget, or on the
   enum engine after a persistent SMT failure), and a pair that exhausts
   its attempts degrades to a conservative ``unknown`` verdict —
   restricted, clearly marked, and never cached.

The pool is hand-rolled rather than ``multiprocessing.Pool`` because the
failure semantics are the point: ``Pool`` treats one dead worker as a
poisoned ``imap`` and loses the whole sweep, while this pool pins one
duplex :class:`~multiprocessing.Pipe` per worker (no shared queue locks,
so killing a wedged worker cannot deadlock its siblings), detects death
as an ``EOF`` on that pipe, and respawns workers while unfinished work
remains.  The ``spawn`` start method is pinned explicitly: workers must
not inherit the parent's tracer, signal handlers or lock state via fork.

Observability: every sweep runs inside a ``pair-sweep`` span with one
``pair`` child per pair (route = ``pruned:<tag>`` / ``cached`` /
``shared`` / ``solved`` / ``unknown``); each failed attempt, in either
lane, leaves one ``pair-failure`` record.  When the caller has a tracer
active (:mod:`repro.obs`) those spans land in the caller's trace —
including spans produced inside a lane (a worker's arrive serialized
over its pipe), which are grafted back onto the parent tree.  With no
tracer active, the scheduler still builds the span tree on a private
tracer: the span tree is the sweep's one record, and ``report.metrics``
is read from it by one pass (:func:`~repro.engine.metrics.fold_sweep`),
which also feeds the ambient metrics registry when one is active.

Determinism: verdicts are assembled into the report in sweep order
(``i <= j`` over the effectful-path list) regardless of completion
order, and the checkers themselves are process-independent (seeded
sampling, no builtin ``hash``), so serial, parallel and cached sweeps
produce identical reports.  Fault tolerance preserves this on the
decided subset: a sweep with failures matches a clean sweep on every
signature class the engine could decide (tests/test_engine_chaos.py
asserts this report equality under injected crashes, hangs and pool
death).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import os
import time

from ..metrics import registry as metrics_registry
from ..obs import tracer as obs
from ..soir.path import AnalysisResult
from ..soir.serialize import path_to_obj, path_from_obj, schema_from_obj, schema_to_obj
from ..verifier.enumcheck import CheckConfig
from ..verifier.restrictions import (
    VerificationReport,
    verdict_from_obj,
    verdict_to_obj,
)
from ..verifier.runner import solve_pair
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .chaos import EngineChaosPlan, SweepAborted, apply_chaos
from .failures import (
    CRASH,
    PairFailure,
    RetryPolicy,
    TIMEOUT,
    Task,
    cap_text,
    classify_exception,
    deadline,
    default_deadline,
    degrade_config,
    plan_retry,
    unknown_verdict,
)
from .fingerprint import FingerprintContext
from .metrics import fold_sweep
from .reduction import (
    ROUTE_CACHED,
    ROUTE_PRUNED,
    ROUTE_SHARED,
    plan_sweep,
    shared_verdict,
)

#: default cache-checkpoint cadence (cached verdicts between mid-sweep
#: flushes); the atomic replace in ``ResultCache.flush`` makes each
#: checkpoint a complete, parseable snapshot
DEFAULT_CHECKPOINT_EVERY = 8

# ---------------------------------------------------------------------------
# Lane side.  Both lane kinds run one attempt through ``_attempt``.  Each
# pool worker deserializes the sweep inputs once (in the initializer) and
# then solves pairs by index; passing SOIR JSON instead of pickled objects
# keeps the protocol spawn-safe and version-checkable.
# ---------------------------------------------------------------------------

_WORKER: dict = {}

#: a worker's first message: its initializer ran, so a later death is
#: charged to the pair it was solving, not to the pool's start-up
_READY = ("ready",)


def _worker_init(schema_json: str, paths_json: str, config_args: dict,
                 trace: bool, chaos_obj: dict | None) -> None:
    _WORKER["schema"] = schema_from_obj(json.loads(schema_json))
    _WORKER["paths"] = [path_from_obj(o) for o in json.loads(paths_json)]
    _WORKER["config"] = CheckConfig(**config_args)
    _WORKER["trace"] = trace
    _WORKER["chaos"] = (
        EngineChaosPlan.from_obj(chaos_obj) if chaos_obj else None)


def _attempt(task: Task, paths: list, schema, config: CheckConfig,
             chaos: EngineChaosPlan | None, trace: bool, *, stage: str,
             ) -> tuple[int, object, int, float, "obs.Span | None"]:
    """Run one solve attempt; optionally under a lane-local tracer.

    When the sweep is traced, the lane opens its own ``pair`` span (the
    check/solver spans nest under it) and hands back the finished span
    tree with the verdict — the parent grafts it into the sweep span, so
    the trace covers lane-side work and both lane kinds look alike (a
    worker serializes the tree for the pipe).

    No deadline is armed here: the in-process lane wraps the call in the
    ``SIGALRM`` deadline, and the parent watchdog *is* a worker's
    deadline, because only a separate process can stop a solver wedged
    in native-speed search (or a chaos-injected hang)."""
    slot, i, j, attempt, task_engine, level = task
    p, q = paths[i], paths[j]
    attempt_config = degrade_config(config, level)
    apply_chaos(chaos, i, j, attempt, task_engine, stage=stage)
    started = time.perf_counter()
    span: obs.Span | None = None
    if trace:
        tracer = obs.Tracer()
        with obs.activate(tracer):
            with tracer.span(f"{p.name} x {q.name}", "pair",
                             left=p.name, right=q.name, route="solved",
                             pid=os.getpid()) as pair_span:
                verdict = solve_pair(p, q, schema, attempt_config,
                                     engine=task_engine)
                pair_span.set(restricted=verdict.restricted)
        span = tracer.roots[0]
    else:
        verdict = solve_pair(p, q, schema, attempt_config,
                             engine=task_engine)
    elapsed = time.perf_counter() - started
    return slot, verdict, os.getpid(), elapsed, span


def _worker_main(conn, init_args: tuple) -> None:
    """Worker process entry point: recv tasks, send results, until EOF.

    A failed attempt is *reported*, not raised: the worker classifies the
    exception and sends a ``fail`` message, staying alive for the next
    task.  Only a hard crash (``os._exit``, a signal) silences it — which
    the parent observes as EOF on this pipe."""
    _worker_init(*init_args)
    conn.send(_READY)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            slot, verdict, pid, elapsed, span = _attempt(
                task, _WORKER["paths"], _WORKER["schema"], _WORKER["config"],
                _WORKER["chaos"], _WORKER["trace"], stage="worker")
        except BaseException as exc:  # classified, never fatal to the pool
            kind, detail = classify_exception(exc)
            conn.send(("fail", task, kind, detail))
            continue
        span_obj = obs.span_to_obj(span) if span is not None else None
        conn.send(("ok", task, (slot, verdict_to_obj(verdict), pid, elapsed,
                                span_obj)))


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def run_pair_sweep(
    analysis: AnalysisResult,
    config: CheckConfig | None = None,
    *,
    engine: str = "enum",
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: str | None = None,
    pair_deadline_s: float | None = None,
    retry: RetryPolicy | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    chaos: EngineChaosPlan | None = None,
) -> VerificationReport:
    """Verify every unordered pair of effectful paths of ``analysis``.

    ``pair_deadline_s`` bounds the wall clock of each solve attempt
    (default: :func:`~repro.engine.failures.default_deadline`, generous
    relative to the cooperative ``config.timeout_s`` budget); ``retry``
    sets the failure policy (attempts, backoff, degradation, engine
    fallback); ``checkpoint_every`` sets the mid-sweep cache-flush
    cadence (``0`` disables checkpointing); ``chaos`` injects a fault
    plan (tests and the ``engine-chaos`` harness only).

    The pre-solve reduction pipeline (:mod:`repro.engine.reduction`)
    always runs: read/write disjointness pruning and signature-class
    verdict sharing — one representative solved per class, members
    relabeled with full provenance.  ``engine`` may be ``"portfolio"``:
    each representative is one ordinary task whose attempt runs
    ``solve_pair(engine="portfolio")`` — enum first, SMT only when the
    enum verdict is not definitive."""
    config = config or CheckConfig()
    policy = retry or RetryPolicy()
    deadline_s = (pair_deadline_s if pair_deadline_s is not None
                  else default_deadline(config))
    wall_start = time.perf_counter()
    effectful = analysis.effectful_paths

    # The sweep always runs under a tracer: the ambient one when the
    # caller traces, otherwise a private tracer whose only job is to
    # carry the pair spans report.metrics is folded from.
    ambient = obs.current()
    tracer = ambient if ambient is not None else obs.Tracer(max_records=1)

    cache: ResultCache | None = None
    fingerprints: FingerprintContext | None = None
    if use_cache:
        cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR, analysis.app_name)
        fingerprints = FingerprintContext(analysis.schema, config, engine)

    with tracer.span(f"pair-sweep {analysis.app_name}", "pair-sweep",
                     app=analysis.app_name, engine=engine,
                     jobs_requested=jobs, mode="serial", jobs_used=1,
                     fallback_reason="", checkpoints=0, respawns=0,
                     cache="off" if cache is None else "on") as sweep_span:
        # Pass 1 — one solver-free plan (pruning, cache lookups,
        # signature-class assignment) resolves every pair it can and
        # queues only genuine solver work.  ``verdicts`` is
        # slot-addressed so results land in sweep order no matter how
        # they were computed.  The report hands this plan back, and the
        # service daemon reads its invalidation from it, which is what
        # keeps ``preview == actual solver calls`` true under class
        # sharing.
        plan = plan_sweep(analysis, config, engine=engine, cache=cache,
                          fingerprints=fingerprints)
        sweep_span.set(classes=plan.classes)
        verdicts: list = [None] * len(plan.pairs)
        queue: list[Task] = []
        slot_fp: dict[int, str] = {}
        slot_class: dict[int, str] = {}
        #: representative slot -> class members awaiting its verdict
        shared_members: dict[int, list] = {}

        counters = {"solved": 0, "since_checkpoint": 0, "checkpoints": 0}

        def put(fp: str, verdict, class_key: str | None) -> None:
            """Cache one verdict and checkpoint every
            ``checkpoint_every`` puts.  Every put — a representative's
            commit or a class member's share — goes through here, so the
            checkpoint count is ``puts // checkpoint_every`` whatever
            order the pairs complete in."""
            cache.put(fp, verdict, class_key=class_key)
            counters["since_checkpoint"] += 1
            if (checkpoint_every
                    and counters["since_checkpoint"] >= checkpoint_every):
                cache.flush()
                counters["checkpoints"] += 1
                counters["since_checkpoint"] = 0

        def resolve_shared(member, rep_verdict, cacheable: bool) -> None:
            """Relabel a representative's verdict for a class member."""
            verdict = shared_verdict(rep_verdict, member)
            verdicts[member.slot] = verdict
            tracer.record(
                f"{member.left.name} x {member.right.name}", "pair",
                left=member.left.name, right=member.right.name,
                route="shared", class_key=member.class_key[:12],
                representative=f"{rep_verdict.left} x {rep_verdict.right}",
                restricted=verdict.restricted,
            )
            # The member caches under its *own* fingerprint: a warm
            # re-verify hits directly without re-deriving the class.
            if (cacheable and cache is not None and member.fp is not None
                    and not verdict.unknown):
                put(member.fp, verdict, member.class_key)

        def commit(slot: int, verdict, task: Task) -> None:
            """Accept a solver verdict: store, maybe cache, checkpoint,
            and fan it out to any signature-class members waiting on it.

            Verdicts computed under a degraded budget or a fallback
            engine are *tainted* — correct, but not what this sweep's
            fingerprint describes — and are never cached."""
            verdicts[slot] = verdict
            counters["solved"] += 1
            tainted = task[5] > 0 or task[4] != engine
            fp = slot_fp.get(slot)
            if cache is not None and fp is not None and not tainted:
                put(fp, verdict, slot_class.get(slot))
            for member in shared_members.pop(slot, ()):
                resolve_shared(member, verdict, cacheable=not tainted)
            if (chaos is not None and chaos.abort_after_solved is not None
                    and counters["solved"] >= chaos.abort_after_solved):
                raise SweepAborted(
                    f"chaos: sweep aborted after {counters['solved']} "
                    f"solved pairs")

        def emit_unknown(slot: int, i: int, j: int,
                         failure: PairFailure) -> None:
            """Terminal degradation: conservative, restricted, uncached.

            Class members waiting on a failed representative degrade
            with it — each gets its own unknown verdict (provenance
            noting the representative), never a shared guess."""
            p, q = effectful[i], effectful[j]
            verdicts[slot] = unknown_verdict(
                p.name, q.name, failure,
                left_view=p.view, right_view=q.view)
            tracer.record(
                f"{p.name} x {q.name}", "pair",
                left=p.name, right=q.name, route="unknown",
                failure=failure.kind, attempts=failure.attempt,
                restricted=True,
            )
            for member in shared_members.pop(slot, ()):
                mv = unknown_verdict(
                    member.left.name, member.right.name, failure,
                    left_view=member.left.view,
                    right_view=member.right.view)
                mv.provenance = {
                    "source": "shared", "class": member.class_key,
                    "representative": [p.name, q.name],
                    "renaming": member.renaming or {},
                }
                verdicts[member.slot] = mv
                tracer.record(
                    f"{member.left.name} x {member.right.name}", "pair",
                    left=member.left.name, right=member.right.name,
                    route="unknown", failure=failure.kind,
                    attempts=failure.attempt, restricted=True,
                    shared=True,
                )

        for pp in plan.pairs:
            if pp.route == ROUTE_PRUNED:
                tracer.record(
                    f"{pp.left.name} x {pp.right.name}", "pair",
                    left=pp.left.name, right=pp.right.name,
                    route=f"pruned:{pp.tag}",
                    restricted=pp.verdict.restricted,
                )
                verdicts[pp.slot] = pp.verdict
            elif pp.route == ROUTE_CACHED:
                tracer.record(
                    f"{pp.left.name} x {pp.right.name}", "pair",
                    left=pp.left.name, right=pp.right.name, route="cached",
                    saved_s=pp.saved_s, restricted=pp.verdict.restricted,
                )
                verdicts[pp.slot] = pp.verdict
            elif pp.route == ROUTE_SHARED:
                rep = plan.pairs[pp.rep_slot]
                if rep.route == ROUTE_CACHED:
                    # Representative verdict already warm: share now.
                    resolve_shared(pp, rep.verdict, cacheable=True)
                else:
                    shared_members.setdefault(pp.rep_slot, []).append(pp)
            else:  # ROUTE_SOLVE
                if pp.fp is not None:
                    slot_fp[pp.slot] = pp.fp
                if pp.class_key:
                    slot_class[pp.slot] = pp.class_key
                queue.append((pp.slot, pp.i, pp.j, 0, engine, 0))

        # Pass 2 — drain the solver queue through the lanes.
        solve_start = time.perf_counter()
        try:
            _dispatch(
                analysis, config, engine, jobs, queue, tracer, sweep_span,
                traced=ambient is not None, policy=policy,
                deadline_s=deadline_s, chaos=chaos,
                commit=commit, emit_unknown=emit_unknown,
            )
        finally:
            # Whatever happens — including an injected SweepAborted —
            # solved work reaches disk; the atomic replace keeps the file
            # a complete snapshot, so a killed sweep resumes warm.
            if cache is not None and checkpoint_every:
                cache.flush()
        sweep_span.set(solve_wall_s=time.perf_counter() - solve_start,
                       checkpoints=counters["checkpoints"])

        if cache is not None:
            cache.flush()

        # One fold: the report's counters, and the ambient registry's
        # cross-run aggregates when metering is on.
        metrics = fold_sweep(sweep_span, metrics_registry.current())
        sweep_span.set(
            pairs=metrics["pairs_total"], pruned=metrics["pruned"],
            solver_calls=metrics["solver_calls"],
            unknowns=metrics["unknowns"],
            cache=f"{metrics['cache_hits']}h/{metrics['cache_misses']}m"
            if cache is not None else "off",
        )

    report = VerificationReport(analysis.app_name)
    for verdict in verdicts:
        report.verdicts.append(verdict)
        if verdict.commutativity is not None:
            report.time_commutativity_s += verdict.commutativity.elapsed_s
        if verdict.semantic is not None:
            report.time_semantic_s += verdict.semantic.elapsed_s
    report.elapsed_s = time.perf_counter() - wall_start
    report.metrics = metrics
    report.plan = plan
    return report


def _dispatch(
    analysis: AnalysisResult,
    config: CheckConfig,
    engine: str,
    jobs: int,
    queue: list[Task],
    tracer: "obs.Tracer",
    sweep_span: "obs.Span",
    *,
    traced: bool,
    policy: RetryPolicy,
    deadline_s: float,
    chaos: EngineChaosPlan | None,
    commit,
    emit_unknown,
) -> None:
    """Drain ``queue`` through lanes until every pair is resolved.

    One queue, one result handler, one retry path.  A *lane* runs one
    attempt at a time and answers with an ``("ok"|"fail", task, ...)``
    message: a spawn worker over its pipe (``jobs > 1`` and at least two
    tasks), or the in-process lane, which runs the attempt in the parent
    under the ``SIGALRM`` :func:`~repro.engine.failures.deadline`.

    Pair-level isolation: a worker that crashes or blows the per-pair
    deadline loses only its current attempt — the parent kills/collects
    it, classifies the failure, schedules a retry (backoff, possibly
    degraded budget or fallback engine) and respawns capacity.  When the
    pool machinery itself fails, the in-flight pairs (the likely poison)
    are recorded in ``fallback_reason``, the workers are reaped, and the
    same loop keeps draining through the in-process lane; every task
    keeps its attempt state.  A worker that dies before it reports
    ready, while the pool has delivered no result, died starting up (say,
    spawn could not re-import the main module): its task goes back
    uncharged, and ``n_workers`` such deaths are a pool failure.

    A portfolio task is one attempt like any other: ``solve_pair`` runs
    its lanes in sequence.  ``engine`` only tells a fallback retry from
    the sweep's own engine."""
    effectful = analysis.effectful_paths
    pending: list[list] = [[task, 0.0] for task in queue]
    resolved: set[int] = set()
    workers: dict[int, dict] = {}
    n_workers = min(jobs, len(queue))
    pooled = jobs > 1 and len(queue) >= 2
    respawns = 0
    results_seen = 0
    startup_deaths = 0

    def emit_pair_span(task: Task, verdict, pid, elapsed, span) -> None:
        """Land one lane result in the trace (graft or record)."""
        attrs = dict(attempts=task[3] + 1, route="solved")
        if task[4] != engine:
            attrs.update(engine_fallback=True, engine_used=task[4])
        if task[5]:
            attrs["degrade_level"] = task[5]
        if span is not None:
            span.attrs.update(attrs)
            span.attrs.setdefault("restricted", verdict.restricted)
            tracer.graft(span, parent=sweep_span)
        else:
            tracer.record(
                f"{verdict.left} x {verdict.right}", "pair",
                wall_s=elapsed, left=verdict.left,
                right=verdict.right, pid=pid,
                restricted=verdict.restricted, **attrs,
            )

    def fail_task(task: Task, kind: str, detail: str, stage: str) -> None:
        """Classify a failed attempt: retry or degrade to unknown.

        Either lane's failed attempt leaves one ``pair-failure`` record;
        no lane ships a ``pair`` span for it (a crashed worker cannot)."""
        slot, i, j, attempt, task_engine, _level = task
        p, q = effectful[i], effectful[j]
        tracer.record(
            f"{p.name} x {q.name}", "pair-failure",
            left=p.name, right=q.name, failure=kind,
            attempt=attempt + 1, stage=stage, engine=task_engine,
            detail=cap_text(detail),
        )
        next_task = plan_retry(task, kind, policy, base_engine=engine)
        if next_task is not None:
            pending.append([next_task, time.monotonic()
                            + policy.backoff_for(attempt + 1)])
            return
        emit_unknown(slot, i, j, PairFailure(
            kind, p.name, q.name, attempt + 1, stage, cap_text(detail)))
        resolved.add(slot)

    def handle(msg: tuple, stage: str) -> None:
        """Route one lane message: settle the pair, or retry/degrade."""
        kind_tag, task, *payload = msg
        if kind_tag == "fail":
            fail_task(task, payload[0], payload[1], stage)
            return
        slot, verdict, pid, elapsed, span = payload[0]
        emit_pair_span(task, verdict, pid, elapsed, span)
        resolved.add(slot)
        commit(slot, verdict, task)

    def solve_in_process(task: Task) -> tuple:
        """The in-process lane: one attempt in the parent, answered with
        the message a worker would send."""
        try:
            with deadline(deadline_s):
                result = _attempt(task, effectful, analysis.schema, config,
                                  chaos, traced, stage="serial")
        except Exception as exc:
            return ("fail", task, *classify_exception(exc))
        return ("ok", task, result)

    def reap(wid: int) -> Task | None:
        """Remove a dead/killed worker, returning its in-flight task."""
        state = workers.pop(wid)
        proc = state["proc"]
        if proc.is_alive():
            proc.terminate()
            proc.join(0.2)
            if proc.is_alive():
                proc.kill()
                proc.join(0.2)
        state["conn"].close()
        return state["task"]

    def bury(wid: int) -> Task | None:
        """Reap a dead worker; return its in-flight task when the death
        is charged to that task.  A start-up death (before the worker's
        ready message, with no result delivered yet) is the pool's
        failure: the task is requeued at its attempt state, and the
        ``n_workers``-th such death fails the pool."""
        nonlocal startup_deaths
        started = workers[wid]["started"]
        task = reap(wid)
        if started or results_seen:
            return task
        startup_deaths += 1
        if task is not None:
            pending.insert(0, [task, 0.0])
        if startup_deaths >= n_workers:
            raise RuntimeError(f"{startup_deaths} pool workers died during "
                               f"start-up before any result")
        return None

    def spawn() -> None:
        nonlocal spawned
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, init_args), daemon=True)
        proc.start()
        child_conn.close()  # parent's copy; needed for EOF detection
        workers[spawned] = {"proc": proc, "conn": parent_conn,
                            "task": None, "deadline": 0.0, "started": False}
        spawned += 1

    def drive_pool() -> None:
        """One round of the pool: assign, collect, watchdog, respawn."""
        nonlocal respawns, results_seen
        now = time.monotonic()
        # Assign ready work (past its backoff) to idle workers.
        for state in workers.values():
            if state["task"] is not None:
                continue
            index = next((k for k, (_, not_before) in enumerate(pending)
                          if not_before <= now), None)
            if index is None:
                break
            task, _ = pending.pop(index)
            try:
                state["conn"].send(task)
            except OSError:
                # Worker died while idle; put the task back — the
                # death sweep below reaps and respawns.
                pending.insert(0, [task, now])
                continue
            state["task"] = task
            state["deadline"] = now + deadline_s

        # Collect results from busy workers (EOF = worker death).
        busy = {id(state["conn"]): wid for wid, state in workers.items()
                if state["task"] is not None}
        if busy:
            ready = multiprocessing.connection.wait(
                [workers[wid]["conn"] for wid in busy.values()],
                timeout=0.05)
        else:
            ready = []
            if pending:
                time.sleep(0.01)  # backoff gap with no one to watch
        for conn in ready:
            wid = busy[id(conn)]
            state = workers[wid]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                task = bury(wid)
                if task is not None:
                    fail_task(task, CRASH, f"worker exited with code "
                              f"{state['proc'].exitcode}", "worker")
                continue
            if msg == _READY:
                state["started"] = True
                continue
            state["task"] = None
            results_seen += 1
            if (chaos is not None and chaos.pool_fail_after is not None
                    and results_seen > chaos.pool_fail_after):
                # The pool dies with this result undelivered.
                pending.append([msg[1], 0.0])
                raise RuntimeError("chaos: injected pool failure")
            if msg[0] == "ok":
                slot, verdict_obj, pid, elapsed, span_obj = msg[2]
                span = (obs.span_from_obj(span_obj) if span_obj is not None
                        else None)
                msg = ("ok", msg[1], (slot, verdict_from_obj(verdict_obj),
                                      pid, elapsed, span))
            handle(msg, "worker")

        # Watchdog: kill workers past the per-pair deadline.  The kill,
        # not the alarm, is the worker-side deadline — a solver wedged
        # in native search never checks a flag.
        now = time.monotonic()
        for wid in [w for w, state in workers.items()
                    if state["task"] is not None and now > state["deadline"]]:
            task = reap(wid)
            fail_task(task, TIMEOUT, f"watchdog killed worker after "
                      f"{deadline_s:.1f}s deadline", "worker")

        # Reap workers that died while idle (rare: init crash).
        for wid in [w for w, state in workers.items()
                    if not state["proc"].is_alive()]:
            task = bury(wid)
            if task is not None:
                fail_task(task, CRASH, "worker died unexpectedly", "worker")

        # Respawn capacity while unfinished work remains.
        while len(workers) < min(n_workers, len(queue) - len(resolved)):
            spawn()
            respawns += 1

    def fall_back(exc: Exception) -> None:
        """The pool failed: record why, reap it, requeue its in-flight
        tasks at their current attempt state for the in-process lane."""
        nonlocal pooled
        in_flight = sorted(
            f"{effectful[state['task'][1]].name} x "
            f"{effectful[state['task'][2]].name}"
            for state in workers.values() if state["task"] is not None)
        reason = cap_text(f"{type(exc).__name__}: {exc}")
        if in_flight:
            reason += "; in flight: " + cap_text(", ".join(in_flight))
        sweep_span.set(mode="serial", jobs_used=1, fallback_reason=reason,
                       respawns=respawns)
        for wid in list(workers):
            task = reap(wid)
            if task is not None:
                pending.append([task, 0.0])
        pooled = False

    spawned = 0
    try:
        if pooled:
            try:
                ctx = multiprocessing.get_context("spawn")
                init_args = (
                    json.dumps(schema_to_obj(analysis.schema)),
                    json.dumps([path_to_obj(p) for p in effectful]),
                    dataclasses.asdict(config), traced,
                    chaos.to_obj() if chaos else None)
                for _ in range(n_workers):
                    spawn()
            except Exception as exc:  # pool creation failed
                fall_back(exc)
        while len(resolved) < len(queue):
            if pooled:
                try:
                    drive_pool()
                except SweepAborted:
                    raise  # injected parent crash: never a fallback
                except Exception as exc:  # the drive loop died
                    fall_back(exc)
                continue
            now = time.monotonic()
            index = next((k for k, (_, not_before) in enumerate(pending)
                          if not_before <= now), None)
            if index is None:  # every queued retry is still backing off
                time.sleep(min(nb for _, nb in pending) - now)
                continue
            task, _ = pending.pop(index)
            handle(solve_in_process(task), "serial")
        if pooled:
            sweep_span.set(mode="parallel", jobs_used=n_workers,
                           respawns=respawns)
    finally:
        for wid in list(workers):
            state = workers[wid]
            if state["proc"].is_alive() and state["task"] is None:
                try:
                    state["conn"].send(None)  # graceful: let it exit
                except OSError:
                    pass
            reap(wid)
