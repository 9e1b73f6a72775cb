"""The bounded model finder: counterexample search for the checking rules.

Both checking rules (paper §2.2.1) are decided by searching the finite
scope for witnesses:

* **commutativity** — find ``S, x, y`` such that *applying* the two
  effects (replication semantics: guards skipped, an inapplicable effect
  no-ops) to ``S`` in the two orders diverges, where each effect can be
  *generated*: its precondition holds on some fresh state of its own
  originating site (paper §5.2; the feasibility states of
  :meth:`PairChecker._feasible`), not necessarily at ``S``;
* **semantic** (``NotInvalidate(P, Q)``) — find ``S, x, y`` with
  ``g_P(x, S)`` and ``g_Q(y, S)`` but ``¬g_P(x, S + Q(y))``.

A found witness is a *real* counterexample (it is produced by the reference
interpreter, not an abstraction); absence of a witness within scope and
budget counts as a pass, mirroring the paper's use of the SMT solver as a
counterexample finder (§5.2).

Both rules are decided in one walk over a deterministic candidate stream
(:meth:`PairChecker.search`): each rule examines the candidates its own
walk would and stops at its own first witness, and a sampled candidate
already examined in the walk is counted but not replayed.  A
commutativity candidate whose two first-level effects are *independent*
(by their recorded :class:`~repro.soir.interp.Footprint`: neither writes
a row, table or relation the other read) cannot diverge, so its two
second-level replays are skipped.  A candidate that cannot be a witness
is not replayed at all: a commutativity candidate with an ungeneratable
argument vector, and the semantic check's ``q`` side once ``p``'s
precondition failed.

The stream is the canonical suite, then one of two phases.  When the
scope's whole bounded state space (every state the sampler can draw)
times the untrimmed argument product fits in ``max_samples``, the stream
walks all of it and a PASS is a decision within the scope, tagged
``coverage="exhaustive"``; otherwise it draws ``max_samples`` seeded
samples and a PASS is tagged ``"sampled"``.
"""

from __future__ import annotations

import dataclasses
import random
import time
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


from ..metrics.registry import inc as _metric_inc, observe as _metric_observe
from ..obs import tracer as obs
from ..soir.interp import Footprint, apply_path, run_path
from ..soir.path import CodePath
from ..soir.schema import Schema
from ..soir.state import DBState
from .restrictions import CheckResult, Counterexample, Outcome
from .scopes import (
    ArgSampler,
    Scope,
    StateGenerator,
    build_scope,
    collect_args,
    env_product_size,
    env_products,
)


@dataclass
class CheckConfig:
    """Knobs of the bounded search."""

    ids_per_model: int = 2
    timeout_s: float = 2.0
    max_samples: int = 1200
    env_product_cap: int = 4096
    max_exhaustive: int = 30000
    #: the unique-ID optimisation (paper §5.2): storage-generated fresh IDs
    #: are globally distinct, so two inserts never collide on pk.
    unique_ids: bool = True
    #: order-aware encoding (paper §4.2).  When disabled, the verifier
    #: behaves like a classic order-less array encoding: any path using an
    #: order-related primitive cannot be verified and is restricted
    #: conservatively (the "unnecessary restrictions" of paper §2.2.2).
    order_enabled: bool = True
    seed: int = 0x5EED


def _env_key(env: dict) -> tuple:
    """Content key of an argument environment (``repr`` keeps ``1``,
    ``1.0`` and ``True`` apart)."""
    return tuple(sorted((k, repr(v)) for k, v in env.items()))


class PairChecker:
    """Runs both checks for one pair of effectful code paths."""

    def __init__(
        self,
        p: CodePath,
        q: CodePath,
        schema: Schema,
        config: CheckConfig | None = None,
        scope: Scope | None = None,
    ):
        self.p = p
        self.q = q
        self.schema = schema
        self.config = config or CheckConfig()
        self.scope = scope or build_scope(
            schema, [p, q], ids_per_model=self.config.ids_per_model
        )
        self.args_p = collect_args(p)
        self.args_q = collect_args(q)
        self.generator = StateGenerator(self.scope)
        self.sampler = ArgSampler(self.args_p, self.args_q, self.scope,
                                  unique_ids_distinct=self.config.unique_ids)

    # ------------------------------------------------------------------
    # The candidate stream.  One walk (``search``) reads it once for both
    # checks, so everything it reads per candidate is resolved once per
    # pair here; the stream itself is generated as it is walked, not
    # buffered (a buffered stream raised peak RSS by about 15%).

    @cached_property
    def canonical_states(self) -> list[DBState]:
        """The scope's canonical suite, shared by the walk and the
        feasibility states (consumers never mutate a candidate state)."""
        return self.generator.canonical_states()

    @cached_property
    def _env_plan(self) -> list[tuple[dict, dict, int, int]]:
        """The exhaustive argument products, each env with its memo key:
        equal-content envs share one small int."""
        cfg = self.config
        envs = env_products(
            self.args_p,
            self.args_q,
            self.scope,
            unique_ids_distinct=cfg.unique_ids,
            cap=cfg.env_product_cap,
        )
        interned: dict[tuple, int] = {}

        def key(env: dict) -> int:
            return interned.setdefault(_env_key(env), len(interned))

        return [(env_p, env_q, key(env_p), key(env_q))
                for env_p, env_q in envs or ()]

    @cached_property
    def _bounded_space(self) -> list[DBState] | None:
        """The states of the exhaustive phase, or None when the stream
        samples instead.

        The whole bounded space (:meth:`StateGenerator.all_states`) is
        walked when it, times the untrimmed env product, fits in
        ``max_samples``, and the canonical suite before it is walked
        whole.  The decision reads :meth:`StateGenerator.space_bound`,
        so a "no" builds no state.  States whose content equals a
        canonical state are left out: the suite already walked them."""
        cfg = self.config
        envs = len(self._env_plan)
        if not envs or envs != env_product_size(
                self.args_p, self.args_q, self.scope,
                unique_ids_distinct=cfg.unique_ids):
            return None
        if len(self.canonical_states) * envs > cfg.max_exhaustive:
            return None
        limit = cfg.max_samples // envs
        if self.generator.space_bound(limit) > limit:
            return None
        walked = {s.canonical(with_order=True) for s in self.canonical_states}
        return [state for canon, state in self.generator.all_states().items()
                if canon not in walked]

    def _candidates(self) -> Iterator[tuple]:
        """Deterministic candidate stream: canonical states × exhaustive
        argument products first, then the rest of the bounded space ×
        the same products when it fits the sample budget
        (:attr:`_bounded_space`), else seeded random sampling.

        Yields ``(state, env_p, env_q, memo_p, memo_q, sample_key)``.
        ``memo_p``/``memo_q`` name each side's env among the candidates
        sharing ``state``: a side's first-level result depends on its env
        alone, so the walk memoizes it per state.  ``sample_key`` is None
        for exhaustive candidates; for a sampled one it is the exact key
        of its draws (see :func:`_draw_key`)."""
        if self._env_plan:
            budget = max(1, self.config.max_exhaustive)
            for state in self.canonical_states:
                chunk = self._env_plan[:budget]
                for env_p, env_q, memo_p, memo_q in chunk:
                    yield state, env_p, env_q, memo_p, memo_q, None
                budget -= len(chunk)
                if budget <= 0:
                    break
        if self._bounded_space is not None:
            for state in self._bounded_space:
                for env_p, env_q, memo_p, memo_q in self._env_plan:
                    yield state, env_p, env_q, memo_p, memo_q, None
            return
        cfg = self.config
        # The per-pair stream must not depend on the process: built-in
        # ``hash()`` of strings is randomized per interpreter (PYTHONHASHSEED),
        # which made verdicts differ between processes — fatal for the
        # parallel engine and the result cache, where the same pair must
        # solve identically everywhere.
        pair_tag = zlib.crc32(f"{self.p.name}\x00{self.q.name}".encode())
        rng = random.Random(cfg.seed ^ pair_tag)
        self_pair = self.p is self.q
        for _ in range(cfg.max_samples):
            outcomes: list[int] = []
            state = self.generator.random_state(rng, outcomes)
            if state is None:
                continue
            env_p, env_q = self.sampler.draw(rng, outcomes)
            # Each sample carries a fresh state; only a self-pair drawing
            # equal envs shares one first-level result between its sides.
            same = (self_pair and env_p == env_q
                    and _env_key(env_p) == _env_key(env_q))
            memo_q = 0 if same else 1
            yield state, env_p, env_q, 0, memo_q, _draw_key(outcomes)

    # ------------------------------------------------------------------

    def _feasibility_states(self) -> list[DBState]:
        """States used to witness that an argument vector is generatable.

        The paper only requires an effect's precondition to hold on *some*
        fresh system state (§5.2), so beyond the scope's canonical states
        this includes states where the fresh-ID pool values already exist
        as rows (an ID that is fresh for one replica's insert may have
        long existed at another operation's originating site)."""
        states = list(self.canonical_states)
        extended_ids = {
            m: pks + self.scope.fresh_ids.get(m, [])
            for m, pks in self.scope.ids.items()
        }
        extended = StateGenerator(dataclasses.replace(self.scope, ids=extended_ids))
        states.extend(extended.canonical_states())
        # States over *only* the fresh-pool ids: the populated suites above
        # always fill base ids first, so a fresh-pool row never appears
        # without the base rows already holding every unique field value —
        # which would mask preconditions that need one of those values free.
        fresh_only_ids = {
            m: self.scope.fresh_ids.get(m) or pks
            for m, pks in self.scope.ids.items()
        }
        fresh_only = StateGenerator(
            dataclasses.replace(self.scope, ids=fresh_only_ids)
        )
        states.extend(fresh_only.canonical_states())
        rng = random.Random(self.config.seed ^ 0xFEA51B1E)
        for _ in range(12):
            sampled = extended.random_state(rng)
            if sampled is not None:
                states.append(sampled)
        return states

    def _feasible(self, path: CodePath, env: dict, cache: dict) -> bool:
        """Whether the argument vector can be *generated* at all.
        ``cache["__replays__"]`` counts the ``run_path`` replays made
        deciding it and ``cache["__seconds__"]`` the seconds spent, the
        feasibility states' construction included (neither grows when the
        answer is cached)."""
        key = (id(path), _env_key(env))
        cached = cache.get(key)
        if cached is not None:
            return cached
        started = time.perf_counter()
        states = cache.get("__states__")
        if states is None:
            states = self._feasibility_states()
            cache["__states__"] = states
        ok, replays = False, 0
        for state in states:
            replays += 1
            if run_path(path, state, env, self.schema).committed:
                ok = True
                break
        cache["__replays__"] = cache.get("__replays__", 0) + replays
        cache["__seconds__"] = (cache.get("__seconds__", 0.0)
                                + time.perf_counter() - started)
        cache[key] = ok
        return ok

    def search(self, deadline: float) -> dict[str, tuple[str, dict]]:
        """Both witness searches, structurally, in one walk over the
        candidate stream.

        Returns ``{"commutativity": (status, info), "semantic": (status,
        info)}`` where ``status`` is ``"fail"`` / ``"pass"`` /
        ``"timeout"``.  Each check examines the stream in order and stops
        at its own first witness, as a walk of its own would; the walk
        ends once both are decided, at ``deadline``, or with the stream.
        A sampled candidate whose key was already examined in this walk
        is counted but not replayed: the same paths on the same inputs
        give the same witness-free answer.  A commutativity candidate
        whose first-level effects have independent footprints
        (:meth:`~repro.soir.interp.Footprint.independent_of`) is decided
        without its two second-level replays: both orders end in the same
        state.  Only a candidate that can be a witness is replayed at all:
        a commutativity candidate with an argument vector no feasibility
        state generates (:meth:`_feasible`) is skipped before its applies
        — decided up front for an exhaustive candidate, whose env recurs
        on every state, and on a cached "no" for a sampled one — and the
        semantic check runs ``q``'s first-level replay only when ``p``'s
        committed.

        ``info`` counts the candidates a check examined, split into
        ``exhaustive`` and ``sampled`` (``repeats``: the sampled ones
        skipped as repeats; ``independent``: the commutativity ones
        decided without second-level replays; ``infeasible``: the
        commutativity ones skipped as ungeneratable, with no replay;
        ``feasibility``/``feasibility_s``: the ``run_path`` replays and
        seconds spent deciding generatability; all four 0 for semantic),
        plus ``replay_s``, the seconds spent in that
        check's own replays, and ``coverage``: on ``"pass"``,
        ``"exhaustive"`` when the stream walked the whole bounded space
        (:attr:`_bounded_space`) and ``"sampled"`` otherwise; empty on
        any other status.  On ``"fail"`` it also carries the *live*
        witness the restriction explainer (:mod:`repro.obs.explain`)
        replays — the :class:`~repro.soir.state.DBState` and both
        argument environments, plus for commutativity the two diverging
        result states (``s_pq``/``s_qp``), and for semantic the committed
        outcome of the invalidating side (``after``, on which the other
        precondition now fails) and ``direction`` (``"Q invalidates P"``
        / ``"P invalidates Q"``).
        """
        p, q, schema = self.p, self.q, self.schema
        # A check's counts are the stream's counts when it is decided.
        exhaustive = sampled = repeats = independent = infeasible = 0

        def counts(**witness) -> dict:
            return {"exhaustive": exhaustive, "sampled": sampled,
                    "repeats": repeats, **witness}

        com_s = sem_s = 0.0
        com = sem = None  # (status, info) once decided
        end = "pass"
        clock = time.perf_counter
        feasible_cache: dict = {}
        # Generatability of the env plan's envs, by their interned ids: a
        # hit builds no content key.
        gen_p: dict[int, bool] = {}
        gen_q = gen_p if p is q else {}

        def generatable(gen: dict, memo: int, path: CodePath,
                        env: dict) -> bool:
            ok = gen.get(memo)
            if ok is None:
                ok = gen[memo] = self._feasible(path, env, feasible_cache)
            return ok

        def refuted(path: CodePath, env: dict) -> bool:
            # a "no" that ``_feasible`` already cached, under its own key
            return feasible_cache.get((id(path), _env_key(env))) is False

        seen: set = set()
        # First-level results per memo key, for the current state (apply
        # results with their footprints).
        apply_p: dict[int, tuple[DBState, Footprint]] = {}
        apply_q = apply_p if p is q else {}
        run_p: dict[int, object] = {}
        run_q = run_p if p is q else {}
        last_state = None
        for state, env_p, env_q, memo_p, memo_q, sample_key in \
                self._candidates():
            now = clock()
            if now > deadline:
                end = "timeout"
                break
            if sample_key is None:
                exhaustive += 1
            else:
                sampled += 1
                if sample_key in seen:
                    repeats += 1
                    continue
                seen.add(sample_key)
            if state is not last_state:
                last_state = state
                for memo in (apply_p, apply_q, run_p, run_q):
                    memo.clear()
            if com is None:
                # A divergence is a witness only when both effects are
                # generatable.  An exhaustive env recurs on every state,
                # so it is decided before the applies; a sampled one is
                # skipped only on a known "no" and otherwise decided
                # after it diverges.
                if sample_key is None:
                    skip = not (generatable(gen_p, memo_p, p, env_p)
                                and generatable(gen_q, memo_q, q, env_q))
                else:
                    skip = refuted(p, env_p) or refuted(q, env_q)
                if skip:
                    infeasible += 1
                else:
                    first_p = apply_p.get(memo_p)
                    if first_p is None:
                        fp = Footprint()
                        first_p = apply_p[memo_p] = (
                            apply_path(p, state, env_p, schema, fp), fp)
                    first_q = apply_q.get(memo_q)
                    if first_q is None:
                        fp = Footprint()
                        first_q = apply_q[memo_q] = (
                            apply_path(q, state, env_q, schema, fp), fp)
                    if first_p[1].independent_of(first_q[1]):
                        independent += 1
                    else:
                        s_pq = apply_path(q, first_p[0], env_q, schema)
                        s_qp = apply_path(p, first_q[0], env_p, schema)
                        if not s_pq.same_state(s_qp) and (
                                sample_key is None
                                or (self._feasible(p, env_p, feasible_cache)
                                    and self._feasible(q, env_q,
                                                       feasible_cache))):
                            com = ("fail", counts(state=state, env_p=env_p,
                                                  env_q=env_q, s_pq=s_pq,
                                                  s_qp=s_qp))
                then = clock()
                com_s += then - now
                now = then
            if sem is None:
                # A witness needs both first-level runs to commit, so
                # ``q``'s is not run after ``p``'s aborted.
                out_p = run_p.get(memo_p)
                if out_p is None:
                    out_p = run_p[memo_p] = run_path(p, state, env_p, schema)
                after = direction = None
                if out_p.committed:
                    out_q = run_q.get(memo_q)
                    if out_q is None:
                        out_q = run_q[memo_q] = run_path(q, state, env_q,
                                                         schema)
                    if out_q.committed:
                        if not run_path(p, out_q.state, env_p,
                                        schema).committed:
                            after = out_q.state
                            direction = "Q invalidates P"
                        elif not run_path(q, out_p.state, env_q,
                                          schema).committed:
                            after = out_p.state
                            direction = "P invalidates Q"
                if direction is not None:
                    sem = ("fail", counts(state=state, env_p=env_p,
                                          env_q=env_q, after=after,
                                          direction=direction))
                sem_s += clock() - now
            if com is not None and sem is not None:
                break
        # Counters only the commutativity check keeps (0 on semantic).
        com_only = {"independent": independent, "infeasible": infeasible,
                    "feasibility": feasible_cache.get("__replays__", 0),
                    "feasibility_s": feasible_cache.get("__seconds__", 0.0)}
        out = {}
        for kind, decided, replay_s in (("commutativity", com, com_s),
                                        ("semantic", sem, sem_s)):
            status, info = decided or (end, counts())
            info["candidates"] = info["exhaustive"] + info["sampled"]
            for name, value in com_only.items():
                info[name] = value if kind == "commutativity" else 0
            info["coverage"] = "" if status != "pass" else (
                "sampled" if self._bounded_space is None else "exhaustive")
            info["replay_s"] = replay_s
            out[kind] = (status, info)
        return out

    @cached_property
    def _searched(self) -> dict[str, tuple[str, dict]]:
        """``search`` run on first use, under the pooled budget of both
        checks (``2 * timeout_s``).  Each check's ``info`` gains its share
        of the walk: ``wall_s`` is its own replay time plus half of the
        shared time (candidate generation and bookkeeping), and ``cpu_s``
        splits the walk's CPU time in the same proportion — the two
        shares sum to the walk."""
        start, cpu_start = time.perf_counter(), time.process_time()
        searched = self.search(start + 2 * self.config.timeout_s)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        shared = wall - sum(info["replay_s"] for _, info in searched.values())
        for _, info in searched.values():
            info["wall_s"] = info["replay_s"] + shared / 2
            info["cpu_s"] = cpu * info["wall_s"] / wall if wall else cpu / 2
        return searched

    def _check(self, kind: str) -> CheckResult:
        """One check's verdict read off the walk, with its own
        ``solver-call`` record."""
        status, info = self._searched[kind]
        elapsed = info["wall_s"]
        obs.record(
            f"enum search {self.p.name} x {self.q.name}", "solver-call",
            wall_s=elapsed, cpu_s=info["cpu_s"], backend="enum", check=kind,
            candidates=info["candidates"], exhaustive=info["exhaustive"],
            sampled=info["sampled"], repeats=info["repeats"],
            independent=info["independent"], infeasible=info["infeasible"],
            feasibility=info["feasibility"],
            # rounded as trace export rounds ``wall_s``, so the share
            # stays within it
            feasibility_s=round(info["feasibility_s"], 6), result=status,
            coverage=info["coverage"],
        )
        _metric_inc("noctua_solver_calls_total", backend="enum", result=status)
        _metric_observe("noctua_solver_call_seconds", elapsed, backend="enum")
        _metric_observe("noctua_solver_candidates", info["candidates"],
                        backend="enum")
        if status == "timeout":
            return CheckResult(self.p.name, self.q.name, kind,
                               Outcome.TIMEOUT, elapsed)
        if status == "pass":
            _metric_inc("noctua_enum_pass_total", coverage=info["coverage"])
            return CheckResult(self.p.name, self.q.name, kind,
                               Outcome.PASS, elapsed,
                               coverage=info["coverage"])
        return CheckResult(
            self.p.name, self.q.name, kind, Outcome.FAIL, elapsed,
            witness=Counterexample(
                description=info.get("direction",
                                     "application orders diverge"),
                state=repr(info["state"].canonical()),
                args_p=repr(info["env_p"]),
                args_q=repr(info["env_q"]),
                env_p=dict(info["env_p"]),
                env_q=dict(info["env_q"]),
            ),
        )

    def check_commutativity(self) -> CheckResult:
        """Counterexample search for paper rule 1.

        The two effects were generated concurrently, each at its *own*
        originating site (the paper asserts each precondition on an
        independent fresh state, §5.2); both are then applied to a common
        state ``S`` in the two possible orders, with replication
        semantics.  A divergence of the final states is a witness.
        The first of the two checks to be asked runs the shared walk.
        """
        return self._check("commutativity")

    def check_semantic(self) -> CheckResult:
        """``NotInvalidate(P,Q) ∧ NotInvalidate(Q,P)`` (paper rule 2).

        ``NotInvalidate(P,Q)`` fails on a witness ``S, x, y`` where both
        preconditions hold at ``S`` (so both effects can be generated from
        the common ancestor state of the concurrent execution) but ``g_P``
        no longer holds once ``Q``'s effect lands.
        """
        return self._check("semantic")


def _draw_key(outcomes: list[int]) -> bytes | tuple:
    """A sampled candidate's exact key: its state's draw outcomes
    (:meth:`StateGenerator.random_state`) and its arguments' content codes
    (:meth:`ArgSampler.draw`), packed one byte each, or kept as a tuple
    when one exceeds a byte — a tuple never equals bytes."""
    try:
        return bytes(outcomes)
    except ValueError:
        return tuple(outcomes)
