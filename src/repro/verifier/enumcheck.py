"""The bounded model finder: counterexample search for the checking rules.

Both checking rules (paper §2.2.1) are decided by searching the finite
scope for witnesses:

* **commutativity** — find ``S, x, y`` with both preconditions holding at
  ``S`` (the concurrent operations' common ancestor state) such that
  *applying* the two effects (replication semantics: guards skipped, an
  inapplicable effect no-ops) in the two orders diverges;
* **semantic** (``NotInvalidate(P, Q)``) — find ``S, x, y`` with
  ``g_P(x, S)`` and ``g_Q(y, S)`` but ``¬g_P(x, S + Q(y))``.

A found witness is a *real* counterexample (it is produced by the reference
interpreter, not an abstraction); absence of a witness within scope and
budget counts as a pass, mirroring the paper's use of the SMT solver as a
counterexample finder (§5.2).
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
from ..soir.interp import apply_path, run_path
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
    # The candidate stream.  Both checks walk it in full, so everything
    # it reads per candidate is resolved once per pair here; the stream
    # itself is regenerated for each check, not buffered (a buffered
    # stream raised peak RSS by about 15%).

    @cached_property
    def canonical_states(self) -> list[DBState]:
        """The scope's canonical suite, shared by both checks and the
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

    def _exhaustive(self) -> Iterator[tuple[DBState, list]]:
        """Canonical states x argument products, state-major: each state
        with its slice of ``_env_plan``, ``max_exhaustive`` in all."""
        if not self._env_plan:
            return
        budget = max(1, self.config.max_exhaustive)
        for state in self.canonical_states:
            chunk = self._env_plan[:budget]
            yield state, chunk
            budget -= len(chunk)
            if budget <= 0:
                return

    def _random(self) -> Iterator[tuple[DBState, dict, dict]]:
        """Seeded random sampling: ``max_samples`` draws of a state and
        both sides' arguments."""
        cfg = self.config
        # The per-pair stream must not depend on the process: built-in
        # ``hash()`` of strings is randomized per interpreter (PYTHONHASHSEED),
        # which made verdicts differ between processes — fatal for the
        # parallel engine and the result cache, where the same pair must
        # solve identically everywhere.
        pair_tag = zlib.crc32(f"{self.p.name}\x00{self.q.name}".encode())
        rng = random.Random(cfg.seed ^ pair_tag)
        for _ in range(cfg.max_samples):
            state = self.generator.random_state(rng)
            if state is None:
                continue
            env_p, env_q = self.sampler.draw(rng)
            yield state, env_p, env_q

    def _candidates(self) -> Iterator[tuple[DBState, dict, dict]]:
        """Deterministic candidate stream: canonical states × exhaustive
        argument products first, then seeded random sampling."""
        for state, chunk in self._exhaustive():
            for env_p, env_q, _, _ in chunk:
                yield state, env_p, env_q
        yield from self._random()

    def _first_level(self, run) -> Iterator[tuple]:
        """``_candidates`` with each side's own result of ``run``
        (``apply_path`` or ``run_path``) from the candidate state:
        ``(state, env_p, env_q, r_p, r_q)``.

        A side's result depends on its env alone, so in the state-major
        exhaustive phase it is memoized per env for the current state —
        cutting the interpreter work for a full sweep roughly in half.
        Random candidates each carry a fresh state: nothing is memoized,
        except that a self-pair drawing equal envs runs once."""
        p, q, schema = self.p, self.q, self.schema
        memo_p: dict[int, object] = {}
        memo_q = memo_p if p is q else {}
        for state, chunk in self._exhaustive():
            memo_p.clear()
            memo_q.clear()
            for env_p, env_q, key_p, key_q in chunk:
                r_p = memo_p.get(key_p)
                if r_p is None:
                    r_p = memo_p[key_p] = run(p, state, env_p, schema)
                r_q = memo_q.get(key_q)
                if r_q is None:
                    r_q = memo_q[key_q] = run(q, state, env_q, schema)
                yield state, env_p, env_q, r_p, r_q
        for state, env_p, env_q in self._random():
            r_p = run(p, state, env_p, schema)
            if p is q and env_p == env_q and _env_key(env_p) == _env_key(env_q):
                r_q = r_p
            else:
                r_q = run(q, state, env_q, schema)
            yield state, env_p, env_q, r_p, r_q

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
        """Whether the argument vector can be *generated* at all."""
        key = (id(path), _env_key(env))
        cached = cache.get(key)
        if cached is not None:
            return cached
        states = cache.get("__states__")
        if states is None:
            states = self._feasibility_states()
            cache["__states__"] = states
        ok = any(
            run_path(path, state, env, self.schema).committed for state in states
        )
        cache[key] = ok
        return ok

    def search_commutativity(self, deadline: float) -> tuple[str, dict]:
        """The commutativity witness search, structurally.

        Returns ``(status, info)`` where ``status`` is ``"fail"`` /
        ``"pass"`` / ``"timeout"``.  On ``"fail"``, ``info`` carries the
        *live* witness — the :class:`~repro.soir.state.DBState` and both
        argument environments plus the two diverging result states — which
        is what the restriction explainer (:mod:`repro.obs.explain`)
        replays.  ``info["candidates"]`` always counts the scenarios
        examined (surfaced on the ``solver-call`` trace span).
        """
        feasible_cache: dict = {}
        candidates = 0
        for state, env_p, env_q, a_p, a_q in self._first_level(apply_path):
            if time.perf_counter() > deadline:
                return "timeout", {"candidates": candidates}
            candidates += 1
            s_pq = apply_path(self.q, a_p, env_q, self.schema)
            s_qp = apply_path(self.p, a_q, env_p, self.schema)
            if s_pq.same_state(s_qp):
                continue
            # Divergence found — confirm both effects are generatable.
            if not self._feasible(self.p, env_p, feasible_cache):
                continue
            if not self._feasible(self.q, env_q, feasible_cache):
                continue
            return "fail", {
                "candidates": candidates,
                "state": state,
                "env_p": env_p,
                "env_q": env_q,
                "s_pq": s_pq,
                "s_qp": s_qp,
            }
        return "pass", {"candidates": candidates}

    def check_commutativity(self) -> CheckResult:
        """Counterexample search for paper rule 1.

        The two effects were generated concurrently, each at its *own*
        originating site (the paper asserts each precondition on an
        independent fresh state, §5.2); both are then applied to a common
        state ``S`` in the two possible orders, with replication
        semantics.  A divergence of the final states is a witness.
        """
        start, cpu_start = time.perf_counter(), time.process_time()
        status, info = self.search_commutativity(start + self.config.timeout_s)
        elapsed = time.perf_counter() - start
        obs.record(
            f"enum search {self.p.name} x {self.q.name}", "solver-call",
            wall_s=elapsed, cpu_s=time.process_time() - cpu_start,
            backend="enum", check="commutativity",
            candidates=info["candidates"], result=status,
        )
        _metric_inc("noctua_solver_calls_total", backend="enum", result=status)
        _metric_observe("noctua_solver_call_seconds", elapsed, backend="enum")
        _metric_observe("noctua_solver_candidates", info["candidates"],
                        backend="enum")
        if status == "timeout":
            return CheckResult(self.p.name, self.q.name, "commutativity",
                               Outcome.TIMEOUT, elapsed)
        if status == "pass":
            return CheckResult(self.p.name, self.q.name, "commutativity",
                               Outcome.PASS, elapsed)
        return CheckResult(
            self.p.name, self.q.name, "commutativity", Outcome.FAIL, elapsed,
            witness=Counterexample(
                description="application orders diverge",
                state=repr(info["state"].canonical()),
                args_p=repr(info["env_p"]),
                args_q=repr(info["env_q"]),
                env_p=dict(info["env_p"]),
                env_q=dict(info["env_q"]),
            ),
        )

    def search_semantic(self, deadline: float) -> tuple[str, dict]:
        """The NotInvalidate witness search, structurally.

        On ``"fail"``, ``info`` carries the common state, both argument
        environments, the committed outcome of the invalidating side
        (``after`` — the state on which the other precondition now fails)
        and ``direction`` (``"Q invalidates P"`` / ``"P invalidates Q"``).
        """
        candidates = 0
        for state, env_p, env_q, out_p, out_q in self._first_level(run_path):
            if time.perf_counter() > deadline:
                return "timeout", {"candidates": candidates}
            candidates += 1
            if not (out_p.committed and out_q.committed):
                continue
            if not run_path(self.p, out_q.state, env_p, self.schema).committed:
                return "fail", {
                    "candidates": candidates,
                    "state": state,
                    "env_p": env_p,
                    "env_q": env_q,
                    "after": out_q.state,
                    "direction": "Q invalidates P",
                }
            if not run_path(self.q, out_p.state, env_q, self.schema).committed:
                return "fail", {
                    "candidates": candidates,
                    "state": state,
                    "env_p": env_p,
                    "env_q": env_q,
                    "after": out_p.state,
                    "direction": "P invalidates Q",
                }
        return "pass", {"candidates": candidates}

    def check_semantic(self) -> CheckResult:
        """``NotInvalidate(P,Q) ∧ NotInvalidate(Q,P)`` (paper rule 2).

        ``NotInvalidate(P,Q)`` fails on a witness ``S, x, y`` where both
        preconditions hold at ``S`` (so both effects can be generated from
        the common ancestor state of the concurrent execution) but ``g_P``
        no longer holds once ``Q``'s effect lands.
        """
        start, cpu_start = time.perf_counter(), time.process_time()
        status, info = self.search_semantic(start + self.config.timeout_s)
        elapsed = time.perf_counter() - start
        obs.record(
            f"enum search {self.p.name} x {self.q.name}", "solver-call",
            wall_s=elapsed, cpu_s=time.process_time() - cpu_start,
            backend="enum", check="semantic",
            candidates=info["candidates"], result=status,
        )
        _metric_inc("noctua_solver_calls_total", backend="enum", result=status)
        _metric_observe("noctua_solver_call_seconds", elapsed, backend="enum")
        _metric_observe("noctua_solver_candidates", info["candidates"],
                        backend="enum")
        if status == "timeout":
            return CheckResult(self.p.name, self.q.name, "semantic",
                               Outcome.TIMEOUT, elapsed)
        if status == "pass":
            return CheckResult(self.p.name, self.q.name, "semantic",
                               Outcome.PASS, elapsed)
        return CheckResult(
            self.p.name, self.q.name, "semantic", Outcome.FAIL, elapsed,
            witness=Counterexample(
                description=info["direction"],
                state=repr(info["state"].canonical()),
                args_p=repr(info["env_p"]),
                args_q=repr(info["env_q"]),
                env_p=dict(info["env_p"]),
                env_q=dict(info["env_q"]),
            ),
        )
