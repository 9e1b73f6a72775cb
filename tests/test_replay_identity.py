"""The interpreter's replays, pinned outcome by outcome.

One SHA-256 covers every first-level ``run_path`` and ``apply_path``
outcome of the canonical-suite candidates of every smallbank, courseware
and todo representative: whether the replay committed, its abort reason,
the resulting state with its order component, and (apply) the sorted
footprint read and write sets.  A change in how any of these replays
comes out — an abort, a reason, a ghost row, an order number, a
recorded footprint key — moves the digest, even where the verdicts
built on the replays would not move.
"""

from __future__ import annotations

import hashlib

from repro.analyzer import analyze_application
from repro.apps.courseware import build_app as build_courseware
from repro.apps.smallbank import build_app as build_smallbank
from repro.apps.todo import build_app as build_todo
from repro.engine.reduction import ROUTE_SOLVE, plan_sweep
from repro.soir.interp import Footprint, apply_path, run_path
from repro.verifier import CheckConfig, PairChecker

APPS = (("smallbank", build_smallbank), ("courseware", build_courseware),
        ("todo", build_todo))

#: the digest of the 9,321 outcomes below, computed with the tree-walking
#: interpreter the compiled replay replaced
DIGEST = "a2f93f2d1e659bbd9bfa5fa7e4a210ed5ede9099d92ee10553d3baeeab9e0634"


def _keys(keys: set) -> list[str]:
    return sorted(repr(k) for k in keys)


def replay_outcomes():
    """Yield one line per first-level replay, in stream order."""
    for app, build in APPS:
        analysis = analyze_application(build())
        schema = analysis.schema
        for plan in plan_sweep(analysis, CheckConfig()).pairs:
            if plan.route != ROUTE_SOLVE:
                continue
            p, q = plan.left, plan.right
            checker = PairChecker(p, q, schema)
            suite = {id(s) for s in checker.canonical_states}
            seen: set = set()
            for state, env_p, env_q, memo_p, memo_q, sample_key in \
                    checker._candidates():
                if sample_key is not None or id(state) not in suite:
                    break
                for side, path, env, memo in (("p", p, env_p, memo_p),
                                              ("q", q, env_q, memo_q)):
                    if (id(state), side, memo) in seen:
                        continue
                    seen.add((id(state), side, memo))
                    run = run_path(path, state, env, schema)
                    fp = Footprint()
                    applied = apply_path(path, state, env, schema, fp)
                    yield repr((
                        app, p.name, q.name, side, sorted(env.items()),
                        run.committed, run.reason,
                        run.state.canonical(with_order=True),
                        applied is not state,
                        applied.canonical(with_order=True),
                        _keys(fp.reads), _keys(fp.writes),
                    ))


def test_replay_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for line in replay_outcomes():
        digest.update(line.encode())
        digest.update(b"\n")
        count += 1
    assert count == 9321
    assert digest.hexdigest() == DIGEST
