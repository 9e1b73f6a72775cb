"""The "why restricted?" explainer.

For any pair of code paths, answers the question a restriction set alone
cannot: *what concretely goes wrong if these two run concurrently?*  The
explainer re-runs the bounded witness search structurally
(:meth:`PairChecker.search`, one walk deciding both checks), then
**replays the witness schedule through the SOIR reference interpreter**
and renders:

* the witness arguments and the common ancestor state ``S``;
* for a commutativity failure — both application orders, the final state
  of each, and the exact rows/associations on which they diverge;
* for a semantic failure — the state after the invalidating effect and
  the first guard of the invalidated path that no longer holds (the
  broken invariant), pretty-printed as SOIR;
* the SOIR operations of each path responsible for the conflict (those
  touching the diverged models/relations).

Pairs resolved by the solver-free fast layers (conservative paths,
order-encoding-off, disjoint footprints, read/write-disjoint footprints)
are explained from the layer's own reasoning — including the analyzer's
recorded fallback reason for conservative paths and the column-level
footprints for read/write-disjoint prunes.  Verdicts shared from a
signature-class representative explain with their provenance header
(representative pair + member → representative renaming) in
:func:`explain_report`.

Everything is deterministic: the search is seeded per pair, the renderer
sorts every collection, and no timings appear in the output — the same
application explains identically on every machine
(``tests/test_obs_explain.py`` pins this).

This module imports :mod:`repro.verifier` and is therefore *not*
re-exported from ``repro.obs`` (the verifier itself is instrumented by
``repro.obs.tracer``); import it directly::

    from repro.obs import explain
    print(explain.explain_pair(analysis, "AddCourse[0]", "DeleteCourse[0]"))
"""

from __future__ import annotations

from ..soir.interp import Interpreter, PathAborted
from ..soir.path import AnalysisResult, CodePath
from ..soir.pretty import pp_command, pp_expr, pp_state
from ..soir.schema import Schema
from ..soir.state import DBState
from ..soir import commands as C

__all__ = ["explain_pair", "explain_report", "explain_flip",
           "diff_states", "ExplainError"]


class ExplainError(ValueError):
    """The requested pair cannot be resolved against the analysis."""


# ---------------------------------------------------------------------------
# Pair resolution
# ---------------------------------------------------------------------------


def _resolve(analysis: AnalysisResult, name: str) -> CodePath:
    """A path by exact name, or a view name with one effectful path."""
    for path in analysis.paths:
        if path.name == name:
            return path
    by_view = [p for p in analysis.effectful_paths if p.view == name]
    if len(by_view) == 1:
        return by_view[0]
    if by_view:
        options = ", ".join(p.name for p in by_view)
        raise ExplainError(
            f"{name!r} names {len(by_view)} effectful paths ({options}); "
            f"pick one"
        )
    known = ", ".join(sorted(p.name for p in analysis.paths))
    raise ExplainError(f"no code path named {name!r}; known paths: {known}")


def _sweep_order(
    analysis: AnalysisResult, p: CodePath, q: CodePath
) -> tuple[CodePath, CodePath]:
    """Orient the pair the way the verification sweep visits it
    (``i <= j`` over the effectful-path list), so witness directions
    match the report's verdicts."""
    order = {path.name: i for i, path in enumerate(analysis.effectful_paths)}
    i, j = order.get(p.name), order.get(q.name)
    if i is not None and j is not None and i > j:
        return q, p
    return p, q


# ---------------------------------------------------------------------------
# State differencing and command attribution
# ---------------------------------------------------------------------------


def diff_states(a: DBState, b: DBState) -> list[str]:
    """Row/association-level differences between two states.

    Returns sorted, human-readable lines, each tagged with the model or
    relation it concerns; empty when the states agree (modulo the order
    component, matching the commutativity check's equality)."""
    lines: list[str] = []
    models = sorted(set(a.tables) | set(b.tables))
    for model in models:
        rows_a = a.tables.get(model, {})
        rows_b = b.tables.get(model, {})
        for pk in sorted(set(rows_a) | set(rows_b), key=repr):
            in_a, in_b = pk in rows_a, pk in rows_b
            if in_a and not in_b:
                lines.append(f"{model}[{pk!r}]: present in order A, "
                             f"missing in order B")
            elif in_b and not in_a:
                lines.append(f"{model}[{pk!r}]: missing in order A, "
                             f"present in order B")
            elif rows_a[pk] != rows_b[pk]:
                for field in sorted(set(rows_a[pk]) | set(rows_b[pk])):
                    va, vb = rows_a[pk].get(field), rows_b[pk].get(field)
                    if va != vb:
                        lines.append(
                            f"{model}[{pk!r}].{field}: "
                            f"{va!r} (order A) vs {vb!r} (order B)"
                        )
    for relation in sorted(set(a.assocs) | set(b.assocs)):
        pairs_a = a.assocs.get(relation, set())
        pairs_b = b.assocs.get(relation, set())
        for pair in sorted(pairs_a ^ pairs_b, key=repr):
            where = "order A" if pair in pairs_a else "order B"
            lines.append(f"{relation}{pair!r}: only in {where}")
    return lines


def _diff_subjects(diff_lines: list[str]) -> set[str]:
    """The model/relation names a diff talks about (text before ``[``/``(``
    or ``:``)."""
    subjects: set[str] = set()
    for line in diff_lines:
        head = line.split(":", 1)[0]
        for sep in ("[", "("):
            head = head.split(sep, 1)[0]
        subjects.add(head)
    return subjects


def _command_subjects(cmd: C.Command) -> set[str]:
    """The models and relations one command reads or writes."""
    subjects: set[str] = set()
    relation = getattr(cmd, "relation", None)
    if relation is not None:
        subjects.add(relation)
    for node in cmd.walk_exprs():
        node_type = node.type
        if node_type.is_model_type():
            subjects.add(node_type.model)
        relpath = getattr(node, "relpath", None)
        if relpath:
            for hop in relpath:
                subjects.add(hop.relation)
    return subjects


def _responsible_ops(
    path: CodePath, subjects: set[str]
) -> list[str]:
    """The path's effectful commands touching any of ``subjects``."""
    out = []
    for cmd in path.effects:
        if _command_subjects(cmd) & subjects:
            out.append(pp_command(cmd))
    return out


def _first_failing_command(
    path: CodePath, state: DBState, env: dict, schema: Schema
) -> tuple[C.Command | None, str]:
    """Replay ``path`` in generation mode and return the command at which
    it aborts (plus the interpreter's reason) — the broken invariant."""
    interp = Interpreter(schema, state.clone(), env)
    for cmd in path.commands:
        try:
            interp.exec(cmd)
        except PathAborted as abort:
            return cmd, abort.reason
    return None, ""


# ---------------------------------------------------------------------------
# Section renderers
# ---------------------------------------------------------------------------


def _fmt_env(env: dict) -> str:
    if not env:
        return "(no arguments)"
    return ", ".join(f"{k}={env[k]!r}" for k in sorted(env))


def _path_block(path: CodePath) -> list[str]:
    lines = [f"  {path.name} (endpoint {path.view or '?'}):"]
    for cmd in path.commands:
        lines.append(f"    {pp_command(cmd)}")
    return lines


def _commutativity_section(p, q, info) -> list[str]:
    s_pq, s_qp = info["s_pq"], info["s_qp"]
    diff = diff_states(s_pq, s_qp)
    subjects = _diff_subjects(diff)
    lines = ["-- commutativity: FAIL (application orders diverge) --", ""]
    lines.append("witness arguments:")
    lines.append(f"  P = {p.name} with {_fmt_env(info['env_p'])}")
    lines.append(f"  Q = {q.name} with {_fmt_env(info['env_q'])}")
    lines.append("common ancestor state S:")
    lines.append(pp_state(info["state"]))
    lines.append("witness schedule (replication semantics — each effect was")
    lines.append("accepted at its own site, then applied everywhere):")
    lines.append(f"  order A: S + P + Q      order B: S + Q + P")
    lines.append("final state, order A (P then Q):")
    lines.append(pp_state(s_pq))
    lines.append("final state, order B (Q then P):")
    lines.append(pp_state(s_qp))
    lines.append("diverging state:")
    for line in diff or ["  (no row-level diff — order-component only)"]:
        lines.append(f"  {line}")
    lines.append("SOIR operations responsible:")
    for path in (p, q):
        ops = _responsible_ops(path, subjects)
        for op in ops or ["(no single operation attributable)"]:
            lines.append(f"  {path.name}: {op}")
    return lines


def _semantic_section(p, q, info, schema) -> list[str]:
    direction = info["direction"]
    if direction == "Q invalidates P":
        invalidator, invalidated = q, p
        env_inv, env_victim = info["env_q"], info["env_p"]
    else:
        invalidator, invalidated = p, q
        env_inv, env_victim = info["env_p"], info["env_q"]
    after = info["after"]
    failing_cmd, reason = _first_failing_command(
        invalidated, after, env_victim, schema
    )
    lines = [f"-- semantic: FAIL ({invalidator.name} invalidates "
             f"{invalidated.name}) --", ""]
    lines.append("witness arguments:")
    lines.append(f"  P = {p.name} with {_fmt_env(info['env_p'])}")
    lines.append(f"  Q = {q.name} with {_fmt_env(info['env_q'])}")
    lines.append("common ancestor state S (both preconditions hold here):")
    lines.append(pp_state(info["state"]))
    lines.append(f"after {invalidator.name} with {_fmt_env(env_inv)} "
                 f"commits, the state is:")
    lines.append(pp_state(after))
    lines.append(f"replaying {invalidated.name} on that state aborts:")
    if failing_cmd is not None:
        if isinstance(failing_cmd, C.Guard):
            lines.append("  invalidated invariant (path condition):")
            lines.append(f"    {pp_expr(failing_cmd.cond)}")
        else:
            lines.append("  failing operation:")
            lines.append(f"    {pp_command(failing_cmd)}")
        if reason:
            lines.append(f"  reason: {reason}")
    else:
        lines.append("  (abort not reproducible command-by-command; "
                     "the full replay aborts)")
    return lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def explain_pair(
    analysis: AnalysisResult,
    left: str,
    right: str,
    config=None,
) -> str:
    """A human-readable account of why ``(left, right)`` is (or is not)
    restricted.

    ``left``/``right`` are code-path names (``View[i]``) or view names
    with a single effectful path.  The search runs with ``config`` (a
    :class:`~repro.verifier.CheckConfig`; defaults mirror the verifier's)
    through the *enum* backend — witnesses must be concretely replayable
    through the reference interpreter, and the two backends agree on
    verdicts."""
    from ..engine.reduction import prune_pair, rw_footprint
    from ..verifier.enumcheck import CheckConfig, PairChecker
    from ..verifier.runner import PRUNE_RW
    import time

    config = config or CheckConfig()
    p = _resolve(analysis, left)
    q = _resolve(analysis, right)
    p, q = _sweep_order(analysis, p, q)
    lines = [f"pair: {p.name} x {q.name}", ""]
    lines.append("code paths under analysis:")
    lines.extend(_path_block(p))
    if q.name != p.name:
        lines.extend(_path_block(q))
    lines.append("")

    if not (p.is_effectful() and q.is_effectful()):
        readonly = p if not p.is_effectful() else q
        lines.append(f"verdict: NOT RESTRICTED — {readonly.name} is not "
                     f"effectful (read-only or aborted), so the pair is "
                     f"outside the verification sweep.")
        return "\n".join(lines)

    classified = prune_pair(p, q, analysis.schema, config)
    if classified is not None:
        verdict, tag = classified
        if tag == "disjoint":
            lines.append("verdict: NOT RESTRICTED (fast layer: disjoint "
                         "footprints)")
            lines.append("the two paths touch no common model or relation; "
                         "their effects cannot interact.")
            return "\n".join(lines)
        if tag == PRUNE_RW:
            lines.append("verdict: NOT RESTRICTED (fast layer: disjoint "
                         "read/write footprints)")
            lines.append("neither path writes anything the other reads or "
                         "writes, so the pair provably commutes and cannot "
                         "invalidate (docs/REDUCTION.md):")
            def fmt(tokens):
                return (", ".join("/".join(t) for t in sorted(tokens))
                        or "(nothing)")

            for path in (p, q):
                reads, writes = rw_footprint(path, analysis.schema)
                lines.append(f"  {path.name}:")
                lines.append(f"    reads:  {fmt(reads)}")
                lines.append(f"    writes: {fmt(writes)}")
            return "\n".join(lines)
        lines.append("verdict: RESTRICTED (fast layer: "
                     + ("conservative path)" if tag == "conservative"
                        else "order encoding disabled)"))
        for check in (verdict.commutativity, verdict.semantic):
            if check is not None and check.detail:
                lines.append(f"  {check.kind}: {check.detail}")
        if tag == "conservative":
            culprit = p if p.conservative else q
            if culprit.abort_reason:
                lines.append(f"  analyzer fallback reason: "
                             f"{culprit.abort_reason}")
            lines.append("  a conservatively-analyzed path is restricted "
                         "against every operation (paper §3.3).")
        return "\n".join(lines)

    checker = PairChecker(p, q, analysis.schema, config)
    searched = checker.search(time.perf_counter() + 2 * config.timeout_s)
    com_status, com_info = searched["commutativity"]
    sem_status, sem_info = searched["semantic"]

    restricted = com_status != "pass" or sem_status != "pass"
    lines.append(f"verdict: {'RESTRICTED' if restricted else 'NOT RESTRICTED'}"
                 f" (commutativity {com_status}, semantic {sem_status})")
    lines.append("")
    if com_status == "fail":
        lines.extend(_commutativity_section(p, q, com_info))
        lines.append("")
    elif com_status == "timeout":
        lines.append("-- commutativity: TIMEOUT (restricted "
                     "conservatively; raise the budget to witness) --")
        lines.append("")
    if sem_status == "fail":
        lines.extend(_semantic_section(p, q, sem_info, analysis.schema))
    elif sem_status == "timeout":
        lines.append("-- semantic: TIMEOUT (restricted conservatively; "
                     "raise the budget to witness) --")
    if not restricted:
        lines.append(f"no witness found within scope "
                     f"(examined {com_info['candidates']} commutativity and "
                     f"{sem_info['candidates']} semantic scenarios); the "
                     f"pair may run concurrently under PoR.")
    for kind, (status, info) in searched.items():
        if status == "pass":
            skipped = (f"{info['infeasible']} ungeneratable (not "
                       f"replayed); {info['independent']} independent "
                       f"(orders not replayed); "
                       if kind == "commutativity" else "")
            lines.append(f"  {kind}: {info['exhaustive']} exhaustive + "
                         f"{info['sampled']} sampled ({info['repeats']} "
                         f"sampled repeats not replayed); {skipped}"
                         f"PASS coverage: {info['coverage']}")
    return "\n".join(lines).rstrip() + "\n"


def _engine_failure_section(verdict) -> str:
    """Render an ``unknown`` verdict: the engine failed, not the pair.

    These verdicts carry no witness — the restriction is the engine's
    conservative reaction to its own failure (crash, deadline, solver
    error), so re-searching for a witness here would misattribute the
    restriction.  The check detail says which failure and on which
    attempt; a re-run (the verdict is never cached) or a larger
    ``--deadline`` may decide the pair."""
    lines = [f"pair: {verdict.left} x {verdict.right}", ""]
    lines.append("verdict: RESTRICTED (conservative — the engine could "
                 "not decide this pair)")
    for check in (verdict.commutativity, verdict.semantic):
        if check is not None and check.detail:
            lines.append(f"  {check.kind}: {check.detail}")
            break  # both checks carry the same engine-failure detail
    lines.append("  no witness exists for this restriction: it reflects "
                 "an engine failure, not pair semantics.")
    lines.append("  the verdict was not cached; re-run the verification "
                 "(optionally with a larger --deadline) to decide the "
                 "pair.")
    return "\n".join(lines) + "\n"


def _shared_provenance_header(verdict) -> str:
    """Note that a verdict was shared from its signature-class
    representative, rendering the recorded renaming.

    The explanation that follows re-derives the witness for the member
    pair itself (the checkers are deterministic), so the reader sees
    both where the verdict came from and a witness in the member's own
    vocabulary."""
    prov = verdict.provenance or {}
    rep = prov.get("representative") or ["?", "?"]
    lines = [f"[shared verdict] solved once as representative "
             f"{rep[0]} x {rep[1]} (signature class "
             f"{str(prov.get('class', ''))[:12]}) and shared with "
             f"{verdict.left} x {verdict.right}."]
    renaming = prov.get("renaming") or {}
    if renaming:
        lines.append("  member -> representative renaming:")
        for kind in sorted(renaming):
            pairs = ", ".join(f"{a} -> {b}" for a, b in
                              sorted(renaming[kind].items()))
            lines.append(f"    {kind}: {pairs}")
    else:
        lines.append("  (identical names; the renaming is the identity)")
    return "\n".join(lines) + "\n"


def explain_report(
    analysis: AnalysisResult,
    report,
    config=None,
    *,
    limit: int | None = None,
) -> str:
    """Explain every restricted pair of a
    :class:`~repro.verifier.VerificationReport` (up to ``limit``).

    Verdicts shared from a signature-class representative are prefixed
    with their provenance (representative pair + renaming) before the
    member-level explanation."""
    sections: list[str] = []
    restrictions = report.restrictions
    shown = restrictions if limit is None else restrictions[:limit]
    for verdict in shown:
        if getattr(verdict, "unknown", False):
            sections.append(_engine_failure_section(verdict))
            continue
        prov = getattr(verdict, "provenance", None) or {}
        if prov.get("source") == "shared":
            sections.append(_shared_provenance_header(verdict))
        sections.append(explain_pair(
            analysis, verdict.left, verdict.right, config,
        ))
    if limit is not None and len(restrictions) > limit:
        sections.append(f"... {len(restrictions) - limit} further "
                        f"restricted pairs not shown (--explain-all)\n")
    if not restrictions:
        sections.append(f"{report.app_name}: no restricted pairs — every "
                        f"operation pair may run concurrently.\n")
    return "\n".join(sections)


# ---------------------------------------------------------------------------
# Directed difftest flips
# ---------------------------------------------------------------------------

def explain_flip(flip: dict) -> str:
    """Render one directed-difftest boundary crossing.

    Takes the plain-dict form (:meth:`FlipRecord.to_obj`) rather than
    the record itself so report JSON written by
    ``benchmarks/bench_directed_ab.py`` or a ``--directed`` sweep can be
    explained without importing :mod:`repro.difftest` — and without
    this module growing a dependency on it."""
    direction = flip.get("direction", "?")
    op = flip.get("op", "?")
    verb = ("one mutation made the case diverge"
            if direction == "restricting"
            else "one mutation made the divergence disappear")
    lines = [
        f"flip: seed {flip.get('seed', '?')} step "
        f"{flip.get('step', '?')} — {verb}",
        f"  operator : {op} ({direction})",
        f"  paths    : {', '.join(flip.get('paths', ()) or ('?',))}",
        f"  isolation: {flip.get('isolation', 'por')}",
    ]
    first = flip.get("first_level")
    if first:
        lines.append(f"  first diverging level: {first} "
                     f"(divergence admissible from this level on)")
    res = str(flip.get("digest_restricted", ""))[:12]
    unres = str(flip.get("digest_unrestricted", ""))[:12]
    lines.append(f"  boundary : restricted {res} <-> unrestricted {unres}")
    lines.append("  the engines were cross-checked on both sides of "
                 "this boundary; any disagreement is pinned under "
                 "tests/corpus/ as directed-seedN-<kind>.json.")
    return "\n".join(lines) + "\n"
