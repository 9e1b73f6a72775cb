"""Command-line interface: ``noctua`` (or ``python -m repro``).

Subcommands:

* ``noctua apps`` — list the bundled applications;
* ``noctua analyze <app> [--paths]`` — run the analyzer, print the
  Table-4 statistics (optionally dumping every SOIR code path);
* ``noctua verify <app> [--quick] [--engine enum|smt|portfolio]
  [--jobs N] [--cache/--no-cache] [--cache-dir DIR]`` — analyze + verify through the scheduling engine
  (pre-solve reduction + parallel pair sweep + persistent verdict
  cache), print the Table-6 row and the restriction set;
* ``noctua trace <app> [--quick] [--jobs N] [--out FILE.jsonl]
  [--pair L R] [--explain-all]`` — run analysis + verification under the
  observability layer (:mod:`repro.obs`): print the hierarchical span
  tree, the per-phase time breakdown, the slowest solved pairs, and the
  "why restricted?" explainer for restricted pairs (witness schedule,
  diverging state, responsible SOIR operations); optionally stream the
  trace to a JSONL file;
* ``noctua metrics <app> [--quick] [--jobs N] [--out FILE.json|.prom]``
  — run a metered smoke suite (cold + warm + SMT sweeps and a seeded
  chaos run) under the metrics registry (:mod:`repro.metrics`) and
  render the snapshot table; ``--out`` exports it as JSON or Prometheus
  text format, ``--diff A.json B.json`` renders the delta between two
  exported snapshots;
* ``noctua simulate <zhihu|postgraduation>`` — run the Figure-10/11
  throughput/latency sweep;
* ``noctua chaos <app> [--seed N] [--faults SPEC]`` — run a generated
  workload under a seeded fault schedule and check convergence +
  invariants after heal and drain;
* ``noctua difftest [--seeds N] [--start K] [--shrink] [--corpus DIR]
  [--replay]`` — differential testing of the verifier stack: generate
  seeded random schema/path pairs, decide each one with the enumerative
  checker, the symbolic engine *and* a concrete interleaving oracle, and
  flag any forbidden disagreement; ``--shrink`` minimizes mismatches and
  pins them under ``--corpus``; ``--replay`` re-verifies every pinned
  corpus case instead of generating;
* ``noctua engine-chaos [--seeds N] [--start K] [--app NAME] [--jobs N]
  [--deadline S]`` — fault injection against the *verification engine*
  itself: each seed poisons real sweeps with worker crashes, hangs,
  solver errors, pool death and cache corruption, then asserts the
  fault-tolerance contract (poisoned pairs — and only those — degrade to
  conservative ``unknown`` verdicts, everything else is byte-identical
  to a clean serial sweep, unknowns are never cached, corrupt cache
  files are quarantined, wall time stays within the deadline budget);
* ``noctua serve --apps NAME|NAME=DIR ... [--port N] [--poll-interval S]
  [--jobs N] [--once]`` — the continuous verification service
  (:mod:`repro.service`): watch application sources, re-verify only the
  pairs invalidated by each edit, publish restriction-set versions to
  subscribed deployments, and expose an HTTP control plane (``/apps``,
  ``/apps/<name>/restrictions``, ``/apps/<name>/report``, ``/metrics``,
  ``/trace/last``, ``POST /apps/<name>/reverify``); ``--once`` runs a
  single watch→invalidate→re-verify cycle and exits (no HTTP server);
* ``noctua cache [--stats] [--prune APP ...] [--cache-dir DIR]`` —
  inspect or prune the on-disk verdict cache: ``--stats`` (the default)
  lists every cache file with entry counts, ``--prune`` drops entries
  not referenced by the named apps' current sources under the given
  configuration.
"""

from __future__ import annotations

import argparse
import sys

from .analyzer import analyze_application
from .georep import (
    FaultConfig,
    postgraduation_workload,
    run_chaos,
    run_modes,
    zhihu_workload,
)
from .soir.pretty import pp_path
from .verifier import CheckConfig, operation_conflict_table, verify_application

APP_BUILDERS = {}


def _load_apps() -> None:
    from .apps.courseware import build_app as courseware
    from .apps.ownphotos import build_app as ownphotos
    from .apps.postgraduation import build_app as postgraduation
    from .apps.smallbank import build_app as smallbank
    from .apps.todo import build_app as todo
    from .apps.zhihu import build_app as zhihu

    APP_BUILDERS.update(
        {
            "todo": todo,
            "postgraduation": postgraduation,
            "zhihu": zhihu,
            "ownphotos": ownphotos,
            "smallbank": smallbank,
            "courseware": courseware,
        }
    )


def _build(name: str):
    _load_apps()
    try:
        return APP_BUILDERS[name]()
    except KeyError:
        sys.exit(f"unknown application {name!r}; try `noctua apps`")


def cmd_apps(_args) -> int:
    _load_apps()
    for name, builder in sorted(APP_BUILDERS.items()):
        app = builder()
        print(f"{name:16s} {len(app.registry.models):3d} models  "
              f"{len(app.endpoints()):3d} endpoints  {app.source_loc:5d} LoC")
    return 0


def cmd_analyze(args) -> int:
    app = _build(args.app)
    result = analyze_application(app)
    stats = result.stats()
    print(f"application      : {stats['app']}")
    print(f"models           : {stats['models']}")
    print(f"relations        : {stats['relations']}")
    print(f"code paths       : {stats['code_paths']}")
    print(f"effectful paths  : {stats['effectful_paths']}")
    print(f"analysis time    : {stats['analysis_time_s']:.3f} s")
    if result.notes:
        print("notes:")
        for note in result.notes:
            print(f"  - {note}")
    if args.json:
        from .soir import serialize

        with open(args.json, "w") as f:
            f.write(serialize.dumps(result, indent=2))
        print(f"wrote {args.json}")
    if args.paths:
        print()
        for path in result.paths:
            status = "ABORTED " if path.aborted else (
                "CONSERVATIVE " if path.conservative else "")
            print(f"# {status}{path.abort_reason}".rstrip())
            print(pp_path(path))
            print()
    return 0


def cmd_verify(args) -> int:
    app = _build(args.app)
    result = analyze_application(app)
    config = CheckConfig()
    if args.quick:
        config = CheckConfig(
            timeout_s=0.5, max_samples=300, max_exhaustive=4000
        )
    report = verify_application(
        result, config, engine=args.engine, jobs=args.jobs,
        use_cache=args.cache, cache_dir=args.cache_dir,
        pair_deadline_s=args.deadline,
    )
    summary = report.summary()
    metrics = report.metrics
    print(f"application   : {summary['app']}")
    print(f"checks        : {summary['checks']}")
    print(f"restrictions  : {summary['restrictions']}")
    print(f"com. failures : {summary['com_failures']}")
    print(f"sem. failures : {summary['sem_failures']}")
    print(f"verify time   : {summary['time_s']:.2f} s wall, "
          f"{summary['solve_time_s']:.2f} s solve")
    mode = metrics.get("mode", "serial")
    workers = f", {metrics['jobs_used']} workers" if mode == "parallel" else ""
    if metrics.get("fallback_reason"):
        mode += f" (fallback: {metrics['fallback_reason']})"
    print(f"engine        : {mode}{workers}")
    print(f"solver calls  : {metrics.get('solver_calls', 0)} "
          f"(pruned {metrics.get('pruned', 0)})")
    print(f"reduction     : {metrics.get('class_count', 0)} classes, "
          f"{metrics.get('shared', 0)} shared, "
          f"{metrics.get('pruned_rw_disjoint', 0)} rw-disjoint pruned")
    failures = metrics.get("failures") or {}
    if failures or metrics.get("unknowns"):
        counts = ", ".join(f"{kind}={n}" for kind, n in sorted(failures.items()))
        print(f"failures      : {counts or 'none'} "
              f"({metrics.get('retries', 0)} retried, "
              f"{metrics.get('engine_fallbacks', 0)} engine fallbacks)")
        print(f"unknown pairs : {metrics.get('unknowns', 0)} "
              f"(conservatively restricted, not cached; re-run or raise "
              f"--deadline)")
    if args.cache:
        print(f"cache         : {metrics.get('cache_hits', 0)} hits, "
              f"{metrics.get('cache_misses', 0)} misses "
              f"({metrics.get('cache_saved_s', 0.0):.2f} s saved)")
    print("restricted pairs:")
    for verdict in report.restrictions:
        kinds = []
        if verdict.commutativity and verdict.commutativity.outcome.restricts:
            kinds.append("com")
        if verdict.semantic and verdict.semantic.outcome.restricts:
            kinds.append("sem")
        print(f"  ({verdict.left}, {verdict.right})  [{','.join(kinds)}]")
    if args.json:
        import json as _json

        with open(args.json, "w") as f:
            _json.dump(report.to_json_obj(), f, indent=2)
        print(f"wrote {args.json}")
    if args.conflict_table:
        print("endpoint conflict table:")
        for pair in sorted(
            tuple(sorted(p)) for p in operation_conflict_table(report)
        ):
            print(f"  {pair}")
    return 0


def cmd_trace(args) -> int:
    from .obs import (
        JsonlSink,
        Tracer,
        activate,
        render_phase_breakdown,
        render_tree,
        slowest_pairs_table,
    )
    from .obs.explain import ExplainError, explain_pair, explain_report

    app = _build(args.app)
    config = CheckConfig()
    if args.quick:
        config = CheckConfig(
            timeout_s=0.5, max_samples=300, max_exhaustive=4000
        )
    sink = JsonlSink(args.out) if args.out else None
    tracer = Tracer(sink=sink)
    try:
        with activate(tracer):
            analysis = analyze_application(app)
            report = verify_application(
                analysis, config, jobs=args.jobs, use_cache=False,
            )
    finally:
        tracer.close()

    print("== span tree ==")
    for line in render_tree(tracer.roots, max_depth=args.depth,
                            min_wall_ms=args.min_ms):
        print(line)
    print()
    print("== phase breakdown ==")
    for line in render_phase_breakdown(tracer.roots):
        print(line)
    print()
    print(f"== slowest pairs (top {args.top}) ==")
    for line in slowest_pairs_table(tracer.roots, top=args.top):
        print(line)
    print()
    print("== why restricted? ==")
    if args.pair:
        left, right = args.pair
        try:
            print(explain_pair(analysis, left, right, config))
        except ExplainError as exc:
            sys.exit(str(exc))
    else:
        limit = None if args.explain_all else 1
        print(explain_report(analysis, report, config, limit=limit))
    if args.out:
        print(f"wrote trace to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    from . import metrics as mx

    if args.diff:
        try:
            before = mx.load_snapshot(args.diff[0])
            after = mx.load_snapshot(args.diff[1])
        except (OSError, ValueError) as exc:
            sys.exit(f"cannot load snapshot: {exc}")
        for line in mx.render_diff(mx.diff_snapshots(before, after)):
            print(line)
        return 0

    if not args.app:
        sys.exit("metrics needs an application name "
                 "(or --diff BEFORE.json AFTER.json)")

    import tempfile

    app = _build(args.app)
    config = CheckConfig()
    if args.quick:
        config = CheckConfig(
            timeout_s=0.5, max_samples=300, max_exhaustive=4000
        )
    registry = mx.MetricsRegistry()
    with mx.activate(registry):
        analysis = analyze_application(app)
        # A metered smoke suite touching every instrumented subsystem:
        # a cold sweep into a throwaway cache (misses), a warm sweep
        # over the same cache (hits), an SMT sweep (smt solver-call
        # latencies), and a seeded chaos run (georep delivery counters
        # and the recovery histogram).
        # The cold sweep runs serial on purpose: solver-call latencies
        # are metered in the process running the check, and worker
        # processes have no ambient registry (pair-level metrics are
        # folded parent-side from the sweep span either way).
        with tempfile.TemporaryDirectory(prefix="noctua-metrics-") as tmp:
            report = verify_application(
                analysis, config, use_cache=True, cache_dir=tmp,
            )
            verify_application(analysis, config, jobs=args.jobs,
                               use_cache=True, cache_dir=tmp)
        if not args.no_smt:
            verify_application(analysis, config, engine="smt",
                               use_cache=False)
        if not args.no_georep:
            faults = FaultConfig.chaos(args.seed, span=float(args.ops),
                                       sites=3, outages=1)
            run_chaos(
                analysis, report.restriction_pairs(),
                seed=args.seed, operations=args.ops, faults=faults,
            )

    snapshot = registry.snapshot()
    # write exports before rendering so a truncated stdout (e.g. piping
    # the table through `head`) cannot lose the requested files
    written = []
    for out in args.out or []:
        if out.endswith(".prom"):
            text = mx.snapshot_to_prometheus(snapshot)
        else:
            text = mx.snapshot_to_json(snapshot)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(out)
    for line in mx.render_table(snapshot):
        print(line)
    for out in written:
        print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    workloads = {
        "zhihu": zhihu_workload,
        "postgraduation": postgraduation_workload,
    }
    if args.app not in workloads:
        sys.exit("simulate supports: zhihu, postgraduation")
    _load_apps()
    builder = APP_BUILDERS[args.app]
    config = CheckConfig(timeout_s=0.5, max_samples=200, max_exhaustive=2000)
    analysis = analyze_application(builder())
    conflicts = operation_conflict_table(verify_application(analysis, config))
    rows = run_modes(builder, workloads[args.app], conflicts)
    print(f"{'mode':>5} {'throughput (req/s)':>20} {'avg latency (ms)':>18} "
          f"{'errors':>7}")
    for row in rows:
        print(f"{row.mode:>5} {row.throughput_rps:20.1f} "
              f"{row.avg_latency_ms:18.3f} {row.error_fraction:6.1%}")
    base = rows[0].throughput_rps
    best = max(r.throughput_rps for r in rows[1:])
    print(f"speedup over SC: up to {best / base:.2f}x")
    return 0


def cmd_chaos(args) -> int:
    app = _build(args.app)
    analysis = analyze_application(app)
    restrictions: set[frozenset[str]] = set()
    if not args.no_restrictions:
        config = CheckConfig(timeout_s=0.5, max_samples=200, max_exhaustive=2000)
        restrictions = verify_application(analysis, config).restriction_pairs()
    span = float(args.ops)
    if args.faults is None:
        faults = FaultConfig.chaos(args.seed, span=span, sites=args.sites,
                                   outages=1)
    else:
        try:
            faults = FaultConfig.parse(args.faults, seed=args.seed, span=span,
                                       sites=args.sites)
        except ValueError as exc:
            sys.exit(f"bad --faults spec: {exc}")
    report = run_chaos(
        analysis, restrictions,
        seed=args.seed, operations=args.ops, sites=args.sites, faults=faults,
    )
    result = report.result
    print(f"application   : {report.app}")
    print(f"seed / sites  : {report.seed} / {report.sites}")
    print(f"operations    : {result.submitted} submitted, "
          f"{result.accepted} accepted, {result.rejected} rejected, "
          f"{result.coord_rejected} refused (coordination)")
    print(f"restrictions  : {report.restrictions}")
    print("fault counters:")
    for name, value in report.counters.as_dict().items():
        if value:
            print(f"  {name:16s} {value}")
    if report.refusals:
        print(f"refusals      : {len(report.refusals)} "
              f"(first: {report.refusals[0]})")
    print(f"converged     : {report.converged}")
    print(f"invariants ok : {report.invariant_ok}")
    if args.no_restrictions:
        # Demonstration mode: anomalies are the expected outcome.
        return 0
    return 0 if report.ok else 1


def cmd_difftest(args) -> int:
    from .difftest import (
        load_corpus,
        replay_case,
        run_difftest,
        save_corpus_case,
        shrink_case,
    )
    from .difftest.corpus import CorpusCase
    from .difftest.crosscheck import mismatch_keys

    if args.replay:
        cases = load_corpus(args.corpus)
        if not cases:
            sys.exit(f"no corpus cases under {args.corpus}")
        engines = (args.engine,) if args.engine else None
        failures: list[str] = []
        for case in cases:
            errors = replay_case(case, engines=engines)
            status = "FAIL" if errors else "ok"
            print(f"  {case.name:40s} [{case.kind}] {status}")
            failures.extend(errors)
        for line in failures:
            print(f"  ! {line}")
        print(f"{len(cases)} corpus case(s), {len(failures)} failure(s)")
        return 1 if failures else 0

    config = CheckConfig(timeout_s=args.timeout)
    if args.directed:
        return _difftest_directed(args, config)
    report = run_difftest(
        args.seeds, start=args.start, check_config=config, log=print,
    )
    print(f"{report.stats['cases']} case(s) in {report.elapsed_s:.1f} s, "
          f"{len(report.mismatches)} mismatch(es)")
    for key in ("unconfirmed_fail", "invariant_on_restricted_pair"):
        if report.stats.get(key):
            print(f"  {key}: {report.stats[key]}")
    if not report.mismatches:
        return 0
    if args.shrink:
        seen: set = set()
        for m in report.mismatches:
            if (m.seed, m.key) in seen:
                continue
            seen.add((m.seed, m.key))
            print(f"shrinking seed {m.seed} ({m.kind}/{m.check}) ...")

            def pred(schema, p, q, _key=m.key):
                return _key in mismatch_keys(p, q, schema,
                                             check_config=config)

            schema, p, q = shrink_case(m.schema, m.p, m.q, pred)
            case = CorpusCase(
                name=f"difftest-seed{m.seed}-{m.check}",
                schema=schema, p=p, q=q,
                origin=f"noctua difftest seed {m.seed}, shrunk",
                description=f"{m.kind}: {m.detail}",
            )
            out = save_corpus_case(case, args.corpus)
            print(f"  pinned {out} "
                  f"({len(p.commands)}+{len(q.commands)} commands); "
                  f"fill in 'expect' after triage (docs/DIFFTEST.md)")
    return 1


def _difftest_directed(args, config) -> int:
    from collections import Counter

    from .difftest import save_corpus_case, shrink_case
    from .difftest.corpus import CorpusCase
    from .difftest.crosscheck import mismatch_keys
    from .difftest.directed import DirectedConfig, run_directed

    dcfg = DirectedConfig(
        budget=args.budget, k=args.k, isolation=args.isolation,
        mode=args.mode,
    )
    report = run_directed(
        args.seeds, start=args.start, config=dcfg,
        check_config=config, log=print,
    )
    levels = Counter(f.first_level or dcfg.isolation for f in report.flips)
    print(f"{report.evals} probe eval(s) in {report.elapsed_s:.1f} s, "
          f"{len(report.flips)} flip(s) "
          f"({report.distinct_flips} distinct boundary case(s)), "
          f"{len(report.mismatches)} mismatch(es)")
    if levels:
        print("  first diverging level: "
              + ", ".join(f"{lv}={n}" for lv, n in sorted(levels.items())))
    if report.stats.get("crosscheck_drops"):
        print(f"  crosscheck_drops: {report.stats['crosscheck_drops']} "
              f"(flips beyond the per-seed engine-check cap)")
    if not report.mismatches:
        return 0
    if args.shrink:
        seen: set = set()
        for m in report.mismatches:
            if m.schema is None or (m.seed, m.key) in seen:
                continue
            seen.add((m.seed, m.key))
            print(f"shrinking seed {m.seed} ({m.kind}/{m.check}) ...")

            def pred(schema, p, q, _key=m.key):
                return _key in mismatch_keys(p, q, schema,
                                             check_config=config)

            schema, p, q = shrink_case(m.schema, m.p, m.q, pred)
            case = CorpusCase(
                name=f"directed-seed{m.seed}-{m.kind}",
                schema=schema, p=p, q=q,
                origin=(f"noctua difftest --directed seed {m.seed} "
                        f"(isolation={dcfg.isolation}, k={dcfg.k}), "
                        f"shrunk"),
                description=f"{m.kind}: {m.detail}",
            )
            out = save_corpus_case(case, args.corpus)
            print(f"  pinned {out} "
                  f"({len(p.commands)}+{len(q.commands)} commands); "
                  f"fill in 'expect' after triage (docs/DIFFTEST.md)")
    return 1


def cmd_engine_chaos(args) -> int:
    from .engine import run_engine_chaos

    print(f"engine chaos: app={args.app} seeds={args.start}.."
          f"{args.start + args.seeds - 1} jobs={args.jobs} "
          f"deadline={args.deadline:.1f}s")
    report = run_engine_chaos(
        args.app, seeds=args.seeds, start=args.start, jobs=args.jobs,
        deadline_s=args.deadline, log=print,
    )
    ok_count = sum(1 for o in report.outcomes if o.ok)
    print(f"{len(report.outcomes)} seed(s) in {report.elapsed_s:.1f} s, "
          f"{ok_count} ok, {len(report.outcomes) - ok_count} failed")
    for problem in report.problems:
        print(f"  ! {problem}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from .service import (
        ServiceHTTPServer,
        SpecError,
        VerificationService,
        parse_app_arg,
    )

    try:
        specs = [parse_app_arg(arg) for arg in args.apps]
    except SpecError as exc:
        sys.exit(f"bad --apps entry: {exc}")
    config = CheckConfig()
    if args.quick:
        # Sample-bounded, not time-bounded, so cycles stay deterministic
        # under CPU contention (see docs/ENGINE.md).
        config = CheckConfig(timeout_s=60.0, max_samples=60,
                             max_exhaustive=800)
    service = VerificationService(
        specs, config, engine=args.engine, jobs=args.jobs,
        cache_dir=args.cache_dir, poll_interval_s=args.poll_interval,
    )

    def print_stats(stats) -> None:
        print(f"[{stats.app}] trigger={stats.trigger} "
              f"pairs={stats.pairs_total} "
              f"invalidated={len(stats.invalidated)} "
              f"solved={stats.solver_calls} classes={stats.classes} "
              f"shared={stats.shared} cache_hits={stats.cache_hits} "
              f"pruned={stats.pruned_entries} "
              f"restrictions={stats.restrictions} version={stats.version}"
              f"{'*' if stats.version_changed else ''} "
              f"({stats.wall_s:.2f}s)", flush=True)

    if args.once:
        for stats in service.run_cycle(force=True):
            print_stats(stats)
        failed = [name for name, state in service.apps.items()
                  if state.error]
        for name in failed:
            print(f"[{name}] FAILED: {service.apps[name].error}",
                  file=sys.stderr)
        return 1 if failed else 0

    server = ServiceHTTPServer(service, host=args.host, port=args.port)
    server.start()
    print(f"serving on {server.url}", flush=True)
    import threading

    stop = threading.Event()
    try:
        while not stop.is_set():
            for stats in service.run_cycle():
                print_stats(stats)
            stop.wait(service.poll_interval_s)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.shutdown()
    return 0


def cmd_cache(args) -> int:
    from .engine.cache import DEFAULT_CACHE_DIR, ResultCache, scan_cache
    from .service import live_pair_fingerprints

    root = args.cache_dir or DEFAULT_CACHE_DIR
    if args.prune:
        config = CheckConfig()
        if args.quick:
            config = CheckConfig(timeout_s=60.0, max_samples=60,
                                 max_exhaustive=800)
        total = 0
        for name in args.prune:
            analysis = analyze_application(_build(name))
            live = live_pair_fingerprints(analysis, config,
                                          engine=args.engine)
            cache = ResultCache(root, analysis.app_name)
            before = len(cache)
            removed = cache.prune(live)
            cache.flush()
            total += removed
            print(f"{name:16s} {before:5d} entries, {removed:4d} pruned, "
                  f"{len(cache):5d} kept")
        print(f"pruned {total} stale entr{'y' if total == 1 else 'ies'} "
              f"under {root}")
        return 0

    rows = scan_cache(root)
    if not rows:
        print(f"no cache files under {root}")
        return 0
    for row in rows:
        status = row["status"]
        if "entries" in row:  # ok or migratable: a readable cache file
            suffix = "" if status == "ok" else f"  [{status}]"
            print(f"{row['file']:32s} {row['entries']:5d} entries  "
                  f"{row['bytes']:8d} B  app={row['app']}{suffix}")
        else:
            detail = row.get("detail", "")
            print(f"{row['file']:32s} [{status}] {detail}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="noctua",
        description="Automated fine-grained consistency analysis "
                    "(Noctua reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list bundled applications")

    p_analyze = sub.add_parser("analyze", help="run the program analyzer")
    p_analyze.add_argument("app")
    p_analyze.add_argument("--paths", action="store_true",
                           help="dump every SOIR code path")
    p_analyze.add_argument("--json", metavar="FILE", default=None,
                           help="write the analysis result (SOIR) as JSON")

    p_verify = sub.add_parser("verify", help="run analysis + verification")
    p_verify.add_argument("app")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced search budget")
    p_verify.add_argument("--engine", default="enum",
                          choices=("enum", "smt", "portfolio"),
                          help="solver backend; 'portfolio' runs enum "
                               "per pair and falls back to smt when the "
                               "enum verdict is not definitive")
    p_verify.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="solve pairs on N worker processes "
                               "(default: 1, serial)")
    p_verify.add_argument("--cache", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="memoize pair verdicts on disk so unchanged "
                               "pairs are not re-solved (--no-cache to "
                               "disable)")
    p_verify.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache location (default: .noctua-cache/)")
    p_verify.add_argument("--deadline", type=float, default=None,
                          metavar="S",
                          help="wall-clock deadline per solve attempt; "
                               "pairs the engine cannot decide within "
                               "the retry budget are conservatively "
                               "restricted as 'unknown' (default: "
                               "derived from the check timeout)")
    p_verify.add_argument("--conflict-table", action="store_true",
                          help="print the endpoint-level conflict table")
    p_verify.add_argument("--json", metavar="FILE", default=None,
                          help="write the restriction set as JSON")

    p_trace = sub.add_parser(
        "trace", help="traced verification run: span tree, profile, "
                      "and the restriction explainer"
    )
    p_trace.add_argument("app")
    p_trace.add_argument("--quick", action="store_true",
                         help="reduced search budget")
    p_trace.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="solve pairs on N worker processes; worker "
                              "spans are forwarded into the parent trace")
    p_trace.add_argument("--out", metavar="FILE", default=None,
                         help="also stream the trace as JSONL to FILE")
    p_trace.add_argument("--pair", nargs=2, metavar=("LEFT", "RIGHT"),
                         default=None,
                         help="explain one specific pair of code paths "
                              "(e.g. 'AddCourse[0]' 'DeleteCourse[0]')")
    p_trace.add_argument("--explain-all", action="store_true",
                         help="explain every restricted pair (default: "
                              "the first one)")
    p_trace.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows in the slowest-pairs table")
    p_trace.add_argument("--depth", type=int, default=6, metavar="N",
                         help="span-tree depth limit")
    p_trace.add_argument("--min-ms", type=float, default=0.0, metavar="MS",
                         help="elide leaf spans cheaper than MS "
                              "milliseconds from the tree")

    p_metrics = sub.add_parser(
        "metrics", help="metered smoke suite: run every instrumented "
                        "subsystem under the metrics registry and render "
                        "(or export) the snapshot"
    )
    p_metrics.add_argument("app", nargs="?", default=None)
    p_metrics.add_argument("--quick", action="store_true",
                           help="reduced search budget")
    p_metrics.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for the warm sweep; the "
                                "cold sweep stays serial so enum "
                                "solver-call latencies are metered "
                                "in-process (default: 1)")
    p_metrics.add_argument("--ops", type=int, default=120, metavar="N",
                           help="operations in the chaos leg "
                                "(default: 120)")
    p_metrics.add_argument("--seed", type=int, default=3,
                           help="fault seed for the chaos leg (default: 3)")
    p_metrics.add_argument("--out", action="append", metavar="FILE",
                           default=None,
                           help="export the snapshot; repeatable, format "
                                "by extension (.prom = Prometheus text "
                                "format, anything else = JSON)")
    p_metrics.add_argument("--no-smt", action="store_true",
                           help="skip the SMT-engine leg")
    p_metrics.add_argument("--no-georep", action="store_true",
                           help="skip the chaos/georep leg")
    p_metrics.add_argument("--diff", nargs=2,
                           metavar=("BEFORE.json", "AFTER.json"),
                           default=None,
                           help="render the per-series delta between two "
                                "JSON snapshots instead of running")

    p_sim = sub.add_parser("simulate", help="geo-replication performance sweep")
    p_sim.add_argument("app")

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection run over the replicated runtime"
    )
    p_chaos.add_argument("app")
    p_chaos.add_argument("--seed", type=int, default=3)
    p_chaos.add_argument("--ops", type=int, default=200)
    p_chaos.add_argument("--sites", type=int, default=3)
    p_chaos.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="comma-separated fault spec, e.g. "
             "'loss=0.1,dup=0.05,partition,crash,outage' or 'all' "
             "(default: the full chaos schedule)")
    p_chaos.add_argument(
        "--no-restrictions", action="store_true",
        help="run with the empty restriction set (reproduces anomalies)")

    p_diff = sub.add_parser(
        "difftest", help="differential testing of the verifier stack"
    )
    p_diff.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of generated cases (default: 50)")
    p_diff.add_argument("--start", type=int, default=0, metavar="K",
                        help="first seed (default: 0)")
    p_diff.add_argument("--shrink", action="store_true",
                        help="delta-debug each mismatch to a minimal case "
                             "and pin it under --corpus")
    p_diff.add_argument("--corpus", default="tests/corpus", metavar="DIR",
                        help="corpus directory (default: tests/corpus)")
    p_diff.add_argument("--engine", default=None,
                        choices=("enum", "smt", "portfolio"),
                        help="with --replay: re-verify every corpus case "
                             "through this backend instead of the case's "
                             "pinned engine list ('portfolio' accepts the "
                             "union of the enum and smt expectations)")
    p_diff.add_argument("--replay", action="store_true",
                        help="replay the pinned corpus instead of "
                             "generating new cases")
    p_diff.add_argument("--timeout", type=float, default=2.0, metavar="S",
                        help="per-check solver timeout in seconds "
                             "(default: 2.0)")
    p_diff.add_argument("--directed", action="store_true",
                        help="witness-seeded boundary walk instead of "
                             "blind sampling: mutate cases toward verdict "
                             "flips and cross-check every flip")
    p_diff.add_argument("--budget", type=int, default=300, metavar="N",
                        help="with --directed: total probe evaluations, "
                             "split evenly across seeds (default: 300)")
    p_diff.add_argument("--isolation", default="por",
                        choices=("por", "causal", "eventual"),
                        help="with --directed: oracle witness "
                             "admissibility level (default: por)")
    p_diff.add_argument("--k", type=int, default=2, metavar="K",
                        help="with --directed: paths per case; k >= 3 "
                             "probes DPOR-pruned schedules (default: 2)")
    p_diff.add_argument("--mode", default="directed",
                        choices=("directed", "random"),
                        help="with --directed: 'random' runs the unscored "
                             "A/B baseline arm (default: directed)")

    p_echaos = sub.add_parser(
        "engine-chaos",
        help="fault injection against the verification engine itself",
    )
    p_echaos.add_argument("--seeds", type=int, default=10, metavar="N",
                          help="number of seeded fault plans (default: 10)")
    p_echaos.add_argument("--start", type=int, default=0, metavar="K",
                          help="first seed (default: 0)")
    p_echaos.add_argument("--app", default="smallbank", metavar="NAME",
                          help="application to sweep (default: smallbank)")
    p_echaos.add_argument("--jobs", type=int, default=2, metavar="N",
                          help="worker processes per chaotic sweep "
                               "(default: 2)")
    p_echaos.add_argument("--deadline", type=float, default=2.0,
                          metavar="S",
                          help="per-pair deadline during chaotic sweeps "
                               "(default: 2.0)")

    p_serve = sub.add_parser(
        "serve", help="continuous verification service: watch sources, "
                      "re-verify incrementally, publish restriction sets "
                      "over HTTP"
    )
    p_serve.add_argument("--apps", nargs="+", required=True,
                         metavar="NAME|NAME=DIR",
                         help="applications to watch: a builtin name "
                              "(watches the installed package) or "
                              "NAME=DIR for a standalone directory "
                              "containing app.py")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="control-plane bind address "
                              "(default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8642, metavar="N",
                         help="control-plane port; 0 binds an ephemeral "
                              "port (default: 8642)")
    p_serve.add_argument("--poll-interval", type=float, default=2.0,
                         metavar="S",
                         help="seconds between source polls "
                              "(default: 2.0)")
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes per re-verification "
                              "sweep (default: 1)")
    p_serve.add_argument("--engine", default="enum",
                         choices=("enum", "smt", "portfolio"),
                         help="verification backend (default: enum)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="verdict cache location "
                              "(default: .noctua-cache/)")
    p_serve.add_argument("--quick", action="store_true",
                         help="reduced, sample-bounded search budget")
    p_serve.add_argument("--once", action="store_true",
                         help="run one watch→invalidate→re-verify cycle "
                              "and exit (no HTTP server); the on-disk "
                              "cache carries invalidation across runs")

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk pair-verdict cache"
    )
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache location (default: .noctua-cache/)")
    p_cache.add_argument("--stats", action="store_true",
                         help="list cache files with entry counts "
                              "(the default action)")
    p_cache.add_argument("--prune", nargs="+", default=None, metavar="APP",
                         help="drop entries not referenced by these "
                              "apps' current sources")
    p_cache.add_argument("--engine", default="enum",
                         choices=("enum", "smt", "portfolio"),
                         help="backend whose fingerprints --prune keeps "
                              "(default: enum)")
    p_cache.add_argument("--quick", action="store_true",
                         help="compute --prune live sets under the "
                              "reduced search budget")

    args = parser.parse_args(argv)
    handlers = {
        "apps": cmd_apps,
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "simulate": cmd_simulate,
        "chaos": cmd_chaos,
        "difftest": cmd_difftest,
        "engine-chaos": cmd_engine_chaos,
        "serve": cmd_serve,
        "cache": cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
