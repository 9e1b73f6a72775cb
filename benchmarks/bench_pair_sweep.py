"""Pair-sweep benchmark: cold vs. warm vs. parallel verification.

Measures the scheduling engine (``repro.engine``) over the bundled
applications and writes ``BENCH_pair_sweep.json`` at the repo root — the
perf trajectory for the verifier hot path:

* **cold**   — serial sweep into an empty cache (the baseline every run
  used to pay), measured best-of-``--repeat`` so the gated numbers are
  robust to scheduler noise;
* **warm**   — the same sweep again: every pair must replay from the
  cache with zero solver calls;
* **parallel** — cold sweep with ``--jobs`` workers into a fresh cache.

The output file holds two things: ``current`` (the full result of the
latest run, the shape earlier revisions wrote at the top level) and
``trajectory`` (an append-only list of dated per-run summaries).  Each
run *appends* to the trajectory instead of overwriting it, so committed
history accumulates across PRs and ``tools/bench_gate.py`` can fail a
run that regressed against the previous comparable entry.  A legacy
single-result file is migrated by synthesizing its entry first.

Runs standalone (``python benchmarks/bench_pair_sweep.py``) so CI can
invoke it without the pytest-benchmark harness.  ``--smoke`` shrinks the
search budgets and the app set for a fast correctness-oriented pass; it
also *asserts* that warm runs solve zero pairs and that all three modes
agree on the restriction set.

Budget note: the solver budget is sample-bounded, not time-bounded
(``timeout_s`` is set high) so verdicts are deterministic under CPU
contention — see docs/ENGINE.md on timeouts vs. determinism.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_pair_sweep.json"

DEFAULT_APPS = ["smallbank", "courseware", "todo", "postgraduation"]
SMOKE_APPS = ["smallbank", "courseware"]


def _build(name: str):
    import importlib

    module = importlib.import_module(f"repro.apps.{name}")
    return module.build_app()


def _config(smoke: bool):
    from repro.verifier import CheckConfig

    if smoke:
        return CheckConfig(timeout_s=30.0, max_samples=60,
                           max_exhaustive=800)
    return CheckConfig(timeout_s=30.0, max_samples=400,
                       max_exhaustive=6000)


def sweep_app(name: str, jobs: int, smoke: bool, repeat: int = 3) -> dict:
    from repro.analyzer import analyze_application
    from repro.verifier import verify_application

    analysis = analyze_application(_build(name))
    config = _config(smoke)
    row: dict = {
        "app": name,
        "effectful_paths": len(analysis.effectful_paths),
        "modes": {},
    }
    restriction_sets = {}

    def measure(mode: str, report, wall: float) -> None:
        metrics = report.metrics
        row["modes"][mode] = {
            "wall_s": round(wall, 4),
            "solve_s": round(report.time_solve_s, 4),
            "checks": report.checks,
            "restrictions": len(report.restrictions),
            "solver_calls": metrics["solver_calls"],
            "pruned": metrics["pruned"],
            "class_count": metrics["class_count"],
            "shared": metrics["shared"],
            "cache_hits": metrics["cache_hits"],
            "cache_misses": metrics["cache_misses"],
            "engine_mode": metrics["mode"],
            "jobs": metrics["jobs_used"],
            "worker_utilization": round(
                metrics["worker_utilization"], 3),
        }
        restriction_sets[mode] = sorted(
            sorted(pair) for pair in report.restriction_pairs()
        )

    with tempfile.TemporaryDirectory(prefix="noctua-bench-") as tmp:
        # The cold sweep is the gated measurement and sub-second on the
        # smoke apps, where scheduler noise on a shared machine easily
        # exceeds the gate threshold — so run it best-of-N into a fresh
        # cache each time and record the minimum (min is the standard
        # noise-robust statistic for a deterministic workload).
        best = None
        for attempt in range(max(1, repeat)):
            serial_dir = pathlib.Path(tmp) / f"serial{attempt}"
            started = time.perf_counter()
            report = verify_application(analysis, config, use_cache=True,
                                        jobs=1, cache_dir=str(serial_dir))
            wall = time.perf_counter() - started
            if best is None or wall < best[1]:
                best = (report, wall)
            warm_dir = serial_dir  # any attempt's cache serves the warm run
        measure("cold", *best)

        runs = [
            ("warm", dict(jobs=1, cache_dir=str(warm_dir))),
            ("parallel", dict(jobs=jobs,
                              cache_dir=str(pathlib.Path(tmp) / "par"))),
        ]
        for mode, kwargs in runs:
            started = time.perf_counter()
            report = verify_application(analysis, config, use_cache=True,
                                        **kwargs)
            wall = time.perf_counter() - started
            measure(mode, report, wall)
    row["restrictions_agree"] = (
        restriction_sets["cold"] == restriction_sets["warm"]
        == restriction_sets["parallel"]
    )
    row["warm_solved_zero"] = (
        row["modes"]["warm"]["solver_calls"] == 0
        and row["modes"]["warm"]["cache_misses"] == 0
    )
    return row


#: the one-view edit for the incremental measurement: touches
#: ``complete_task`` without changing any verdict, so the warm cycle
#: re-solves only that view's pairs
INCR_EDIT_OLD = "task.done = True"
INCR_EDIT_NEW = "task.done = True\n        task.priority = 1"


def incremental_reverify(smoke: bool, repeat: int = 3) -> dict:
    """Cold full-service cycle vs. the warm cycle after one view edit.

    Uses the continuous-verification service machinery end to end
    (export, watch, invalidation preview, incremental sweep, prune) on
    the todo app — the daemon's steady-state cost, not just the raw
    scheduler's."""
    from repro.service import (
        VerificationService,
        directory_spec,
        export_builtin_app,
    )

    config = _config(smoke)
    best_cold = best_warm = None
    warm_stats = None
    for attempt in range(max(1, repeat)):
        with tempfile.TemporaryDirectory(prefix="noctua-incr-") as tmp:
            app_dir = pathlib.Path(tmp) / "app"
            export_builtin_app("todo", app_dir)
            service = VerificationService(
                [directory_spec("todo", str(app_dir))], config,
                cache_dir=str(pathlib.Path(tmp) / "cache"))
            [cold] = service.run_cycle()
            source = app_dir / "app.py"
            source.write_text(source.read_text().replace(
                INCR_EDIT_OLD, INCR_EDIT_NEW))
            [warm] = service.run_cycle()
            if best_cold is None or cold.wall_s < best_cold:
                best_cold = cold.wall_s
            if best_warm is None or warm.wall_s < best_warm:
                best_warm = warm.wall_s
                warm_stats = warm
    return {
        "app": "todo",
        "cold_wall_s": round(best_cold, 4),
        "warm_wall_s": round(best_warm, 4),
        "pairs_total": warm_stats.pairs_total,
        "invalidated": len(warm_stats.invalidated),
        "solver_calls": warm_stats.solver_calls,
        "invalidated_fraction": round(
            len(warm_stats.invalidated) / warm_stats.pairs_total, 4),
    }


def _unreduced_sweep(analysis, config):
    """The reference sweep: ``verify_pair`` on every ``i <= j`` pair —
    fast layers only, no rw-pruning, no class sharing, no cache.
    Returns the report and the solver-call / pruned counts."""
    from repro.verifier import classify_pair, verify_pair
    from repro.verifier.restrictions import VerificationReport

    paths = analysis.effectful_paths
    report = VerificationReport(analysis.app_name)
    pruned = 0
    for i, p in enumerate(paths):
        for q in paths[i:]:
            if classify_pair(p, q, analysis.schema, config) is not None:
                pruned += 1
            report.verdicts.append(
                verify_pair(p, q, analysis.schema, config))
    return report, len(report.verdicts) - pruned, pruned


def reduction_ab(name: str, smoke: bool, repeat: int = 3) -> dict:
    """A-B the pre-solve reduction pipeline on one app: the cold sweep
    (no cache) vs the unreduced ``verify_pair`` loop, asserting
    byte-identical restriction sets — the headline solver-call saving
    and its wall-clock effect."""
    from repro.analyzer import analyze_application
    from repro.verifier import verify_application

    analysis = analyze_application(_build(name))
    config = _config(smoke)
    out: dict = {"app": name}
    sets = {}
    for key in ("reduced", "unreduced"):
        best = None
        for _ in range(max(1, repeat)):
            started = time.perf_counter()
            if key == "reduced":
                report = verify_application(analysis, config,
                                            use_cache=False, jobs=1)
                metrics = report.metrics
                counts = {k: metrics[k] for k in (
                    "solver_calls", "class_count", "shared", "pruned")}
            else:
                report, solver_calls, pruned = _unreduced_sweep(
                    analysis, config)
                counts = {"solver_calls": solver_calls, "class_count": 0,
                          "shared": 0, "pruned": pruned}
            wall = time.perf_counter() - started
            if best is None or wall < best[1]:
                best = (report, wall, counts)
        report, wall, counts = best
        out[key] = {"wall_s": round(wall, 4), **counts}
        sets[key] = sorted(
            sorted(pair) for pair in report.restriction_pairs()
        )
    out["restrictions_agree"] = sets["reduced"] == sets["unreduced"]
    out["solver_calls_saved"] = (out["unreduced"]["solver_calls"]
                                 - out["reduced"]["solver_calls"])
    return out


def trajectory_entry(result: dict, *, date: str, label: str = "") -> dict:
    """Summarize one full benchmark result as a dated trajectory row."""
    totals = {"cold_wall_s": 0.0, "cold_solve_s": 0.0,
              "warm_wall_s": 0.0, "parallel_wall_s": 0.0,
              "solver_calls": 0.0, "class_count": 0.0,
              "pruned_pairs": 0.0}
    per_app: dict[str, dict] = {}
    for row in result["apps"]:
        modes = row["modes"]
        totals["cold_wall_s"] += modes["cold"]["wall_s"]
        totals["cold_solve_s"] += modes["cold"]["solve_s"]
        totals["warm_wall_s"] += modes["warm"]["wall_s"]
        totals["parallel_wall_s"] += modes["parallel"]["wall_s"]
        # reduction-era keys; absent in legacy results being migrated
        totals["solver_calls"] += modes["cold"].get("solver_calls", 0)
        totals["class_count"] += modes["cold"].get("class_count", 0)
        totals["pruned_pairs"] += modes["cold"].get("pruned", 0)
        per_app[row["app"]] = {
            "cold_wall_s": modes["cold"]["wall_s"],
            "cold_solve_s": modes["cold"]["solve_s"],
            "warm_wall_s": modes["warm"]["wall_s"],
            "parallel_wall_s": modes["parallel"]["wall_s"],
        }
    incremental = result.get("incremental")
    if incremental:  # absent in legacy results being migrated
        totals["incr_cold_wall_s"] = incremental["cold_wall_s"]
        totals["incr_warm_wall_s"] = incremental["warm_wall_s"]
    entry = {
        "date": date,
        "smoke": result["smoke"],
        "jobs": result["jobs"],
        "apps": sorted(per_app),
        "totals": {k: round(v, 4) for k, v in totals.items()},
        "per_app": per_app,
    }
    if incremental:
        entry["incremental"] = incremental
    ab = result.get("reduction_ab")
    if ab:
        entry["reduction_ab"] = ab
    if label:
        entry["label"] = label
    return entry


def load_trajectory(out_path: pathlib.Path) -> list[dict]:
    """Read the committed trajectory, migrating a legacy result file
    (pre-trajectory schema: the full result at the top level) into a
    single synthesized entry."""
    try:
        previous = json.loads(out_path.read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(previous, dict):
        return []
    if isinstance(previous.get("trajectory"), list):
        return previous["trajectory"]
    if isinstance(previous.get("apps"), list):  # legacy single-result file
        try:
            return [trajectory_entry(previous, date="(pre-trajectory)")]
        except (KeyError, TypeError):
            return []
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="*", default=None,
                        help="applications to sweep (default: "
                             f"{' '.join(DEFAULT_APPS)})")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel mode")
    parser.add_argument("--smoke", action="store_true",
                        help="small budgets + small app set; assert "
                             "warm-cache runs solve zero pairs")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--label", default="",
                        help="free-form tag recorded on the trajectory "
                             "entry (e.g. a PR number)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="cold-sweep repetitions; the minimum wall "
                             "time is recorded (default: 3)")
    args = parser.parse_args(argv)

    apps = args.apps or (SMOKE_APPS if args.smoke else DEFAULT_APPS)
    rows = []
    for name in apps:
        print(f"sweeping {name} ...", flush=True)
        row = sweep_app(name, args.jobs, args.smoke, repeat=args.repeat)
        rows.append(row)
        cold = row["modes"]["cold"]
        warm = row["modes"]["warm"]
        par = row["modes"]["parallel"]
        print(f"  cold     {cold['wall_s']:8.3f} s wall  "
              f"{cold['solver_calls']:4d} solved")
        print(f"  warm     {warm['wall_s']:8.3f} s wall  "
              f"{warm['solver_calls']:4d} solved  "
              f"{warm['cache_hits']:4d} cache hits")
        print(f"  parallel {par['wall_s']:8.3f} s wall  "
              f"{par['solver_calls']:4d} solved  "
              f"x{par['jobs']} {par['engine_mode']}  "
              f"util {par['worker_utilization']:.0%}")
        print(f"  restriction sets agree: {row['restrictions_agree']}")

    print("incremental re-verify (service, todo) ...", flush=True)
    incremental = incremental_reverify(args.smoke, repeat=args.repeat)
    print(f"  cold cycle {incremental['cold_wall_s']:8.3f} s wall  "
          f"{incremental['pairs_total']:4d} pairs")
    print(f"  one-edit   {incremental['warm_wall_s']:8.3f} s wall  "
          f"{incremental['invalidated']:4d} invalidated "
          f"({incremental['invalidated_fraction']:.0%})")

    # A-B the reduction pipeline on the largest swept app (most checks)
    ab_app = max(rows, key=lambda r: r["modes"]["cold"]["checks"])["app"]
    print(f"reduction A-B ({ab_app}) ...", flush=True)
    ab = reduction_ab(ab_app, args.smoke, repeat=args.repeat)
    print(f"  reduced    {ab['reduced']['wall_s']:8.3f} s wall  "
          f"{ab['reduced']['solver_calls']:4d} solved  "
          f"{ab['reduced']['class_count']:4d} classes  "
          f"{ab['reduced']['pruned']:4d} pruned")
    print(f"  unreduced  {ab['unreduced']['wall_s']:8.3f} s wall  "
          f"{ab['unreduced']['solver_calls']:4d} solved")
    print(f"  saved {ab['solver_calls_saved']} solver calls; "
          f"restriction sets agree: {ab['restrictions_agree']}")

    result = {
        "benchmark": "pair_sweep",
        "smoke": args.smoke,
        "jobs": args.jobs,
        "apps": rows,
        "incremental": incremental,
        "reduction_ab": ab,
    }
    out_path = pathlib.Path(args.out)
    trajectory = load_trajectory(out_path)
    today = datetime.date.today().isoformat()
    trajectory.append(trajectory_entry(result, date=today, label=args.label))
    final = {
        "benchmark": "pair_sweep",
        "current": result,
        "trajectory": trajectory,
    }
    out_path.write_text(json.dumps(final, indent=2) + "\n")
    print(f"wrote {out_path} ({len(trajectory)} trajectory entries)")

    failures = []
    for row in rows:
        if not row["restrictions_agree"]:
            failures.append(f"{row['app']}: modes disagree on restrictions")
        if args.smoke and not row["warm_solved_zero"]:
            failures.append(f"{row['app']}: warm run performed solver calls")
    if incremental["solver_calls"] != incremental["invalidated"]:
        failures.append(
            "incremental: warm cycle solved "
            f"{incremental['solver_calls']} pairs but invalidated "
            f"{incremental['invalidated']}")
    if incremental["invalidated_fraction"] >= 0.20:
        failures.append(
            "incremental: one-view edit invalidated "
            f"{incremental['invalidated_fraction']:.0%} of the pairs "
            "(acceptance bar: under 20%)")
    if not ab["restrictions_agree"]:
        failures.append(
            f"reduction A-B ({ab['app']}): reduced and unreduced sweeps "
            "disagree on the restriction set")
    if ab["solver_calls_saved"] < 0:
        failures.append(
            f"reduction A-B ({ab['app']}): reduction *increased* solver "
            f"calls by {-ab['solver_calls_saved']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
