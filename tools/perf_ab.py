#!/usr/bin/env python3
"""Paired parent/change runs of the perfbench benchmark.

Checks out ``--parent`` (default ``HEAD``) into a temporary ``git
worktree`` and runs ``perfbench/run.py --workload W --seconds S --trace
0`` alternately there and in this working tree, for ``--pairs`` pairs.
``S`` is ``run_seconds`` of ``BENCHMARK.json``, the run length the
benchmark fixes for both sides.  When the working tree does not differ
from the parent (for instance ``HEAD`` after the change is committed),
the tool refuses to run: both sides would be the same code.
Both sides of a pair use the same seed, and the side that runs first
alternates from pair to pair, so slow spells of a shared host fall on
both sides alike.  Each run prints one line with its ``correct`` and
``failed``; the summary gives, per end-to-end metric, each side's median
and quartiles, the change of the median, and in how many pairs the
change won (ties count for neither side).  ``gain`` says whether the
change wins at least nine tenths of at least ten pairs and its median
is better than the parent's by more than the parent's interquartile
range::

    python tools/perf_ab.py --workload cold-serial --pairs 10
    make perf-ab PARENT=HEAD~1 WORKLOAD=cold-pool PAIRS=3

Exits non-zero when any run fails or reports ``correct: false``, and
with status 2 when the working tree equals the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: pairs a gain claim needs; fewer runs only check for regressions
MIN_CLAIM_PAIRS = 10


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; its result line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; with one value, that value three times."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]
              ) -> list[str]:
    """One line per metric: quartiles of both sides, wins and the gain
    test of the choosing-metrics rule."""
    lines = []
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        shift = (cmed - pmed) / pmed if pmed else 0.0
        gain = ("n/a" if len(pairs) < MIN_CLAIM_PAIRS else
                "yes" if (wins >= 0.9 * len(pairs)
                          and sign * (pmed - cmed) > pq3 - pq1) else "no")
        lines.append(
            f"{name:12s} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
            f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
            f"{shift:+.1%}  wins {wins}/{len(pairs)} (losses {losses})  "
            f"gain {gain}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against")
    parser.add_argument("--workload", default="cold-serial")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed+i")
    args = parser.parse_args(argv)

    same = subprocess.run(["git", "diff", "--quiet", args.parent, "--"],
                          cwd=ROOT)
    if same.returncode == 0:
        parser.error(f"the working tree does not differ from {args.parent}; "
                     "both sides would run the same code (pass --parent)")
    if same.returncode != 1:
        parser.error(f"git diff against {args.parent} failed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    pairs: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        base = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(base),
                        args.parent], cwd=ROOT, check=True,
                       capture_output=True)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("parent", base), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                results = {}
                for side, root in order:
                    result = run_bench(root, args.workload, seed, seconds)
                    results[side] = result
                    ok &= bool(result["correct"]) and result["failed"] == 0
                    values = " ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items())
                    print(f"pair {i} seed {seed} {side:6s} "
                          f"correct={result['correct']} "
                          f"failed={result['failed']} {values}", flush=True)
                pairs.append((results["parent"], results["change"]))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base)], cwd=ROOT, check=False)
    print(f"{args.workload}: {len(pairs)} pairs, parent {args.parent}, "
          f"{seconds:g} s runs")
    for line in summarize(pairs, better):
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
