"""The benchmark's own test: exact counts are exact.

    python3 perfbench/check_counts.py

Runs every workload's traced pass three times — twice under
``PYTHONHASHSEED=1`` and once under ``PYTHONHASHSEED=2`` — and asserts
that every per-layer metric with unit ``count`` (interpreter calls,
reduction and cache counters, check and solver-call counts) and every
``attempted``/``failed`` total is identical across the three.  Exits 1
on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-serial", "cold-pool", "edit-loop", "smt-crosscheck")


def traced_counts(workload: str, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, env=env, check=True, capture_output=True,
        text=True, timeout=600,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(out)
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count"}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return counts


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        runs = [traced_counts(workload, seed) for seed in ("1", "1", "2")]
        differing = sorted(name for name in runs[0]
                           if len({run.get(name) for run in runs}) > 1)
        if differing:
            ok = False
            for name in differing:
                print(f"{workload}: {name} differs: "
                      f"{[run.get(name) for run in runs]}")
        else:
            print(f"{workload}: {len(runs[0])} counts identical across "
                  f"two runs and two PYTHONHASHSEED values")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
