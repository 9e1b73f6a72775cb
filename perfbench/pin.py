"""Record the reference restriction sets the benchmark checks against.

    python3 perfbench/pin.py            # rewrite perfbench/pinned.json

For each app of the cold workloads, and for each edit state of the
``edit-loop`` todo copy, the enum engine's pair-level restriction set at
the benchmark's search budget, with the failing check kinds per pair.
For the ``smt-crosscheck`` apps it also confirms that the SMT engine
restricts exactly the same pairs; check-kind splits between the two
engines are printed, not failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def sweep(app, engine: str) -> list[dict]:
    from repro.analyzer import analyze_application
    from repro.engine.scheduler import run_pair_sweep

    report = run_pair_sweep(analyze_application(app), run.CONFIG,
                            engine=engine, jobs=1, use_cache=False)
    return report.to_json_obj()["verdicts"]


def entry(verdicts: list[dict]) -> dict:
    restricted, undecided = run.verdict_rows(verdicts)
    if undecided:
        raise SystemExit(f"{undecided} undecided verdicts; raise the budget")
    return {"pairs": len(verdicts), "restricted": restricted}


def record() -> dict:
    import importlib

    from repro.service import directory_spec, export_builtin_app

    pinned: dict = {}
    for name in run.COLD_APPS:
        app = importlib.import_module(f"repro.apps.{name}").build_app()
        pinned[name] = entry(sweep(app, "enum"))
        print(f"{name}: {len(pinned[name]['restricted'])} restricted of "
              f"{pinned[name]['pairs']}", flush=True)
        if name in run.SMT_APPS:
            smt = entry(sweep(app, "smt"))
            if set(smt["restricted"]) != set(pinned[name]["restricted"]):
                raise SystemExit(f"{name}: enum and SMT restrict different "
                                 f"pairs")
            for pair, kinds in smt["restricted"].items():
                if kinds != pinned[name]["restricted"][pair]:
                    print(f"  kind split {pair}: enum "
                          f"{pinned[name]['restricted'][pair]} smt {kinds}")
    with tempfile.TemporaryDirectory() as tmp:
        app_dir = Path(tmp) / "todo"
        export_builtin_app("todo", app_dir)
        source = app_dir / "app.py"
        base = source.read_text()
        spec = directory_spec("todo", app_dir)
        for state, anchor, replacement in (("base", "", ""), *run.EDITS):
            source.write_text(base.replace(anchor, replacement)
                              if anchor else base)
            pinned[f"todo@{state}"] = entry(sweep(spec.build(), "enum"))
            print(f"todo@{state}: "
                  f"{len(pinned[f'todo@{state}']['restricted'])} restricted",
                  flush=True)
    return pinned


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.verifier import CheckConfig

    run.CONFIG = CheckConfig(timeout_s=run.TIMEOUT_S)
    pinned = record()
    target = run.HERE / "pinned.json"
    target.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
