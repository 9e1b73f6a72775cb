"""Source-to-restriction-set benchmark for the Noctua reproduction.

Runs the real pipeline through its public entry points —
``analyze_application`` then ``run_pair_sweep`` for the cold workloads,
``VerificationService.run_cycle`` for the daemon — and checks every
restriction set it produces against the references pinned in
``perfbench/pinned.json``.

    python3 perfbench/run.py --workload cold-serial --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run
makes one untraced and one traced pass over the workload's input and
prints the per-layer metrics (see ``perfbench/layers.py``).  The line
before it stamps the host and gives the raw, unscaled times and the
per-item samples.

End-to-end times are seconds at a reference host speed: every item is
divided by the slowdown :class:`reference.HostGauge` measured around it,
because on a shared host the raw times of identical work drift by tens
of percent from minute to minute.

Load is a closed loop: one caller, one verification at a time.  The seed
only picks the order in which the workload's fixed input is visited.
Pool workers are spawned and import this file as ``__mp_main__``, so
nothing but definitions may run at import time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from reference import HostGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

#: the search budget: the CLI's default ``CheckConfig`` sample budget with
#: the cooperative timeout raised so far that it never decides a verdict
TIMEOUT_S = 600.0
#: forced re-verifications (the ``serve --once``/CI path) after each edit
#: cycle of ``edit-loop``
WARM_PER_EDIT = 13
#: times each edit is applied and reverted in one pass of ``edit-loop``,
#: so that each edit cycle's median rests on more than one sample
EDIT_REPEATS = 2

COLD_APPS = ("smallbank", "courseware", "todo", "postgraduation")
SMT_APPS = ("smallbank", "courseware", "todo")
#: samples of each app ``smt-crosscheck`` takes at least
SMT_MIN_SAMPLES = 6

#: one-view edits of the exported todo app: (name, anchor, replacement).
#: The first keeps todo's restriction set, the second changes it, so a
#: service that re-used stale verdicts after an edit fails the run.
EDITS = (
    ("complete-priority", "task.done = True",
     "task.done = True\n        task.priority = 1"),
    ("star-delete",
     "if task.starred:\n"
     "            task.starred = False\n"
     "        else:\n"
     "            task.starred = True",
     "task.delete()"),
)

#: the benchmark's ``CheckConfig``, built once the program is importable
CONFIG = None

#: outcomes that mean the engine did not decide the check
UNDECIDED = ("timeout", "unknown")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_stamp() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": nproc(), "python": platform.python_version(),
            "cpu_model": model}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def verdict_rows(verdicts: list[dict]) -> tuple[dict[str, str], int]:
    """Restricted pairs with their failing check kinds, and the number
    of verdicts the engine left undecided."""
    restricted: dict[str, str] = {}
    undecided = 0
    for v in verdicts:
        outcomes = (v["commutativity"], v["semantic"])
        if v.get("status") == "unknown" or any(o in UNDECIDED
                                               for o in outcomes):
            undecided += 1
        kinds = [kind for kind, o in zip(("com", "sem"), outcomes)
                 if o is not None and o != "pass"]
        if kinds:
            restricted[f"{v['left']} x {v['right']}"] = ",".join(kinds)
    return restricted, undecided


class Checked:
    """Failure accounting against the pinned restriction sets."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        #: check-kind disagreements with the pinned (enum) kinds, by app
        self.kind_disagreements: dict[str, int] = {}
        self.sanity_errors: list[str] = []

    def verdicts(self, key: str, verdicts: list[dict]) -> int:
        """Failed ops for one restriction set: undecided verdicts plus,
        when the set differs from the pinned one, every differing pair."""
        ref = self.pinned[key]["restricted"]
        got, undecided = verdict_rows(verdicts)
        differing = set(got) ^ set(ref)
        self.kind_disagreements[key] = sum(
            got[pair] != ref[pair] for pair in set(got) & set(ref))
        if len(verdicts) != self.pinned[key]["pairs"]:
            differing.add("<pair count>")
        return undecided + len(differing)


class ColdWorkload:
    """Each app from source to restriction set, no cache."""

    setup_repeats = 5

    def __init__(self, apps, engine: str, jobs: int, pinned: dict,
                 min_samples: int = 1):
        self.apps, self.engine, self.jobs = apps, engine, jobs
        self.min_samples = min_samples
        self.check = Checked(pinned)
        self.app = None

    def setup(self) -> None:
        for name in self.apps:
            self.build(name)

    def build(self, name: str):
        return importlib.import_module(f"repro.apps.{name}").build_app()

    def blocks(self, rng: random.Random) -> list[list[str]]:
        order = list(self.apps)
        rng.shuffle(order)
        return [[name] for name in order]

    def prepare(self, key: str) -> None:
        self.app = self.build(key)

    def run(self, key: str):
        from repro.analyzer import analyze_application
        from repro.engine.scheduler import run_pair_sweep

        analysis = analyze_application(self.app)
        return run_pair_sweep(analysis, CONFIG, engine=self.engine,
                              jobs=self.jobs, use_cache=False)

    def verify(self, key: str, report) -> tuple[int, int]:
        verdicts = report.to_json_obj()["verdicts"]
        failed = self.check.verdicts(key, verdicts)
        metrics = report.metrics
        if self.jobs > 1 and (metrics.get("mode") != "parallel"
                              or metrics.get("jobs_used") != self.jobs):
            self.check.sanity_errors.append(
                f"{key}: mode={metrics.get('mode')} "
                f"jobs_used={metrics.get('jobs_used')} "
                f"fallback={metrics.get('fallback_reason')!r}")
        return len(verdicts), failed

    def close(self) -> None:
        pass


class EditLoopWorkload:
    """A verification service on an exported todo: one-view edits
    applied and reverted, each followed by forced warm re-verifies."""

    setup_repeats = 2
    min_samples = 1

    def __init__(self, pinned: dict):
        self.check = Checked(pinned)
        self.workdir: Path | None = None
        self.service = None
        self.source: Path | None = None
        self.base_text = ""
        self.state = "base"

    def setup(self) -> None:
        from repro.service import (
            VerificationService,
            directory_spec,
            export_builtin_app,
        )

        self.close()
        WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="edit-loop-",
                                             dir=WORK_DIR))
        app_dir = self.workdir / "todo"
        export_builtin_app("todo", app_dir)
        self.source = app_dir / "app.py"
        self.base_text = self.source.read_text()
        for _, anchor, _ in EDITS:
            if self.base_text.count(anchor) != 1:
                raise SystemExit(f"edit anchor {anchor!r} is not unique")
        self.service = VerificationService(
            [directory_spec("todo", app_dir)], CONFIG, jobs=1,
            cache_dir=str(self.workdir / "cache"))
        self.state = "base"
        [prime] = self.service.run_cycle()
        ops, failed = self.verify("prime", [prime])
        if failed:
            raise SystemExit("edit-loop: priming cycle does not match the "
                             "pinned todo restriction set")

    def blocks(self, rng: random.Random) -> list[list[str]]:
        order = [name for name, _, _ in EDITS]
        rng.shuffle(order)
        # Warm cycles are keyed by the edit state they run in: the states
        # differ in pair count and so in cost, and one median over all of
        # them would fall between the modes.
        return [[f"apply:{name}", *[f"warm@{name}"] * WARM_PER_EDIT,
                 f"revert:{name}", *["warm@base"] * WARM_PER_EDIT]
                * EDIT_REPEATS for name in order]

    def prepare(self, key: str) -> None:
        if key.startswith("warm@"):
            return
        action, name = key.split(":")
        text = self.base_text
        if action == "apply":
            _, anchor, replacement = next(e for e in EDITS if e[0] == name)
            text = text.replace(anchor, replacement)
        self.source.write_text(text)
        self.state = name if action == "apply" else "base"

    def run(self, key: str):
        return self.service.run_cycle(force=key.startswith("warm@"))

    def verify(self, key: str, cycles) -> tuple[int, int]:
        state = self.service.apps["todo"]
        expected = "forced" if key.startswith("warm@") else (
            "initial" if key == "prime" else "change")
        if (len(cycles) != 1 or state.error or cycles[0].trigger != expected
                or state.report_obj is None):
            return 1, 1
        verdicts = state.report_obj["verdicts"]
        failed = self.check.verdicts(f"todo@{self.state}", verdicts)
        return 1 + len(verdicts), failed

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None
            if not any(WORK_DIR.iterdir()):
                WORK_DIR.rmdir()


def make_workload(name: str, pinned: dict):
    jobs = max(2, nproc())
    if name == "cold-serial":
        return ColdWorkload(COLD_APPS, "enum", 1, pinned)
    if name == "cold-pool":
        return ColdWorkload(COLD_APPS, "enum", jobs, pinned)
    if name == "smt-crosscheck":
        # Its sweeps are short, so a run takes several samples of each to
        # average over the host's slower and faster spells.
        return ColdWorkload(SMT_APPS, "smt", 1, pinned,
                            min_samples=SMT_MIN_SAMPLES)
    if name == "edit-loop":
        return EditLoopWorkload(pinned)
    raise SystemExit(f"unknown workload {name!r}")


#: fields of one scaled item sample
RAW_WALL, RAW_CPU, WALL, CPU = range(4)


def time_call(fn, gauge: HostGauge):
    """Run ``fn``; returns its result and ``(start, wall, CPU)``, where
    the CPU leaves out what the gauge thread used meanwhile."""
    cpu0, gauge0 = cpu_seconds(), gauge.thread_cpu()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0 - (gauge.thread_cpu() - gauge0)
    return result, (start, wall, cpu)


def scale(gauge: HostGauge, raw: list[tuple[float, float, float]]):
    """``(raw wall, raw CPU, scaled wall, scaled CPU)`` per raw sample:
    each divided by the host's slowdown while it ran."""
    out = []
    for start, wall, cpu in raw:
        factor = gauge.slowdown(start, start + wall)
        out.append((wall, cpu, wall / factor, cpu / factor))
    return out


class Pass:
    """Per-item samples of one measured stretch."""

    def __init__(self) -> None:
        self.raw: dict[str, list[tuple[float, float, float]]] = (
            defaultdict(list))
        self.samples: dict[str, list[tuple[float, ...]]] = {}
        self.per_pass: Counter = Counter()
        self.ops = 0
        self.failed = 0

    def median(self, key: str, field: int) -> float:
        return statistics.median(s[field] for s in self.samples[key])

    def per_pass_total(self, field: int) -> float:
        """One pass over the fixed input: each item's median times how
        often the item occurs in a pass."""
        return sum(count * self.median(key, field)
                   for key, count in self.per_pass.items())

    def total(self, field: int) -> float:
        return sum(s[field] for samples in self.samples.values()
                   for s in samples)


def measure(workload, rng: random.Random, seconds: float, gauge: HostGauge,
            min_samples: int = 1) -> Pass:
    """Visit the workload's input in seed order, whole blocks at a time,
    until ``seconds`` have passed and every item has ``min_samples``
    samples."""
    out = Pass()
    started = time.perf_counter()
    while True:
        blocks = workload.blocks(rng)
        if not out.per_pass:
            out.per_pass = Counter(key for block in blocks for key in block)
        for block in blocks:
            for key in block:
                workload.prepare(key)
                gauge.sample_if_stale()
                result, sample = time_call(lambda: workload.run(key),
                                           gauge)
                out.raw[key].append(sample)
                ops, failed = workload.verify(key, result)
                out.ops += ops
                out.failed += failed
            if (time.perf_counter() - started >= seconds
                    and all(len(out.raw[key]) >= min_samples
                            for key in out.per_pass)):
                gauge.sample()
                gauge.settle()
                out.samples = {key: scale(gauge, raw)
                               for key, raw in out.raw.items()}
                return out


def latency_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples
    beyond it, with the sample count."""
    out = {"n": len(values)}
    if values:
        out["p50_s"] = statistics.median(values)
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}_s"] = statistics.quantiles(
                values, n=100, method="inclusive")[q - 1]
            break
    return out


def cycle_latencies(run: Pass) -> dict:
    """Edit and warm cycle latencies of ``edit-loop``, kept apart so no
    percentile straddles the two modes (empty for other workloads)."""
    edits = [s[WALL] for key, samples in run.samples.items()
             if key.startswith(("apply:", "revert:")) for s in samples]
    warm = [s[WALL] for key, samples in run.samples.items()
            if key.startswith("warm@") for s in samples]
    return {"edit": latency_summary(edits), "warm": latency_summary(warm)}


#: what a fresh process imports before its first timed operation
PROGRAM_MODULES = ("repro.analyzer", "repro.engine.scheduler", "repro.service",
                   "repro.verifier.smtcheck")


def fresh_import() -> None:
    """Start a fresh interpreter that imports the program, and wait."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import {', '.join(PROGRAM_MODULES)}")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    global CONFIG
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    from repro.verifier import CheckConfig

    CONFIG = CheckConfig(timeout_s=TIMEOUT_S)
    pinned = json.loads((HERE / "pinned.json").read_text())

    workload = make_workload(args.workload, pinned)
    rng = random.Random(args.seed)
    gauge = HostGauge()
    try:
        raw_setups = []
        for _ in range(workload.setup_repeats):
            gauge.sample()
            raw_setups.append(
                time_call(lambda: (fresh_import(), workload.setup()),
                          gauge)[1])
        gauge.sample()
        gauge.settle()
        setups = scale(gauge, raw_setups)
        setup_s = statistics.median(s[WALL] for s in setups)

        if args.trace:
            from layers import Recorder, install, layer_metrics

            plain = measure(workload, rng, 0.0, gauge)
            recorder = Recorder()
            uninstall = install(recorder)
            try:
                traced = measure(workload, rng, 0.0, gauge)
            finally:
                uninstall()
            values = layer_metrics(recorder)
            latencies = cycle_latencies(plain)
            values["service.edit_p50_s"] = (
                latencies["edit"].get("p50_s", 0.0), "s")
            values["service.edit_samples"] = (latencies["edit"]["n"], "count")
            values["service.warm_p50_s"] = (
                latencies["warm"].get("p50_s", 0.0), "s")
            values["service.warm_p90_s"] = (
                latencies["warm"].get("p90_s", 0.0), "s")
            values["service.warm_samples"] = (latencies["warm"]["n"], "count")
            values["verifier.kind_disagreements"] = (
                sum(workload.check.kind_disagreements.values()), "count")
            values["host.slowdown"] = (
                traced.total(RAW_WALL) / traced.total(WALL), "ratio")
            values["trace.overhead_frac"] = (
                traced.total(WALL) / plain.total(WALL) - 1.0, "ratio")
            runs = (plain, traced)
        else:
            timed_run = measure(workload, rng, args.seconds, gauge,
                                workload.min_samples)
            values = {
                "setup_s": (setup_s, "s"),
                "wall_s": (timed_run.per_pass_total(WALL), "s"),
                "cpu_s": (timed_run.per_pass_total(CPU), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            latencies = cycle_latencies(timed_run)
            runs = (timed_run,)
    finally:
        workload.close()
        gauge.close()
        # The pool's resource tracker outlives the sweeps; stop it so no
        # process this run started survives it.
        tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                          "_resource_tracker", None)
        if tracker is not None and getattr(tracker, "_pid", None):
            tracker._stop()

    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    sanity = workload.check.sanity_errors
    detail = {
        "host": host_stamp(),
        "workload": args.workload,
        "seed": args.seed,
        "timeout_s": TIMEOUT_S,
        "samples": {k: len(v) for k, v in runs[0].samples.items()},
        "raw_pass_s": {"wall": runs[0].per_pass_total(RAW_WALL),
                       "cpu": runs[0].per_pass_total(RAW_CPU)},
        "wall_samples_s": {k: [round(s[WALL], 4) for s in v]
                           for k, v in runs[0].samples.items()},
        "setup_repeats_s": [s[WALL] for s in setups],
        "sanity_errors": sanity,
    }
    if args.workload == "edit-loop":
        detail["cycle_latency"] = latencies
    print(json.dumps(detail, sort_keys=True))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if ({m["name"]: m["unit"] for m in declared}
            != {name: unit for name, (_, unit) in values.items()}):
        print("perfbench: measured metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0 and not sanity,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
