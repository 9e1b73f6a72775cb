"""``tools/check_trace.py`` rejects enum ``solver-call`` records whose
candidate counters do not add up, whose ``independent`` count exceeds
the candidates replayed, whose semantic record counts feasibility
replays, or whose PASS does not say what it covers."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECK_TRACE = REPO_ROOT / "tools" / "check_trace.py"


def solver_call(span_id: int, backend: str = "enum",
                check: str = "semantic", **counters) -> dict:
    return {"id": span_id, "parent": None, "name": "enum search P x Q",
            "kind": "solver-call", "pid": 1, "wall_s": 0.1, "cpu_s": 0.1,
            "attrs": {"backend": backend, "check": check,
                      "result": "pass", **counters}}


def check(tmp_path, records) -> subprocess.CompletedProcess:
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    return subprocess.run(
        [sys.executable, str(CHECK_TRACE), str(trace),
         "--require", "solver-call"],
        capture_output=True, text=True, timeout=60)


def test_accounted_enum_records_pass(tmp_path):
    result = check(tmp_path, [
        solver_call(1, candidates=40, exhaustive=16, sampled=24, repeats=24,
                    independent=0, feasibility=0, coverage="sampled"),
        solver_call(2, candidates=40, exhaustive=40, sampled=0, repeats=0,
                    independent=0, feasibility=0, coverage="exhaustive"),
        solver_call(3, backend="smt", clauses=10),
        solver_call(4, check="commutativity", candidates=40, exhaustive=16,
                    sampled=24, repeats=24, independent=16,
                    feasibility=30, coverage="sampled"),
    ])
    assert result.returncode == 0, result.stdout


def test_unaccounted_enum_records_fail(tmp_path):
    result = check(tmp_path, [
        solver_call(1, candidates=40, exhaustive=16, sampled=20, repeats=0,
                    independent=0, feasibility=0, coverage="sampled"),
        solver_call(2, candidates=40, exhaustive=16, sampled=24, repeats=25,
                    independent=0, feasibility=0, coverage="sampled"),
        solver_call(3, candidates=40, coverage="sampled"),
        solver_call(4, candidates=40, exhaustive=16, sampled=24, repeats=0,
                    independent=0, feasibility=0, coverage="sampled"),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert "line 1" in lines[0] and "!= candidates 40" in lines[0]
    assert "line 2" in lines[1] and "repeats 25 > sampled 24" in lines[1]
    assert "line 3" in lines[2] and "lacks integer counters" in lines[2]


def test_passes_without_honest_coverage_fail(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=0,
                    independent=0, feasibility=0)
    result = check(tmp_path, [
        solver_call(1, **counters),
        solver_call(2, **counters, coverage="exhaustive"),
        solver_call(3, **counters, coverage="sampled"),
        {**solver_call(4, **counters), "attrs": {
            "backend": "enum", "check": "semantic", "result": "fail",
            "coverage": "", **counters}},
        solver_call(5, candidates=40, exhaustive=40, sampled=0, repeats=0,
                    independent=0, feasibility=0, coverage="most"),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert "line 1" in lines[0] and "PASS without coverage" in lines[0]
    assert "line 2" in lines[1] and "exhaustive PASS drew 24" in lines[1]
    assert "line 5" in lines[2] and "'most'" in lines[2]


def test_independent_beyond_the_replayed_candidates_fails(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=24,
                    feasibility=0, coverage="sampled")
    result = check(tmp_path, [
        solver_call(1, check="commutativity", independent=17, **counters),
        solver_call(2, independent=1, **counters),
        solver_call(3, check="commutativity", independent="3", **counters),
        solver_call(4, check="commutativity", independent=16, **counters),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert ("line 1" in lines[0]
            and "independent 17 > candidates - repeats 16" in lines[0])
    assert "line 2" in lines[1] and "semantic record with independent 1" \
        in lines[1]
    assert "line 3" in lines[2] and "lacks integer counters" in lines[2]


def test_feasibility_replays_must_be_counted(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=24,
                    independent=0, coverage="sampled")
    result = check(tmp_path, [
        solver_call(1, check="commutativity", feasibility=12, **counters),
        solver_call(2, feasibility=3, **counters),
        solver_call(3, check="commutativity", **counters),
        solver_call(4, check="commutativity", feasibility=1.5, **counters),
        solver_call(5, feasibility=0, **counters),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert "line 2" in lines[0] and "semantic record with feasibility 3" \
        in lines[0]
    assert "line 3" in lines[1] and "'feasibility'" in lines[1]
    assert "line 4" in lines[2] and "'feasibility'" in lines[2]
