"""``tools/check_trace.py`` rejects enum ``solver-call`` records whose
candidate counters do not add up, whose ``independent`` and
``infeasible`` counts exceed the candidates replayed, whose feasibility
seconds fall outside the record's wall time, whose semantic record
counts what only the commutativity check spends, or whose PASS does not
say what it covers."""

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
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="sampled"),
        solver_call(2, candidates=40, exhaustive=40, sampled=0, repeats=0,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="exhaustive"),
        solver_call(3, backend="smt", clauses=10),
        solver_call(4, check="commutativity", candidates=40, exhaustive=16,
                    sampled=24, repeats=24, independent=10,
                    infeasible=6, feasibility=30, feasibility_s=0.05,
                    coverage="sampled"),
    ])
    assert result.returncode == 0, result.stdout


def test_unaccounted_enum_records_fail(tmp_path):
    result = check(tmp_path, [
        solver_call(1, candidates=40, exhaustive=16, sampled=20, repeats=0,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="sampled"),
        solver_call(2, candidates=40, exhaustive=16, sampled=24, repeats=25,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="sampled"),
        solver_call(3, candidates=40, coverage="sampled"),
        solver_call(4, candidates=40, exhaustive=16, sampled=24, repeats=0,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="sampled"),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert "line 1" in lines[0] and "!= candidates 40" in lines[0]
    assert "line 2" in lines[1] and "repeats 25 > sampled 24" in lines[1]
    assert "line 3" in lines[2] and "lacks integer counters" in lines[2]


def test_passes_without_honest_coverage_fail(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=0,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0)
    result = check(tmp_path, [
        solver_call(1, **counters),
        solver_call(2, **counters, coverage="exhaustive"),
        solver_call(3, **counters, coverage="sampled"),
        {**solver_call(4, **counters), "attrs": {
            "backend": "enum", "check": "semantic", "result": "fail",
            "coverage": "", **counters}},
        solver_call(5, candidates=40, exhaustive=40, sampled=0, repeats=0,
                    independent=0, infeasible=0, feasibility=0,
                    feasibility_s=0.0, coverage="most"),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert "line 1" in lines[0] and "PASS without coverage" in lines[0]
    assert "line 2" in lines[1] and "exhaustive PASS drew 24" in lines[1]
    assert "line 5" in lines[2] and "'most'" in lines[2]


def test_independent_beyond_the_replayed_candidates_fails(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=24,
                    infeasible=0, feasibility=0, feasibility_s=0.0,
                    coverage="sampled")
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
            and "independent 17 + infeasible 0 > candidates - repeats 16"
            in lines[0])
    assert "line 2" in lines[1] and "semantic record with independent 1" \
        in lines[1]
    assert "line 3" in lines[2] and "lacks integer counters" in lines[2]


def test_feasibility_replays_must_be_counted(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=24,
                    independent=0, infeasible=0, feasibility_s=0.0,
                    coverage="sampled")
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


def test_ungeneratable_candidates_and_their_seconds_must_add_up(tmp_path):
    counters = dict(candidates=40, exhaustive=16, sampled=24, repeats=24,
                    independent=10, feasibility=30, coverage="sampled")
    result = check(tmp_path, [
        solver_call(1, check="commutativity", infeasible=7,
                    feasibility_s=0.05, **counters),
        solver_call(2, check="commutativity", feasibility_s=0.05,
                    **counters),
        solver_call(3, check="commutativity", infeasible=6,
                    feasibility_s=0.2, **counters),
        solver_call(4, check="commutativity", infeasible=6,
                    feasibility_s=-0.01, **counters),
        solver_call(5, check="commutativity", infeasible=6,
                    feasibility_s="0.05", **counters),
        {**solver_call(6), "attrs": {
            "backend": "enum", "check": "semantic", "result": "pass",
            **counters, "independent": 0, "feasibility": 0,
            "infeasible": 2, "feasibility_s": 0.01}},
        solver_call(7, check="commutativity", infeasible=6,
                    feasibility_s=0.1, **counters),
    ])
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 7
    assert ("line 1" in lines[0]
            and "independent 10 + infeasible 7 > candidates - repeats 16"
            in lines[0])
    assert "line 2" in lines[1] and "'infeasible'" in lines[1]
    assert "line 3" in lines[2] and "feasibility_s 0.2 outside" in lines[2]
    assert "line 4" in lines[3] and "feasibility_s -0.01 outside" in lines[3]
    assert "line 5" in lines[4] and "lacks seconds feasibility_s" in lines[4]
    assert "line 6" in lines[5] and "semantic record with infeasible 2" \
        in lines[5]
    assert "line 6" in lines[6] and "semantic record with feasibility_s" \
        in lines[6]
