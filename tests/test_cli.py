"""Tests for the ``noctua`` command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestApps:
    def test_lists_all_six(self, capsys):
        code, out = run_cli(capsys, "apps")
        assert code == 0
        for name in ("todo", "postgraduation", "zhihu", "ownphotos",
                     "smallbank", "courseware"):
            assert name in out


class TestAnalyze:
    def test_stats(self, capsys):
        code, out = run_cli(capsys, "analyze", "smallbank")
        assert code == 0
        assert "models           : 1" in out
        assert "effectful paths  : 4" in out

    def test_paths_dump(self, capsys):
        code, out = run_cli(capsys, "analyze", "courseware", "--paths")
        assert code == 0
        assert "path Enroll[0]:" in out
        assert "guard(exists<Student>" in out
        assert "ABORTED" in out  # aborted paths are labelled

    def test_json_export(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(capsys, "analyze", "smallbank", "--json", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["app"] == "smallbank"
        assert len(data["paths"]) == 15

    def test_unknown_app(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "doesnotexist"])


class TestVerify:
    def test_courseware_quick(self, capsys, tmp_path):
        code, out = run_cli(capsys, "verify", "courseware", "--quick",
                            "--conflict-table",
                            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        assert "com. failures : 1" in out
        assert "sem. failures : 1" in out
        assert "('AddCourse', 'DeleteCourse')" in out

    def test_smallbank(self, capsys):
        code, out = run_cli(capsys, "verify", "smallbank", "--no-cache")
        assert code == 0
        assert "com. failures : 0" in out
        assert "sem. failures : 4" in out

    def test_warm_cache_solves_nothing(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run_cli(capsys, "verify", "smallbank", "--quick",
                          "--cache-dir", cache_dir)
        assert code == 0
        code, out = run_cli(capsys, "verify", "smallbank", "--quick",
                            "--jobs", "2", "--cache-dir", cache_dir)
        assert code == 0
        assert "solver calls  : 0 " in out
        # every pair was fingerprinted on the cold run (smallbank's
        # creating updates defeat rw-pruning), so all 10 hit warm
        assert "cache         : 10 hits, 0 misses" in out
        assert "reduction     : 6 classes" in out


class TestTrace:
    def test_courseware_quick(self, capsys, tmp_path):
        out_file = tmp_path / "trace.jsonl"
        code, out = run_cli(capsys, "trace", "courseware", "--quick",
                            "--out", str(out_file))
        assert code == 0
        assert "== span tree ==" in out
        assert "== phase breakdown ==" in out
        assert "== slowest pairs" in out
        assert "== why restricted? ==" in out
        assert "pair-sweep" in out
        # explainer covered at least one restricted pair end-to-end
        assert "RESTRICTED" in out
        records = [json.loads(line)
                   for line in out_file.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"app-analysis", "pair-sweep", "pair",
                "check", "solver-call"} <= kinds

    def test_explicit_pair(self, capsys):
        code, out = run_cli(capsys, "trace", "courseware", "--quick",
                            "--pair", "AddCourse[0]", "DeleteCourse[0]")
        assert code == 0
        assert "pair: AddCourse[0] x DeleteCourse[0]" in out
        assert "diverging state:" in out

    def test_unknown_pair_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "courseware", "--quick",
                  "--pair", "Nope", "AddCourse[0]"])
        assert "Nope" in str(exc.value)


class TestChaos:
    def test_smallbank_chaos_smoke(self, capsys):
        code, out = run_cli(capsys, "chaos", "smallbank", "--seed", "1",
                            "--ops", "60", "--faults", "loss=0.2,dup=0.2,crash")
        assert code == 0
        assert "converged     : True" in out
        assert "invariants ok : True" in out

    def test_unknown_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "smallbank", "--faults", "gremlins"])
        assert "gremlins" in str(exc.value)


class TestEngineChaos:
    def test_single_seed_smoke(self, capsys):
        code, out = run_cli(capsys, "engine-chaos", "--seeds", "1",
                            "--jobs", "2")
        assert code == 0
        assert "seed   0 [ok]" in out
        assert "1 ok, 0 failed" in out
        assert "crash=" in out  # every seed injects at least a crash

    def test_verify_deadline_flag_parses(self, capsys):
        code, out = run_cli(capsys, "verify", "smallbank", "--quick",
                            "--no-cache", "--deadline", "30")
        assert code == 0
        assert "restrictions  : 4" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_simulate_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["simulate", "todo"])


class TestDifftestDirected:
    def test_directed_smoke_runs_clean(self, capsys):
        code, out = run_cli(capsys, "difftest", "--directed",
                            "--seeds", "2", "--budget", "40")
        assert code == 0
        assert "probe eval(s)" in out
        assert "mismatch(es)" in out

    def test_directed_k3(self, capsys):
        code, out = run_cli(capsys, "difftest", "--directed",
                            "--seeds", "1", "--budget", "20", "--k", "3")
        assert code == 0

    def test_directed_random_arm(self, capsys):
        code, out = run_cli(capsys, "difftest", "--directed",
                            "--seeds", "1", "--budget", "20",
                            "--mode", "random")
        assert code == 0

    def test_isolation_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["difftest", "--directed", "--isolation", "strong"])
