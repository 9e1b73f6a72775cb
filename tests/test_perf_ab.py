"""Tests for the paired-run summary of ``tools/perf_ab.py``: quartiles,
win counts and the gain rule (nine tenths of at least ten pairs, and a
median shift wider than the parent's interquartile range)."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_ab", REPO_ROOT / "tools" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)


def run(**values) -> dict:
    return {"metrics": {k: {"value": v} for k, v in values.items()}}


def summary(pairs, better) -> str:
    (line,) = perf_ab.summarize(pairs, better)
    return line


def test_quartiles():
    assert perf_ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_gain_needs_nine_tenths_of_ten_pairs_and_a_wide_shift():
    lower = {"wall_s": "lower"}
    clear = [(run(wall_s=10 + i / 10), run(wall_s=9.0)) for i in range(10)]
    assert "wins 10/10 (losses 0)  gain yes" in summary(clear, lower)
    # One loss in ten still claims; two do not.
    one_loss = clear[:9] + [(run(wall_s=9.0), run(wall_s=9.5))]
    assert "wins 9/10 (losses 1)  gain yes" in summary(one_loss, lower)
    two_losses = clear[:8] + one_loss[9:] * 2
    assert "gain no" in summary(two_losses, lower)
    # Every pair won, but by less than the parent's own spread.
    narrow = [(run(wall_s=10 + i), run(wall_s=9.5 + i)) for i in range(10)]
    assert "wins 10/10 (losses 0)  gain no" in summary(narrow, lower)
    assert "gain n/a" in summary(clear[:4], lower)


def test_direction_and_ties():
    pairs = [(run(hits=5), run(hits=5)), (run(hits=5), run(hits=7))]
    line = summary(pairs, {"hits": "higher"})
    assert "wins 1/2 (losses 0)" in line and "+20.0%" in line


def test_refuses_a_parent_equal_to_the_working_tree(tmp_path, monkeypatch,
                                                   capsys):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    (tmp_path / "a.txt").write_text("x\n")
    for cmd in (["init", "-q"], ["add", "a.txt"], ["commit", "-qm", "a"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True)
    monkeypatch.setattr(perf_ab, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        perf_ab.main(["--parent", "HEAD", "--pairs", "1"])
    assert exc.value.code == 2
    assert "does not differ from HEAD" in capsys.readouterr().err
