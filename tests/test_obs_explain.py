"""Tests for the 'why restricted?' explainer (``repro.obs.explain``).

The explainer must be deterministic: seeded witness search, sorted
rendering, and no timing figures in the output — running it twice on
the same pair yields byte-identical text."""

from __future__ import annotations

import re

import pytest

from repro.analyzer import analyze_application
from repro.engine import run_pair_sweep
from repro.obs.explain import ExplainError, explain_pair, explain_report
from repro.verifier import CheckConfig

#: deterministic budget: decided by sample exhaustion, never by the clock
CFG = CheckConfig(timeout_s=60.0, max_samples=60, max_exhaustive=800)


@pytest.fixture(scope="module")
def courseware_analysis():
    from repro.apps.courseware import build_app

    return analyze_application(build_app())


@pytest.fixture(scope="module")
def smallbank_analysis():
    from repro.apps.smallbank import build_app

    return analyze_application(build_app())


class TestResolution:
    def test_unknown_name(self, courseware_analysis):
        with pytest.raises(ExplainError, match="no code path named"):
            explain_pair(courseware_analysis, "Nope[0]", "AddCourse[0]", CFG)

    def test_view_name_resolves_to_single_effectful_path(
        self, courseware_analysis
    ):
        by_view = explain_pair(
            courseware_analysis, "AddCourse", "DeleteCourse", CFG
        )
        by_path = explain_pair(
            courseware_analysis, "AddCourse[0]", "DeleteCourse[0]", CFG
        )
        assert by_view == by_path

    def test_non_effectful_path_rejected(self, courseware_analysis):
        # ListCourses is a read-only view: no effectful path to explain
        with pytest.raises(ExplainError):
            explain_pair(courseware_analysis, "ListCourses", "AddCourse", CFG)


class TestCommutativityWitness:
    def test_deterministic(self, courseware_analysis):
        first = explain_pair(
            courseware_analysis, "AddCourse[0]", "DeleteCourse[0]", CFG
        )
        second = explain_pair(
            courseware_analysis, "AddCourse[0]", "DeleteCourse[0]", CFG
        )
        assert first == second

    def test_witness_content(self, courseware_analysis):
        text = explain_pair(
            courseware_analysis, "AddCourse[0]", "DeleteCourse[0]", CFG
        )
        assert "RESTRICTED" in text
        assert "commutativity: FAIL" in text
        assert "witness arguments:" in text
        assert "diverging state:" in text
        assert "Course[" in text
        assert "SOIR operations responsible:" in text
        # no wall-clock numbers may leak into the deterministic output
        assert "elapsed" not in text and " s)" not in text


class TestSemanticWitness:
    def test_invalidated_invariant(self, smallbank_analysis):
        text = explain_pair(
            smallbank_analysis, "TransactSavings", "TransactSavings", CFG
        )
        assert "RESTRICTED" in text
        assert "invalidate" in text
        # the failing guard is printed as the invalidated invariant
        assert "invalidated invariant" in text or "failing operation" in text

    def test_deterministic(self, smallbank_analysis):
        first = explain_pair(
            smallbank_analysis, "TransactSavings", "TransactSavings", CFG
        )
        second = explain_pair(
            smallbank_analysis, "TransactSavings", "TransactSavings", CFG
        )
        assert first == second


class TestUnrestrictedPair:
    def test_reports_scope_examined(self, courseware_analysis):
        text = explain_pair(
            courseware_analysis, "Register[0]", "Register[0]", CFG
        )
        assert "NOT RESTRICTED" in text
        assert "scenarios" in text
        # the PASS says how its candidates split, per check
        for kind in ("commutativity", "semantic"):
            assert re.search(rf"  {kind}: \d+ exhaustive \+ \d+ sampled "
                             rf"\(\d+ sampled repeats not replayed\)", text)
        # and how many commutativity candidates skipped both replays
        assert re.search(r"  commutativity: .*\); \d+ independent \(orders "
                         r"not replayed\); PASS coverage", text)

    def test_reports_candidates_skipped_as_ungeneratable(
            self, smallbank_analysis):
        text = explain_pair(
            smallbank_analysis, "DepositChecking[1]", "DepositChecking[1]",
            CFG
        )
        assert "NOT RESTRICTED" in text
        skipped = re.search(r"  commutativity: .*\); (\d+) ungeneratable "
                            r"\(not replayed\); \d+ independent", text)
        assert skipped and int(skipped.group(1)) > 0


class TestExplainReport:
    def test_covers_every_restriction(self, courseware_analysis):
        report = run_pair_sweep(
            courseware_analysis, CFG, jobs=1, use_cache=False
        )
        assert len(report.restrictions) == 2
        text = explain_report(courseware_analysis, report, CFG)
        assert text.count("RESTRICTED") >= len(report.restrictions)
        for verdict in report.restrictions:
            assert verdict.left in text and verdict.right in text

    def test_limit_annotates_remainder(self, courseware_analysis):
        report = run_pair_sweep(
            courseware_analysis, CFG, jobs=1, use_cache=False
        )
        text = explain_report(courseware_analysis, report, CFG, limit=1)
        assert "1 further restricted pair" in text
        assert "--explain-all" in text


class TestExplainFlip:
    def test_renders_from_plain_dict(self):
        from repro.obs.explain import explain_flip

        text = explain_flip({
            "seed": 3, "step": 7, "op": "tighten-unique",
            "direction": "restricting",
            "digest_restricted": "abcdef0123456789",
            "digest_unrestricted": "9876543210fedcba",
            "isolation": "por", "first_level": "por",
            "paths": ["P", "Q"],
        })
        assert "tighten-unique" in text
        assert "restricted abcdef012345" in text
        assert "first diverging level: por" in text

    def test_real_flip_record_roundtrips(self):
        from repro.difftest.directed import DirectedConfig, run_directed
        from repro.obs.explain import explain_flip

        report = run_directed(1, config=DirectedConfig(budget=30))
        if not report.flips:
            import pytest

            pytest.skip("seed 0 walk found no flip at this budget")
        text = explain_flip(report.flips[0].to_obj())
        assert "flip: seed 0" in text
        assert report.flips[0].op in text
