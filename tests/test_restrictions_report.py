"""Tests for restriction-set reporting: outcomes, aggregation,
coordination-free classification and the deployment JSON artifact."""

import json

import pytest

from repro.verifier.restrictions import (
    CheckResult,
    Counterexample,
    Outcome,
    PairVerdict,
    VerificationReport,
)


def verdict(left, right, com: Outcome, sem: Outcome) -> PairVerdict:
    v = PairVerdict(left, right)
    v.commutativity = CheckResult(left, right, "commutativity", com)
    v.semantic = CheckResult(left, right, "semantic", sem)
    return v


@pytest.fixture()
def report():
    r = VerificationReport("demo")
    r.verdicts = [
        verdict("A", "A", Outcome.PASS, Outcome.PASS),
        verdict("A", "B", Outcome.FAIL, Outcome.PASS),
        verdict("A", "C", Outcome.PASS, Outcome.PASS),
        verdict("B", "B", Outcome.PASS, Outcome.FAIL),
        verdict("B", "C", Outcome.PASS, Outcome.TIMEOUT),
        verdict("C", "C", Outcome.PASS, Outcome.PASS),
        verdict("A", "D", Outcome.PASS, Outcome.PASS),
        verdict("D", "D", Outcome.PASS, Outcome.PASS),
    ]
    return r


class TestOutcome:
    def test_restricts(self):
        assert not Outcome.PASS.restricts
        assert Outcome.FAIL.restricts
        assert Outcome.TIMEOUT.restricts
        assert Outcome.CONSERVATIVE.restricts


class TestAggregation:
    def test_counts(self, report):
        assert report.checks == 8
        assert len(report.restrictions) == 3
        assert len(report.commutativity_failures) == 1
        assert len(report.semantic_failures) == 2  # FAIL + TIMEOUT

    def test_restriction_pairs(self, report):
        assert report.restriction_pairs() == {
            frozenset(("A", "B")),
            frozenset(("B",)),
            frozenset(("B", "C")),
        }

    def test_coordination_free(self, report):
        # A appears in the (A,B) restriction, B and C too; only D is free.
        assert report.coordination_free_operations() == {"D"}

    def test_summary(self, report):
        s = report.summary()
        assert s["checks"] == 8
        assert s["restrictions"] == 3
        assert s["com_failures"] == 1
        assert s["sem_failures"] == 2


class TestJsonArtifact:
    def test_shape_and_serializability(self, report):
        obj = report.to_json_obj()
        text = json.dumps(obj)  # must be JSON-serializable
        parsed = json.loads(text)
        assert parsed["app"] == "demo"
        assert ["A", "B"] in parsed["restrictions"]
        assert ["B"] in parsed["restrictions"]
        assert parsed["coordination_free"] == ["D"]
        assert len(parsed["verdicts"]) == 8
        first = parsed["verdicts"][0]
        assert set(first) == {"left", "right", "left_view", "right_view",
                              "commutativity", "semantic",
                              "commutativity_s", "semantic_s", "status",
                              "commutativity_coverage", "semantic_coverage"}
        assert {v["status"] for v in parsed["verdicts"]} == {"decided"}
        assert parsed["unknowns"] == []
        assert parsed["timing"]["wall_s"] == pytest.approx(0.0)

    def test_verdict_values_are_strings(self, report):
        obj = report.to_json_obj()
        values = {v["semantic"] for v in obj["verdicts"]}
        assert values <= {"pass", "fail", "timeout", "conservative"}


class TestWitness:
    def test_counterexample_fields(self):
        w = Counterexample("diverge", state="S", args_p="{'x': 1}")
        result = CheckResult("P", "Q", "commutativity", Outcome.FAIL,
                             witness=w)
        assert result.witness.description == "diverge"
        assert result.outcome.restricts
