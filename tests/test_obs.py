"""Tests for the observability layer: spans, the tracer, renderers,
worker span forwarding, and the no-tracing-no-cost contract.

Span-tree equality between serial and parallel sweeps is asserted
modulo ordering and timing: same multiset of (kind, name) spans, same
pair routes and verdict attributes — see docs/OBSERVABILITY.md."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analyzer import analyze_application
from repro.engine import run_pair_sweep
from repro.engine.metrics import fold_sweep
from repro.obs.tracer import NULL_CONTEXT, NULL_SPAN
from repro.verifier import CheckConfig

#: deterministic budget: decided by sample exhaustion, never by the clock
CFG = CheckConfig(timeout_s=60.0, max_samples=60, max_exhaustive=800)


@pytest.fixture(scope="module")
def courseware_analysis():
    from repro.apps.courseware import build_app

    return analyze_application(build_app())


# ---------------------------------------------------------------------------
# Core tracer behavior
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting(self):
        tracer = obs.Tracer()
        with tracer.span("outer", "pair-sweep") as outer:
            with tracer.span("inner-a", "pair", route="solved") as a:
                a.set(restricted=True)
            with tracer.span("inner-b", "pair"):
                with tracer.span("leaf", "check"):
                    pass
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert outer.children[1].children[0].kind == "check"
        assert outer.children[0].attrs == {
            "route": "solved", "restricted": True,
        }

    def test_timings_and_self_time(self):
        tracer = obs.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.wall_s >= inner.wall_s >= 0.0
        assert outer.self_wall_s == pytest.approx(
            outer.wall_s - inner.wall_s
        )

    def test_exception_still_finishes_span(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].wall_s > 0.0
        assert not tracer._stack

    def test_ring_buffer_bounded(self):
        tracer = obs.Tracer(max_records=4)
        for i in range(10):
            tracer.record(f"r{i}", "pair")
        assert len(tracer.ring) == 4
        assert [r["name"] for r in tracer.ring] == ["r6", "r7", "r8", "r9"]
        # the span forest is unaffected by the ring cap
        assert len(tracer.roots) == 10

    def test_record_attaches_under_open_span(self):
        tracer = obs.Tracer()
        with tracer.span("parent") as parent:
            tracer.record("child", "solver-call", wall_s=0.5, result="sat")
        assert parent.children[0].name == "child"
        assert parent.children[0].wall_s == 0.5

    def test_walk_and_find(self):
        tracer = obs.Tracer()
        with tracer.span("a", "pair-sweep"):
            with tracer.span("b", "pair"):
                tracer.record("c", "check")
            tracer.record("d", "pair")
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["a", "b", "c", "d"]
        assert [s.name for s in tracer.roots[0].find("pair")] == ["b", "d"]


class TestActivation:
    def test_disabled_helpers_are_noops(self):
        assert obs.current() is None
        assert not obs.enabled()
        assert obs.tracer.span("x", "pair") is NULL_CONTEXT
        with obs.tracer.span("x") as s:
            assert s is NULL_SPAN
            s.set(ignored=1)
            s.incr("ignored")
        obs.add_attrs(ignored=1)
        obs.incr("ignored")
        obs.record("ignored")

    def test_activate_scopes_the_tracer(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            assert obs.current() is tracer
            with obs.tracer.span("live", "pair"):
                obs.add_attrs(k="v")
        assert obs.current() is None
        assert tracer.roots[0].attrs == {"k": "v"}


class TestSerialization:
    def test_span_obj_roundtrip(self):
        tracer = obs.Tracer()
        with tracer.span("root", "pair", left="P", right="Q") as root:
            with tracer.span("kid", "check"):
                pass
        obj = obs.span_to_obj(root)
        json.dumps(obj)  # JSON-safe
        back = obs.span_from_obj(obj)
        assert back.name == "root" and back.kind == "pair"
        assert back.attrs == {"left": "P", "right": "Q"}
        assert back.children[0].name == "kid"
        assert back.wall_s == root.wall_s

    def test_jsonl_sink_and_checker_contract(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = obs.Tracer(sink=obs.JsonlSink(str(path)))
        with tracer.span("root", "pair-sweep"):
            with tracer.span("kid", "pair"):
                pass
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # children close (and are written) before their parent
        assert [r["name"] for r in records] == ["kid", "root"]
        by_id = {r["id"]: r for r in records}
        kid, root = records
        assert root["parent"] is None
        assert kid["parent"] == root["id"]
        assert by_id[kid["parent"]]["name"] == "root"

    def test_graft_renumbers_into_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        worker = obs.Tracer()
        with worker.span("pair", "pair"):
            with worker.span("check", "check"):
                pass
        obj = obs.span_to_obj(worker.roots[0])
        parent = obs.Tracer(sink=obs.JsonlSink(str(path)))
        with parent.span("sweep", "pair-sweep") as sweep:
            parent.graft(obj, parent=sweep)
        parent.close()
        assert sweep.children[0].children[0].name == "check"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        ids = {r["id"] for r in records}
        assert len(ids) == len(records)  # grafted spans got fresh ids
        for r in records:
            assert r["parent"] is None or r["parent"] in ids


class TestRenderers:
    def _forest(self):
        tracer = obs.Tracer()
        with tracer.span("sweep", "pair-sweep"):
            with tracer.span("P x Q", "pair", route="solved", pid=1):
                tracer.record("c", "check", wall_s=0.01)
            tracer.record("A x B", "pair", wall_s=0.5, route="solved", pid=2)
            tracer.record("pruned", "pair", route="pruned:disjoint")
        return tracer.roots

    def test_render_tree(self):
        lines = obs.render_tree(self._forest())
        assert lines[0].startswith("sweep")
        assert any("route=solved" in line for line in lines)
        assert sum(1 for line in lines if line.startswith("  ")) >= 3

    def test_phase_breakdown(self):
        rows = obs.phase_breakdown(self._forest())
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["pair"]["count"] == 3
        assert by_kind["pair-sweep"]["count"] == 1

    def test_slowest_pairs(self):
        lines = obs.slowest_pairs_table(self._forest(), top=1)
        assert "A x B" in lines[1]  # slowest solved pair, not the pruned one


# ---------------------------------------------------------------------------
# End-to-end: the instrumented pipeline
# ---------------------------------------------------------------------------


ALL_KINDS = {
    "app-analysis", "soir-lowering", "endpoint", "path-finding",
    "pair-sweep", "pair", "check", "solver-call",
}


def traced_run(jobs: int):
    from repro.apps.courseware import build_app

    tracer = obs.Tracer()
    with obs.activate(tracer):
        analysis = analyze_application(build_app())
        report = run_pair_sweep(analysis, CFG, jobs=jobs, use_cache=False)
    return tracer, report


def tree_signature(span) -> tuple:
    """(kind, name, sorted child signatures) — order/timing independent."""
    return (
        span.kind, span.name,
        tuple(sorted(tree_signature(c) for c in span.children)),
    )


class TestPipelineTracing:
    def test_all_phases_covered(self):
        tracer, report = traced_run(jobs=1)
        kinds = {s.kind for root in tracer.roots for s in root.walk()}
        assert ALL_KINDS <= kinds
        assert len(report.restrictions) == 2

    @staticmethod
    def _untimed(report):
        verdicts = report.to_json_obj()["verdicts"]
        return [
            {k: v for k, v in verdict.items() if not k.endswith("_s")}
            for verdict in verdicts
        ]

    def test_enum_solver_calls_report_cpu(self):
        tracer, _ = traced_run(jobs=1)
        calls = [s for root in tracer.roots for s in root.walk()
                 if s.kind == "solver-call" and s.attrs["backend"] == "enum"]
        assert len(calls) == 14  # 7 solved pairs x 2 checks
        assert all(s.cpu_s > 0 for s in calls)

    def test_serial_and_parallel_traces_equivalent(self):
        serial, report_s = traced_run(jobs=1)
        parallel, report_p = traced_run(jobs=2)
        # identical reports (modulo wall-clock timings)...
        assert self._untimed(report_s) == self._untimed(report_p)
        # ...and span trees equal modulo ordering (worker spans grafted)
        sig_s = sorted(tree_signature(r) for r in serial.roots)
        sig_p = sorted(tree_signature(r) for r in parallel.roots)
        assert sig_s == sig_p
        sweep = parallel.roots[-1]
        assert sweep.attrs["mode"] == "parallel"
        pids = {
            s.attrs["pid"] for s in sweep.find("pair")
            if s.attrs.get("route") == "solved"
        }
        assert len(pids) >= 1  # worker pids survived the graft

    def test_untraced_run_identical_report_and_no_solver_spans(
        self, courseware_analysis
    ):
        traced_tracer, traced_report = traced_run(jobs=1)
        plain_report = run_pair_sweep(
            courseware_analysis, CFG, jobs=1, use_cache=False
        )
        assert obs.current() is None
        # byte-identical deployment artifact, modulo wall-clock noise
        obj_a, obj_b = (
            r.to_json_obj() for r in (traced_report, plain_report)
        )
        assert obj_a["restrictions"] == obj_b["restrictions"]
        assert obj_a["metrics"]["solver_calls"] == (
            obj_b["metrics"]["solver_calls"]
        )
        for verdict_a, verdict_b in zip(obj_a["verdicts"], obj_b["verdicts"]):
            assert verdict_a["commutativity"] == verdict_b["commutativity"]
            assert verdict_a["semantic"] == verdict_b["semantic"]
            # per-pair timings populated on both paths (may differ in value)
            assert (verdict_a["commutativity_s"] is None) == (
                verdict_b["commutativity_s"] is None
            )

    def test_metrics_are_a_projection_of_the_sweep_span(self):
        tracer, report = traced_run(jobs=1)
        sweep = tracer.roots[-1]
        assert sweep.kind == "pair-sweep"
        rebuilt = fold_sweep(sweep)
        assert rebuilt == report.metrics
        # 10 pairs: 2 fast-pruned, 1 class-shared, 7 solved
        assert rebuilt["solver_calls"] == 7
        assert rebuilt["shared"] == 1
        assert rebuilt["pruned"] == 2
