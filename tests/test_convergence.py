"""End-to-end soundness spot-check: pairs the verifier leaves
*unrestricted* really do converge when their effects are applied in
different orders at different replicas — and annotation-driven analysis
behaves as documented.

This closes the loop between the three layers: the analyzer's SOIR, the
verifier's verdicts, and the replication semantics (``apply_path``)."""

import itertools
import random

import pytest

from repro.analyzer import analyze_application
from repro.analyzer.annotations import consistency_irrelevant, external
from repro.apps.smallbank import build_app as build_smallbank
from repro.apps.todo import build_app as build_todo
from repro.orm import Database, Model, Registry, TextField
from repro.soir.interp import apply_path, run_path
from repro.soir.types import STRING
from repro.verifier import CheckConfig, verify_pair
from repro.verifier.scopes import (
    ArgSampler,
    StateGenerator,
    build_scope,
    collect_args,
)
from repro.web import Application, Client, HttpResponse, path


def converges(p, q, schema, *, rounds: int = 120, seed: int = 3) -> bool:
    """Randomized convergence oracle: generate both effects at a common
    state and apply them in both orders at two 'replicas'."""
    scope = build_scope(schema, [p, q])
    generator = StateGenerator(scope)
    sampler = ArgSampler(collect_args(p), collect_args(q), scope,
                         unique_ids_distinct=True)
    rng = random.Random(seed)
    for _ in range(rounds):
        state = generator.random_state(rng)
        if state is None:
            continue
        env_p, env_q = sampler.draw(rng)
        replica_a = apply_path(q, apply_path(p, state, env_p, schema),
                               env_q, schema)
        replica_b = apply_path(p, apply_path(q, state, env_q, schema),
                               env_p, schema)
        if not replica_a.same_state(replica_b):
            return False
    return True


@pytest.mark.parametrize("builder", [build_smallbank, build_todo])
def test_unrestricted_pairs_converge(builder):
    """For every pair the verifier passes, the convergence oracle agrees
    (the oracle uses independent feasibility, so its divergences are a
    subset of the checker's — never the other way around)."""
    analysis = analyze_application(builder())
    config = CheckConfig(timeout_s=1.0, max_samples=300, max_exhaustive=4000)
    effectful = analysis.effectful_paths
    checked = 0
    for p, q in itertools.combinations_with_replacement(effectful, 2):
        verdict = verify_pair(p, q, analysis.schema, config)
        if verdict.commutativity.outcome.value != "pass":
            continue
        # The commutativity verdict says these effects converge.
        assert converges(p, q, analysis.schema), (p.name, q.name)
        checked += 1
    assert checked > 0


class TestAnnotations:
    def make_app(self):
        registry = Registry(f"annot-{id(object())}")
        with registry.use():

            class Note(Model):
                body = TextField(default="")

        summarize = external("summarizer", lambda text: text[:5], STRING)
        audit_log = []

        @consistency_irrelevant
        def log_access(note_pk):
            audit_log.append(note_pk)

        def add_note(request):
            note = Note.objects.create(body=summarize(request.POST["body"]))
            log_access(note.pk)
            return HttpResponse(status=201)

        app = Application("annot", registry, [path("add", add_note, name="AddNote")])
        return app, audit_log

    def test_concrete_execution_calls_through(self):
        app, audit_log = self.make_app()
        client = Client(app, Database(app.registry))
        assert client.post("/add", {"body": "hello world"}).status == 201
        with client.db.activate():
            note = app.registry.get_model("Note").objects.first()
            assert note.body == "hello"  # summarizer really ran
        assert audit_log  # the logger really ran

    def test_analysis_yields_opaque_argument(self):
        app, audit_log = self.make_app()
        before = len(audit_log)
        analysis = analyze_application(app)
        # The logger never runs under analysis.
        assert len(audit_log) == before
        added = [p for p in analysis.effectful_paths if p.view == "AddNote"]
        assert added and not added[0].conservative
        opaque = [a for a in added[0].args if a.source == "opaque"]
        assert len(opaque) == 1
        assert opaque[0].name.startswith("ext_summarizer$")

    def test_opaque_value_participates_in_verification(self):
        app, _ = self.make_app()
        analysis = analyze_application(app)
        added = [p for p in analysis.effectful_paths if p.view == "AddNote"][0]
        verdict = verify_pair(added, added, analysis.schema, CheckConfig())
        # Two inserts with distinct fresh ids commute even with opaque bodies.
        assert not verdict.restricted
