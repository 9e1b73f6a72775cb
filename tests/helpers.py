"""Shared fixtures: a small blog schema mirroring the paper's Figure 3,
the unreduced reference sweep the scheduler is compared against, and the
per-check reference walks the enum checker's one walk is compared
against."""

from __future__ import annotations

from repro.soir import DBState, RelationSchema, Schema, make_model
from repro.soir.interp import apply_path, run_path
from repro.soir.types import DATETIME, INT, STRING
from repro.verifier import verify_pair
from repro.verifier.restrictions import VerificationReport


def reference_sweep(analysis, config, *, engine: str = "enum"
                    ) -> VerificationReport:
    """``verify_pair`` on every ``i <= j`` pair of effectful paths: no
    rw-pruning, no class sharing, no cache, no lanes."""
    paths = analysis.effectful_paths
    report = VerificationReport(analysis.app_name)
    for i, p in enumerate(paths):
        for q in paths[i:]:
            report.verdicts.append(verify_pair(p, q, analysis.schema,
                                               config, engine=engine))
    return report


def untimed(report: VerificationReport) -> list[dict]:
    """A report's verdict rows without their wall-clock (``*_s``) keys:
    everything a verdict says that must not depend on scheduling."""
    return [{k: v for k, v in row.items() if not k.endswith("_s")}
            for row in report.to_json_obj()["verdicts"]]


def reference_search(checker) -> dict[str, tuple[str, dict]]:
    """Each check of a ``PairChecker`` as its own walk over
    ``checker._candidates()``: every candidate replayed from scratch, no
    memo, no repeat skipping, no deadline.  ``PairChecker.search`` must
    return the same statuses, candidate counts and witnesses."""
    return {"commutativity": _reference_commutativity(checker),
            "semantic": _reference_semantic(checker)}


def _reference_commutativity(checker) -> tuple[str, dict]:
    p, q, schema = checker.p, checker.q, checker.schema
    feasible_cache: dict = {}
    candidates = 0
    for state, env_p, env_q, *_ in checker._candidates():
        candidates += 1
        s_pq = apply_path(q, apply_path(p, state, env_p, schema), env_q,
                          schema)
        s_qp = apply_path(p, apply_path(q, state, env_q, schema), env_p,
                          schema)
        if (not s_pq.same_state(s_qp)
                and checker._feasible(p, env_p, feasible_cache)
                and checker._feasible(q, env_q, feasible_cache)):
            return "fail", {"candidates": candidates, "state": state,
                            "env_p": env_p, "env_q": env_q,
                            "s_pq": s_pq, "s_qp": s_qp}
    return "pass", {"candidates": candidates}


def _reference_semantic(checker) -> tuple[str, dict]:
    p, q, schema = checker.p, checker.q, checker.schema
    candidates = 0
    for state, env_p, env_q, *_ in checker._candidates():
        candidates += 1
        out_p = run_path(p, state, env_p, schema)
        out_q = run_path(q, state, env_q, schema)
        if not (out_p.committed and out_q.committed):
            continue
        witness = {"candidates": candidates, "state": state,
                   "env_p": env_p, "env_q": env_q}
        if not run_path(p, out_q.state, env_p, schema).committed:
            return "fail", {**witness, "after": out_q.state,
                            "direction": "Q invalidates P"}
        if not run_path(q, out_p.state, env_q, schema).committed:
            return "fail", {**witness, "after": out_p.state,
                            "direction": "P invalidates Q"}
    return "pass", {"candidates": candidates}


def blog_schema() -> Schema:
    """User / Article / Comment with author and article relations."""
    schema = Schema()
    schema.add_model(
        make_model(
            "User",
            {"name": STRING},
            pk="name",
            auto_pk=False,
        )
    )
    schema.add_model(
        make_model(
            "Article",
            {"url": STRING, "title": STRING, "content": STRING, "created": DATETIME},
            unique=("url",),
        )
    )
    schema.add_model(make_model("Comment", {"text": STRING}))
    schema.add_relation(
        RelationSchema(
            "Article.author",
            source="Article",
            target="User",
            kind="fk",
            on_delete="set_null",
            reverse_name="article_set",
            nullable=True,
        )
    )
    schema.add_relation(
        RelationSchema(
            "Comment.user",
            source="Comment",
            target="User",
            kind="fk",
            on_delete="cascade",
            reverse_name="comment_set",
        )
    )
    schema.add_relation(
        RelationSchema(
            "Comment.article",
            source="Comment",
            target="Article",
            kind="fk",
            on_delete="cascade",
            reverse_name="comment_set",
        )
    )
    schema.validate()
    return schema


def blog_state(schema: Schema) -> DBState:
    """Two users, three articles, two comments."""
    state = DBState.empty(schema)
    for name in ("john", "mary"):
        state.insert_row("User", name, {"name": name})
    articles = [
        (1, "a/1", "Alpha", "first", 100),
        (2, "a/2", "Beta", "second", 200),
        (3, "a/3", "Gamma", "third", 300),
    ]
    for pk, url, title, content, created in articles:
        state.insert_row(
            "Article",
            pk,
            {"id": pk, "url": url, "title": title, "content": content, "created": created},
        )
    state.relation("Article.author").update({(1, "john"), (2, "john"), (3, "mary")})
    state.insert_row("Comment", 10, {"id": 10, "text": "nice"})
    state.insert_row("Comment", 11, {"id": 11, "text": "hmm"})
    state.relation("Comment.user").update({(10, "mary"), (11, "john")})
    state.relation("Comment.article").update({(10, 1), (11, 3)})
    return state
