"""Shared fixtures: a small blog schema mirroring the paper's Figure 3,
and the unreduced reference sweep the scheduler is compared against."""

from __future__ import annotations

from repro.soir import DBState, RelationSchema, Schema, make_model
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
