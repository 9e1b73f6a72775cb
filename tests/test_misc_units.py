"""Small-unit coverage: clock, http primitives, state canonicalization,
registry edge cases, pretty-path provenance."""

import pytest

from repro.orm import clock
from repro.orm.registry import Registry, default_registry
from repro.soir.state import DBState, ObjVal, QuerySetVal
from repro.web.http import HttpRequest, JsonResponse, QueryDict

from helpers import blog_schema, blog_state


class TestClock:
    def test_monotonic(self):
        clock.reset(500)
        values = [clock.now() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_reset(self):
        clock.reset(10)
        first = clock.now()
        clock.reset(10)
        assert clock.now() == first


class TestHttp:
    def test_querydict_missing_key_raises(self):
        qd = QueryDict({"a": 1})
        assert qd["a"] == 1
        with pytest.raises(KeyError):
            qd["missing"]
        assert qd.get("missing", 9) == 9

    def test_request_defaults(self):
        request = HttpRequest()
        assert request.method == "GET"
        assert request.path == "/"
        assert request.POST == {}
        assert "GET /" in repr(request)

    def test_method_uppercased(self):
        assert HttpRequest("post").method == "POST"

    def test_post_int_coercion(self):
        request = HttpRequest("POST", "/x", POST={"n": "42"})
        assert request.post_int("n") == 42
        with pytest.raises(ValueError):
            HttpRequest("POST", "/x", POST={"n": "nan"}).post_int("n")

    def test_json_response(self):
        response = JsonResponse({"a": 1}, status=201)
        assert response.content == {"a": 1}
        assert response.status == 201
        assert not response.ok or response.status < 300


class TestDBState:
    def test_clone_shares_rows_and_isolates_writes(self):
        """Rows are immutable values, so a clone shares them; every write
        replaces a row or edits a container the clone owns, so no write
        on the clone reaches the original."""
        schema = blog_schema()
        state = blog_state(schema)
        before = state.canonical(with_order=True)
        next_order = dict(state.next_order)
        copy = state.clone()
        for model, table in state.tables.items():
            assert copy.tables[model] is not table
            assert all(copy.tables[model][pk] is row
                       for pk, row in table.items())
        assert all(copy.order[m] is not o for m, o in state.order.items())
        assert all(copy.assocs[r] is not p for r, p in state.assocs.items())

        copy.insert_row("Article", 1,
                        {**state.tables["Article"][1], "title": "mutated"})
        copy.insert_row("Article", 4, {"id": 4, "url": "a/4", "title": "D",
                                       "content": "", "created": 400})
        copy.delete_row("Comment", 10)
        copy.delete_row("User", "mary")
        copy.relation("Article.author").clear()
        copy.relation("Comment.user").add((11, "nobody"))
        copy.relation("New.relation").add((1, 2))
        copy.table("NewModel")[1] = {"id": 1}
        copy.order["Article"][2] = 99

        assert copy.tables["Article"][1]["title"] == "mutated"
        assert copy.next_order["Article"] == 4
        assert state.tables["Article"][1]["title"] == "Alpha"
        assert state.assocs["Article.author"]
        assert state.canonical(with_order=True) == before
        assert state.next_order == next_order
        assert "New.relation" not in state.assocs
        assert "NewModel" not in state.tables

    def test_canonical_stable_under_key_order(self):
        schema = blog_schema()
        a = blog_state(schema)
        b = blog_state(schema)
        # Re-insert rows in a different order: canonical must not care.
        row = b.tables["Article"].pop(1)
        b.tables["Article"][1] = row
        assert a.canonical() == b.canonical()

    def test_insert_row_assigns_increasing_order(self):
        state = DBState()
        state.insert_row("M", "x", {"id": "x"})
        state.insert_row("M", "y", {"id": "y"})
        assert state.order["M"]["x"] < state.order["M"]["y"]
        # Re-merging an existing row keeps its order number.
        first_order = state.order["M"]["x"]
        state.insert_row("M", "x", {"id": "x"})
        assert state.order["M"]["x"] == first_order

    def test_objval_replace_is_functional(self):
        obj = ObjVal("M", {"id": 1, "x": 2})
        new = obj.replace("x", 9)
        assert obj.fields["x"] == 2 and new.fields["x"] == 9

    def test_querysetval_pks(self):
        qs = QuerySetVal("M", [ObjVal("M", {"id": 3}), ObjVal("M", {"id": 1})])
        assert qs.pks("id") == [3, 1]


class TestRegistry:
    def test_default_registry_is_fallback(self):
        assert Registry.active() is default_registry()

    def test_use_scopes_activation(self):
        mine = Registry("scoped")
        with mine.use():
            assert Registry.active() is mine
        assert Registry.active() is default_registry()

    def test_get_model_unknown(self):
        from repro.orm import FieldError

        with pytest.raises(FieldError):
            Registry("empty").get_model("Nope")

    def test_schema_requires_reverse_target(self):
        """A dangling string FK whose target never registers surfaces at
        schema derivation, not silently."""
        from repro.orm import CASCADE, ForeignKey, Model
        from repro.soir import SchemaError

        registry = Registry("dangling")
        with registry.use():

            class Orphan(Model):
                parent = ForeignKey("NeverDefined", on_delete=CASCADE)

        with pytest.raises(SchemaError):
            registry.to_soir_schema()
