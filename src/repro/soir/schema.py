"""Schema metadata shared by the analyzer, verifier and interpreter.

A :class:`Schema` describes the persistent data model of an application at
the level SOIR cares about: which models exist, their fields (with SOIR
types and uniqueness constraints) and the relations between models.

The analyzer derives a ``Schema`` automatically from the ORM registry of the
application under analysis; the verifier consumes it to know which state
components exist and which axioms (well-formedness, unique fields, unique
order) to emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .types import BOOL, FLOAT, INT, STRING, SoirType


class SchemaError(Exception):
    """Raised for malformed or inconsistent schema definitions."""


@dataclass(frozen=True)
class FieldSchema:
    """One column of a model.

    ``unique`` marks per-field uniqueness (SQL ``UNIQUE``); the primary key
    is always unique.  ``nullable`` permits the SQL ``NULL`` value, which
    SOIR models as a distinguished ``none`` literal.  ``min_value`` carries
    type refinements such as ``PositiveIntegerField`` (``min_value=0``);
    ``choices`` restricts string/int fields to a fixed set.
    """

    name: str
    type: SoirType
    unique: bool = False
    nullable: bool = False
    min_value: int | None = None
    choices: tuple | None = None


@dataclass(frozen=True)
class RelationSchema:
    """A named relation between two models.

    ``kind`` is ``"fk"`` (many-to-one; every source object is associated
    with at most one target) or ``"m2m"`` (many-to-many).  ``on_delete``
    describes the referential action the application configured for the
    relation: ``"cascade"``, ``"set_null"``, ``"protect"`` or ``"do_nothing"``.
    ``reverse_name`` is the automatically created reversal related key on the
    target model (e.g. ``article_set``).
    """

    name: str
    source: str
    target: str
    kind: str = "fk"
    on_delete: str = "cascade"
    reverse_name: str = ""
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("fk", "m2m"):
            raise SchemaError(f"unknown relation kind {self.kind!r}")
        if self.on_delete not in ("cascade", "set_null", "protect", "do_nothing"):
            raise SchemaError(f"unknown on_delete action {self.on_delete!r}")


@dataclass(frozen=True)
class ModelSchema:
    """A model: a named record type whose instances persist in the database.

    ``pk`` names the primary-key field; it must be listed in ``fields``.
    ``unique_together`` is a tuple of field-name tuples, each demanding
    joint uniqueness (Django's ``unique_together`` Meta option).
    ``auto_pk`` means the storage tier assigns globally-unique fresh IDs on
    insert, which enables the verifier's unique-ID optimisation (paper §5.2).
    """

    name: str
    fields: tuple[FieldSchema, ...]
    pk: str = "id"
    unique_together: tuple[tuple[str, ...], ...] = ()
    auto_pk: bool = True

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in model {self.name}")
        if self.pk not in names:
            raise SchemaError(f"model {self.name} lacks its pk field {self.pk!r}")
        for group in self.unique_together:
            for fname in group:
                if fname not in names:
                    raise SchemaError(
                        f"unique_together of {self.name} names unknown field {fname!r}"
                    )

    def field(self, name: str) -> FieldSchema:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"model {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    @property
    def pk_field(self) -> FieldSchema:
        return self.field(self.pk)

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @cached_property
    def default_row(self) -> dict[str, object]:
        """A row of defaults in field order: ``None`` for nullable fields,
        the type's zero value otherwise (the pk included).  Shared: copy
        it before writing."""
        return {f.name: None if f.nullable else _type_default(f.type)
                for f in self.fields}


def _type_default(t: SoirType) -> object:
    if t == BOOL:
        return False
    if t == FLOAT:
        return 0.0
    if t == STRING:
        return ""
    return 0


@dataclass
class Schema:
    """The full persistent schema of an application."""

    models: dict[str, ModelSchema] = field(default_factory=dict)
    relations: dict[str, RelationSchema] = field(default_factory=dict)

    def add_model(self, model: ModelSchema) -> None:
        if model.name in self.models:
            raise SchemaError(f"model {model.name} defined twice")
        self.models[model.name] = model

    def add_relation(self, rel: RelationSchema) -> None:
        if rel.name in self.relations:
            raise SchemaError(f"relation {rel.name} defined twice")
        self.relations[rel.name] = rel

    def model(self, name: str) -> ModelSchema:
        try:
            return self.models[name]
        except KeyError:
            raise SchemaError(f"unknown model {name!r}") from None

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def relations_of(self, model_name: str) -> list[RelationSchema]:
        """All relations in which ``model_name`` participates."""
        return [
            r
            for r in self.relations.values()
            if r.source == model_name or r.target == model_name
        ]

    def validate(self) -> None:
        """Check cross-references between models and relations."""
        for rel in self.relations.values():
            if rel.source not in self.models:
                raise SchemaError(
                    f"relation {rel.name} has unknown source model {rel.source}"
                )
            if rel.target not in self.models:
                raise SchemaError(
                    f"relation {rel.name} has unknown target model {rel.target}"
                )

    def stats(self) -> dict[str, int]:
        """Summary statistics reported in the paper's Table 4."""
        return {"models": len(self.models), "relations": len(self.relations)}


def make_model(
    name: str,
    fields: dict[str, SoirType],
    *,
    pk: str = "id",
    unique: tuple[str, ...] = (),
    nullable: tuple[str, ...] = (),
    unique_together: tuple[tuple[str, ...], ...] = (),
    auto_pk: bool = True,
) -> ModelSchema:
    """Convenience constructor used by tests and hand-written specs.

    Adds an ``id: Int`` primary key automatically when ``pk`` is ``"id"``
    and no ``id`` field is supplied.
    """
    all_fields = dict(fields)
    if pk == "id" and "id" not in all_fields:
        all_fields = {"id": INT, **all_fields}
    fschemas = tuple(
        FieldSchema(
            fname,
            ftype,
            unique=(fname in unique or fname == pk),
            nullable=fname in nullable,
        )
        for fname, ftype in all_fields.items()
    )
    return ModelSchema(
        name=name,
        fields=fschemas,
        pk=pk,
        unique_together=unique_together,
        auto_pk=auto_pk,
    )
