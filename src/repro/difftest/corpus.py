"""Pinned-corpus format and replayer.

Every mismatch the differential tester (or a human) ever finds becomes a
small JSON file under ``tests/corpus/`` that replays forever:

.. code-block:: json

    {
      "format": 1,
      "name": "fuzz-unique-merge",
      "kind": "regression",
      "origin": "difftest seed 17, shrunk",
      "description": "what went wrong and why this pins it",
      "schema": { ... },
      "p": { ... },
      "q": { ... },
      "engines": ["enum", "smt"],
      "expect": {"commutativity": "fail", "semantic": "pass"},
      "config": {"timeout_s": 6.0}
    }

``schema`` / ``p`` / ``q`` use the canonical :mod:`repro.soir.serialize`
encodings.  ``expect`` maps each check to an expected outcome — either a
single outcome name, a ``"a|b"`` alternative, or a per-engine mapping
(``{"enum": "fail", "smt": "conservative"}``).  Two kinds exist:

* ``"regression"`` — a once-mismatching case, now fixed; the replayer
  asserts the pinned verdicts so the bug cannot quietly return;
* ``"over-approximation"`` — an *intentional* divergence from concrete
  semantics (the verifier restricts more than strictly necessary); the
  pinned verdicts document the over-approximation as deliberate.

The replayer (:func:`replay_case`) is what ``tests/test_corpus.py`` and
``noctua difftest --replay`` run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..soir.path import CodePath
from ..soir.schema import Schema
from ..soir.serialize import (
    path_from_obj,
    path_to_obj,
    schema_from_obj,
    schema_to_obj,
)
from ..verifier.enumcheck import CheckConfig
from ..verifier.runner import verify_pair

FORMAT = 1
_KINDS = ("regression", "over-approximation")
_CHECKS = ("commutativity", "semantic")
_ENGINES = ("enum", "smt")


@dataclass
class CorpusCase:
    """One pinned case, 1:1 with a JSON file under ``tests/corpus/``."""

    name: str
    schema: Schema
    p: CodePath
    q: CodePath
    kind: str = "regression"
    origin: str = ""
    description: str = ""
    engines: tuple[str, ...] = _ENGINES
    #: check -> outcome spec (see module docstring)
    expect: dict = field(default_factory=dict)
    #: CheckConfig keyword overrides for the replay
    config: dict = field(default_factory=dict)
    source: Path | None = None

    def check_config(self) -> CheckConfig:
        defaults = {"timeout_s": 6.0}
        defaults.update(self.config)
        return CheckConfig(**defaults)


def case_to_obj(case: CorpusCase) -> dict:
    return {
        "format": FORMAT,
        "name": case.name,
        "kind": case.kind,
        "origin": case.origin,
        "description": case.description,
        "schema": schema_to_obj(case.schema),
        "p": path_to_obj(case.p),
        "q": path_to_obj(case.q),
        "engines": list(case.engines),
        "expect": dict(case.expect),
        "config": dict(case.config),
    }


def case_from_obj(obj: dict, *, source: Path | None = None) -> CorpusCase:
    if obj.get("format") != FORMAT:
        raise ValueError(
            f"unsupported corpus format {obj.get('format')!r} in {source}"
        )
    kind = obj.get("kind", "regression")
    if kind not in _KINDS:
        raise ValueError(f"unknown corpus kind {kind!r} in {source}")
    return CorpusCase(
        name=obj["name"],
        schema=schema_from_obj(obj["schema"]),
        p=path_from_obj(obj["p"]),
        q=path_from_obj(obj["q"]),
        kind=kind,
        origin=obj.get("origin", ""),
        description=obj.get("description", ""),
        engines=tuple(obj.get("engines", _ENGINES)),
        expect=dict(obj.get("expect", {})),
        config=dict(obj.get("config", {})),
        source=source,
    )


def save_corpus_case(case: CorpusCase, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    path.write_text(
        json.dumps(case_to_obj(case), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_corpus_file(path: str | Path) -> CorpusCase:
    path = Path(path)
    return case_from_obj(json.loads(path.read_text()), source=path)


def load_corpus(directory: str | Path) -> list[CorpusCase]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_corpus_file(f) for f in sorted(directory.glob("*.json"))]


def _expected_outcomes(spec, engine: str) -> tuple[str, ...] | None:
    """Normalize one check's expectation for one engine, or None.

    A ``portfolio`` replay may surface either backend's verdict (enum's
    when it is definitive, else smt's when that one is), so unless a
    case pins ``portfolio`` explicitly, its expectation is the union of
    the enum and smt expectations."""
    if isinstance(spec, dict):
        if engine == "portfolio" and engine not in spec:
            union: list[str] = []
            for lane in _ENGINES:
                for outcome in _expected_outcomes(spec.get(lane), lane) or ():
                    if outcome not in union:
                        union.append(outcome)
            return tuple(union) or None
        spec = spec.get(engine)
    if spec is None:
        return None
    return tuple(s.strip() for s in str(spec).split("|"))


def replay_case(case: CorpusCase,
                *, engines: tuple[str, ...] | None = None) -> list[str]:
    """Re-verify the pinned pair; every violated expectation as a string.

    An empty list means the corpus case still holds.  ``engines``
    overrides the case's own engine list — ``("portfolio",)`` replays
    the whole corpus through the sequential enum-then-smt backend."""
    failures: list[str] = []
    config = case.check_config()
    for engine in (case.engines if engines is None else engines):
        verdict = verify_pair(case.p, case.q, case.schema, config,
                              engine=engine)
        for check in _CHECKS:
            expected = _expected_outcomes(case.expect.get(check), engine)
            if expected is None:
                continue
            got = getattr(verdict, check).outcome.value
            if got not in expected:
                failures.append(
                    f"{case.name}: {engine}/{check} = {got!r}, "
                    f"expected {'|'.join(expected)!r}"
                )
    return failures
