"""Stable content fingerprints for verification inputs.

A pair verdict is a pure function of ``(code path P, code path Q, schema,
check configuration, engine backend)``.  The fingerprint of a pair is a
SHA-256 digest over the canonical JSON of exactly those inputs, reusing
the SOIR serialization (``repro.soir.serialize``) so that *any* semantic
change to a path or the schema — and nothing else — changes the digest.

Properties the cache and the parallel scheduler rely on:

* **stable across processes and sessions** — no use of the randomized
  built-in ``hash()``, no memory addresses, no timestamps;
* **order-insensitive where the input is** — schema models/relations are
  sorted by name before hashing (dict insertion order is a build
  artifact, not content);
* **versioned** — ``FINGERPRINT_VERSION`` is folded into every digest, so
  a change to the fingerprint scheme or to verdict semantics invalidates
  all previously cached entries at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from ..soir.path import CodePath
from ..soir.schema import Schema
from ..soir.serialize import path_to_obj, schema_to_obj
from ..verifier.enumcheck import CheckConfig

#: bump when the fingerprint scheme, the SOIR serialization, or the
#: meaning of a verdict changes incompatibly
FINGERPRINT_VERSION = 3


def _digest(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fingerprint_path(path: CodePath) -> str:
    """Content fingerprint of one code path (name, args, commands, flags)."""
    return _digest(path_to_obj(path))


def fingerprint_schema(schema: Schema) -> str:
    """Content fingerprint of the schema, insensitive to declaration order."""
    obj = schema_to_obj(schema)
    obj["models"] = sorted(obj["models"], key=lambda m: m["name"])
    obj["relations"] = sorted(obj["relations"], key=lambda r: r["name"])
    return _digest(obj)


def fingerprint_config(config: CheckConfig, engine: str) -> str:
    """Fingerprint of everything that parameterizes a check besides the
    pair itself: every search knob plus the engine backend."""
    return _digest({
        "version": FINGERPRINT_VERSION,
        "engine": engine,
        "config": dataclasses.asdict(config),
    })


class FingerprintContext:
    """Per-sweep fingerprint factory.

    Folds the sweep-wide inputs (schema, config, engine, scheme version)
    into one context digest and memoizes per-path digests, so a full
    quadratic sweep hashes each path once, not once per pair."""

    def __init__(self, schema: Schema, config: CheckConfig, engine: str):
        self.context = _digest({
            "schema": fingerprint_schema(schema),
            "config": fingerprint_config(config, engine),
        })
        self._paths: dict[int, str] = {}

    def path(self, path: CodePath) -> str:
        key = id(path)
        fp = self._paths.get(key)
        if fp is None:
            fp = fingerprint_path(path)
            self._paths[key] = fp
        return fp

    def pair(self, p: CodePath, q: CodePath) -> str:
        """Fingerprint of one (ordered) pair under this context.

        The sweep always visits pairs in a fixed order (``i <= j`` over
        the effectful-path list), so ordered hashing is deterministic and
        keeps the cached verdict's left/right orientation aligned with
        the sweep that replays it."""
        return _digest([self.context, self.path(p), self.path(q)])
