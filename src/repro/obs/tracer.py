"""Hierarchical spans and the context-local tracer.

The tracing model is deliberately small: a **span** is a named, typed
(``kind``) interval of work with wall/CPU durations, a flat attribute
dict, and child spans; a **tracer** owns a forest of spans, a bounded
in-memory ring buffer of completed span *records*, and an optional sink
that receives each record as it completes (``JsonlSink`` writes one JSON
object per line).

The active tracer is a :mod:`contextvars` context variable, so tracing
composes with the engine's worker processes and with any future async
execution: instrumentation sites call the module-level helpers in
:mod:`repro.obs` (``span``/``add_attrs``/``incr``/``record``), which are
no-ops costing one context-variable read when no tracer is installed.

Spans serialize to plain JSON objects (:func:`span_to_obj` /
:func:`span_from_obj`); the engine scheduler uses this to forward
worker-local span trees back to the parent process so a parallel sweep
produces one coherent trace (:meth:`Tracer.graft`).
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

#: the active tracer for the current execution context (process-local;
#: workers install their own and forward spans back by value)
_ACTIVE: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "noctua_tracer", default=None
)


class Span:
    """One traced interval of work.

    ``kind`` is the span's taxonomy slot (see docs/OBSERVABILITY.md):
    ``app-analysis``, ``endpoint``, ``path-finding``, ``pair-sweep``,
    ``pair``, ``check``, ``solver-call``, ``chaos-run`` ...  ``attrs`` is
    a flat dict of JSON-able values.
    """

    __slots__ = ("name", "kind", "attrs", "wall_s", "cpu_s", "pid",
                 "children", "_t0", "_c0")

    def __init__(self, name: str, kind: str = "", attrs: dict | None = None):
        self.name = name
        self.kind = kind
        self.attrs: dict = dict(attrs or {})
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.pid = os.getpid()
        self.children: list[Span] = []
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    # -- mutation helpers used by instrumentation sites ------------------

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def incr(self, name: str, n: int | float = 1) -> None:
        """Increment a numeric attribute (creating it at 0)."""
        self.attrs[name] = self.attrs.get(name, 0) + n

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0

    # -- derived views ---------------------------------------------------

    @property
    def self_wall_s(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> list["Span"]:
        return [s for s in self.walk() if s.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"wall={self.wall_s:.4f}s, children={len(self.children)})")


class NullSpan:
    """The do-nothing span yielded when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def incr(self, name: str, n: int | float = 1) -> None:
        pass


NULL_SPAN = NullSpan()


class _NullContext:
    """A reusable no-op context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


NULL_CONTEXT = _NullContext()


class JsonlSink:
    """Writes one JSON object per completed span to a file.

    Records are append-only and self-describing (``id``/``parent`` links
    reconstruct the tree), so a trace file survives crashes mid-run: every
    line already written is a complete record.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()


class Tracer:
    """Collects a forest of spans for one traced activity.

    Completed spans are summarized into flat *records* (dicts) pushed into
    a bounded ring buffer (``ring``) and forwarded to the optional
    ``sink``.  The hierarchical span objects stay reachable via ``roots``
    until the tracer is dropped, which is what the renderer and the
    metrics rebuild consume.
    """

    def __init__(self, *, sink: JsonlSink | None = None,
                 max_records: int = 65536):
        self.roots: list[Span] = []
        self.ring: deque[dict] = deque(maxlen=max_records)
        self.sink = sink
        self._stack: list[tuple[Span, int]] = []  # (span, id)
        self._next_id = 1

    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "", **attrs) -> Iterator[Span]:
        s = Span(name, kind, attrs)
        span_id = self._next_id
        self._next_id += 1
        if self._stack:
            self._stack[-1][0].children.append(s)
            parent_id = self._stack[-1][1]
        else:
            self.roots.append(s)
            parent_id = None
        self._stack.append((s, span_id))
        try:
            yield s
        finally:
            self._stack.pop()
            s.finish()
            self._emit(s, span_id, parent_id)

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1][0] if self._stack else None

    def record(self, name: str, kind: str = "", *, wall_s: float = 0.0,
               cpu_s: float = 0.0, **attrs) -> Span:
        """Attach an already-completed span (no timing taken here).

        Used by instrumentation that measures its own interval (e.g. the
        enum checker's candidate sweep) and reports it after the fact.
        """
        s = Span(name, kind, attrs)
        s.wall_s = wall_s
        s.cpu_s = cpu_s
        span_id = self._next_id
        self._next_id += 1
        if self._stack:
            self._stack[-1][0].children.append(s)
            parent_id = self._stack[-1][1]
        else:
            self.roots.append(s)
            parent_id = None
        self._emit(s, span_id, parent_id)
        return s

    def graft(self, obj: "dict | Span", parent: Span | None = None) -> Span:
        """Attach a finished span tree: serialized (e.g. from a worker
        process) or a live one built on another tracer.

        The grafted spans are re-emitted to the ring/sink under fresh ids,
        so a JSONL trace of a parallel sweep contains the worker-side
        spans too.
        """
        span = obj if isinstance(obj, Span) else span_from_obj(obj)
        target = parent if parent is not None else self.current_span
        if target is None:
            self.roots.append(span)
            parent_id = None
        else:
            target.children.append(span)
            parent_id = next(
                (sid for s, sid in self._stack if s is target), None
            )
        self._emit_tree(span, parent_id)
        return span

    # ------------------------------------------------------------------

    def _emit(self, span: Span, span_id: int,
              parent_id: int | None) -> None:
        record = {
            "id": span_id,
            "parent": parent_id,
            "name": span.name,
            "kind": span.kind,
            "pid": span.pid,
            "wall_s": round(span.wall_s, 6),
            "cpu_s": round(span.cpu_s, 6),
            "attrs": span.attrs,
        }
        self.ring.append(record)
        if self.sink is not None:
            self.sink.write(record)

    def _emit_tree(self, span: Span, parent_id: int | None) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._emit(span, span_id, parent_id)
        for child in span.children:
            self._emit_tree(child, span_id)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


# ---------------------------------------------------------------------------
# Context-local activation and the module-level instrumentation helpers.
# ---------------------------------------------------------------------------


def current() -> Tracer | None:
    """The tracer active in this execution context, or ``None``."""
    return _ACTIVE.get()


def enabled() -> bool:
    return _ACTIVE.get() is not None


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the context-local tracer for the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str, kind: str = "", **attrs):
    """Open a span on the active tracer — a shared no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return NULL_CONTEXT
    return tracer.span(name, kind, **attrs)


def add_attrs(**attrs) -> None:
    """Attach attributes to the innermost open span, if tracing."""
    tracer = _ACTIVE.get()
    if tracer is not None and tracer.current_span is not None:
        tracer.current_span.set(**attrs)


def incr(name: str, n: int | float = 1) -> None:
    """Increment a counter attribute on the innermost open span."""
    tracer = _ACTIVE.get()
    if tracer is not None and tracer.current_span is not None:
        tracer.current_span.incr(name, n)


def record(name: str, kind: str = "", *, wall_s: float = 0.0,
           cpu_s: float = 0.0, **attrs) -> None:
    """Attach a pre-timed, already-completed span, if tracing."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.record(name, kind, wall_s=wall_s, cpu_s=cpu_s, **attrs)


# ---------------------------------------------------------------------------
# Serialization — the worker-to-parent forwarding format.
# ---------------------------------------------------------------------------


def span_to_obj(span: Span) -> dict:
    return {
        "name": span.name,
        "kind": span.kind,
        "pid": span.pid,
        "wall_s": span.wall_s,
        "cpu_s": span.cpu_s,
        "attrs": span.attrs,
        "children": [span_to_obj(c) for c in span.children],
    }


def span_from_obj(obj: dict) -> Span:
    span = Span(obj["name"], obj.get("kind", ""), obj.get("attrs"))
    span.wall_s = obj.get("wall_s", 0.0)
    span.cpu_s = obj.get("cpu_s", 0.0)
    span.pid = obj.get("pid", 0)
    span.children = [span_from_obj(c) for c in obj.get("children", [])]
    return span
