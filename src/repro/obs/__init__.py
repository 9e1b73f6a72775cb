"""Observability: structured tracing, profiling and restriction explaining.

``repro.obs`` is the zero-dependency tracing substrate threaded through
every layer of the pipeline (analyzer → SOIR lowering → pair sweep →
checks → solver calls).  It answers the two questions the restriction
set alone cannot: *where did the time go* and *why is this pair
restricted*.

Submodules
----------

``tracer``
    Hierarchical :class:`Span`/:class:`Tracer` with wall/CPU timings,
    a bounded in-memory ring buffer, an optional JSONL sink, and the
    context-local activation helpers used by instrumentation sites.
``render``
    Text renderers: span tree, per-phase time breakdown, slowest-pairs
    table.
``explain``
    The "why restricted?" explainer: replays a pair's witness schedule
    through the SOIR reference interpreter and prints the diverging
    state (or invalidated guard) plus the SOIR operations responsible.
    Imported lazily (``from repro.obs import explain``) because it
    depends on :mod:`repro.verifier`, which is itself instrumented by
    this package.

Typical use::

    from repro import obs

    tracer = obs.Tracer(sink=obs.JsonlSink("trace.jsonl"))
    with obs.activate(tracer), obs.span("my-run", "app-analysis"):
        analysis = analyze_application(app)
    print("\\n".join(obs.render_tree(tracer.roots)))

When no tracer is active every instrumentation hook is a no-op costing
one context-variable read: ``span(...)`` returns the shared
``NULL_CONTEXT`` (tests/test_obs.py pins this).  No benchmark times this
tracer; perfbench's ``--trace 1`` reports the cost of its own per-layer
wrappers as ``trace.overhead_frac``.
See docs/OBSERVABILITY.md for the span taxonomy and the trace schema.
"""

from .render import (
    phase_breakdown,
    render_phase_breakdown,
    render_tree,
    slowest_pairs_table,
)
from .tracer import (
    JsonlSink,
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    add_attrs,
    current,
    enabled,
    incr,
    record,
    span,
    span_from_obj,
    span_to_obj,
)

__all__ = [
    "JsonlSink",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "activate",
    "add_attrs",
    "current",
    "enabled",
    "incr",
    "phase_breakdown",
    "record",
    "render_phase_breakdown",
    "render_tree",
    "slowest_pairs_table",
    "span",
    "span_from_obj",
    "span_to_obj",
]
