#!/usr/bin/env python3
"""Validate a JSONL trace file produced by ``noctua trace --out``.

Checks (exits non-zero with a line per failure):

1. every line parses as JSON with the required record fields
   (``id``/``parent``/``name``/``kind``/``pid``/``wall_s``/``cpu_s``/
   ``attrs``);
2. every non-null ``parent`` refers to a span id present in the file
   (children are written before their parents, so ids are collected
   first);
3. the trace covers the whole pipeline: all of ``--require``'s span
   kinds appear (default: the analysis and verification phases);
4. every enum ``solver-call`` record accounts for its candidates:
   it carries the integer counters ``exhaustive``, ``sampled``,
   ``repeats``, ``independent``, ``infeasible`` and ``feasibility``,
   with ``exhaustive + sampled == candidates`` and ``repeats <=
   sampled``; ``independent`` (candidates decided without second-level
   replays) plus ``infeasible`` (candidates skipped as ungeneratable) is
   at most ``candidates - repeats``; ``feasibility_s`` (the seconds
   spent deciding generatability, whose ``run_path`` replays
   ``feasibility`` counts) lies between 0 and the record's ``wall_s``;
   a semantic record has all four at 0;
5. every enum ``solver-call`` record of a PASS says what it covers:
   ``coverage`` is ``exhaustive`` or ``sampled``, and an ``exhaustive``
   one drew no samples (``sampled == 0``).

Used by the CI trace-smoke step::

    noctua trace courseware --quick --jobs 2 --out trace.jsonl
    python tools/check_trace.py trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

REQUIRED_FIELDS = (
    "id", "parent", "name", "kind", "pid", "wall_s", "cpu_s", "attrs",
)
DEFAULT_KINDS = (
    "app-analysis", "soir-lowering", "endpoint", "path-finding",
    "pair-sweep", "pair", "check", "solver-call",
)


ENUM_COUNTERS = ("candidates", "exhaustive", "sampled", "repeats",
                 "independent", "infeasible", "feasibility")
#: what only the commutativity check spends; 0 on a semantic record
COMMUTATIVITY_ONLY = ("independent", "infeasible", "feasibility",
                      "feasibility_s")


def enum_accounting(attrs: dict, wall_s: float) -> list[str]:
    """What is wrong with one enum ``solver-call`` record's candidate
    counters (empty when nothing is)."""
    missing = [k for k in ENUM_COUNTERS if not isinstance(attrs.get(k), int)]
    if missing:
        return [f"enum solver-call lacks integer counters {missing}"]
    feasibility_s = attrs.get("feasibility_s")
    if (isinstance(feasibility_s, bool)
            or not isinstance(feasibility_s, (int, float))):
        return [f"enum solver-call lacks seconds feasibility_s "
                f"({feasibility_s!r})"]
    problems = []
    if attrs["exhaustive"] + attrs["sampled"] != attrs["candidates"]:
        problems.append(
            f"enum solver-call: exhaustive {attrs['exhaustive']} + sampled "
            f"{attrs['sampled']} != candidates {attrs['candidates']}")
    if attrs["repeats"] > attrs["sampled"]:
        problems.append(
            f"enum solver-call: repeats {attrs['repeats']} > sampled "
            f"{attrs['sampled']}")
    replayed = attrs["candidates"] - attrs["repeats"]
    if attrs.get("check") == "semantic":
        problems.extend(
            f"enum solver-call: semantic record with {name} {attrs[name]}"
            for name in COMMUTATIVITY_ONLY if attrs[name])
    elif attrs["independent"] + attrs["infeasible"] > replayed:
        problems.append(
            f"enum solver-call: independent {attrs['independent']} + "
            f"infeasible {attrs['infeasible']} > candidates - repeats "
            f"{replayed}")
    if not 0 <= feasibility_s <= wall_s:
        problems.append(
            f"enum solver-call: feasibility_s {feasibility_s} outside "
            f"[0, wall_s {wall_s}]")
    if attrs.get("result") == "pass":
        coverage = attrs.get("coverage")
        if coverage not in ("exhaustive", "sampled"):
            problems.append(
                f"enum solver-call: PASS without coverage ({coverage!r})")
        elif coverage == "exhaustive" and attrs["sampled"]:
            problems.append(
                f"enum solver-call: exhaustive PASS drew "
                f"{attrs['sampled']} samples")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument(
        "--require", default=",".join(DEFAULT_KINDS), metavar="KINDS",
        help="comma-separated span kinds that must appear "
             f"(default: {','.join(DEFAULT_KINDS)})")
    args = parser.parse_args()

    problems: list[str] = []
    records: list[tuple[int, dict]] = []
    with open(args.trace, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc})")
                continue
            missing = [k for k in REQUIRED_FIELDS if k not in obj]
            if missing:
                problems.append(
                    f"line {lineno}: missing fields {missing}")
                continue
            records.append((lineno, obj))

    ids = {obj["id"] for _, obj in records}
    for lineno, obj in records:
        parent = obj["parent"]
        if parent is not None and parent not in ids:
            problems.append(
                f"line {lineno}: span {obj['id']} has dangling "
                f"parent {parent}")

    for lineno, obj in records:
        attrs = obj["attrs"]
        if obj["kind"] == "solver-call" and attrs.get("backend") == "enum":
            problems.extend(f"line {lineno}: {problem}"
                            for problem in enum_accounting(
                                attrs, obj["wall_s"]))

    kinds = {obj["kind"] for _, obj in records}
    for kind in filter(None, args.require.split(",")):
        if kind not in kinds:
            problems.append(f"required span kind never emitted: {kind}")

    for problem in problems:
        print(problem)
    if problems:
        print(f"check_trace: {len(problems)} problem(s) in {args.trace}",
              file=sys.stderr)
        return 1
    print(f"check_trace: {len(records)} spans, {len(kinds)} kinds, "
          f"all parent links resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
