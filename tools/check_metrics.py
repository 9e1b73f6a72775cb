#!/usr/bin/env python3
"""Validate the exports of ``noctua metrics --out``.

Checks (exits non-zero with a line per failure):

1. the Prometheus text export parses strictly — every sample sits under
   a ``# TYPE`` block, histogram bucket series are cumulative and end at
   ``+Inf``, and ``_count`` matches the ``+Inf`` bucket (the parser is
   :func:`repro.metrics.parse_prometheus`, so the scrape format the
   repo emits is the format this tool accepts);
2. the JSON snapshot contains the metric families a metered smoke suite
   must emit: cache hits and misses, solver-call latency histograms for
   *both* backends (enum and smt), and georep delivery counters;
3. the two exports agree family-by-family (same family set).

Used by ``make metrics-demo`` and the CI metrics-smoke job::

    noctua metrics courseware --quick --jobs 2 \
        --out metrics.json --out metrics.prom
    python tools/check_metrics.py metrics.prom metrics.json

With ``--url`` the same round-trip runs against a *live* ``noctua
serve`` daemon instead of export files: ``GET /metrics`` must carry the
Prometheus exposition content type (``text/plain; version=0.0.4``) and
strictly parse, ``GET /metrics/json`` must be a loadable snapshot, and
the service families a verification cycle emits must be present.  The
two scrapes are separate requests (the daemon keeps counting between
them), so URL mode checks each payload on its own rather than
family-set equality::

    python tools/check_metrics.py --url http://127.0.0.1:8642
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.metrics import load_snapshot, parse_prometheus  # noqa: E402
from repro.service import PROM_CONTENT_TYPE  # noqa: E402

#: families a metered smoke suite must emit, with the label series that
#: must be present (empty tuple = any series will do)
REQUIRED_FAMILIES: dict[str, tuple[dict[str, str], ...]] = {
    "noctua_engine_cache_hits_total": (),
    "noctua_engine_cache_misses_total": (),
    "noctua_engine_pairs_total": (
        {"route": "solved"}, {"route": "cached"}, {"route": "shared"},
    ),
    "noctua_engine_pair_solve_seconds": (
        {"backend": "enum"}, {"backend": "smt"},
    ),
    "noctua_engine_sweeps_total": ({"mode": "serial"},),
    "noctua_engine_classes_total": (),
    "noctua_solver_call_seconds": (
        {"backend": "enum"}, {"backend": "smt"},
    ),
    "noctua_solver_calls_total": (),
    "noctua_georep_delivered_total": (),
}


#: families a ``noctua serve`` daemon must expose after at least one
#: verification cycle plus the scrape itself
REQUIRED_SERVICE_FAMILIES = (
    "noctua_service_cycles_total",
    "noctua_service_reverifies_total",
    "noctua_service_invalidated_pairs_total",
    "noctua_service_restriction_version",
    "noctua_service_cycle_seconds",
    "noctua_service_http_requests_total",
    "noctua_solver_calls_total",
)


def snapshot_series(snapshot: dict, name: str) -> list[dict[str, str]]:
    for fam in snapshot["families"]:
        if fam["name"] == name:
            return [row["labels"] for row in fam["series"]]
    return []


def check_url(base: str) -> int:
    """Round-trip the metrics endpoints of a live daemon."""
    base = base.rstrip("/")
    problems: list[str] = []
    # Liveness first — it also guarantees the http-requests counter has
    # a sample by the time /metrics snapshots (the daemon meters each
    # request *after* answering it).
    try:
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as resp:
            if resp.status != 200:
                problems.append(f"{base}/healthz: status {resp.status}")
    except OSError as exc:
        print(f"check_metrics: GET {base}/healthz: {exc}", file=sys.stderr)
        return 1
    try:
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            content_type = resp.headers.get("Content-Type", "")
            text = resp.read().decode("utf-8")
    except OSError as exc:
        print(f"check_metrics: GET {base}/metrics: {exc}", file=sys.stderr)
        return 1
    if content_type != PROM_CONTENT_TYPE:
        problems.append(f"{base}/metrics: Content-Type {content_type!r} "
                        f"!= {PROM_CONTENT_TYPE!r}")
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        problems.append(f"{base}/metrics: does not parse strictly: {exc}")
        families = {}
    for name in REQUIRED_SERVICE_FAMILIES:
        if families and name not in families:
            problems.append(f"{base}/metrics: family {name} missing "
                            f"(has the daemon run a cycle?)")
    try:
        with urllib.request.urlopen(f"{base}/metrics/json",
                                    timeout=30) as resp:
            snapshot = json.loads(resp.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{base}/metrics/json: {exc}")
        snapshot = None
    if snapshot is not None and not isinstance(
            snapshot.get("families"), list):
        problems.append(f"{base}/metrics/json: no families list")

    for problem in problems:
        print(problem)
    if problems:
        print(f"check_metrics: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    samples = sum(len(fam["samples"]) for fam in families.values())
    print(f"check_metrics: {base}: {len(families)} families, {samples} "
          f"samples, exposition content type and strict parse OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prom", nargs="?",
                        help="Prometheus text export (.prom)")
    parser.add_argument("json", nargs="?",
                        help="JSON snapshot export (.json)")
    parser.add_argument("--url", metavar="BASE",
                        help="check a live `noctua serve` daemon at BASE "
                             "instead of export files")
    args = parser.parse_args()

    if args.url:
        if args.prom or args.json:
            parser.error("--url replaces the file arguments")
        return check_url(args.url)
    if not (args.prom and args.json):
        parser.error("need PROM and JSON files (or --url BASE)")

    problems: list[str] = []

    try:
        families = parse_prometheus(
            pathlib.Path(args.prom).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"check_metrics: {args.prom}: {exc}", file=sys.stderr)
        return 1
    try:
        snapshot = load_snapshot(args.json)
    except (OSError, ValueError) as exc:
        print(f"check_metrics: {args.json}: {exc}", file=sys.stderr)
        return 1

    for name, required_series in REQUIRED_FAMILIES.items():
        series = snapshot_series(snapshot, name)
        if not series:
            problems.append(f"{args.json}: family {name} missing or empty")
            continue
        for required in required_series:
            if not any(all(labels.get(k) == v for k, v in required.items())
                       for labels in series):
                problems.append(
                    f"{args.json}: family {name} has no series "
                    f"matching {required}")

    snapshot_names = {fam["name"] for fam in snapshot["families"]}
    prom_names = set(families)
    for name in sorted(snapshot_names - prom_names):
        problems.append(f"{args.prom}: family {name} in JSON but not in "
                        f"Prometheus export")
    for name in sorted(prom_names - snapshot_names):
        problems.append(f"{args.json}: family {name} in Prometheus export "
                        f"but not in JSON")

    for problem in problems:
        print(problem)
    if problems:
        print(f"check_metrics: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    samples = sum(len(fam["samples"]) for fam in families.values())
    print(f"check_metrics: {len(families)} families, {samples} samples, "
          f"Prometheus text format parses, required families present")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
