"""``python -m repro.obs`` -- tail, filter and summarize trace files.

Works on the JSON-lines files the :class:`~repro.obs.observer.Observer`
writes: span traces (``repro.trace/v1``) and event logs
(``repro.events/v1``).

* ``summary`` folds a span trace into the operator view: the exit-flow
  table (where requests left the cascade and what each exit cost), the
  per-stage latency breakdown (batch-level stage wall time, active-set
  sizes), and the aggregate totals -- folded by :func:`~repro.obs.trace.
  fold_spans`, so the mean OPS matches ``ServingMetrics.mean_ops`` bit
  for bit.
* ``tail`` prints the newest N records of either stream as JSON lines.
* ``filter`` selects spans by exit stage, batch id, latency or OPS
  floors, printing matches as JSON lines for downstream tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs.events import EVENTS_SCHEMA
from repro.obs.trace import TRACE_SCHEMA, fold_spans, iter_records, read_header
from repro.utils.tables import AsciiTable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect serving trace and event files (JSON lines).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="per-stage latency breakdown + exit-flow table"
    )
    summary.add_argument("path", type=Path, help="span trace file")
    summary.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    tail = sub.add_parser("tail", help="print the newest records")
    tail.add_argument("path", type=Path, help="trace or event file")
    tail.add_argument("-n", type=int, default=10, help="records (default 10)")
    tail.add_argument(
        "--kind", default=None,
        help="only records of this kind (e.g. span, drift_detected)",
    )

    filt = sub.add_parser("filter", help="select spans as JSON lines")
    filt.add_argument("path", type=Path, help="span trace file")
    filt.add_argument(
        "--exit-stage", default=None,
        help="exit stage index or name (e.g. 0 or O1)",
    )
    filt.add_argument("--batch", type=int, default=None, help="batch id")
    filt.add_argument(
        "--min-latency-ms", type=float, default=None,
        help="keep spans at or above this queue-to-answer latency",
    )
    filt.add_argument(
        "--min-ops", type=float, default=None,
        help="keep spans that paid at least this many OPS",
    )
    filt.add_argument(
        "--limit", type=int, default=None, help="stop after this many matches"
    )
    return parser


def _spans(path: Path) -> list[dict]:
    return [r for r in iter_records(path) if r.get("kind") == "span"]


def summarize_trace(path: Path) -> dict:
    """The ``summary`` command's payload as a plain dict.

    The totals come from :func:`~repro.obs.trace.fold_spans` (per-batch
    numpy sums accumulated in batch order), so ``mean_ops`` equals the
    engine's ``MetricsSnapshot.mean_ops`` exactly.

    Failure spans (``error`` set, ``exit_stage`` -1, zero cost) are
    excluded from the exit-flow/latency/OPS statistics -- they carry no
    answer -- and surface as ``failed`` counts in the totals instead.
    """
    header = read_header(path)
    all_spans = _spans(path)
    fold = fold_spans(all_spans)
    spans = [s for s in all_spans if s.get("error") is None]
    if not spans:
        return {"header": header, "requests": 0, "exit_flow": [],
                "stage_breakdown": [], "totals": {"failed": fold.failed_requests}}
    latencies = np.array([s["latency_s"] for s in spans], dtype=np.float64)
    waits = np.array([s["queue_wait_s"] for s in spans], dtype=np.float64)
    ops = np.array([s["ops"] for s in spans], dtype=np.float64)
    energies = np.array([s["energy_pj"] for s in spans], dtype=np.float64)
    exits = np.array([s["exit_stage"] for s in spans], dtype=np.int64)
    batch_ids = {s["batch_id"] for s in spans}

    stage_names: dict[int, str] = {}
    for span in spans:
        stage_names.setdefault(span["exit_stage"], span["exit_stage_name"])
        for stage in span["stages"]:
            stage_names.setdefault(stage["stage"], stage["name"])

    exit_flow = []
    for stage in sorted(stage_names):
        mask = exits == stage
        count = int(mask.sum())
        exit_flow.append({
            "stage": stage,
            "name": stage_names[stage],
            "requests": count,
            "fraction": count / len(spans),
            "mean_ops": float(ops[mask].mean()) if count else 0.0,
            "mean_latency_ms": (
                float(latencies[mask].mean()) * 1e3 if count else 0.0
            ),
        })

    # Stage wall times are batch-level (every span in a batch shares the
    # batch's stage timeline), so deduplicate on (batch, stage).
    stage_walls: dict[int, list[float]] = {}
    stage_active: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    for span in spans:
        for stage in span["stages"]:
            key = (span["batch_id"], stage["stage"])
            if key in seen:
                continue
            seen.add(key)
            stage_walls.setdefault(stage["stage"], []).append(stage["wall_s"])
            stage_active.setdefault(stage["stage"], []).append(stage["active"])
    total_wall = sum(sum(walls) for walls in stage_walls.values())
    stage_breakdown = []
    for stage in sorted(stage_walls):
        walls = np.array(stage_walls[stage], dtype=np.float64)
        stage_breakdown.append({
            "stage": stage,
            "name": stage_names.get(stage, str(stage)),
            "batches": len(walls),
            "mean_active": float(np.mean(stage_active[stage])),
            "mean_wall_ms": float(walls.mean()) * 1e3,
            "wall_share": float(walls.sum()) / total_wall if total_wall else 0.0,
        })

    totals = {
        "requests": fold.requests,
        "batches": len(batch_ids),
        "total_ops": fold.total_ops,
        "mean_ops": fold.mean_ops,
        "total_energy_pj": float(energies.sum()),
        "mean_latency_ms": float(latencies.mean()) * 1e3,
        "max_latency_ms": float(latencies.max()) * 1e3,
        "mean_queue_wait_ms": float(waits.mean()) * 1e3,
        "failed": fold.failed_requests,
        "degraded": fold.degraded_requests,
    }
    return {
        "header": header,
        "requests": fold.requests,
        "exit_flow": exit_flow,
        "stage_breakdown": stage_breakdown,
        "totals": totals,
    }


def cmd_summary(args: argparse.Namespace) -> int:
    summary = summarize_trace(args.path)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary["requests"]:
        print(f"{args.path}: no spans recorded")
        return 0
    flow = AsciiTable(
        ["stage", "requests", "fraction", "mean OPS", "mean latency (ms)"],
        title="Exit flow",
    )
    for row in summary["exit_flow"]:
        flow.add_row([
            f"{row['stage']} ({row['name']})",
            row["requests"],
            f"{row['fraction']:.2f}",
            round(row["mean_ops"], 1),
            round(row["mean_latency_ms"], 3),
        ])
    print(flow.render())
    breakdown = AsciiTable(
        ["stage", "batches", "mean active", "mean wall (ms)", "wall share"],
        title="Per-stage latency breakdown (batch-level walls)",
    )
    for row in summary["stage_breakdown"]:
        breakdown.add_row([
            f"{row['stage']} ({row['name']})",
            row["batches"],
            round(row["mean_active"], 1),
            round(row["mean_wall_ms"], 3),
            f"{row['wall_share']:.2f}",
        ])
    print(breakdown.render())
    totals = summary["totals"]
    table = AsciiTable(["total", "value"], title="Trace totals")
    table.add_row(["requests", totals["requests"]])
    table.add_row(["batches", totals["batches"]])
    table.add_row(["mean OPS / request (reconciled)", round(totals["mean_ops"], 1)])
    table.add_row(["total energy (uJ)", round(totals["total_energy_pj"] / 1e6, 3)])
    table.add_row(["mean latency (ms)", round(totals["mean_latency_ms"], 3)])
    table.add_row(["max latency (ms)", round(totals["max_latency_ms"], 3)])
    table.add_row(["mean queue wait (ms)", round(totals["mean_queue_wait_ms"], 3)])
    if totals["failed"] or totals["degraded"]:
        table.add_row(["failed", totals["failed"]])
        table.add_row(["degraded", totals["degraded"]])
    print(table.render())
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    records = [
        r
        for r in iter_records(args.path, schemas=(TRACE_SCHEMA, EVENTS_SCHEMA))
        if r.get("kind") != "header"
        and (args.kind is None or r.get("kind") == args.kind)
    ]
    for record in records[-max(args.n, 0):]:
        print(json.dumps(record, sort_keys=True))
    return 0


def _span_matches(span: dict, args: argparse.Namespace) -> bool:
    if args.exit_stage is not None:
        want = args.exit_stage
        if str(span["exit_stage"]) != want and span["exit_stage_name"] != want:
            return False
    if args.batch is not None and span["batch_id"] != args.batch:
        return False
    if (args.min_latency_ms is not None
            and span["latency_s"] * 1e3 < args.min_latency_ms):
        return False
    if args.min_ops is not None and span["ops"] < args.min_ops:
        return False
    return True


def cmd_filter(args: argparse.Namespace) -> int:
    matched = 0
    for span in _spans(args.path):
        if not _span_matches(span, args):
            continue
        print(json.dumps(span, sort_keys=True))
        matched += 1
        if args.limit is not None and matched >= args.limit:
            break
    print(f"{matched} span(s) matched", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            return cmd_summary(args)
        if args.command == "tail":
            return cmd_tail(args)
        if args.command == "filter":
            return cmd_filter(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
