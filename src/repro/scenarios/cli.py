"""``python -m repro.scenarios`` -- list / run the suite / build tables.

``run`` trains (or reuses the process-cached) model for the requested
architecture at a scale tier, evaluates the scenario suite on the test
split, then replays a drift stream through the serving engine under a
soft mean-OPS target plus a hard per-request cap -- scheduled
recalibration by default, detector-driven operating-table retargeting
with ``--adaptive``.  ``--out`` additionally writes the whole report as
JSON for downstream tooling.

``tables`` precomputes the scenario-conditioned operating table (per
regime: δ → accuracy / mean OPS / energy, plus the regime's drift
signature) and writes it as a JSON artifact that
``ModelRegistry.register(..., operating_table=...)`` loads back --
see ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.registry import TIERS
from repro.data.corruptions import corruption_names
from repro.errors import ConfigurationError, ReproError
from repro.experiments.common import Scale, get_datasets, get_trained
from repro.scenarios.drift import DriftSchedule
from repro.scenarios.evaluate import budgeted_drift_replay, evaluate_suite
from repro.scenarios.suite import DEFAULT_SEVERITIES, default_suite
from repro.utils.tables import AsciiTable

DEFAULT_DELTA = 0.6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Corruption & drift workload suite for the early-exit cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list the default suite's scenarios")
    _add_suite_options(listing)

    run = sub.add_parser(
        "run", help="evaluate the suite and replay a drift stream"
    )
    _add_suite_options(run)
    _add_model_options(run)
    run.add_argument(
        "--delta", type=float, default=DEFAULT_DELTA,
        help=f"runtime confidence threshold (default: {DEFAULT_DELTA})",
    )
    run.add_argument(
        "--drift",
        choices=("sudden", "gradual", "recurring", "none"),
        default="sudden",
        help="drift schedule for the serving replay (default: sudden)",
    )
    run.add_argument(
        "--drift-batches", type=int, default=12, help="stream length in batches"
    )
    run.add_argument(
        "--drift-batch-size", type=int, default=32, help="requests per batch"
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help="replace scheduled recalibration with detector-driven "
        "operating-table retargeting in the drift replay",
    )
    run.add_argument(
        "--out", type=Path, default=None, help="write the report as JSON here"
    )

    tables = sub.add_parser(
        "tables",
        help="precompute the per-scenario operating table as a JSON artifact",
    )
    _add_suite_options(tables)
    _add_model_options(tables)
    tables.add_argument(
        "--reference-delta", type=float, default=DEFAULT_DELTA,
        help="δ at which regime drift signatures are fingerprinted "
        f"(default: {DEFAULT_DELTA})",
    )
    tables.add_argument(
        "--deltas",
        nargs="+",
        type=float,
        default=None,
        help="δ grid tabulated per regime (default: 19 points in "
        "[0.05, 0.95])",
    )
    tables.add_argument(
        "--out",
        type=Path,
        required=True,
        help="where to write the operating-table JSON "
        "(convention: <checkpoint>.optable.json next to the model)",
    )
    return parser


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tier",
        choices=TIERS,
        default="small",
        help="scale tier for data and training (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--arch", default="mnist_3c", help="architecture to train")


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corruptions",
        nargs="+",
        metavar="NAME",
        default=None,
        help="restrict the suite to these corruptions (default: all registered)",
    )
    parser.add_argument(
        "--severities",
        nargs="+",
        type=float,
        default=list(DEFAULT_SEVERITIES),
        help=f"severity grid (default: {' '.join(map(str, DEFAULT_SEVERITIES))})",
    )


def _build_suite(args: argparse.Namespace):
    corruptions = tuple(args.corruptions) if args.corruptions else None
    if corruptions is not None:
        unknown = set(corruptions) - set(corruption_names())
        if unknown:
            raise ConfigurationError(
                f"unknown corruption(s) {sorted(unknown)}; "
                f"available: {sorted(corruption_names())}"
            )
    return default_suite(
        corruptions=corruptions,
        severities=tuple(args.severities),
        include_composite=corruptions is None,
        include_class_skew=corruptions is None,
    )


def cmd_list(args: argparse.Namespace) -> int:
    suite = _build_suite(args)
    table = AsciiTable(
        ["scenario", "spec", "description"], title=f"Scenario suite {suite.name!r}"
    )
    for scenario in suite:
        table.add_row([scenario.name, scenario.describe(), scenario.description])
    print(table.render())
    print(f"{len(suite)} scenario(s); corruptions: {', '.join(corruption_names())}")
    return 0


def _drift_schedule(kind: str, num_batches: int) -> DriftSchedule:
    third = max(1, num_batches // 3)
    if kind == "sudden":
        return DriftSchedule.sudden(third)
    if kind == "gradual":
        return DriftSchedule.gradual(third, max(third + 1, 2 * third))
    return DriftSchedule.recurring(max(2, 2 * third), duty=0.5)


def cmd_run(args: argparse.Namespace) -> int:
    suite = _build_suite(args)
    scale = getattr(Scale, args.tier)()
    print(
        f"training {args.arch} at tier {args.tier!r} (seed {args.seed}) ...",
        flush=True,
    )
    # Held across both get_trained calls, which train on the same pair.
    _train, test = get_datasets(scale, seed=args.seed)
    trained = get_trained(args.arch, scale, seed=args.seed)
    cdln = trained.cdln

    print(f"evaluating {len(suite)} scenario(s) on {len(test)} test samples ...")
    report = evaluate_suite(cdln, test, suite, delta=args.delta)
    print()
    print(report.render())

    payload = {"robustness": report.to_dict()}
    shifted_name = _heaviest(suite) if args.drift != "none" else None
    if args.drift != "none" and shifted_name is None:
        print(
            "\nsuite has no single pixel-corruption scenario; skipping the "
            "drift replay (pass --drift none to silence this)"
        )
    elif shifted_name is not None:
        # Serve the all-taps cascade: gain admission can leave tiny models
        # with one linear stage, too shallow for a binding depth cap and a
        # soft delta target to both act.
        cdln = get_trained(args.arch, scale, seed=args.seed, attach="all").cdln
        drift_result = budgeted_drift_replay(
            cdln,
            test,
            suite.get(shifted_name),
            _drift_schedule(args.drift, args.drift_batches),
            batch_size=args.drift_batch_size,
            num_batches=args.drift_batches,
            rng=args.seed,
            delta=args.delta,
            recalibrate_every=max(2, args.drift_batches // 4),
            adaptive=args.adaptive,
        )
        hard = drift_result.hard_ops_budget
        cap_desc = f"hard cap {hard:g} OPS" if hard is not None else "no hard cap"
        mode = (
            "adaptive table retargeting"
            if args.adaptive
            else "scheduled recalibration"
        )
        print()
        print(
            f"drift replay ({mode}): {args.drift} shift to {shifted_name!r}, "
            f"{args.drift_batches} x {args.drift_batch_size} requests, "
            f"soft target {drift_result.target_mean_ops:g} OPS, {cap_desc}"
        )
        print(drift_result.render())
        payload["drift"] = drift_result.to_dict()
        if not drift_result.hard_cap_held:
            print("FAIL: hard per-request ops cap violated", file=sys.stderr)
            return 1

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote JSON report to {args.out}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.serving.adaptive import DEFAULT_TABLE_GRID, OperatingTable

    suite = _build_suite(args)
    scale = getattr(Scale, args.tier)()
    print(
        f"training {args.arch} at tier {args.tier!r} (seed {args.seed}) ...",
        flush=True,
    )
    _train, test = get_datasets(scale, seed=args.seed)
    trained = get_trained(args.arch, scale, seed=args.seed, attach="all")
    deltas = tuple(args.deltas) if args.deltas else DEFAULT_TABLE_GRID
    print(
        f"tabulating {len(suite)} regime(s) x {len(deltas)} delta(s) on "
        f"{len(test)} samples ..."
    )
    table = OperatingTable.build(
        trained.cdln,
        test,
        list(suite),
        deltas=deltas,
        reference_delta=args.reference_delta,
    )
    summary = AsciiTable(
        ["regime", "spec", "min OPS", "max OPS", "best acc (%)", "best-acc δ"],
        title=f"Operating table ({len(table)} regimes, "
        f"reference {table.reference_regime!r})",
    )
    for name in table.regime_names:
        entry = table.entry(name)
        best = max(entry.points, key=lambda p: p.accuracy)
        summary.add_row(
            [
                name,
                entry.scenario_spec,
                int(round(min(p.mean_ops for p in entry.points))),
                int(round(max(p.mean_ops for p in entry.points))),
                round(best.accuracy * 100, 2),
                f"{best.delta:g}",
            ]
        )
    print(summary.render())
    path = table.save(args.out)
    print(f"wrote operating table to {path}")
    return 0


def _heaviest(suite) -> str | None:
    """Most severe single-corruption pixel scenario, or None if there is
    none (a label-noise-only suite has nothing to drift pixels with)."""
    from repro.data.corruptions import get_corruption

    best = None
    for scenario in suite:
        if len(scenario.corruptions) != 1:
            continue
        if get_corruption(scenario.primary_corruption).corrupts_labels:
            continue
        if best is None or scenario.severity > best.severity:
            best = scenario
    return None if best is None else best.name


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "tables":
            return cmd_tables(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
