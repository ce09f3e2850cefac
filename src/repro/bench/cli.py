"""``python -m repro.bench`` -- list / run / compare / update-baseline.

The CI perf gate is two invocations::

    python -m repro.bench run --scale tiny --out bench-out
    python -m repro.bench compare --run-dir bench-out

``compare`` exits nonzero on any regression, missing artifact or schema
mismatch, so the workflow step fails exactly when the gate does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.artifact import artifact_filename, load_artifact_dir
from repro.bench.compare import compare_dirs
from repro.bench.registry import TIERS, iter_benchmarks, load_suites
from repro.bench.runner import BenchCheckFailures, run_benchmarks, tier_from_env
from repro.errors import ConfigurationError
from repro.utils.tables import AsciiTable

#: Where ``update-baseline`` writes and ``compare`` reads by default.
DEFAULT_BASELINE_DIR = Path("benchmarks/baselines")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=TIERS,
        default=None,
        help="scale tier (default: $REPRO_BENCH_SCALE or 'small')",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only these benchmarks (default: every registered one)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="override measured rounds"
    )
    parser.add_argument(
        "--warmup-rounds", type=int, default=None, help="override warmup rounds"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run each benchmark's qualitative shape-check",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Registry-driven benchmark harness with JSON perf artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmarks")

    run = sub.add_parser("run", help="run benchmarks and write BENCH_<name>.json")
    _add_run_options(run)
    run.add_argument(
        "--out",
        type=Path,
        default=Path("."),
        help="directory for BENCH_<name>.json artifacts (default: cwd)",
    )

    compare = sub.add_parser(
        "compare", help="diff run artifacts against committed baselines"
    )
    compare.add_argument("--run-dir", type=Path, default=Path("."))
    compare.add_argument("--baseline-dir", type=Path, default=DEFAULT_BASELINE_DIR)
    compare.add_argument(
        "--include-timing",
        action="store_true",
        help="also gate mean wall time (loose band; noisy on shared runners)",
    )

    update = sub.add_parser(
        "update-baseline",
        help="run benchmarks and write the artifacts into the baseline dir",
    )
    _add_run_options(update)
    update.add_argument("--baseline-dir", type=Path, default=DEFAULT_BASELINE_DIR)
    return parser


def cmd_list() -> int:
    table = AsciiTable(
        ["group", "name", "rounds", "gated metrics"],
        title="Registered benchmarks",
    )
    count = 0
    for spec in iter_benchmarks():
        gated = [m for m, t in spec.tolerances.items() if t is not None]
        if not spec.tolerances:
            gated_desc = "all (default band)"
        else:
            gated_desc = ", ".join(sorted(gated)) or "none (informational)"
        table.add_row([spec.group, spec.name, spec.rounds, gated_desc])
        count += 1
    print(table.render())
    print(f"{count} benchmark(s); scale tiers: {', '.join(TIERS)}")
    return 0


def _resolve_tier(flag: str | None, baseline_dir: Path | None = None) -> str:
    """The tier to run at: explicit flag > existing baselines' tier > env.

    ``update-baseline`` inherits the committed baselines' tier so a bare
    invocation refreshes them in place instead of silently rewriting all
    of them at a different tier (which would fail every CI compare with
    tier-mismatch errors).
    """
    if flag is not None:
        return flag
    if baseline_dir is not None:
        baselines = load_artifact_dir(baseline_dir)
        tiers = {artifact.tier for artifact in baselines.values()}
        if len(tiers) == 1:
            tier = tiers.pop()
            print(f"inheriting tier {tier!r} from existing baselines")
            return tier
        if len(tiers) > 1:
            raise ConfigurationError(
                f"baselines under {baseline_dir} mix tiers {sorted(tiers)}; "
                "pass --scale explicitly"
            )
    return tier_from_env()


def cmd_run(
    args: argparse.Namespace, out_dir: Path, baseline_dir: Path | None = None
) -> int:
    tier = _resolve_tier(args.scale, baseline_dir)
    failures: list[tuple[str, str]] = []
    try:
        artifacts = run_benchmarks(
            args.only,
            tier=tier,
            seed=args.seed,
            out_dir=out_dir,
            rounds=args.rounds,
            warmup_rounds=args.warmup_rounds,
            check=args.check,
            progress=print,
        )
    except BenchCheckFailures as exc:
        artifacts, failures = exc.artifacts, exc.failures
    print(
        f"wrote {len(artifacts)} artifact(s) to {out_dir} "
        f"(tier={tier}, seed={args.seed})"
    )
    if failures:
        for name, message in failures:
            print(f"FAIL {name}: {message}", file=sys.stderr)
        print(
            f"{len(failures)} shape-check(s) failed; their artifacts "
            "were not written",
            file=sys.stderr,
        )
        return 1
    # A full update-baseline owns the directory: drop artifacts for
    # benchmarks that were renamed or removed, or every later compare
    # would report them MISSING forever.
    if baseline_dir is not None and not args.only:
        fresh = {artifact_filename(a.benchmark) for a in artifacts}
        for path in sorted(Path(baseline_dir).glob("BENCH_*.json")):
            if path.name not in fresh:
                path.unlink()
                print(f"pruned stale baseline {path.name}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    report = compare_dirs(
        args.run_dir,
        args.baseline_dir,
        include_timing=args.include_timing,
    )
    print(report.render())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            load_suites()
            return cmd_list()
        if args.command == "run":
            return cmd_run(args, args.out)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "update-baseline":
            return cmd_run(args, args.baseline_dir, baseline_dir=args.baseline_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
