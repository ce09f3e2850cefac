"""Benchmark of the CDLN cascade and its serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady_clean --seed 0 \\
        --seconds 6 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the measured phase runs
a second time with spans recorded and the per-layer metrics are
reported instead, with the throughput and latency the client saw in the
untraced phase.  Metric names and units are those of
``BENCHMARK.json``.  Every answer is checked against ``CDLN.predict``;
any breach exits with code 1.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import signal
import sys
from pathlib import Path

from harness import BLAS_ENV_VARS

ROOT = Path(__file__).resolve().parent.parent

# Pin BLAS before numpy loads, here and in every process spawned from here
# (spawned fabric replicas inherit the environment).
for _var in BLAS_ENV_VARS:
    os.environ[_var] = "1"
os.environ["REPRO_COMPUTE_DTYPE"] = "float32"
sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(result) -> dict[str, float]:
    phase = result.phase
    return {
        "setup_s": result.setup_s,
        "answered_fraction": (phase.attempted - phase.failed) / phase.attempted,
        "accuracy": phase.correct / phase.judged,
        "ops_reduction_x": result.baseline_ops / phase.answered_ops.mean(),
        "peak_rss_mb": result.peak_rss_mb,
    }


def _exit_on_sigterm(signum, frame):
    # Unwind through the ``finally`` blocks that stop the engine or fabric,
    # so a terminated run leaves no replica process behind.
    sys.exit(128 + signum)


def _reap_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs at exit, after multiprocessing's own exit handler has joined its
    children and run its finalizers.  The fabric's shared memory started
    multiprocessing's resource tracker, which would otherwise outlive this
    process: closing its pipe lets it finish and exit, and it is waited
    for.  Any other child still present is killed and waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Private, but nothing public ends the tracker before this process
        # exits; it returns at once when no tracker was started.
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc`` (Linux)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, then ppid.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def main(argv=None) -> int:
    # Registered before anything imports multiprocessing: exit handlers
    # run last-registered first, so this one runs after multiprocessing's.
    atexit.register(_reap_children)
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from harness import provenance, selftest
    from harness.ledger import Ledger
    from harness.workloads import WORKLOADS, run

    selftest.run_all()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 Ledger(units) if args.trace else None, ROOT)
    env = provenance.environment(ROOT, result.compute_dtype)
    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "input_digest": result.input_digest, **env,
    }, sort_keys=True))
    phase = result.phase
    print(f"samples latency={phase.latencies_s.shape[0]} judged={phase.judged} "
          f"attempted={phase.attempted} exits={phase.exit_counts.tolist()} "
          f"throughput_per_s={phase.throughput_per_s:.6g} "
          f"latency_p50_ms={phase.latency_ms(50):.6g}")
    if args.trace:
        values = result.layers.values
        for note in result.layers.refused:
            print(f"refused {note}")
    else:
        values = end_to_end(result)
        if values.keys() != units.keys():
            print(f"error: BENCHMARK.json lists {sorted(units)}, "
                  f"the run computes {sorted(values)}", file=sys.stderr)
            return 1
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for breach in result.gate.breaches:
        print(f"BREACH {breach}", file=sys.stderr)
    if not all(math.isfinite(v) for v in values.values()):
        print("error: a metric is not finite "
              "(failed requests count as infinitely late)", file=sys.stderr)
        return 1
    correct = result.gate.passed
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
