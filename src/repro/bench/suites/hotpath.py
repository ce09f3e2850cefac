"""Hot-path micro-benchmarks: the compute-policy and sweep-cache wins.

Two claims from the hot-path overhaul, measured and checked:

* the float32 compute policy accelerates the backbone forward pass while
  agreeing with float64 (identical labels, probabilities within 1e-4),
* a :class:`~repro.cdl.score_cache.StageScoreCache` replays an entire δ
  sweep from one backbone pass, matching naive per-δ
  :func:`~repro.cdl.statistics.evaluate_cdln` exactly (labels, exits,
  average OPS) at a multiple of its speed.

Wall-clock ratios are informational in the compare gate (runner-dependent);
the agreement quantities gate with tight bands.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.cdl.score_cache import StageScoreCache
from repro.cdl.statistics import evaluate_cached, evaluate_cdln
from repro.experiments.common import get_datasets, get_trained
from repro.utils.tables import AsciiTable

GROUP = "hotpath"


def _cast_copy(network, dtype):
    """An independent copy of ``network`` with parameters cast to ``dtype``."""
    return copy.deepcopy(network).astype(dtype)


def _time_predict(net, images, reps: int) -> float:
    net.predict(images)
    start = perf_counter()
    for _ in range(reps):
        net.predict(images)
    return (perf_counter() - start) / reps


@benchmark(
    "hotpath_dtype_inference",
    group=GROUP,
    title="Hot path -- float32 vs float64 forward pass (MNIST_3C)",
    tiers={
        "tiny": {"batch": 128, "reps": 5},
        "small": {"batch": 256, "reps": 5},
        "full": {"batch": 512, "reps": 8},
    },
    tolerances={
        "float32_speedup": None,
        "label_agreement": Tolerance(abs=0.02),
        "max_abs_prob_diff": Tolerance(abs=1e-3),
    },
)
def bench_dtype_inference(ctx: BenchContext) -> BenchResult:
    """The same trained backbone, cast both ways, timed head to head."""
    batch = int(ctx.params.get("batch", 256))
    reps = int(ctx.params.get("reps", 5))
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed)
    net32 = _cast_copy(trained.baseline, np.float32)
    net64 = _cast_copy(trained.baseline, np.float64)
    _, test = get_datasets(ctx.scale, ctx.seed)
    images = test.images[:batch]

    t64 = _time_predict(net64, images, reps)
    t32 = _time_predict(net32, images, reps)
    out64 = net64.predict(images)
    out32 = net32.predict(images)
    agreement = float(
        np.mean(out64.argmax(axis=1) == out32.argmax(axis=1))
    )
    max_diff = float(np.abs(out64 - out32.astype(np.float64)).max())

    table = AsciiTable(["dtype", "ms / batch", "speedup"], title="Compute dtype")
    table.add_row(["float64", round(t64 * 1e3, 2), "1.00x"])
    table.add_row(["float32", round(t32 * 1e3, 2), f"{t64 / t32:.2f}x"])
    return BenchResult(
        metrics={
            "float32_speedup": t64 / t32,
            "label_agreement": agreement,
            "max_abs_prob_diff": max_diff,
        },
        text=table.render(),
        payload={"speedup": t64 / t32, "agreement": agreement, "max_diff": max_diff},
    )


@bench_dtype_inference.check
def _check_dtype_inference(res: BenchResult) -> None:
    # float32 must not change answers on a trained (confident) model
    # (>= rather than == 1.0: an argmax tie may break differently under a
    # different BLAS).  The speedup itself is informational -- shared CI
    # runners jitter too much to hard-assert a ~1.3x wall-clock ratio.
    assert res.payload["agreement"] >= 0.99
    assert res.payload["max_diff"] < 1e-4


DELTAS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@benchmark(
    "hotpath_sweep_cache",
    group=GROUP,
    title="Hot path -- score-once/replay-many δ sweep vs naive (MNIST_3C)",
    rounds=2,
    tolerances={
        "cache_speedup": None,
        # Replays threshold scores computed on full batches, the naive path
        # on shrinking active subsets; BLAS may round those differently in
        # the last ulp, so allow a couple of borderline ties per sweep (the
        # float64 tier-1 test pins exact equality).
        "label_mismatches": Tolerance(abs=2.0),
        "exit_mismatches": Tolerance(abs=2.0),
        "max_abs_ops_diff": Tolerance(abs=1e-6),
    },
)
def bench_sweep_cache(ctx: BenchContext) -> BenchResult:
    """A whole δ grid: N backbone passes vs one pass plus numpy replays."""
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed)
    _, test = get_datasets(ctx.scale, ctx.seed)
    cdln = trained.cdln

    start = perf_counter()
    naive = [evaluate_cdln(cdln, test, delta=d) for d in DELTAS]
    naive_s = perf_counter() - start

    start = perf_counter()
    cache = StageScoreCache.build(cdln, test.images)
    cached = [evaluate_cached(cache, test, delta=d) for d in DELTAS]
    cached_s = perf_counter() - start

    label_mismatches = sum(
        int(np.sum(a.result.labels != b.result.labels))
        for a, b in zip(naive, cached)
    )
    exit_mismatches = sum(
        int(np.sum(a.result.exit_stages != b.result.exit_stages))
        for a, b in zip(naive, cached)
    )
    max_ops_diff = max(
        abs(a.ops.average_ops - b.ops.average_ops) for a, b in zip(naive, cached)
    )
    table = AsciiTable(["path", "ms / sweep", "speedup"], title="δ sweep")
    table.add_row(["naive (1 pass per δ)", round(naive_s * 1e3, 1), "1.00x"])
    table.add_row(
        ["cached (1 pass total)", round(cached_s * 1e3, 1),
         f"{naive_s / cached_s:.2f}x"]
    )
    return BenchResult(
        metrics={
            "cache_speedup": naive_s / cached_s,
            "label_mismatches": float(label_mismatches),
            "exit_mismatches": float(exit_mismatches),
            "max_abs_ops_diff": float(max_ops_diff),
        },
        text=table.render(),
        payload={
            "speedup": naive_s / cached_s,
            "label_mismatches": label_mismatches,
            "exit_mismatches": exit_mismatches,
            "max_ops_diff": max_ops_diff,
        },
    )


@bench_sweep_cache.check
def _check_sweep_cache(res: BenchResult) -> None:
    # Replays match the naive sweep up to at most a couple of borderline
    # last-ulp ties (exact equality is pinned by the float64 tier-1 test).
    assert res.payload["label_mismatches"] <= 2
    assert res.payload["exit_mismatches"] <= 2
    assert res.payload["max_ops_diff"] < 1e-6
    # The cache must pay for itself on a full grid.  This ratio is
    # structural (one backbone pass vs eight), not runner jitter, so a
    # loose floor is safe to assert even on shared CI hardware.
    assert res.payload["speedup"] >= 1.5
