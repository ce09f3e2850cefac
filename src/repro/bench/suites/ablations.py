"""Ablation benchmarks (beyond the paper) on the harness.

Same bodies the old ``benchmarks/bench_ablation_*.py`` scripts ran inline:
confidence-policy comparison, Algorithm 1's admission threshold, the
linear-classifier training rule, and the scalable-effort baseline; plus
the sweep behind MNIST_3C's pooled O1 head.
"""

from __future__ import annotations

from repro.baselines.scalable_effort import ScalableEffortCascade
from repro.bench.registry import BenchContext, BenchResult, Tolerance, benchmark
from repro.cdl.architectures import ARCHITECTURES
from repro.cdl.confidence import ActivationModule
from repro.cdl.gain import admit_stages
from repro.cdl.linear_classifier import LinearClassifier
from repro.cdl.network import CDLN
from repro.cdl.score_cache import StageScoreCache
from repro.cdl.statistics import evaluate_cached, evaluate_cdln
from repro.cdl.training import CdlTrainingConfig, stage_classifiers
from repro.experiments.common import get_datasets, get_trained
from repro.nn import Adam, Dense, Flatten, Network, Trainer
from repro.utils.tables import AsciiTable

GROUP = "ablations"
DELTA = 0.6

_ACC = Tolerance(abs=0.04)
_OPS = Tolerance(rel=0.3)

POLICIES = ("score_threshold", "max_probability", "margin", "ambiguity")


@benchmark(
    "ablation_confidence_policies",
    group=GROUP,
    title="Ablation -- confidence policies at delta=0.6 (MNIST_3C)",
    rounds=2,
    tolerances={
        **{f"accuracy_{p}": _ACC for p in POLICIES},
        **{f"normalized_ops_{p}": _OPS for p in POLICIES},
    },
)
def bench_confidence_policies(ctx: BenchContext) -> BenchResult:
    _train, test = get_datasets(ctx.scale, ctx.seed)
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed)
    cdln = trained.cdln
    # Stage scores are policy-independent: score once, replay per policy.
    cache = StageScoreCache.build(cdln, test.images)
    rows: dict[str, tuple[float, float]] = {}
    for policy in POLICIES:
        ev = evaluate_cached(
            cache,
            test,
            delta=DELTA,
            activation_module=ActivationModule(delta=DELTA, policy=policy),
        )
        rows[policy] = (ev.accuracy, ev.normalized_ops)
    table = AsciiTable(
        ["policy", "accuracy (%)", "normalized OPS"],
        title="Ablation -- confidence policy at delta=0.6 (MNIST_3C)",
    )
    metrics: dict[str, float] = {}
    for policy, (acc, ops) in rows.items():
        table.add_row([policy, round(acc * 100, 2), round(ops, 3)])
        metrics[f"accuracy_{policy}"] = acc
        metrics[f"normalized_ops_{policy}"] = ops
    return BenchResult(metrics=metrics, text=table.render(), payload=rows)


@bench_confidence_policies.check
def _check_confidence_policies(res: BenchResult) -> None:
    rows = res.payload
    # Ambiguity-only is the most aggressive exiter.
    assert rows["ambiguity"][1] <= min(ops for _, ops in rows.values()) + 1e-9
    # ...and pays in accuracy relative to the two-criterion default.
    assert rows["ambiguity"][0] <= rows["score_threshold"][0] + 1e-9
    # Every policy still saves work relative to the baseline.
    for policy, (_acc, ops) in rows.items():
        assert ops < 1.0, policy


EPSILONS = (0.0, 1_000.0, 1e12)


@benchmark(
    "ablation_gain_epsilon",
    group=GROUP,
    title="Ablation -- admission threshold epsilon (MNIST_3C, all taps)",
    rounds=2,
    tolerances={
        "stages_kept_eps_zero": Tolerance(abs=1.0),
        "stages_kept_eps_moderate": Tolerance(abs=1.0),
        "stages_kept_eps_prohibitive": Tolerance(abs=0.0),
    },
)
def bench_gain_epsilon(ctx: BenchContext) -> BenchResult:
    train, _test = get_datasets(ctx.scale, ctx.seed)
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed, attach="all")
    # One backbone pass serves every epsilon's whole leave-one-out search.
    cache = StageScoreCache.build(trained.cdln, train.images)
    kept: dict[float, tuple[str, ...]] = {}
    for epsilon in EPSILONS:
        cdln = trained.cdln.clone_with_stages(
            [s.name for s in trained.cdln.linear_stages]
        )
        result = admit_stages(
            cdln, train.images, epsilon=epsilon, delta=DELTA, cache=cache
        )
        kept[epsilon] = tuple(result.kept)
    table = AsciiTable(
        ["epsilon", "stages kept"],
        title="Ablation -- admission threshold epsilon (MNIST_3C, all taps)",
    )
    for epsilon, stages in kept.items():
        table.add_row([f"{epsilon:g}", "-".join(stages)])
    metrics = {
        "stages_kept_eps_zero": float(len(kept[EPSILONS[0]])),
        "stages_kept_eps_moderate": float(len(kept[EPSILONS[1]])),
        "stages_kept_eps_prohibitive": float(len(kept[EPSILONS[2]])),
    }
    return BenchResult(metrics=metrics, text=table.render(), payload=kept)


@bench_gain_epsilon.check
def _check_gain_epsilon(res: BenchResult) -> None:
    kept = res.payload
    # Monotonicity: a stricter threshold never keeps more stages.
    sizes = [len(kept[e]) for e in EPSILONS]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    # The mandatory first stage always survives.
    for stages in kept.values():
        assert "O1" in stages
    # A prohibitive epsilon strips everything optional.
    assert kept[1e12] == ("O1",)
    # At epsilon=0 the deepest stage does not pay for itself (paper Fig. 9:
    # the third stage is past the break-even).
    assert "O3" not in kept[0.0]


RULES = ("ridge", "lms", "softmax")


@benchmark(
    "ablation_lc_training_rule",
    group=GROUP,
    title="Ablation -- stage training rule (MNIST_3C)",
    rounds=2,
    tolerances={
        **{f"accuracy_{r}": _ACC for r in RULES},
        **{f"normalized_ops_{r}": _OPS for r in RULES},
    },
)
def bench_lc_training_rule(ctx: BenchContext) -> BenchResult:
    train, test = get_datasets(ctx.scale, ctx.seed)
    baseline = get_trained("mnist_3c", ctx.scale, ctx.seed).baseline
    rows: dict[str, tuple[float, float]] = {}
    for rule in RULES:
        cdln = CDLN(
            baseline,
            (1, 3),
            activation_module=ActivationModule(delta=DELTA),
            classifier_factory=lambda rule=rule: LinearClassifier(
                10, rule=rule, epochs=30, l2=0.05, rng=0
            ),
        )
        cdln.fit_linear_classifiers(train.images, train.labels)
        ev = evaluate_cdln(cdln, test, delta=DELTA)
        rows[rule] = (ev.accuracy, ev.normalized_ops)
    table = AsciiTable(
        ["rule", "accuracy (%)", "normalized OPS"],
        title="Ablation -- stage training rule (MNIST_3C)",
    )
    metrics: dict[str, float] = {}
    for rule, (acc, ops) in rows.items():
        table.add_row([rule, round(acc * 100, 2), round(ops, 3)])
        metrics[f"accuracy_{rule}"] = acc
        metrics[f"normalized_ops_{rule}"] = ops
    return BenchResult(metrics=metrics, text=table.render(), payload=rows)


@bench_lc_training_rule.check
def _check_lc_training_rule(res: BenchResult) -> None:
    rows = res.payload
    # Iterative LMS approaches the closed-form global minimum's behaviour.
    assert abs(rows["lms"][0] - rows["ridge"][0]) < 0.05
    # Every rule yields a working conditional cascade.
    for rule, (acc, ops) in rows.items():
        assert acc > 0.8, rule
        assert ops < 1.0, rule


POOL_ARCHITECTURES = ("mnist_2c", "mnist_3c")
POOL_WINDOWS = (1, 2, 3)


@benchmark(
    "ablation_o1_head_pool",
    group=GROUP,
    title="Ablation -- average-pooling the O1 head's tap",
    rounds=2,
    tolerances={
        f"{metric}_{a}_w{w}": tolerance
        for metric, tolerance in (("accuracy", _ACC), ("normalized_ops", _OPS))
        for a in POOL_ARCHITECTURES
        for w in POOL_WINDOWS
    },
)
def bench_o1_head_pool(ctx: BenchContext) -> BenchResult:
    """O1's head over P1 pooled 1x1 (dense), 2x2 and 3x3, every other head
    as ``train_cdln`` builds it, on each architecture's trained baseline."""
    train, test = get_datasets(ctx.scale, ctx.seed)
    rows: dict[tuple[str, int], tuple[float, float, int]] = {}
    table = AsciiTable(
        ["network", "O1 pool", "O1 head OPS", "accuracy (%)", "normalized OPS"],
        title="Ablation -- average-pooling the O1 head's tap (delta=0.6)",
    )
    metrics: dict[str, float] = {}
    for arch in POOL_ARCHITECTURES:
        spec = ARCHITECTURES[arch]
        baseline = get_trained(arch, ctx.scale, ctx.seed).baseline
        taps = spec.attach_indices
        features = None
        for window in POOL_WINDOWS:
            cdln = CDLN(
                baseline,
                taps,
                activation_module=ActivationModule(delta=DELTA),
                classifier_factory=stage_classifiers(
                    baseline,
                    taps,
                    CdlTrainingConfig(),
                    ctx.seed,
                    {**spec.head_pools, taps[0]: window},
                ),
            )
            if features is None:  # the same taps for every window
                features = cdln.extract_features(train.images)
            cdln.fit_linear_classifiers(train.images, train.labels, features=features)
            ev = evaluate_cdln(cdln, test, delta=DELTA)
            head_ops = cdln.linear_stages[0].classifier.op_cost().total
            rows[(arch, window)] = (ev.accuracy, ev.normalized_ops, head_ops)
            default = " (default)" if window == spec.head_pools.get(taps[0], 1) else ""
            table.add_row([
                arch, f"{window}x{window}{default}", head_ops,
                round(ev.accuracy * 100, 2), round(ev.normalized_ops, 3),
            ])
            metrics[f"accuracy_{arch}_w{window}"] = ev.accuracy
            metrics[f"normalized_ops_{arch}_w{window}"] = ev.normalized_ops
    return BenchResult(metrics=metrics, text=table.render(), payload=rows)


@bench_o1_head_pool.check
def _check_o1_head_pool(res: BenchResult) -> None:
    rows = res.payload
    dense_acc, dense_ops, dense_head = rows[("mnist_3c", 1)]
    pooled_acc, pooled_ops, pooled_head = rows[("mnist_3c", 2)]
    # MNIST_3C's default: the 2x2 pool makes O1's head cheaper, the
    # cascade cheaper on average, and costs at most half a point.
    assert pooled_head < dense_head
    assert pooled_ops < dense_ops
    assert pooled_acc >= dense_acc - 0.005


def _small_model(rng):
    return Network(
        [Flatten(), Dense(10, activation="softmax")],
        input_shape=(1, 28, 28),
        rng=rng,
    )


@benchmark(
    "ablation_scalable_effort",
    group=GROUP,
    title="Ablation -- CDL vs independent scalable-effort cascade",
    rounds=2,
    tolerances={
        "accuracy_scalable_effort": _ACC,
        "accuracy_cdl": _ACC,
        "normalized_ops_scalable_effort": _OPS,
        "normalized_ops_cdl": _OPS,
        "deep_overhead_ratio": Tolerance(rel=0.5),
    },
)
def bench_scalable_effort(ctx: BenchContext) -> BenchResult:
    train, test = get_datasets(ctx.scale, ctx.seed)
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed)

    # Independent cascade: a linear model, then the full CNN.
    small = _small_model(ctx.seed)
    Trainer(
        small, loss="softmax_cross_entropy", optimizer=Adam(0.01), rng=ctx.seed
    ).fit(train.images, train.labels, epochs=3)
    cascade = ScalableEffortCascade(
        [small, trained.baseline],
        ActivationModule(delta=DELTA, policy="score_threshold"),
    )
    se = cascade.evaluate(test, delta=DELTA)
    cdl = evaluate_cdln(trained.cdln, test, delta=DELTA)
    # Overhead paid by an input that travels the whole chain, relative to
    # just running the big model: SE re-pays every upstream model in full,
    # CDL only pays its (feature-reusing) linear classifiers.
    se_deep_overhead = float(cascade.stage_costs()[-1]) - se.baseline_ops
    cdl_costs = cdl.ops.costs
    cdl_deep_overhead = float(
        cdl_costs.exit_totals()[-1] - cdl_costs.baseline_cost.total
    )
    rows = {
        "scalable_effort": (se.accuracy, se.average_ops, se.baseline_ops),
        "cdl": (cdl.accuracy, cdl.ops.average_ops, cdl.ops.baseline_ops),
        "deep_overhead": (se_deep_overhead, cdl_deep_overhead),
    }
    table = AsciiTable(
        ["system", "accuracy (%)", "avg OPS", "normalized", "deep-path overhead"],
        title="Ablation -- CDL vs independent scalable-effort cascade",
    )
    overheads = {"scalable_effort": se_deep_overhead, "cdl": cdl_deep_overhead}
    for name in ("scalable_effort", "cdl"):
        acc, ops, base = rows[name]
        table.add_row(
            [name, round(acc * 100, 2), int(ops), round(ops / base, 3),
             int(overheads[name])]
        )
    metrics = {
        "accuracy_scalable_effort": se.accuracy,
        "accuracy_cdl": cdl.accuracy,
        "normalized_ops_scalable_effort": se.average_ops / se.baseline_ops,
        "normalized_ops_cdl": cdl.ops.average_ops / cdl.ops.baseline_ops,
        "deep_overhead_ratio": cdl_deep_overhead / se_deep_overhead,
    }
    return BenchResult(metrics=metrics, text=table.render(), payload=rows)


@bench_scalable_effort.check
def _check_scalable_effort(res: BenchResult) -> None:
    rows = res.payload
    se_deep_overhead, cdl_deep_overhead = rows["deep_overhead"]
    se_acc, se_ops, se_base = rows["scalable_effort"]
    cdl_acc, cdl_ops, cdl_base = rows["cdl"]
    # Both approaches save work vs running the big model on everything.
    assert cdl_ops < cdl_base
    assert se_ops < se_base * 1.2
    # CDL never trades accuracy away against the independent cascade: its
    # exits use learned CNN features rather than a raw-pixel model.
    assert cdl_acc >= se_acc - 0.02
    # The structural advantage of sharing the trunk: an input that travels
    # the whole CDL cascade only re-pays the small linear classifiers,
    # while the independent cascade re-pays its entire upstream model.
    assert cdl_deep_overhead < se_deep_overhead * 1.5
