"""Substrate micro-benchmarks: raw throughput of the numpy DL framework.

Not paper figures -- these keep the library's own performance honest.
Wall-clock throughput lives in the artifact's timing section (derived from
``units``); the gated metrics are the deterministic quantities each run
also produces (shapes, accuracy of the conditional path), so the compare
gate never fails on runner jitter.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import BenchContext, BenchResult, benchmark, Tolerance
from repro.cdl.architectures import mnist_2c, mnist_3c
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.nn import Adam, Trainer

GROUP = "substrate"

#: Per-tier inference batch so the tiny tier stays sub-second per round.
_INFER_TIERS = {
    "tiny": {"batch": 128},
    "small": {"batch": 256},
    "full": {"batch": 512},
}


def _inference_bench(net_factory):
    def body(ctx: BenchContext) -> BenchResult:
        batch = int(ctx.params.get("batch", 256))
        net, _ = net_factory(rng=ctx.seed)
        images = np.random.default_rng(ctx.seed).random((batch, 1, 28, 28))
        out = net.predict(images)
        return BenchResult(
            metrics={"mean_max_prob": float(out.max(axis=1).mean())},
            units=float(batch),
            payload=out,
        )

    return body


bench_2c_inference = benchmark(
    "substrate_mnist_2c_inference",
    group=GROUP,
    title="Substrate -- MNIST_2C forward pass",
    rounds=5,
    tiers=_INFER_TIERS,
    tolerances={"mean_max_prob": Tolerance(abs=0.05)},
)(_inference_bench(mnist_2c))


@bench_2c_inference.check
def _check_2c_inference(res: BenchResult) -> None:
    assert res.payload.shape[1] == 10


bench_3c_inference = benchmark(
    "substrate_mnist_3c_inference",
    group=GROUP,
    title="Substrate -- MNIST_3C forward pass",
    rounds=5,
    tiers=_INFER_TIERS,
    tolerances={"mean_max_prob": Tolerance(abs=0.05)},
)(_inference_bench(mnist_3c))


@bench_3c_inference.check
def _check_3c_inference(res: BenchResult) -> None:
    assert res.payload.shape[1] == 10


@benchmark(
    "substrate_mnist_3c_training_epoch",
    group=GROUP,
    title="Substrate -- MNIST_3C training epoch",
    tiers={"tiny": {"batch": 128}, "small": {"batch": 256}, "full": {"batch": 512}},
    tolerances={"final_loss": Tolerance(rel=0.5)},
)
def bench_training_epoch(ctx: BenchContext) -> BenchResult:
    batch = int(ctx.params.get("batch", 256))
    images = np.random.default_rng(ctx.seed).random((batch, 1, 28, 28))
    labels = np.random.default_rng(ctx.seed + 1).integers(0, 10, batch)
    net, _ = mnist_3c(rng=ctx.seed)
    trainer = Trainer(
        net, loss="softmax_cross_entropy", optimizer=Adam(0.005), rng=ctx.seed
    )
    history = trainer.fit(images, labels, epochs=1)
    return BenchResult(
        metrics={"final_loss": float(history.epochs[-1].train_loss)},
        units=float(batch),
        payload=history,
    )


@bench_training_epoch.check
def _check_training_epoch(res: BenchResult) -> None:
    assert len(res.payload.epochs) == 1


@benchmark(
    "substrate_synthetic_generation",
    group=GROUP,
    title="Substrate -- synthetic MNIST generation",
    tiers={"tiny": {"samples": 100}, "small": {"samples": 200},
           "full": {"samples": 500}},
    tolerances={"num_samples": Tolerance()},
)
def bench_synthetic_generation(ctx: BenchContext) -> BenchResult:
    samples = int(ctx.params.get("samples", 200))
    dataset = generate_synthetic_mnist(samples, rng=ctx.seed)
    return BenchResult(
        metrics={"num_samples": float(len(dataset))},
        units=float(samples),
        payload=dataset,
    )


@bench_synthetic_generation.check
def _check_synthetic_generation(res: BenchResult) -> None:
    assert len(res.payload) > 0


@benchmark(
    "substrate_conditional_inference",
    group=GROUP,
    title="Substrate -- conditional inference wall-clock",
    tolerances={"accuracy": Tolerance(abs=0.03)},
)
def bench_conditional_inference(ctx: BenchContext) -> BenchResult:
    """Conditional inference should be cheaper in wall-clock too, not just
    in modelled OPS: time the CDLN's batched predict on the test set."""
    from repro.experiments.common import get_datasets, get_trained

    _train, test = get_datasets(ctx.scale, ctx.seed)
    trained = get_trained("mnist_3c", ctx.scale, ctx.seed)
    result = trained.cdln.predict(test.images, delta=0.6)
    accuracy = float((result.labels == test.labels).mean())
    return BenchResult(
        metrics={"accuracy": accuracy},
        units=float(len(test)),
        payload=result,
    )


@bench_conditional_inference.check
def _check_conditional_inference(res: BenchResult) -> None:
    assert (res.payload.labels >= 0).all()
