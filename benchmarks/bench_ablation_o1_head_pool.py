"""Ablation: average-pooling the O1 head's tap (1x1, 2x2, 3x3).

MNIST_3C's 2x2 default must cut the cascade's mean OPS against the dense
head at no more than half a point of accuracy.  Body and check:
``repro.bench.suites.ablations``.
"""


def test_ablation_o1_head_pool(run_spec):
    run_spec("ablation_o1_head_pool")
