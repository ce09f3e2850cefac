"""Hot-path benches: compute dtype and the δ-sweep score cache.

The overhaul's two wins, each timed and agreement-checked.  Bodies and
checks: ``repro.bench.suites.hotpath``.
"""


def test_hotpath_dtype_inference(run_spec):
    run_spec("hotpath_dtype_inference")


def test_hotpath_sweep_cache(run_spec):
    run_spec("hotpath_sweep_cache")
