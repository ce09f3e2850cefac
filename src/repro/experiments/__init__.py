"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(scale=..., seed=...) -> <Result>`` where the
result object carries the measured series plus a ``render()`` method that
prints the same rows/series the paper reports.  ``common`` caches the
trained baseline/CDLN pairs so the whole suite trains each network once,
and hands out digit sets for as long as a caller or a
``holding_datasets()`` scope holds them.

========  =========================================  =========================
ID        Paper result                               Module
========  =========================================  =========================
Fig. 5    normalized OPS per digit                   ``fig5_ops``
Fig. 6    normalized energy per digit                ``fig6_energy``
Table III accuracy baseline vs CDLN                  ``table3_accuracy``
Fig. 7    accuracy vs number of output layers        ``fig7_accuracy_stages``
Fig. 8    energy vs input difficulty / FC fraction   ``fig8_difficulty``
Table IV  example images per exit stage              ``table4_examples``
Fig. 9    OPS vs number of stages (break-even)       ``fig9_stage_sweep``
Fig. 10   efficiency/accuracy tradeoff vs delta      ``fig10_delta_sweep``
========  =========================================  =========================
"""

from repro.experiments.common import (
    Scale,
    clear_cache,
    get_datasets,
    get_trained,
    holding_datasets,
)

__all__ = ["Scale", "clear_cache", "get_datasets", "get_trained", "holding_datasets"]
