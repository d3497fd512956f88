"""Exact plan timing by value-independent abstract replay.

The analytic rate model (:mod:`repro.hardware.timing`) is good enough to
rank candidates inside the search loop but only ~5% accurate on absolute
cycles.  The *shipped* prediction has to be exact: the acceptance contract
is that the plan's predicted steady-state interval equals the simulated
interval of the planned partitioning bit-for-bit.

That exactness is free here because kernel scheduling is completely
value-independent (the same property the §III-B5 skip solver and the leap
scheduler's periodicity proof rest on): the cycle at which any kernel
consumes or emits depends only on tensor geometry.  So one timing-only run
of the real pipeline (no element values at all) reads the sink's
completion instants — the identical schedule any real run of the same
geometry walks, at a fraction of the compute.  No search-loop candidate is ever replayed; only the winner (and,
in tests, its neighbors) pays this cost.
"""

from __future__ import annotations

from ..dataflow.interval import exact_completion_period
from ..dataflow.links import MAXRING, LinkSpec
from ..nn.graph import LayerGraph
from .plan import PredictedTiming

__all__ = ["PREDICT_IMAGES", "predict_partition_timing"]

# Images the predictor replays.  Four gives three completion gaps — enough
# for `exact_completion_period` to certify a steady-state period — while
# keeping the replay a few pipeline fills long.  Tests that compare against
# a real simulation must stream the same count (the mean interval is
# count-dependent; the exact period is not).
PREDICT_IMAGES = 4


def predict_partition_timing(
    graph: LayerGraph,
    partition: list[list[str]],
    *,
    link: LinkSpec = MAXRING,
    fclk_mhz: float = 105.0,
    n_images: int = PREDICT_IMAGES,
    max_cycles: int = 500_000_000,
) -> PredictedTiming:
    """Exact interval/latency of ``partition`` via one timing-only run.

    Bit-equal to a real ``simulate(...)`` of the same partition and image
    count in any mode (exhaustive/fast/leap) — tested property.  The run
    (:func:`~repro.dataflow.manager.timing_run`) is cached on the graph.
    """
    from ..dataflow.manager import timing_run

    run = timing_run(
        graph,
        n_images,
        partition=partition,
        link=link,
        fclk_mhz=fclk_mhz,
        max_cycles=max_cycles,
    )
    return PredictedTiming(
        n_images=n_images,
        replay_cycles=run.cycles,
        latency_cycles=run.latency_cycles,
        completion_cycles=run.completion_cycles,
        interval=run.interval,
        period=exact_completion_period(run.completion_cycles),
        segments=run.segments,
    )
