"""Open-loop load generation: arrival processes, offered-vs-achieved FPS.

The paper evaluates its accelerator the way FINN and Blott et al.'s scaling
study do — latency/throughput trade-off curves under a sustained request
stream — while a plain ``simulate`` call streams images back-to-back (a
closed loop that can never expose queueing).  This module injects images at
a **target rate** instead: a deterministic arrival schedule (fixed-rate or
Poisson via an injected seeded RNG) feeds the host source's open-loop mode,
and the run reports offered vs achieved FPS, host-queue depth, and the full
per-image latency distribution from :mod:`repro.telemetry.latency`.

:func:`sweep` runs a ladder of rates and emits the FINN-style
latency-throughput curve as JSON (schema ``repro-load-sweep/1``): as the
offered rate approaches the pipeline's steady-state capacity, achieved FPS
saturates and tail latency grows without bound — the knee of that curve is
the serving capacity the ROADMAP's north star cares about.

Everything is deterministic given (images, rate, seed): the schedule is
pure arithmetic over a seeded RNG and the simulator is cycle-exact, so two
runs produce bit-identical percentiles — a CI-testable property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .latency import LatencyReport, latency_report

if TYPE_CHECKING:
    from ..nn.graph import LayerGraph

__all__ = [
    "ArrivalSchedule",
    "LoadResult",
    "cycles_per_image",
    "fixed_rate_schedule",
    "make_schedule",
    "poisson_schedule",
    "run_load",
    "spawn_poisson_schedules",
    "sweep",
]

DEFAULT_FCLK_MHZ = 105.0


def cycles_per_image(rate_fps: float, fclk_mhz: float = DEFAULT_FCLK_MHZ) -> float:
    """Mean inter-arrival gap in fabric cycles for a target FPS."""
    if not (math.isfinite(rate_fps) and rate_fps > 0):
        raise ValueError(f"rate must be a finite FPS > 0, got {rate_fps!r}")
    return fclk_mhz * 1e6 / rate_fps


@dataclass(slots=True)
class ArrivalSchedule:
    """A deterministic open-loop arrival process."""

    kind: str  # "fixed" | "poisson"
    rate_fps: float  # offered rate
    fclk_mhz: float
    seed: int | None  # None for the (seedless) fixed process
    cycles: list[int]  # non-decreasing arrival cycle per image

    @property
    def n_images(self) -> int:
        return len(self.cycles)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "rate_fps": self.rate_fps,
            "fclk_mhz": self.fclk_mhz,
            "seed": self.seed,
            "cycles": list(self.cycles),
        }


def fixed_rate_schedule(
    n_images: int, rate_fps: float, fclk_mhz: float = DEFAULT_FCLK_MHZ
) -> ArrivalSchedule:
    """Image *i* arrives at ``round(i * gap)`` — a metronome at the target rate."""
    gap = cycles_per_image(rate_fps, fclk_mhz)
    cycles = [round(i * gap) for i in range(n_images)]
    return ArrivalSchedule("fixed", float(rate_fps), float(fclk_mhz), None, cycles)


def poisson_schedule(
    n_images: int,
    rate_fps: float,
    seed: int,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
    rng: np.random.Generator | None = None,
) -> ArrivalSchedule:
    """Exponential inter-arrival gaps from a seeded (or injected) RNG.

    The first image arrives at cycle 0; subsequent gaps are drawn from
    ``Exp(mean = gap cycles)``.  Passing ``rng`` overrides the seed (for
    property tests that want to drive the process directly).
    """
    gap = cycles_per_image(rate_fps, fclk_mhz)
    generator = rng if rng is not None else np.random.default_rng(seed)
    gaps = generator.exponential(gap, size=max(0, n_images - 1))
    cycles = [0]
    at = 0.0
    for g in gaps:
        at += float(g)
        cycles.append(round(at))
    return ArrivalSchedule("poisson", float(rate_fps), float(fclk_mhz), seed, cycles[:n_images])


def spawn_poisson_schedules(
    n_replicas: int,
    n_images: int,
    rate_fps: float,
    seed: int,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
) -> list[ArrivalSchedule]:
    """One *independent* Poisson arrival stream per replica, from one seed.

    Seeding N replicas with the same integer (``poisson_schedule(..,
    seed)`` N times) replays the identical exponential gap sequence on
    every replica: all queues fill and drain in lockstep, which understates
    queueing relative to genuinely independent traffic — exactly the bias a
    fleet capacity answer must not carry.  This helper derives one child
    stream per replica via :meth:`numpy.random.SeedSequence.spawn`, the
    construction NumPy guarantees to be statistically independent, while
    staying fully deterministic given ``(n_replicas, n_images, rate, seed)``.

    ``rate_fps`` is the *per-replica* offered rate; the returned schedules
    are indexed by replica.
    """
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas!r}")
    children = np.random.SeedSequence(seed).spawn(n_replicas)
    schedules = []
    for child in children:
        sched = poisson_schedule(
            n_images, rate_fps, seed, fclk_mhz, rng=np.random.default_rng(child)
        )
        schedules.append(sched)
    return schedules


def make_schedule(
    n_images: int,
    rate_fps: float,
    process: str = "fixed",
    seed: int = 0,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
) -> ArrivalSchedule:
    """Dispatch on the process name (``fixed`` | ``poisson``)."""
    if process == "fixed":
        return fixed_rate_schedule(n_images, rate_fps, fclk_mhz)
    if process == "poisson":
        return poisson_schedule(n_images, rate_fps, seed, fclk_mhz)
    raise ValueError(f"arrival process must be 'fixed' or 'poisson', got {process!r}")


@dataclass(slots=True)
class LoadResult:
    """One open-loop run at one offered rate."""

    schedule: ArrivalSchedule
    cycles: int
    report: LatencyReport
    offered_fps: float
    achieved_fps: float | None  # None with < 2 completions
    queue_depth_peak: int
    aborted: bool
    abort_message: str | None

    def slo_violated(self, p99_cycles: int) -> bool:
        """True when the run misses a p99 *sojourn*-latency SLO (or aborted).

        Sojourn (arrival to completion) is what a client experiences: under
        overload the fabric back-pressures admission, so service latency
        stays flat while the host queue absorbs the excess — only sojourn
        exposes an undersized topology.  A run with no completed images
        cannot demonstrate SLO compliance, so it counts as a violation
        rather than a vacuous pass.
        """
        p99 = self.report.sojourn.p99
        return self.aborted or p99 is None or p99 > p99_cycles

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-load/1",
            "schedule": self.schedule.as_dict(),
            "cycles": self.cycles,
            "offered_fps": self.offered_fps,
            "achieved_fps": self.achieved_fps,
            "queue_depth_peak": self.queue_depth_peak,
            "aborted": self.aborted,
            "abort_message": self.abort_message,
            "latency": self.report.as_dict(),
        }

    def render(self) -> str:
        achieved = f"{self.achieved_fps:,.1f}" if self.achieved_fps is not None else "n/a"
        status = " ABORTED" if self.aborted else ""
        lines = [
            f"load {self.report.graph_name}:{status} offered {self.offered_fps:,.1f} FPS "
            f"({self.schedule.kind}), achieved {achieved} FPS, "
            f"peak host queue {self.queue_depth_peak} image(s)"
        ]
        lines.append(self.report.render())
        return "\n".join(lines)


def _queue_depth_peak(schedule: ArrivalSchedule, admissions: list[int]) -> int:
    """Peak count of images arrived but not yet admitted, over all admissions."""
    peak = 0
    for i, admitted_at in enumerate(admissions):
        arrived = sum(1 for a in schedule.cycles if a <= admitted_at)
        waiting = arrived - (i + 1)  # image i just left the queue
        if waiting > peak:
            peak = waiting
    return peak


def run_load(
    graph: "LayerGraph",
    images: np.ndarray,
    *,
    rate_fps: float,
    process: str = "fixed",
    seed: int = 0,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
    fast: bool = True,
    max_cycles: int = 50_000_000,
    partition: list[list[str]] | None = None,
    use_bitops: bool = False,
    skip_sizing: "str | dict[str, int]" = "exact",
) -> LoadResult:
    """Stream ``images`` through ``graph`` at a target offered rate.

    A non-converging run (deadlock, or a rate so far beyond capacity the
    cycle budget runs out) does not propagate: the per-image records of the
    images that *did* complete are exactly what the latency report needs,
    and the result carries the abort message and an SLO-violating verdict.
    """
    from ..dataflow.manager import build_pipeline

    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    schedule = make_schedule(int(images.shape[0]), rate_fps, process, seed, fclk_mhz)
    pipeline = build_pipeline(
        graph,
        images,
        use_bitops=use_bitops,
        partition=partition,
        fclk_mhz=fclk_mhz,
        skip_sizing=skip_sizing,
        arrival_cycles=schedule.cycles,
    )
    aborted = False
    abort_message: str | None = None
    try:
        cycles = pipeline.engine.run(
            lambda: pipeline.sink.done, max_cycles=max_cycles, fast=fast
        )
    except RuntimeError as err:
        aborted = True
        abort_message = str(err)
        cycles = max_cycles
    report = latency_report(pipeline, cycles)
    completions = pipeline.sink.completion_cycles
    achieved: float | None = None
    if len(completions) >= 2 and completions[-1] > completions[0]:
        achieved = (len(completions) - 1) / (completions[-1] - completions[0]) * fclk_mhz * 1e6
    return LoadResult(
        schedule=schedule,
        cycles=cycles,
        report=report,
        offered_fps=float(rate_fps),
        achieved_fps=achieved,
        queue_depth_peak=_queue_depth_peak(schedule, pipeline.source.admission_cycles),
        aborted=aborted,
        abort_message=abort_message,
    )


def sweep(
    graph: "LayerGraph",
    images: np.ndarray,
    rates: list[float],
    *,
    process: str = "fixed",
    seed: int = 0,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
    fast: bool = True,
    max_cycles: int = 50_000_000,
    partition: list[list[str]] | None = None,
) -> dict[str, Any]:
    """The FINN-style latency-throughput curve: one open-loop run per rate.

    Returns a JSON-serialisable object (schema ``repro-load-sweep/1``) with
    one point per offered rate: achieved FPS, exact p50/p95/p99/max service
    latency, host-queue peak, and the abort flag for rates beyond capacity.
    """
    if not rates:
        raise ValueError("sweep needs at least one offered rate")
    from .manifest import run_manifest

    points: list[dict[str, Any]] = []
    for rate in rates:
        result = run_load(
            graph,
            images,
            rate_fps=rate,
            process=process,
            seed=seed,
            fclk_mhz=fclk_mhz,
            fast=fast,
            max_cycles=max_cycles,
            partition=partition,
        )
        service = result.report.service
        points.append(
            {
                "offered_fps": result.offered_fps,
                "achieved_fps": result.achieved_fps,
                "images_completed": result.report.n_images,
                "p50_cycles": service.p50,
                "p95_cycles": service.p95,
                "p99_cycles": service.p99,
                "max_cycles": service.max,
                "queue_wait_p99_cycles": result.report.queue_wait.p99,
                "queue_depth_peak": result.queue_depth_peak,
                "run_cycles": result.cycles,
                "aborted": result.aborted,
            }
        )
    return {
        "schema": "repro-load-sweep/1",
        "graph": graph.name,
        "process": process,
        "seed": seed,
        "fclk_mhz": fclk_mhz,
        "images": int(np.asarray(images).shape[0] if np.asarray(images).ndim == 4 else 1),
        "manifest": run_manifest(graph, seed=seed, fclk_mhz=fclk_mhz),
        "points": points,
    }
