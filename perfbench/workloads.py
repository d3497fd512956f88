"""The benchmark's three workloads, driven through the library's public calls.

Each workload has its public entry point (the call a user makes:
``simulate`` or ``simulate_fleet``) and a composition that makes the same
calls layer by layer, each inside a ``span``.  The traced runs pass a span
recorder and check the composition against the public call on every
repetition, so the benchmark cannot drift from the program; the
end-to-end runs time the composition with the host's speed sampled all
through it (``spans.Probes``).

* ``resnet-live`` — ResNet-18 topology at 32x32, width 0.25, planned onto 2
  DFEs for minimum latency, re-verified, simulated closed-loop on the live
  fast scheduler.  Stresses ``Engine.run``, streams, skip adders and the
  MaxRing crossing; set-up is the planner replay and the skip solver.
* ``vgg-leap`` — VGG-like at 32x32, width 0.25, 256 images closed-loop under
  the leap scheduler.  Stresses the leap controller and the batched value
  pass; the planner and skip solver are bypassed.
* ``fleet-open`` — 2x vgg:32:0.25 + 2x resnet18:32:0.25 behind a JSQ router,
  Poisson arrivals at 75% of profiled capacity.  Stresses open-loop
  idle/wake handling, per-image latency records and routing; the traced
  run also times the 2-worker process pool against the serial path.

Input values come from the run's seed; everything the schedule depends on
(geometry, image counts, the fleet's arrival times) is fixed, so every
simulated cycle count is identical across seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Protocol

import numpy as np

from repro.dataflow.engine import RunResult
from repro.dataflow.interval import mean_completion_interval
from repro.dataflow.leap import LeapController, LeapReport, batch_reference_outputs
from repro.dataflow.manager import Pipeline, StreamingRun, build_pipeline, simulate
from repro.dataflow.verify import check_skip_high_water, solve_skip_capacities, verify
from repro.fleet import (
    FleetConfig,
    FleetReport,
    ReplicaSpec,
    fleet_capacity_fps,
    parse_mix,
    plan_fleet,
    profile_replica,
    simulate_fleet,
)
from repro.fleet import fleet as fleet_module
from repro.hardware.timing import estimate_network_timing
from repro.kernels.conv import ConvKernel
from repro.kernels.elementwise import AddKernel
from repro.kernels.pooling import MaxPoolKernel
from repro.kernels.reduce import GlobalAvgSumKernel
from repro.kernels.threshold import ThresholdKernel
from repro.models import direct_resnet18_graph, direct_vgg_graph
from repro.nn.graph import LayerGraph
from repro.nn.inference import run_graph
from repro.planner import plan_partition, predict_partition_timing
from repro.telemetry.latency import latency_report



class Span(Protocol):
    """A recorder from ``spans``: ``with span("layer"): ...`` and ``span.watch(done)``."""

    def __call__(self, name: str) -> ContextManager[Any]: ...

    def watch(self, done: Callable[[], bool]) -> Callable[[], bool]: ...


KERNEL_KINDS: dict[type, str] = {
    ConvKernel: "conv",
    ThresholdKernel: "threshold",
    AddKernel: "add",
    MaxPoolKernel: "pool",
    GlobalAvgSumKernel: "pool",
}


@dataclass
class Call:
    """One checked call: its simulated work, exact numbers and failures."""

    images: int
    cycles: int
    exact: dict[str, Any]
    problems: list[str]
    seed: int
    output: Any  # a digest checked against run_graph by `check_outputs`, after timing
    seconds: float = 0.0
    reference_seconds: float = 0.0  # `seconds` at the reference host speed (spans.Probes)


@dataclass
class Setup:
    """What set-up hands to the timed phase."""

    graph: LayerGraph | None = None
    partition: list[list[str]] | None = None
    predicted: Any = None
    config: FleetConfig | None = None
    candidates_scored: int = 0
    problems: list[str] = field(default_factory=list)


def pipeline_counts(
    pipelines: list[Pipeline], leap: LeapReport | None, cycles: int
) -> dict[str, Any]:
    """Simulated per-layer counts, summed over ``pipelines``.

    Every value here is a property of the modelled design or of the
    scheduler's decisions, so a simulator-only change must leave it
    bit-identical.
    """
    counts: dict[str, Any] = {
        f"kernels.{kind}.{what}_cycles": 0
        for kind in ("conv", "threshold", "add", "pool")
        for what in ("active", "starved", "blocked")
    }
    pushes = rejects = skip_occupancy = 0
    demoted = 0
    for pipeline in pipelines:
        for kernel in pipeline.engine.kernels:
            kind = KERNEL_KINDS.get(type(kernel))
            if kind is None:
                continue
            stats = kernel.stats
            counts[f"kernels.{kind}.active_cycles"] += stats.active_cycles
            counts[f"kernels.{kind}.starved_cycles"] += stats.input_starved_cycles
            counts[f"kernels.{kind}.blocked_cycles"] += stats.output_blocked_cycles
        for stream in pipeline.engine.streams:
            pushes += stream.stats.pushes
            rejects += stream.stats.full_rejections
        skip_occupancy += sum(s.stats.max_occupancy for s in pipeline.skip_streams.values())
        demoted |= LeapController.ineligibility(pipeline.engine) is not None
    leaped = leap.leaped_cycles if leap is not None else 0
    counts.update(
        {
            "stream.pushes": pushes,
            "stream.reject_ratio": rejects / (pushes + rejects) if pushes + rejects else 0.0,
            "stream.skip_max_occupancy": skip_occupancy,
            "leap.leaps": leap.leaps if leap is not None else 0,
            "leap.windows": leap.windows if leap is not None else 0,
            "leap.vetoes": leap.vetoes if leap is not None else 0,
            "leap.leaped_ratio": leaped / cycles if cycles else 0.0,
            "leap.demoted": int(demoted),
        }
    )
    return counts


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


def abs_err_pct(analytic: float, simulated: float) -> float:
    return 100.0 * abs(analytic - simulated) / simulated


class ClosedLoop:
    """One graph, one image batch, streamed back to back through ``simulate``."""

    def __init__(
        self,
        name: str,
        build: Callable[[], LayerGraph],
        n_images: int,
        mode: str,
        n_dfes: int | None,
    ) -> None:
        self.name = name
        self.build = build
        self.n_images = n_images
        self.mode = mode
        self.n_dfes = n_dfes
        self.images: dict[int, np.ndarray] = {}
        self.reference: dict[int, np.ndarray] = {}

    def prepare(self, seeds: tuple[int, ...]) -> None:
        """Generate each seed's images."""
        spec = self.build().input_spec
        for seed in seeds:
            rng = np.random.default_rng(seed)
            self.images[seed] = rng.integers(
                0, 1 << spec.bits, size=(self.n_images, spec.height, spec.width, spec.channels)
            )

    def setup(self, span: Span, seed: int) -> Setup:
        setup = Setup()
        with span("models.build"):
            setup.graph = graph = self.build()
        if self.n_dfes is not None:
            with span("planner.search"):
                plan = plan_partition(
                    graph, objective="min-latency", n_dfes=self.n_dfes, predict=False
                )
            setup.partition = plan.groups
            setup.candidates_scored = plan.candidates_scored
            # Solved before the replay so the solver's (cached) cost lands
            # in its own span rather than inside the replay's build.
            with span("verify.skip_solve"):
                solve_skip_capacities(graph, partition=setup.partition)
            with span("planner.replay"):
                setup.predicted = predict_partition_timing(graph, setup.partition)
            with span("verify.check"):
                report = verify(graph, partition=setup.partition)
            setup.problems += [
                f"verify {d.code} {d.where}: {d.message}"
                for d in report.diagnostics
                if d.severity in ("error", "warning")
            ]
        with span("manager.build_pipeline"):
            build_pipeline(graph, self.images[seed], partition=setup.partition)
        return setup

    def reference_call(self, setup: Setup, seed: int) -> StreamingRun:
        return simulate(setup.graph, self.images[seed], partition=setup.partition, mode=self.mode)

    pooled_call = None  # no process pool on this workload

    def composed(self, setup: Setup, seed: int, span: Span) -> tuple[StreamingRun, list[Pipeline]]:
        """``simulate`` made call by call (same order, same arguments)."""
        images = self.images[seed]
        with span("manager.build_pipeline"):
            pipeline = build_pipeline(setup.graph, images, partition=setup.partition)
        with span("leap.setup"):
            controller = LeapController.for_engine(pipeline.engine) if self.mode == "leap" else None
        with span("engine.run"):
            cycles = pipeline.engine.run(span.watch(lambda: pipeline.sink.done), leap=controller)
        if pipeline.skip_streams:
            with span("verify.high_water"):
                check_skip_high_water(pipeline, n_images=len(images))
        with span("manager.output"):
            kstats, sstats = pipeline.engine.collect_stats()
            output = pipeline.sink.output_tensor()
        leap = controller.report if controller is not None else None
        if leap is not None and leap.windows > 0:
            with span("leap.batch_outputs"):
                output = batch_reference_outputs(pipeline, images)
        run = RunResult(
            cycles=cycles,
            completion_cycles=pipeline.sink.completion_cycles,
            output=output,
            kernel_stats=kstats,
            stream_stats=sstats,
            converged=True,
        )
        result = StreamingRun(
            output=output, cycles=cycles, run=run, pipeline=pipeline, leap_report=leap
        )
        return result, [pipeline]

    def post(self, result: StreamingRun, span: Span) -> None:
        with span("latency.report"):
            latency_report(result.pipeline, result.cycles)

    def check(self, setup: Setup, result: StreamingRun, seed: int) -> Call:
        problems = []
        completions = result.run.completion_cycles
        if len(completions) != self.n_images:
            problems.append(f"{len(completions)}/{self.n_images} images completed")
        if setup.predicted is not None and (
            result.latency_cycles != setup.predicted.latency_cycles
            or result.steady_state_interval != setup.predicted.interval
        ):
            problems.append(
                f"simulated latency/interval {result.latency_cycles}/"
                f"{result.steady_state_interval} != planner prediction "
                f"{setup.predicted.latency_cycles}/{setup.predicted.interval}"
            )
        leap = result.leap_report
        if self.mode == "leap" and (leap is None or leap.leaps < 1):
            problems.append("leap never engaged")
        report = latency_report(result.pipeline, result.cycles)
        leaped = leap.leaped_cycles if leap is not None else 0
        exact = {
            "cycles": result.cycles,
            "completions": list(completions),
            "sim_interval_cycles": result.steady_state_interval,
            "sim_latency_cycles": result.latency_cycles,
            "sim_p99_sojourn_cycles": report.sojourn.p99,
            "engine.live_cycles": result.cycles - leaped,
            "latency.queue_wait_p99_cycles": report.queue_wait.p99,
            **pipeline_counts([result.pipeline], leap, result.cycles),
        }
        return Call(
            images=self.n_images,
            cycles=result.cycles,
            exact=exact,
            problems=problems,
            seed=seed,
            output=digest(result.output),
        )

    def references(self) -> None:
        """Run ``run_graph`` on each seed's images, for `check_outputs`."""
        graph = self.build()
        for seed, images in self.images.items():
            self.reference[seed] = run_graph(graph, images).output

    def check_outputs(self, calls: list[Call]) -> None:
        """Compare every call's output with ``run_graph`` on the same images."""
        expected = {seed: digest(output) for seed, output in self.reference.items()}
        for call in calls:
            if call.output != expected[call.seed]:
                call.problems.append("streamed outputs differ from run_graph")

    def layer_counts(self, result: StreamingRun, pipelines: list[Pipeline]) -> dict[str, Any]:
        leap = result.leap_report
        return {
            "engine.live_cycles": result.cycles - (leap.leaped_cycles if leap is not None else 0),
            **pipeline_counts(pipelines, leap, result.cycles),
        }

    def same(self, program: StreamingRun, composed: StreamingRun) -> list[str]:
        if program.cycles != composed.cycles or not np.array_equal(program.output, composed.output):
            return ["composed call diverged from simulate() (cycles or outputs)"]
        return []

    def value_independence(self) -> list[str]:
        a, b = self.reference.values()
        if np.array_equal(a, b):
            return ["the two seeds produced identical outputs; values are not exercised"]
        return []

    def analytic(self, setup: Setup, exact: dict[str, Any]) -> tuple[float, float]:
        timing = estimate_network_timing(setup.graph, partition=setup.partition)
        return (
            abs_err_pct(timing.interval_cycles, exact["sim_interval_cycles"]),
            abs_err_pct(timing.latency_cycles, exact["sim_latency_cycles"]),
        )


class FleetOpen:
    """A heterogeneous fleet serving open-loop Poisson traffic via ``simulate_fleet``."""

    name = "fleet-open"
    mix = "vgg:32:0.25,vgg:32:0.25,resnet18:32:0.25,resnet18:32:0.25"
    n_requests = 32
    load = 0.75
    # The arrival times are part of the workload, not of its input values:
    # they are drawn from this fixed seed, and only the request images
    # follow the run's seed.  That keeps every cycle count seed-independent.
    arrival_seed = 0

    def __init__(self) -> None:
        self.specs = parse_mix(self.mix)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.graphs = {spec: spec.graph() for spec in dict.fromkeys(self.specs)}
        self.seeds: tuple[int, ...] = ()
        # Per seed and replica configuration: each request's output sum.
        self.reference: dict[tuple[int, ReplicaSpec], np.ndarray] = {}

    def prepare(self, seeds: tuple[int, ...]) -> None:
        self.seeds = seeds

    def setup(self, span: Span, seed: int) -> Setup:
        # Profiles are cached for the life of the process; a user's first
        # fleet run in a fresh process pays for them, so each set-up does.
        fleet_module._PROFILE_CACHE.clear()
        with span("fleet.profile"):
            capacity = fleet_capacity_fps(self.specs)
        config = FleetConfig(
            replicas=self.specs,
            rate_fps=self.load * capacity,
            n_requests=self.n_requests,
            policy="jsq",
            process="poisson",
            seed=self.arrival_seed,
            workers=self.workers,
        )
        return Setup(config=config)

    def _call(self, setup: Setup, seed: int, workers: int) -> FleetReport:
        assert setup.config is not None
        plan = plan_fleet(setup.config)
        config = dataclasses.replace(setup.config, seed=seed, workers=workers)
        return simulate_fleet(config, plan=dataclasses.replace(plan, config=config))

    def reference_call(self, setup: Setup, seed: int) -> FleetReport:
        # The end-to-end rates time the serial path: the pool's wall time
        # depends on whether the host grants the second CPU, which swung
        # it by 2x between otherwise identical sets of runs.  The pool is
        # timed and checked against this path in the traced run.
        return self._call(setup, seed, 0)

    def pooled_call(self, setup: Setup, seed: int) -> FleetReport:
        return self._call(setup, seed, self.workers)

    def composed(self, setup: Setup, seed: int, span: Span) -> tuple[FleetReport, list[Pipeline]]:
        """Routing plus the serial replica path, call by call."""
        assert setup.config is not None
        with span("fleet.route"):
            plan = plan_fleet(setup.config)
        config = dataclasses.replace(setup.config, seed=seed, workers=0)
        plan = dataclasses.replace(plan, config=config)
        replicas = []
        pipelines = []
        for index, spec in enumerate(config.replicas):
            with span("fleet.replica"):
                result, pipeline = self._composed_replica(
                    index, spec, plan.assignments[index], plan.fabric_arrivals[index], config, span
                )
            replicas.append(result)
            if pipeline is not None:
                pipelines.append(pipeline)
        return FleetReport(config=config, plan=plan, replicas=replicas), pipelines

    def _composed_replica(
        self,
        index: int,
        spec: ReplicaSpec,
        requests: list[int],
        arrivals: list[int],
        config: FleetConfig,
        span: Span,
    ) -> tuple[dict[str, Any], Pipeline | None]:
        result: dict[str, Any] = {
            "index": index,
            "spec": spec.as_dict(),
            "n_dispatched": len(requests),
            "n_completed": 0,
            "aborted": False,
            "abort_message": None,
            "achieved_fps": None,
            "cycles": 0,
            "output_checksum": None,
            "latency": None,
            "completions": [],
        }
        if not requests:
            return result, None
        with span("models.build"):
            graph = spec.graph()
        with span("inputs"):
            images = np.stack([self._image(config.seed, spec, request) for request in requests])
        with span("verify.skip_solve"):
            solve_skip_capacities(graph, fclk_mhz=config.fclk_mhz)
        with span("manager.build_pipeline"):
            pipeline = build_pipeline(
                graph, images, fclk_mhz=config.fclk_mhz, arrival_cycles=list(arrivals)
            )
        try:
            with span("engine.run"):
                cycles = pipeline.engine.run(
                    span.watch(lambda: pipeline.sink.done),
                    max_cycles=config.max_cycles,
                    fast=True,
                )
        except RuntimeError as err:
            result["aborted"] = True
            result["abort_message"] = str(err)
            cycles = config.max_cycles
        with span("latency.report"):
            report = latency_report(pipeline, cycles)
        completions = pipeline.sink.completion_cycles
        result["n_completed"] = len(completions)
        result["cycles"] = cycles
        result["latency"] = report.as_dict()
        result["completions"] = list(completions)
        if len(completions) >= 2 and completions[-1] > completions[0]:
            result["achieved_fps"] = (
                (len(completions) - 1)
                / (completions[-1] - completions[0])
                * config.fclk_mhz
                * 1e6
            )
        if not result["aborted"]:
            with span("manager.output"):
                result["output_checksum"] = int(pipeline.sink.output_tensor().sum())
        return result, pipeline

    def post(self, report: FleetReport, span: Span) -> None:
        pass

    def _image(self, seed: int, spec: ReplicaSpec, request: int) -> np.ndarray:
        # The fleet API derives each request's image from (seed, request)
        # inside its workers; the composed call and the run_graph
        # reference use that same derivation.
        ispec = self.graphs[spec].input_spec
        return fleet_module._request_image(seed, request, ispec.height, ispec.width, ispec.channels)

    def references(self) -> None:
        """Each request's ``run_graph`` output sum, per seed and replica configuration."""
        for seed in self.seeds:
            for spec, graph in self.graphs.items():
                images = np.stack([self._image(seed, spec, q) for q in range(self.n_requests)])
                self.reference[seed, spec] = run_graph(graph, images).output.sum(axis=(1, 2, 3))

    def check_outputs(self, calls: list[Call]) -> None:
        """Compare every replica's output checksum with ``run_graph`` on its requests."""
        specs = {spec.label(): spec for spec in self.graphs}
        for call in calls:
            for index, (label, requests, checksum) in enumerate(call.output):
                expected = int(self.reference[call.seed, specs[label]][requests].sum())
                if requests and checksum != expected:
                    call.problems.append(
                        f"replica {index} output checksum {checksum} != run_graph {expected}"
                    )

    def check(self, setup: Setup, report: FleetReport, seed: int) -> Call:
        agg = report.aggregate
        problems = []
        if not agg["conserved"]:
            problems.append(f"{agg['completed']}/{agg['requests']} requests completed")
        if agg["aborted_replicas"]:
            problems.append(f"{agg['aborted_replicas']} replica(s) aborted")
        merged = sorted(c for rep in report.replicas for c in rep["completions"])
        replica_cycles = [rep["cycles"] for rep in report.replicas]
        exact = {
            "cycles": agg["makespan_cycles"],
            "completions": merged,
            "replica_cycles": replica_cycles,
            "sim_interval_cycles": mean_completion_interval(merged),
            "sim_latency_cycles": agg["sojourn_cycles"]["p50"],
            "sim_p99_sojourn_cycles": agg["sojourn_cycles"]["p99"],
            "engine.live_cycles": sum(replica_cycles),
            "latency.queue_wait_p99_cycles": agg["queue_wait_cycles"]["p99"],
            "fleet.replica_imbalance": max(replica_cycles)
            / (sum(replica_cycles) / len(replica_cycles)),
            "fleet.ingress_utilization": report.plan.ingress_utilization,
        }
        output = [
            (spec.label(), list(report.plan.assignments[index]), rep["output_checksum"])
            for index, (spec, rep) in enumerate(zip(report.config.replicas, report.replicas))
        ]
        return Call(
            images=self.n_requests,
            cycles=agg["makespan_cycles"],
            exact=exact,
            problems=problems,
            seed=seed,
            output=output,
        )

    def layer_counts(self, report: FleetReport, pipelines: list[Pipeline]) -> dict[str, Any]:
        live = sum(rep["cycles"] for rep in report.replicas)
        return {"engine.live_cycles": live, **pipeline_counts(pipelines, None, live)}

    @staticmethod
    def same(program: FleetReport, composed: FleetReport) -> list[str]:
        if json.dumps(program.as_dict(), sort_keys=True) != json.dumps(
            composed.as_dict(), sort_keys=True
        ):
            return ["composed call diverged from simulate_fleet()"]
        return []

    def value_independence(self) -> list[str]:
        first, second = (
            [self.reference[seed, spec] for spec in self.graphs] for seed in self.seeds
        )
        if all(np.array_equal(a, b) for a, b in zip(first, second)):
            return ["the two seeds produced identical outputs; values are not exercised"]
        return []

    def analytic(self, setup: Setup, exact: dict[str, Any]) -> tuple[float, float]:
        """Mean analytic error over the distinct replica configurations."""
        errors = []
        for spec, graph in self.graphs.items():
            latency, interval = profile_replica(spec)
            timing = estimate_network_timing(graph)
            errors.append(
                (
                    abs_err_pct(timing.interval_cycles, interval),
                    abs_err_pct(timing.latency_cycles, latency),
                )
            )
        return (
            sum(e[0] for e in errors) / len(errors),
            sum(e[1] for e in errors) / len(errors),
        )


def make_workloads() -> dict[str, Callable[[], Any]]:
    return {
        "resnet-live": lambda: ClosedLoop(
            "resnet-live",
            lambda: direct_resnet18_graph(32, width=0.25, classes=10),
            n_images=12,
            mode="fast",
            n_dfes=2,
        ),
        "vgg-leap": lambda: ClosedLoop(
            "vgg-leap",
            lambda: direct_vgg_graph(32, width=0.25, classes=10),
            n_images=256,
            mode="leap",
            n_dfes=None,
        ),
        "fleet-open": FleetOpen,
    }
