"""Fleet-scale serving simulation: R pipeline replicas behind one router.

The paper's hardware target is an MPC-X node with 8 MAX4 DFEs; everything
below this module simulates one pipeline chain.  Here a *fleet* of compiled
replicas (homogeneous or mixed AlexNet/ResNet/VGG) serves an open-loop
request stream the way FINN and Blott et al.'s scaling study evaluate
accelerators: a host-side admission router picks a replica per image, the
shared PCIe ingress serializes the transfer, and each replica then runs its
own cycle-exact engine against the arrival schedule the plan handed it.

The load-bearing design decision: the router decides from host-observable
state only (dispatch counts plus a calibrated service model from a
closed-loop, leap-eligible profiling run — see :mod:`.router`), so once the
plan is fixed, replica simulations share nothing.  That makes the
worker-pool path trivially correct: ``workers=N`` farms the same jobs to a
process pool and must produce a byte-identical fleet report to the serial
reference for the same seed — a tested invariant, not an aspiration.

Capacity planning rides on top: :func:`fleet_sweep` emits the per-policy
latency-throughput frontier (schema ``repro-fleet-sweep/1``) and
:func:`min_replicas_for_slo` answers "how many DFEs hold p99 sojourn ≤ X
at N requests/s?" by walking replica counts until the SLO holds.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..dataflow.links import PCIE_GEN2_X8, LinkSpec
from ..telemetry.latency import latency_report, summarize
from ..telemetry.loadgen import make_schedule, spawn_poisson_schedules
from .ingress import IngressTransfer, SharedIngress
from .router import POLICIES, ReplicaState, make_router

if TYPE_CHECKING:
    from ..nn.graph import LayerGraph

__all__ = [
    "FleetConfig",
    "FleetPlan",
    "FleetReport",
    "ReplicaSpec",
    "default_rate_ladder",
    "fleet_capacity_fps",
    "fleet_sweep",
    "min_replicas_for_slo",
    "parse_mix",
    "plan_fleet",
    "plan_fleet_dfes",
    "profile_replica",
    "simulate_fleet",
]

DEFAULT_FCLK_MHZ = 105.0
# Closed-loop images per profiling run: enough completions to prove a
# steady-state interval (and let the leap controller engage) while staying
# a fixed, small cost per distinct replica configuration.
PROFILE_IMAGES = 6


@dataclass(frozen=True, slots=True)
class ReplicaSpec:
    """One replica's compiled pipeline configuration."""

    family: str  # "vgg" | "alexnet" | "resnet18"
    size: int  # input resolution
    width: float = 0.0625
    classes: int = 4

    def __post_init__(self) -> None:
        if self.family not in ("vgg", "alexnet", "resnet18"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.size < 8:
            raise ValueError(f"input size must be >= 8, got {self.size!r}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be a finite fraction > 0, got {self.width!r}")

    def graph(self) -> "LayerGraph":
        from ..models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph

        if self.family == "vgg":
            return direct_vgg_graph(self.size, width=self.width, classes=self.classes)
        if self.family == "alexnet":
            return direct_alexnet_graph(self.size, width=self.width, classes=self.classes)
        # Small inputs cannot survive the full 4-stage downsampling ladder;
        # mirror `repro stats` and keep one residual stage at test scale.
        if self.size <= 32:
            return direct_resnet18_graph(
                self.size, width=self.width, classes=self.classes, stages=[(64, 1, 1)]
            )
        return direct_resnet18_graph(self.size, width=self.width, classes=self.classes)

    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "size": self.size,
            "width": self.width,
            "classes": self.classes,
        }

    def label(self) -> str:
        return f"{self.family}:{self.size}:{self.width:g}"


def parse_mix(mix: str) -> list[ReplicaSpec]:
    """Parse ``family[:size[:width]]`` specs, comma-separated.

    ``"vgg:16,vgg:16:0.25"`` → a two-replica heterogeneous fleet.
    """
    specs: list[ReplicaSpec] = []
    for chunk in mix.split(","):
        parts = chunk.strip().split(":")
        if not parts[0]:
            raise ValueError(f"empty replica spec in mix {mix!r}")
        family = parts[0]
        size = int(parts[1]) if len(parts) > 1 and parts[1] else 16
        width = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0625
        specs.append(ReplicaSpec(family=family, size=size, width=width))
    return specs


# Profiles are deterministic per spec/fclk, so one closed-loop run per
# distinct configuration serves every fleet built in this process.
_PROFILE_CACHE: dict[tuple[Any, ...], tuple[int, float]] = {}


def profile_replica(spec: ReplicaSpec, fclk_mhz: float = DEFAULT_FCLK_MHZ) -> tuple[int, float]:
    """(first-image latency, steady-state interval) for one replica config.

    Runs :data:`PROFILE_IMAGES` zero images *closed-loop* through the
    replica's pipeline — the one place in the fleet layer where the leap
    scheduler is eligible (open-loop replica runs demote, per the leap
    contract), so paper-scale replicas profile in seconds, not minutes.
    Timing is value-independent, so zero images measure the real schedule.
    """
    key = (spec.family, spec.size, spec.width, spec.classes, fclk_mhz)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    from ..dataflow.manager import simulate

    graph = spec.graph()
    ispec = graph.input_spec
    images = np.zeros((PROFILE_IMAGES, ispec.height, ispec.width, ispec.channels), dtype=np.int64)
    run = simulate(graph, images, fclk_mhz=fclk_mhz, mode="leap")
    interval = run.steady_state_interval
    assert interval is not None  # PROFILE_IMAGES >= 2 completions
    profile = (run.latency_cycles, interval)
    _PROFILE_CACHE[key] = profile
    return profile


@dataclass(slots=True)
class FleetConfig:
    """Everything one fleet run depends on (and nothing it does not)."""

    replicas: list[ReplicaSpec]
    rate_fps: float  # offered rate across the whole fleet
    n_requests: int
    policy: str = "rr"  # "rr" | "jsq" | "batch" | "static"
    process: str = "fixed"  # arrival process ("static" policy forces poisson)
    seed: int = 0
    fclk_mhz: float = DEFAULT_FCLK_MHZ
    host_link: LinkSpec = PCIE_GEN2_X8
    batch: int = 4  # batch-aware policy's granularity
    max_cycles: int = 50_000_000  # per-replica abort budget
    workers: int = 0  # 0 = serial reference path

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a fleet needs at least one replica")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.n_requests < 1:
            raise ValueError(f"need at least one request, got {self.n_requests!r}")
        if not (math.isfinite(self.rate_fps) and self.rate_fps > 0):
            raise ValueError(f"rate must be a finite FPS > 0, got {self.rate_fps!r}")
        if self.policy == "static" and self.process != "poisson":
            raise ValueError(
                "policy 'static' pre-partitions traffic into independent "
                "per-replica Poisson streams; it requires process='poisson'"
            )


@dataclass(slots=True)
class FleetPlan:
    """The routing decision record: who serves which request, and when.

    ``assignments[r]`` lists global request indices dispatched to replica
    ``r`` in fabric-arrival order; the parallel lists carry each request's
    host-arrival and fabric-arrival cycles.  Once built, replica
    simulations depend only on their own slice of this plan.
    """

    config: FleetConfig
    assignments: list[list[int]]
    host_arrivals: list[list[int]]
    fabric_arrivals: list[list[int]]
    ingress_waits: list[int]  # per request, in ingress order
    ingress_busy_cycles: int
    ingress_utilization: float
    profiles: list[tuple[int, float]]  # per replica (latency, interval)


def plan_fleet(config: FleetConfig) -> FleetPlan:
    """Route every request to a replica and serialize the shared ingress."""
    profiles = [profile_replica(spec, config.fclk_mhz) for spec in config.replicas]
    n_replicas = len(config.replicas)
    graphs = [spec.graph() for spec in config.replicas]
    ingress = SharedIngress(link=config.host_link, fclk_mhz=config.fclk_mhz)

    assignments: list[list[int]] = [[] for _ in range(n_replicas)]
    host_arrivals: list[list[int]] = [[] for _ in range(n_replicas)]
    fabric_arrivals: list[list[int]] = [[] for _ in range(n_replicas)]
    ingress_waits: list[int] = []

    def dispatch(request: int, arrival: int, replica: int) -> IngressTransfer:
        transfer = ingress.admit(request, arrival, graphs[replica].input_spec)
        assignments[replica].append(request)
        host_arrivals[replica].append(arrival)
        fabric_arrivals[replica].append(transfer.fabric_arrival)
        ingress_waits.append(transfer.wait_cycles)
        return transfer

    if config.policy == "static":
        # Pre-partitioned traffic: independent per-replica Poisson streams
        # (decorrelated via SeedSequence.spawn), merged only so the shared
        # ingress serializes transfers in true arrival order.
        per_replica = _split_requests(config.n_requests, n_replicas)
        streams = spawn_poisson_schedules(
            n_replicas,
            max(per_replica),
            config.rate_fps / n_replicas,
            config.seed,
            config.fclk_mhz,
        )
        merged = sorted(
            (stream.cycles[i], r, i)
            for r, stream in enumerate(streams)
            for i in range(per_replica[r])
        )
        for request, (arrival, replica, _) in enumerate(merged):
            dispatch(request, arrival, replica)
    else:
        # Router policies observe the virtual queue, so every dispatch must
        # feed back into the state the next decision reads.
        schedule = make_schedule(
            config.n_requests, config.rate_fps, config.process, config.seed, config.fclk_mhz
        )
        router = make_router(config.policy, config.batch)
        states = [
            ReplicaState(index=r, latency_cycles=lat, interval_cycles=interval)
            for r, (lat, interval) in enumerate(profiles)
        ]
        for request, arrival in enumerate(schedule.cycles):
            replica = router.choose(request, arrival, states)
            transfer = dispatch(request, arrival, replica)
            states[replica].on_dispatch(transfer.fabric_arrival)

    return FleetPlan(
        config=config,
        assignments=assignments,
        host_arrivals=host_arrivals,
        fabric_arrivals=fabric_arrivals,
        ingress_waits=ingress_waits,
        ingress_busy_cycles=ingress.busy_cycles,
        ingress_utilization=ingress.utilization(),
        profiles=profiles,
    )


def plan_fleet_dfes(
    specs: list[ReplicaSpec],
    *,
    fill_cap: float = 0.8,
    slo_fps: float | None = None,
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
    node_dfes: int = 8,
) -> dict[str, Any]:
    """How many DFEs does this fleet mix occupy on an MPC-X node?

    Runs the static partition planner (min-DFE objective) once per distinct
    replica configuration and sums the device counts — answering the
    capacity question *upstream* of any simulation: does the mix even fit
    the paper's 8-DFE node?  Schema ``repro-fleet-dfes/1``.
    """
    from ..planner import plan_partition

    plans: dict[str, Any] = {}
    replicas: list[dict[str, Any]] = []
    for spec in specs:
        label = spec.label()
        plan = plans.get(label)
        if plan is None:
            plan = plan_partition(
                spec.graph(),
                objective="min-dfes",
                slo_fps=slo_fps,
                fill_cap=fill_cap,
                fclk_mhz=fclk_mhz,
                predict=False,
            )
            plans[label] = plan
        replicas.append(
            {
                "spec": spec.as_dict(),
                "label": label,
                "n_dfes": plan.n_dfes,
                "cuts": list(plan.cuts),
                "max_utilization": plan.max_utilization,
            }
        )
    total = sum(rep["n_dfes"] for rep in replicas)
    device_name = next(iter(plans.values())).device_name if plans else None
    return {
        "schema": "repro-fleet-dfes/1",
        "device": device_name,
        "fill_cap": fill_cap,
        "slo_fps": slo_fps,
        "node_dfes": node_dfes,
        "replicas": replicas,
        "total_dfes": total,
        "fits_node": total <= node_dfes,
    }


def _split_requests(n_requests: int, n_replicas: int) -> list[int]:
    """Split N requests over R replicas as evenly as possible."""
    base, extra = divmod(n_requests, n_replicas)
    return [base + (1 if r < extra else 0) for r in range(n_replicas)]


def _request_image(seed: int, request: int, height: int, width: int, channels: int) -> np.ndarray:
    """The deterministic 2-bit image for one global request index.

    Derived from a per-request spawned child stream, so the image depends
    only on ``(seed, request)`` — never on routing order or which worker
    generated it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, request]))
    return rng.integers(0, 4, size=(height, width, channels))


def _replica_worker(job: tuple[Any, ...]) -> dict[str, Any]:
    """Simulate one replica against its planned arrival schedule.

    Takes and returns only plain picklable values so the serial reference
    path and the process-pool path execute literally the same function —
    byte-identical fleet reports fall out of that, not out of luck.
    """
    (
        index,
        family,
        size,
        width,
        classes,
        requests,
        fabric_arrivals,
        seed,
        fclk_mhz,
        max_cycles,
    ) = job
    spec = ReplicaSpec(family=family, size=size, width=width, classes=classes)
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
        return result
    from ..dataflow.manager import build_pipeline

    graph = spec.graph()
    ispec = graph.input_spec
    images = np.stack(
        [
            _request_image(seed, request, ispec.height, ispec.width, ispec.channels)
            for request in requests
        ]
    )
    pipeline = build_pipeline(
        graph, images, fclk_mhz=fclk_mhz, arrival_cycles=list(fabric_arrivals)
    )
    try:
        cycles = pipeline.engine.run(
            lambda: pipeline.sink.done, max_cycles=max_cycles, fast=True
        )
    except RuntimeError as err:
        result["aborted"] = True
        result["abort_message"] = str(err)
        cycles = max_cycles
    report = latency_report(pipeline, cycles)
    completions = pipeline.sink.completion_cycles
    result["n_completed"] = len(completions)
    result["cycles"] = cycles
    result["latency"] = report.as_dict()
    result["completions"] = list(completions)
    if len(completions) >= 2 and completions[-1] > completions[0]:
        result["achieved_fps"] = (
            (len(completions) - 1) / (completions[-1] - completions[0]) * fclk_mhz * 1e6
        )
    if not result["aborted"]:
        result["output_checksum"] = int(pipeline.sink.output_tensor().sum())
    return result


def _replica_jobs(plan: FleetPlan) -> list[tuple[Any, ...]]:
    config = plan.config
    return [
        (
            r,
            spec.family,
            spec.size,
            spec.width,
            spec.classes,
            list(plan.assignments[r]),
            list(plan.fabric_arrivals[r]),
            config.seed,
            config.fclk_mhz,
            config.max_cycles,
        )
        for r, spec in enumerate(config.replicas)
    ]


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheap and inherits the imported interpreter; fall back to
    # spawn where fork is unavailable (the jobs are spawn-safe anyway).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(slots=True)
class FleetReport:
    """One fleet run's full result: per-replica detail plus the aggregate."""

    config: FleetConfig
    plan: FleetPlan
    replicas: list[dict[str, Any]]
    aggregate: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.aggregate:
            return
        config = self.config
        # Completions live on the global clock (fabric arrivals are global
        # cycles and every replica engine starts at cycle 0), so they merge.
        merged = sorted(c for rep in self.replicas for c in rep["completions"])
        achieved = None
        if len(merged) >= 2 and merged[-1] > merged[0]:
            achieved = (len(merged) - 1) / (merged[-1] - merged[0]) * config.fclk_mhz * 1e6
        sojourn: list[int] = []
        service: list[int] = []
        queue_wait: list[int] = []
        for r, rep in enumerate(self.replicas):
            if rep["latency"] is None:
                continue
            host = self.plan.host_arrivals[r]
            for record in rep["latency"]["records"]:
                i = record["index"]
                # Fleet-level sojourn starts at *host* arrival — it includes
                # the ingress queue/transfer and the PCIe hop, which the
                # replica-local report cannot see.
                sojourn.append(record["completion"] - host[i])
                service.append(record["service_cycles"])
                queue_wait.append(record["completion"] - host[i] - record["service_cycles"])
        n_completed = sum(rep["n_completed"] for rep in self.replicas)
        self.aggregate = {
            "requests": config.n_requests,
            "completed": n_completed,
            "conserved": n_completed == config.n_requests
            and all(rep["n_completed"] == rep["n_dispatched"] for rep in self.replicas),
            "aborted_replicas": sum(1 for rep in self.replicas if rep["aborted"]),
            "offered_fps": config.rate_fps,
            "achieved_fps": achieved,
            "makespan_cycles": merged[-1] if merged else 0,
            "sojourn_cycles": summarize(sojourn).as_dict(),
            "service_cycles": summarize(service).as_dict(),
            "queue_wait_cycles": summarize(queue_wait).as_dict(),
            "ingress_wait_cycles": summarize(list(self.plan.ingress_waits)).as_dict(),
            "ingress_utilization": self.plan.ingress_utilization,
        }

    def slo_violated(self, p99_sojourn_cycles: int) -> bool:
        """True when the fleet misses a p99 *sojourn* SLO (or lost images)."""
        p99 = self.aggregate["sojourn_cycles"]["p99"]
        return (
            not self.aggregate["conserved"]
            or p99 is None
            or p99 > p99_sojourn_cycles
        )

    def as_dict(self) -> dict[str, Any]:
        config = self.config
        return {
            "schema": "repro-fleet/1",
            "policy": config.policy,
            "process": config.process,
            "seed": config.seed,
            "fclk_mhz": config.fclk_mhz,
            "requests": config.n_requests,
            "offered_fps": config.rate_fps,
            "batch": config.batch,
            "ingress": {
                "link": config.host_link.name,
                "bandwidth_gbps": config.host_link.bandwidth_gbps,
                "latency_cycles": config.host_link.latency_cycles,
                "busy_cycles": self.plan.ingress_busy_cycles,
                "utilization": self.plan.ingress_utilization,
            },
            "replicas": [
                {
                    **rep,
                    "profile": {
                        "latency_cycles": self.plan.profiles[r][0],
                        "interval_cycles": self.plan.profiles[r][1],
                    },
                    "requests": list(self.plan.assignments[r]),
                }
                for r, rep in enumerate(self.replicas)
            ],
            "aggregate": dict(self.aggregate),
        }

    def render(self) -> str:
        agg = self.aggregate
        config = self.config
        achieved = f"{agg['achieved_fps']:,.1f}" if agg["achieved_fps"] is not None else "n/a"
        lines = [
            f"fleet [{config.policy}] {len(config.replicas)} replica(s), "
            f"{config.n_requests} request(s) at {config.rate_fps:,.1f} FPS "
            f"({config.process}): achieved {achieved} FPS, "
            f"{agg['completed']}/{agg['requests']} completed"
            + ("" if agg["conserved"] else " — CONSERVATION VIOLATED")
        ]
        for name in ("sojourn_cycles", "service_cycles", "queue_wait_cycles"):
            s = agg[name]
            label = name.removesuffix("_cycles").replace("_", " ")
            if s["count"]:
                lines.append(
                    f"  {label}: p50 {s['p50']:,} | p99 {s['p99']:,} | "
                    f"max {s['max']:,} cycles (n={s['count']})"
                )
            else:
                lines.append(f"  {label}: n/a (no completed images)")
        lines.append(
            f"  ingress [{config.host_link.name}]: "
            f"{agg['ingress_utilization']:.1%} utilized, "
            f"wait p99 {agg['ingress_wait_cycles']['p99'] or 0:,} cycles"
        )
        for r, rep in enumerate(self.replicas):
            spec = self.config.replicas[r]
            fps = f"{rep['achieved_fps']:,.1f}" if rep["achieved_fps"] is not None else "n/a"
            lines.append(
                f"  replica {r} [{spec.label()}]: "
                f"{rep['n_completed']}/{rep['n_dispatched']} image(s), {fps} FPS"
                + (" ABORTED" if rep["aborted"] else "")
            )
        return "\n".join(lines)


def simulate_fleet(config: FleetConfig, plan: FleetPlan | None = None) -> FleetReport:
    """Plan, route, and simulate one fleet run.

    ``config.workers = 0`` runs the serial reference path; ``workers > 0``
    farms replica simulations to a process pool.  Both paths execute the
    same :func:`_replica_worker` on the same plan, so their reports are
    byte-identical for the same seed (tested invariant).
    """
    if plan is None:
        plan = plan_fleet(config)
    jobs = _replica_jobs(plan)
    if config.workers > 0:
        with _pool_context().Pool(processes=config.workers) as pool:
            replicas = pool.map(_replica_worker, jobs)
    else:
        replicas = [_replica_worker(job) for job in jobs]
    return FleetReport(config=config, plan=plan, replicas=replicas)


def fleet_capacity_fps(
    specs: list[ReplicaSpec], fclk_mhz: float = DEFAULT_FCLK_MHZ
) -> float:
    """The fleet's aggregate steady-state capacity from profiled intervals."""
    return sum(fclk_mhz * 1e6 / profile_replica(s, fclk_mhz)[1] for s in specs)


def default_rate_ladder(
    specs: list[ReplicaSpec], fclk_mhz: float = DEFAULT_FCLK_MHZ
) -> list[float]:
    """An offered-rate ladder bracketing the fleet's profiled capacity.

    The knee of the latency-throughput curve sits at capacity; points at
    25/50/75/90/100/110% expose both the flat region and the blow-up.
    """
    capacity = fleet_capacity_fps(specs, fclk_mhz)
    return [round(capacity * f, 1) for f in (0.25, 0.5, 0.75, 0.9, 1.0, 1.1)]


def fleet_sweep(
    config: FleetConfig,
    rates: list[float],
    policies: list[str] | None = None,
) -> dict[str, Any]:
    """Per-policy latency-throughput frontiers over an offered-rate ladder.

    Returns schema ``repro-fleet-sweep/1``: for each policy, one point per
    offered rate with the aggregate achieved FPS and exact sojourn
    percentiles — the FINN-style frontier, lifted from one pipeline to the
    fleet.
    """
    if not rates:
        raise ValueError("sweep needs at least one offered rate")
    policies = policies or [config.policy]
    frontiers: dict[str, Any] = {}
    for policy in policies:
        points: list[dict[str, Any]] = []
        for rate in rates:
            run_config = FleetConfig(
                replicas=config.replicas,
                rate_fps=rate,
                n_requests=config.n_requests,
                policy=policy,
                process="poisson" if policy == "static" else config.process,
                seed=config.seed,
                fclk_mhz=config.fclk_mhz,
                host_link=config.host_link,
                batch=config.batch,
                max_cycles=config.max_cycles,
                workers=config.workers,
            )
            report = simulate_fleet(run_config)
            agg = report.aggregate
            points.append(
                {
                    "offered_fps": rate,
                    "achieved_fps": agg["achieved_fps"],
                    "completed": agg["completed"],
                    "conserved": agg["conserved"],
                    "aborted_replicas": agg["aborted_replicas"],
                    "p50_sojourn_cycles": agg["sojourn_cycles"]["p50"],
                    "p99_sojourn_cycles": agg["sojourn_cycles"]["p99"],
                    "p99_service_cycles": agg["service_cycles"]["p99"],
                    "ingress_utilization": agg["ingress_utilization"],
                }
            )
        frontiers[policy] = {"points": points}
    return {
        "schema": "repro-fleet-sweep/1",
        "replicas": [spec.as_dict() for spec in config.replicas],
        "requests": config.n_requests,
        "process": config.process,
        "seed": config.seed,
        "fclk_mhz": config.fclk_mhz,
        "capacity_fps": fleet_capacity_fps(config.replicas, config.fclk_mhz),
        "policies": frontiers,
    }


def min_replicas_for_slo(
    spec: ReplicaSpec,
    rate_fps: float,
    n_requests: int,
    slo_p99_sojourn_cycles: int,
    *,
    policy: str = "jsq",
    max_replicas: int = 8,
    seed: int = 0,
    process: str = "fixed",
    fclk_mhz: float = DEFAULT_FCLK_MHZ,
    workers: int = 0,
) -> dict[str, Any]:
    """How many replicas hold p99 sojourn ≤ the SLO at the offered rate?

    Walks ``R = 1..max_replicas`` (the MPC-X node tops out at 8 DFEs) and
    returns the first count that satisfies the SLO, with the full trail of
    attempts so the answer is auditable.
    """
    trail: list[dict[str, Any]] = []
    answer: int | None = None
    for n in range(1, max_replicas + 1):
        config = FleetConfig(
            replicas=[spec] * n,
            rate_fps=rate_fps,
            n_requests=n_requests,
            policy=policy,
            process="poisson" if policy == "static" else process,
            seed=seed,
            fclk_mhz=fclk_mhz,
            workers=workers,
        )
        report = simulate_fleet(config)
        p99 = report.aggregate["sojourn_cycles"]["p99"]
        ok = not report.slo_violated(slo_p99_sojourn_cycles)
        trail.append(
            {
                "replicas": n,
                "p99_sojourn_cycles": p99,
                "conserved": report.aggregate["conserved"],
                "satisfied": ok,
            }
        )
        if ok:
            answer = n
            break
    return {
        "schema": "repro-fleet-capacity/1",
        "spec": spec.as_dict(),
        "policy": policy,
        "offered_fps": rate_fps,
        "requests": n_requests,
        "slo_p99_sojourn_cycles": slo_p99_sojourn_cycles,
        "min_replicas": answer,  # None: not satisfiable within max_replicas
        "max_replicas_tried": max_replicas,
        "trail": trail,
    }
