"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload resnet-live --seed 1 --seconds 42 --trace 0

Run from the repository root.  Workloads are ``resnet-live``, ``vgg-leap``
and ``fleet-open`` (see ``perfbench/workloads.py`` and ``BENCHMARK.json``).
``--seconds`` bounds the whole run, checks included: the ``run_graph``
references are computed first, and measuring stops starting new calls when
the last one would not fit in what is left (after a minimum count).

``--trace 0`` measures the end-to-end metrics in one fresh interpreter: it
sets the workload up several times (``setup_s`` is the median set-up),
makes one warm-up call, then runs the workload's composed call (the
public entry point's calls made one by one: ``simulate``, or
``simulate_fleet`` on its serial path) back to back, alternating between
the images of two seeds derived from ``--seed``.  The host rates are the
median over the calls, and ``setup_s`` the median set-up, each in host
seconds at a fixed reference speed: all through every call and set-up a
fixed pure-Python loop is timed (``spans.Probes``), at every layer call
and at 64 points of each engine run, and the time between two probes is
divided by their mean slowdown over the reference.

Why: on a shared 2-vCPU VM the CPU runs at one of two speeds, switching
every few seconds and, in busy minutes, staying slow for whole runs, as
neighbours load the host.  The simulator then takes about 1.75x as long
and the probe about 1.45x, so raw host rates swung by 25% from run to
run and by up to 1.8x between minutes; sampled inside the call, the
probe follows those swings, and a change to the program, which the probe
does not run, still moves the rates.  Each run prints its raw figures
too (``raw:``).

``--trace 1`` measures the per-layer metrics instead, in this process:
each repetition sets up and runs the composed call with a span around
every layer call, then the public call it mirrors, so the tracing
overhead is measured in the same run.  Spans are written to
``perfbench/out/`` at the end.

Every call is checked: outputs against ``run_graph``, the workload's
contract (planner prediction, leap engagement, fleet conservation), and
every simulated count against every other call, both seeds, and the values
pinned in ``perfbench/exact.json``.  A simulator-only change must leave
those counts bit-identical; a change to the modelled design re-pins them
with ``--pin``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
images simulated by checked calls and ``failed`` those in calls that failed
a check, so ``error_rate = failed / attempted``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_FILE = HERE / "exact.json"

# Set-up repeats at least SETUP_MIN_REPS times and until it has taken
# SETUP_MIN_SECONDS, up to SETUP_MAX_REPS times (vgg-leap's set-up takes
# about 15 ms, so its median needs many).
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 100
# Timed calls (after the warm-up) and traced repetitions per run, at
# least: one per seed.
MIN_CALLS = 2
MIN_TRACED_REPS = 2
# Host-speed probes per engine run in a timed call.
PROBES_PER_RUN = 64
# Left at the end of --seconds for the output checks and the report.
TAIL_SECONDS = 0.5
# The traced composition's top-level spans must cover this share of the
# timed phase, so no layer's time hides in unspanned glue.
COVERAGE_FLOOR = 0.95


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {err}") from None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def more(done: int, minimum: int, last_seconds: float, deadline: float) -> bool:
    """Whether to start another call that may take ``last_seconds``."""
    return done < minimum or time.perf_counter() + last_seconds < deadline


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(fn: Any, *args: Any) -> tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Bench:
    """Runs one workload and accumulates its checked calls."""

    def __init__(self, workload: Any, seeds: tuple[int, int]) -> None:
        self.workload = workload
        self.seeds = seeds
        self.calls: list[Any] = []
        self.exact: dict[str, Any] = {}
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def merge_exact(self, exact: dict[str, Any]) -> None:
        for key, value in exact.items():
            if key in self.exact and self.exact[key] != value:
                self.problem(f"exact value {key} differs between calls: {self.exact[key]!r} vs {value!r}")
            self.exact.setdefault(key, value)

    def record(self, call: Any) -> None:
        self.calls.append(call)
        self.merge_exact(call.exact)

    def timed_call(self, method: Any, setup: Any, seed: int) -> tuple[Any, float]:
        """Call, check and record."""
        result, seconds = timed(method, setup, seed)
        call = self.workload.check(setup, result, seed)
        call.seconds = seconds
        self.record(call)
        return result, seconds

    def composed_call(self, setup: Any, seed: int, probes: Any) -> float:
        """Run the composed call timed by ``probes``; check and record it.

        Returns the call's wall time, probes included.
        """
        gc.collect()
        start = time.perf_counter()
        probes.sample()
        result, _ = self.workload.composed(setup, seed, probes)
        probes.sample()
        wall = time.perf_counter() - start
        call = self.workload.check(setup, result, seed)
        call.seconds = probes.seconds()
        call.reference_seconds = probes.reference_seconds()
        self.record(call)
        return wall

    def measure(self, deadline: float) -> dict[str, Any]:
        """The end-to-end measurement, run in a fresh child process."""
        from spans import Probes

        wl = self.workload
        setup_s: list[float] = []
        raw_setup_s: list[float] = []
        while len(setup_s) < SETUP_MIN_REPS or (
            sum(raw_setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPS
        ):
            probes = Probes()
            gc.collect()
            probes.sample()
            setup = wl.setup(probes, self.seeds[0])
            probes.sample()
            raw_setup_s.append(probes.seconds())
            setup_s.append(probes.reference_seconds())
            for message in setup.problems:
                self.problem(message)
        warm_up = Probes()
        self.composed_call(setup, self.seeds[1], warm_up)
        every = warm_up.spacing(PROBES_PER_RUN)
        n, last = 0, 0.0
        while more(n, MIN_CALLS, last, deadline):
            last = self.composed_call(setup, self.seeds[n % 2], Probes(every))
            n += 1
        return {
            "setup_s": setup_s,
            "raw_setup_s": raw_setup_s,
            # calls[0] is the warm-up: checked, not timed.
            "calls": [dataclasses.asdict(call) for call in self.calls],
            "peak_rss_mb": peak_rss_mb(),
            "analytic": wl.analytic(setup, self.exact),
            "problems": self.problems,
        }

    def end_to_end(self, args: argparse.Namespace, deadline: float) -> dict[str, float]:
        """Measure in a fresh process (so its memory peak is the workload's own)."""
        from workloads import Call

        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", f"{max(deadline - time.perf_counter(), 0.1):.3f}",
            "--trace", "0",
            "--child",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: the measuring process failed:\n{proc.stderr}")
        measured = json.loads(proc.stdout.splitlines()[-1])
        calls = [Call(**fields) for fields in measured["calls"]]
        for message in measured["problems"]:
            self.problem(message)
        for call in calls:
            self.record(call)
        interval_err, latency_err = measured["analytic"]
        timed_calls = calls[1:]
        raw = {
            "sim_cycles_per_s": statistics.median(c.cycles / c.seconds for c in timed_calls),
            "setup_s": statistics.median(measured["raw_setup_s"]),
            "slowdowns": [round(c.seconds / c.reference_seconds, 4) for c in timed_calls],
        }
        print("raw: " + json.dumps(raw))
        return {
            "sim_cycles_per_s": statistics.median(c.cycles / c.reference_seconds for c in timed_calls),
            "images_per_s": statistics.median(c.images / c.reference_seconds for c in timed_calls),
            "setup_s": statistics.median(measured["setup_s"]),
            "peak_rss_mb": measured["peak_rss_mb"],
            "sim_interval_cycles": self.exact["sim_interval_cycles"],
            "sim_latency_cycles": self.exact["sim_latency_cycles"],
            "sim_p99_sojourn_cycles": self.exact["sim_p99_sojourn_cycles"],
            "analytic_latency_err_pct": latency_err,
            "analytic_interval_err_pct": interval_err,
        }

    def layers(self, deadline: float, dump: Path) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics from traced repetitions, plus each layer's time share."""
        from spans import Spans

        wl = self.workload
        spans = Spans()
        per_rep: list[dict[str, float]] = []
        traced_s: list[float] = []
        reference_s: list[float] = []
        pooled_s: list[float] = []
        ns_per_live: list[float] = []
        coverages: list[float] = []
        n, last = 0, 0.0
        while more(n, MIN_TRACED_REPS, last, deadline):
            rep_start = time.perf_counter()
            seed = self.seeds[n % 2]
            n += 1
            gc.collect()
            with spans("rep") as rep:
                with spans("setup"):
                    setup = wl.setup(spans, seed)
                with spans("timed") as timed_span:
                    traced, pipelines = wl.composed(setup, seed, spans)
                with spans("post"):
                    wl.post(traced, spans)
            for message in setup.problems:
                self.problem(message)
            coverage = spans.coverage(timed_span)
            coverages.append(coverage)
            if coverage < COVERAGE_FLOOR:
                self.problem(f"traced spans cover only {coverage:.1%} of the timed phase")
            call = wl.check(setup, traced, seed)
            call.seconds = timed_span.duration_ns / 1e9
            self.record(call)
            counts = wl.layer_counts(traced, pipelines)
            self.merge_exact(counts)
            times = spans.self_seconds_by_name(rep)
            per_rep.append(times)
            traced_s.append(timed_span.duration_ns / 1e9)
            ns_per_live.append(times["engine.run"] * 1e9 / counts["engine.live_cycles"])
            reference, ref_seconds = self.timed_call(wl.reference_call, setup, seed)
            reference_s.append(ref_seconds)
            for message in wl.same(reference, traced):
                self.problem(message)
            if wl.pooled_call is not None:
                pooled, pool_seconds = self.timed_call(wl.pooled_call, setup, seed)
                pooled_s.append(pool_seconds)
                for message in wl.same(reference, pooled):
                    self.problem(f"pool vs serial: {message}")
            last = time.perf_counter() - rep_start
        spans.dump(dump, {"workload": wl.name, "seeds": list(self.seeds), "coverage": coverages})

        names = sorted({name for times in per_rep for name in times})
        layer = {name: statistics.median(t.get(name, 0.0) for t in per_rep) for name in names}
        total = statistics.median(sum(t.values()) for t in per_rep)
        shares = {name: value / total for name, value in layer.items()}
        exact = self.exact
        metrics: dict[str, float] = {
            f"{name}_s": layer.get(name, 0.0)
            for name in (
                "models.build",
                "planner.search",
                "planner.replay",
                "verify.skip_solve",
                "verify.check",
                "verify.high_water",
                "manager.build_pipeline",
                "engine.run",
                "leap.batch_outputs",
                "latency.report",
                "fleet.profile",
                "fleet.route",
            )
        }
        serial = statistics.median(reference_s) if pooled_s else 0.0
        pooled = statistics.median(pooled_s) if pooled_s else 0.0
        metrics.update(
            {
                "planner.candidates_scored": setup.candidates_scored,
                "engine.live_cycles": exact["engine.live_cycles"],
                "engine.host_ns_per_live_cycle": statistics.median(ns_per_live),
                "latency.queue_wait_p99_cycles": exact["latency.queue_wait_p99_cycles"],
                "fleet.simulate_s": pooled,
                "fleet.serial_simulate_s": serial,
                "fleet.pool_speedup": serial / pooled if pooled else 0.0,
                "fleet.replica_imbalance": exact.get("fleet.replica_imbalance", 0.0),
                "fleet.ingress_utilization": exact.get("fleet.ingress_utilization", 0.0),
                "trace.overhead_pct": 100.0
                * (statistics.median(traced_s) / statistics.median(reference_s) - 1.0),
                "analytic_interval_err_pct": wl.analytic(setup, exact)[0],
            }
        )
        for key, value in exact.items():
            if key.startswith(("kernels.", "stream.", "leap.")):
                metrics[key] = value
        return metrics, shares

    def check_pinned(self, pin: bool) -> None:
        """Compare (or with ``pin``, record) the exact values against ``exact.json``."""
        pinned_all = json.loads(EXACT_FILE.read_text()) if EXACT_FILE.exists() else {}
        pinned = pinned_all.get(self.workload.name, {})
        if pin:
            pinned.update(self.exact)
            pinned_all[self.workload.name] = dict(sorted(pinned.items()))
            EXACT_FILE.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")
            return
        for key, value in self.exact.items():
            if key not in pinned:
                self.problem(f"exact value {key} is not pinned in {EXACT_FILE.name}")
            elif pinned[key] != value:
                self.problem(f"exact value {key} = {value!r}, pinned {pinned[key]!r}")


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--pin", action="store_true", help=f"record this run's exact values in {EXACT_FILE.name}"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import make_workloads

    factories = make_workloads()
    if args.workload not in factories:
        parser.error(f"--workload must be one of {sorted(factories)}")
    workload = factories[args.workload]()
    seeds = (2 * args.seed, 2 * args.seed + 1)
    workload.prepare(seeds)
    bench = Bench(workload, seeds)
    if args.child:
        print(json.dumps(bench.measure(start + args.seconds)))
        return 0
    workload.references()
    deadline = start + args.seconds - TAIL_SECONDS
    if args.trace:
        dump = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        values, shares = bench.layers(deadline, dump)
        wanted = spec["per_layer"]
        print("layer-shares: " + json.dumps({k: round(v, 6) for k, v in shares.items()}))
    else:
        values = bench.end_to_end(args, deadline)
        wanted = spec["end_to_end"]
    workload.check_outputs(bench.calls)
    for message in workload.value_independence():
        bench.problem(message)
    bench.check_pinned(args.pin)
    print("exact: " + json.dumps(bench.exact, sort_keys=True))
    print("call-seconds: " + json.dumps([round(c.seconds, 6) for c in bench.calls]))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(c.images for c in bench.calls)
    failed = sum(c.images for c in bench.calls if c.problems)
    for call in bench.calls:
        for message in call.problems:
            bench.problem(message)
    for message in bench.problems:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")
    print(f"error_rate {failed}/{attempted}")
    result = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
