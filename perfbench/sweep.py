"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 10             # every workload, both modes
    python3 perfbench/sweep.py --seeds 10 --record    # also write baseline.json

Run from the repository root.  For each workload and ``--trace`` mode it
runs ``perfbench/run.py`` for ``run_seconds`` once per seed (1..N) and
prints, per metric, the median and the quartile spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``,
and the same for the host rate and set-up time before their host-speed
normalization.
It fails when a run is not correct, when the exact values differ between
runs, or when an end-to-end spread exceeds its bound.  ``--record`` writes
the medians, spreads, layer time shares and the host they were measured on
to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    extras = {
        key: json.loads(line.split(": ", 1)[1])
        for line in lines
        for key in ("exact", "layer-shares", "call-seconds", "raw")
        if line.startswith(key + ": ")
    }
    return {"result": result, "wall_s": wall, "stderr": proc.stderr, **extras}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median), as the acceptance check computes them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be >= 2 to compute a spread")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    baseline: dict[str, Any] = {}
    for workload in names:
        entry = baseline.setdefault(workload, {})
        exact: dict[str, Any] = {}
        for trace in (0, 1):
            runs = []
            for seed in range(1, args.seeds + 1):
                run = run_once(workload, seed, seconds, trace)
                runs.append(run)
                status = "ok" if run["result"]["correct"] else "NOT CORRECT"
                print(f"{workload} trace={trace} seed={seed}: {run['wall_s']:.1f}s {status}", flush=True)
                if not run["result"]["correct"]:
                    ok = False
                    print(run["stderr"], file=sys.stderr)
                for key, value in run.get("exact", {}).items():
                    if exact.setdefault(key, value) != value:
                        ok = False
                        print(f"  exact value {key} differs between runs", file=sys.stderr)
            table: dict[str, Any] = {}
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                median, rel = spread(values)
                bound = bounds.get(name)
                verdict = ""
                if bound is not None:
                    verdict = "ok" if rel <= bound / 3 else "within bound" if rel <= bound else "TOO WIDE"
                    if rel > bound:
                        ok = False
                unit = runs[0]["result"]["metrics"][name]["unit"]
                table[name] = {"median": median, "spread": rel, "unit": unit}
                bound_text = f"bound {bound:.2f}" if bound is not None else ""
                print(f"  {name:<34} {median:>14.6g} {unit:<9} spread {rel:6.2%} {bound_text} {verdict}")
            walls = [r["wall_s"] for r in runs]
            print(f"  run wall time: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
            entry["end_to_end" if trace == 0 else "per_layer"] = table
            entry[f"run_wall_s_trace{trace}"] = max(walls)
            if trace == 0:
                # The figures before the host-speed normalization, for reference.
                raw_rate = spread([r["raw"]["sim_cycles_per_s"] for r in runs])
                raw_setup = spread([r["raw"]["setup_s"] for r in runs])
                entry["raw"] = {
                    "sim_cycles_per_s": {"median": raw_rate[0], "spread": raw_rate[1]},
                    "setup_s": {"median": raw_setup[0], "spread": raw_setup[1]},
                }
                print(f"  raw sim_cycles_per_s {raw_rate[0]:.6g} spread {raw_rate[1]:.2%}; "
                      f"raw setup_s {raw_setup[0]:.6g} spread {raw_setup[1]:.2%}")
            if trace == 1:
                layers = sorted({k for r in runs for k in r.get("layer-shares", {})})
                entry["layer_shares"] = {
                    k: statistics.median(r["layer-shares"].get(k, 0.0) for r in runs) for k in layers
                }

    if args.record:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.telemetry.manifest import host_manifest

        payload = {
            "host": {**host_manifest(), "nproc": len(os.sched_getaffinity(0))},
            "fleet_workers": min(2, len(os.sched_getaffinity(0))),
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "run_seconds": seconds,
            "seeds": [1, args.seeds],
            "why": {w["name"]: w["why"] for w in spec["workloads"]},
            "workloads": baseline,
        }
        (HERE / "baseline.json").write_text(json.dumps(payload, indent=1) + "\n")
    print("sweep: ok" if ok else "sweep: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
