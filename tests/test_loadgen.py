"""Open-loop load generation: schedules, determinism, sweeps, SLO gating."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.models import direct_vgg_graph
from repro.telemetry import (
    fixed_rate_schedule,
    make_schedule,
    poisson_schedule,
    run_load,
    spawn_poisson_schedules,
    sweep,
)
from repro.telemetry.loadgen import cycles_per_image


def _graph():
    return direct_vgg_graph(16, width=0.0625, classes=4)


def _images(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, 16, 16, 3))


class TestSchedules:
    def test_cycles_per_image(self):
        assert cycles_per_image(105e6, fclk_mhz=105.0) == 1.0
        assert cycles_per_image(1000.0, fclk_mhz=105.0) == 105_000.0
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite FPS"):
                cycles_per_image(bad)

    def test_fixed_rate_is_a_metronome(self):
        sched = fixed_rate_schedule(4, 1000.0, fclk_mhz=105.0)
        assert sched.cycles == [0, 105_000, 210_000, 315_000]
        assert sched.kind == "fixed" and sched.seed is None

    def test_poisson_is_deterministic_per_seed(self):
        a = poisson_schedule(16, 5000.0, seed=42)
        b = poisson_schedule(16, 5000.0, seed=42)
        c = poisson_schedule(16, 5000.0, seed=43)
        assert a.cycles == b.cycles
        assert a.cycles != c.cycles
        assert a.cycles[0] == 0
        assert all(x <= y for x, y in zip(a.cycles, a.cycles[1:]))

    def test_poisson_accepts_injected_rng(self):
        rng = np.random.default_rng(7)
        via_rng = poisson_schedule(8, 2000.0, seed=999, rng=rng)
        direct = poisson_schedule(8, 2000.0, seed=7)
        assert via_rng.cycles == direct.cycles  # seed is ignored when rng given

    def test_spawned_replica_streams_are_decorrelated(self):
        # Seeding N replicas with one shared integer replays the identical
        # gap sequence everywhere — lockstep queues that understate fleet
        # queueing.  SeedSequence.spawn children must (a) stay deterministic,
        # (b) differ pairwise, and (c) carry no pairwise gap correlation.
        n, images, rate = 4, 64, 5_000.0
        streams = spawn_poisson_schedules(n, images, rate, seed=42)
        again = spawn_poisson_schedules(n, images, rate, seed=42)
        assert [s.cycles for s in streams] == [s.cycles for s in again]
        for i in range(n):
            for j in range(i + 1, n):
                assert streams[i].cycles != streams[j].cycles
                gaps_i = np.diff(streams[i].cycles).astype(float)
                gaps_j = np.diff(streams[j].cycles).astype(float)
                corr = np.corrcoef(gaps_i, gaps_j)[0, 1]
                assert abs(corr) < 0.35, f"replicas {i},{j} correlated: r={corr:.3f}"
        # The naive shared-seed construction is exactly the lockstep bug.
        naive = [poisson_schedule(images, rate, seed=42) for _ in range(n)]
        assert naive[0].cycles == naive[1].cycles

    def test_spawn_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            spawn_poisson_schedules(0, 4, 100.0, seed=1)

    def test_make_schedule_dispatch(self):
        assert make_schedule(3, 100.0, "fixed").kind == "fixed"
        assert make_schedule(3, 100.0, "poisson", seed=1).kind == "poisson"
        with pytest.raises(ValueError):
            make_schedule(3, 100.0, "uniform")


class TestRunLoad:
    def test_bit_identical_across_runs_and_schedulers(self):
        kwargs = dict(rate_fps=20_000.0, process="poisson", seed=11)
        first = run_load(_graph(), _images(), **kwargs)
        again = run_load(_graph(), _images(), **kwargs)
        exhaustive = run_load(_graph(), _images(), fast=False, **kwargs)
        assert first.as_dict() == again.as_dict()
        assert first.as_dict() == exhaustive.as_dict()

    def test_underload_achieves_offered_rate(self):
        result = run_load(_graph(), _images(), rate_fps=2_000.0)
        assert not result.aborted
        assert result.achieved_fps == pytest.approx(2_000.0, rel=0.01)
        assert result.report.queue_wait.max == 0
        assert result.queue_depth_peak == 0

    def test_overload_saturates_and_queues(self):
        result = run_load(_graph(), _images(n=6), rate_fps=10**8)
        assert not result.aborted
        assert result.achieved_fps < result.offered_fps / 2
        assert result.report.queue_wait.max > 0
        assert result.queue_depth_peak > 0
        assert "offered" in result.render() and "achieved" in result.render()

    def test_slo_verdicts(self):
        result = run_load(_graph(), _images(), rate_fps=2_000.0)
        p99 = result.report.sojourn.p99
        assert p99 is not None
        assert not result.slo_violated(p99)
        assert result.slo_violated(p99 - 1)
        # Overload shows up in sojourn even though service stays flat.
        overload = run_load(_graph(), _images(n=6), rate_fps=10**8)
        service_p99 = overload.report.service.p99
        assert service_p99 is not None
        assert overload.slo_violated(service_p99 + 100)


class TestSweep:
    def test_curve_schema_and_points(self):
        rates = [500.0, 5_000.0, 50_000.0]
        payload = sweep(_graph(), _images(), rates, seed=5)
        assert payload["schema"] == "repro-load-sweep/1"
        assert [p["offered_fps"] for p in payload["points"]] == rates
        for point in payload["points"]:
            assert point["images_completed"] == 5
            assert point["p99_cycles"] >= point["p50_cycles"] > 0
            assert not point["aborted"]
        # Achieved FPS is monotone non-decreasing along the offered ladder
        # until saturation; the highest rate cannot beat its offer.
        achieved = [p["achieved_fps"] for p in payload["points"]]
        assert achieved[0] <= achieved[-1]
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_empty_rate_ladder_rejected(self):
        with pytest.raises(ValueError):
            sweep(_graph(), _images(), [])


class TestCli:
    def test_load_deterministic_and_json(self, capsys):
        argv = ["load", "--rate", "9000", "--images", "4", "--seed", "2",
                "--process", "poisson", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["schema"] == "repro-load/1"
        assert first["latency"]["service_cycles"]["p99"] == second["latency"]["service_cycles"]["p99"]

    def test_load_requires_a_rate(self, capsys):
        assert main(["load", "--images", "2"]) == 2
        assert "--rate" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf"])
    def test_bad_rate_exits_2_with_one_line(self, rate, capsys):
        assert main(["load", "--rate", rate, "--images", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--rate" in err and rate in err, err

    def test_bad_sweep_rate_exits_2_with_one_line(self, capsys):
        assert main(["load", "--sweep", "1000", "nan", "--images", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--sweep" in err and "nan" in err, err

    def test_slo_gate_exit_codes(self, capsys):
        ok = main(["load", "--rate", "2000", "--images", "3", "--slo-p99-cycles", "100000"])
        assert ok == 0
        # Fault injection: an offered rate the tiny pipeline cannot sustain
        # blows the p99 budget and the gate exits non-zero.
        bad = main(
            ["load", "--rate", "100000000", "--images", "6", "--slo-p99-cycles", "4000"]
        )
        assert bad == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_sweep_writes_json_and_respects_force(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["load", "--sweep", "1000", "20000", "--images", "3", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-load-sweep/1"
        assert len(payload["points"]) == 2
        capsys.readouterr()
        assert main(argv) == 2  # refuses to overwrite
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0
