"""Fleet simulator: ingress sharing, routing policies, invariants, CLI.

The three invariants the issue pins down:

* conservation — every admitted request completes exactly once, for every
  policy and replica count;
* JSQ dominates RR on deterministic traffic into a heterogeneous fleet
  (queue-aware routing cannot lose to blind alternation there);
* the serial reference path and the multiprocessing worker pool produce
  byte-identical fleet reports for the same seed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dataflow.links import LinkSpec
from repro.fleet import (
    FleetConfig,
    ReplicaSpec,
    ReplicaState,
    SharedIngress,
    default_rate_ladder,
    fleet_capacity_fps,
    fleet_sweep,
    make_router,
    min_replicas_for_slo,
    parse_mix,
    plan_fleet,
    profile_replica,
    simulate_fleet,
)

FAST = ReplicaSpec("vgg", 16, width=0.0625)
SLOW = ReplicaSpec("vgg", 16, width=0.25)


def _config(**overrides):
    defaults = dict(replicas=[FAST, FAST], rate_fps=20_000.0, n_requests=8, policy="rr", seed=3)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestIngress:
    def test_transfer_cycles_is_image_bits_over_link_rate(self):
        ingress = SharedIngress(fclk_mhz=105.0)
        spec = FAST.graph().input_spec
        # 16x16x3 two-bit pixels over PCIe Gen2 x8 at 105 MHz:
        # 1536 bits / (32000/105 bits-per-cycle) -> 6 whole cycles.
        assert spec.elements * spec.stream_bits == 1536
        assert ingress.bits_per_cycle() == pytest.approx(32_000.0 / 105.0)
        assert ingress.transfer_cycles(spec) == 6

    def test_fifo_serialization_and_link_latency(self):
        ingress = SharedIngress(link=LinkSpec(name="slow", bandwidth_gbps=0.001, latency_cycles=10))
        spec = FAST.graph().input_spec
        cycles = ingress.transfer_cycles(spec)
        assert cycles > 1  # the link is slow enough to congest
        first = ingress.admit(0, 0, spec)
        second = ingress.admit(1, 1, spec)  # arrives while the link is busy
        assert first.start == 0 and first.done == cycles
        assert second.start == first.done  # queued behind the first transfer
        assert second.wait_cycles == first.done - 1
        assert first.fabric_arrival == first.done + 10
        assert 0.0 < ingress.utilization() <= 1.0

    def test_rejects_out_of_order_admission(self):
        ingress = SharedIngress()
        spec = FAST.graph().input_spec
        ingress.admit(0, 100, spec)
        with pytest.raises(ValueError):
            ingress.admit(1, 99, spec)


class TestRouter:
    def _states(self, n=3):
        return [ReplicaState(index=i, latency_cycles=100, interval_cycles=10.0) for i in range(n)]

    def test_round_robin_cycles(self):
        router = make_router("rr")
        states = self._states()
        assert [router.choose(i, 0, states) for i in range(5)] == [0, 1, 2, 0, 1]

    def test_jsq_picks_least_outstanding_with_index_tiebreak(self):
        router = make_router("jsq")
        states = self._states()
        assert router.choose(0, 0, states) == 0  # all empty -> lowest index
        states[0].on_dispatch(0)
        states[1].on_dispatch(0)
        assert router.choose(1, 0, states) == 2
        # Virtual completions drain the queue: past busy_until, 0 is empty again.
        assert router.choose(2, 10_000, states) == 0

    def test_batch_reroutes_only_at_batch_boundaries(self):
        router = make_router("batch", batch=3)
        states = self._states(2)
        picks = []
        for i in range(6):
            choice = router.choose(i, 0, states)
            states[choice].on_dispatch(0)
            picks.append(choice)
        assert picks == [0, 0, 0, 1, 1, 1]

    def test_first_image_pays_fill_latency_then_interval(self):
        state = ReplicaState(index=0, latency_cycles=100, interval_cycles=10.0)
        state.on_dispatch(0)
        assert state.busy_until == 100.0
        state.on_dispatch(0)
        assert state.busy_until == 110.0
        assert state.outstanding(99) == 2
        assert state.outstanding(110) == 0

    def test_static_has_no_router(self):
        with pytest.raises(ValueError):
            make_router("static")
        with pytest.raises(ValueError):
            make_router("lifo")
        with pytest.raises(ValueError):
            make_router("batch", batch=0)


class TestSpecs:
    def test_parse_mix_with_defaults(self):
        specs = parse_mix("vgg:16:0.0625,resnet18:16, vgg")
        assert specs[0] == FAST
        assert specs[1] == ReplicaSpec("resnet18", 16, width=0.0625)
        assert specs[2] == ReplicaSpec("vgg", 16, width=0.0625)

    def test_rejects_unknown_family_and_bad_size(self):
        with pytest.raises(ValueError):
            ReplicaSpec("lenet", 16)
        with pytest.raises(ValueError):
            ReplicaSpec("vgg", 4)
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="width"):
                ReplicaSpec("vgg", 16, width=bad)
        with pytest.raises(ValueError):
            parse_mix("vgg,,resnet18")

    def test_profile_is_deterministic_and_cached(self):
        first = profile_replica(FAST)
        again = profile_replica(FAST)
        assert first == again
        latency, interval = first
        assert latency > 0 and interval is not None and interval > 0
        assert fleet_capacity_fps([FAST, FAST]) == pytest.approx(2 * 105e6 / interval)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(replicas=[])
        with pytest.raises(ValueError):
            _config(policy="fifo")
        with pytest.raises(ValueError):
            _config(n_requests=0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite FPS"):
                _config(rate_fps=bad)
        # static pre-partitions Poisson streams; fixed arrivals make no sense.
        with pytest.raises(ValueError):
            _config(policy="static", process="fixed")


class TestConservation:
    @pytest.mark.parametrize("policy", ["rr", "jsq", "batch", "static"])
    @pytest.mark.parametrize("n_replicas", [1, 3])
    def test_every_request_completes_exactly_once(self, policy, n_replicas):
        config = _config(
            replicas=[FAST] * n_replicas,
            n_requests=7,
            policy=policy,
            process="poisson" if policy == "static" else "fixed",
        )
        report = simulate_fleet(config)
        agg = report.aggregate
        assert agg["conserved"] and agg["completed"] == 7
        # The plan's assignments partition the global request index space.
        routed = sorted(i for reqs in report.plan.assignments for i in reqs)
        assert routed == list(range(7))
        for r, rep in enumerate(report.replicas):
            assert rep["n_completed"] == rep["n_dispatched"] == len(report.plan.assignments[r])

    def test_plan_fabric_arrivals_are_non_decreasing_per_replica(self):
        plan = plan_fleet(_config(policy="jsq", n_requests=10, rate_fps=50_000.0))
        for arrivals in plan.fabric_arrivals:
            assert all(x <= y for x, y in zip(arrivals, arrivals[1:]))


class TestJsqDominatesRr:
    def test_heterogeneous_fleet_deterministic_traffic(self):
        # A fast and a slow replica (4x width => ~4x the steady-state
        # interval).  Offered fixed-rate traffic exceeds twice the slow
        # replica's capacity, so blind alternation overloads it while the
        # fast replica idles; queue-aware JSQ shifts load and must win.
        _, slow_interval = profile_replica(SLOW)
        slow_capacity = 105e6 / slow_interval
        rate = 2.6 * slow_capacity
        kwargs = dict(replicas=[SLOW, FAST], rate_fps=rate, n_requests=12, process="fixed", seed=0)
        rr = simulate_fleet(FleetConfig(policy="rr", **kwargs))
        jsq = simulate_fleet(FleetConfig(policy="jsq", **kwargs))
        assert rr.aggregate["conserved"] and jsq.aggregate["conserved"]
        assert jsq.aggregate["sojourn_cycles"]["p99"] < rr.aggregate["sojourn_cycles"]["p99"]
        assert jsq.aggregate["sojourn_cycles"]["max"] < rr.aggregate["sojourn_cycles"]["max"]
        # JSQ routes the bulk of the traffic away from the slow replica.
        assert len(jsq.plan.assignments[0]) < len(rr.plan.assignments[0])


class TestByteIdentity:
    @pytest.mark.parametrize("policy", ["jsq", "static"])
    def test_serial_and_pool_reports_are_byte_identical(self, policy):
        kwargs = dict(
            replicas=[FAST, FAST, FAST],
            rate_fps=30_000.0,
            n_requests=6,
            policy=policy,
            process="poisson",
            seed=11,
        )
        serial = simulate_fleet(FleetConfig(workers=0, **kwargs))
        pooled = simulate_fleet(FleetConfig(workers=2, **kwargs))
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            pooled.as_dict(), sort_keys=True
        )

    def test_reruns_are_deterministic(self):
        first = simulate_fleet(_config(policy="jsq", process="poisson"))
        again = simulate_fleet(_config(policy="jsq", process="poisson"))
        assert json.dumps(first.as_dict()) == json.dumps(again.as_dict())


class TestSchemasAndCapacity:
    def test_report_schema_and_serialisability(self):
        report = simulate_fleet(_config())
        payload = report.as_dict()
        assert payload["schema"] == "repro-fleet/1"
        assert len(payload["replicas"]) == 2
        for rep in payload["replicas"]:
            assert rep["profile"]["interval_cycles"] > 0
        assert payload["aggregate"]["conserved"]
        json.dumps(payload)  # must be JSON-clean as-is
        assert "fleet [rr]" in report.render()

    def test_sweep_emits_one_frontier_per_policy(self):
        rates = [10_000.0, 60_000.0]
        payload = fleet_sweep(_config(n_requests=5), rates, policies=["rr", "jsq"])
        assert payload["schema"] == "repro-fleet-sweep/1"
        assert set(payload["policies"]) == {"rr", "jsq"}
        for frontier in payload["policies"].values():
            assert [p["offered_fps"] for p in frontier["points"]] == rates
            # Latency-throughput shape: sojourn p99 grows with offered rate.
            p99s = [p["p99_sojourn_cycles"] for p in frontier["points"]]
            assert p99s[0] <= p99s[-1]
        json.dumps(payload)
        with pytest.raises(ValueError):
            fleet_sweep(_config(), [])

    def test_default_ladder_brackets_capacity(self):
        ladder = default_rate_ladder([FAST, FAST])
        capacity = fleet_capacity_fps([FAST, FAST])
        assert ladder == sorted(ladder)
        assert ladder[0] < capacity < ladder[-1]

    def test_min_replicas_walks_until_slo_holds(self):
        # At ~1.4x one replica's capacity with a tight SLO, one replica
        # queues past the budget and two absorb the load.
        _, interval = profile_replica(FAST)
        capacity = 105e6 / interval
        latency, _ = profile_replica(FAST)
        answer = min_replicas_for_slo(
            FAST, 1.4 * capacity, 12, int(latency + 2 * interval), policy="jsq", max_replicas=4
        )
        assert answer["schema"] == "repro-fleet-capacity/1"
        assert answer["min_replicas"] == 2
        assert [t["replicas"] for t in answer["trail"]] == [1, 2]
        assert not answer["trail"][0]["satisfied"] and answer["trail"][1]["satisfied"]

    def test_unreachable_slo_reports_none(self):
        answer = min_replicas_for_slo(FAST, 5_000.0, 4, 1, max_replicas=2)
        assert answer["min_replicas"] is None
        assert len(answer["trail"]) == 2


class TestCli:
    def test_fleet_json_is_deterministic(self, capsys):
        argv = [
            "fleet", "--replicas", "2", "--policy", "jsq", "--rate", "20000",
            "--images", "4", "--seed", "2", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["schema"] == "repro-fleet/1"
        assert first["aggregate"]["conserved"]

    def test_fleet_render_and_slo_gate(self, capsys):
        ok = main(["fleet", "--replicas", "2", "--rate", "20000", "--images", "4",
                   "--slo-p99-cycles", "100000"])
        assert ok == 0
        assert "fleet [rr]" in capsys.readouterr().out
        bad = main(["fleet", "--replicas", "1", "--rate", "20000", "--images", "4",
                    "--slo-p99-cycles", "10"])
        assert bad == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_fleet_sweep_writes_frontier_json(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        argv = ["fleet", "--replicas", "2", "--images", "3", "--sweep", "10000", "40000",
                "--policies", "rr", "jsq", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-fleet-sweep/1"
        assert set(payload["policies"]) == {"rr", "jsq"}
        capsys.readouterr()
        assert main(argv) == 2  # refuses to overwrite
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_find_capacity_requires_rate_and_slo(self, capsys):
        assert main(["fleet", "--find-capacity", "--slo-p99-cycles", "10000"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["fleet", "--find-capacity", "--rate", "20000"]) == 2
        assert "--slo-p99-cycles" in capsys.readouterr().err

    def test_find_capacity_answers(self, capsys):
        assert main(["fleet", "--find-capacity", "--rate", "20000", "--images", "4",
                     "--slo-p99-cycles", "100000", "--max-replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "capacity [rr]" in out and "R=1" in out

    def test_bad_mix_exits_cleanly(self, capsys):
        assert main(["fleet", "--mix", "lenet:28", "--rate", "1000", "--images", "2"]) == 2
        assert "lenet" in capsys.readouterr().err

    @pytest.mark.parametrize("mix", ["vgg:9999", "alexnet:12", "vgg:16:nan"])
    def test_mix_the_model_cannot_take_exits_2_with_one_line(self, mix, capsys):
        assert main(["fleet", "--mix", mix, "--images", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--mix {mix!r}" in err, err

    @pytest.mark.parametrize("rate", ["0", "nan", "inf"])
    def test_bad_rate_exits_2_with_one_line(self, rate, capsys):
        assert main(["fleet", "--replicas", "1", "--rate", rate, "--images", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--rate" in err and rate in err, err
