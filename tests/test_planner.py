"""Tests for the static partition planner (repro.planner).

The acceptance contract has three legs, each asserted here per family:

1. **Strict-clean winners** — the min-DFE plan's partition re-verifies with
   the full static checker and produces zero error/warning diagnostics.
2. **Exact prediction** — the plan's predicted steady-state interval and
   fill latency equal what a real (leap-mode) simulation of the planned
   partition measures, bit for bit, for the same image count.  This leans
   on value-independent scheduling: the planner's zero-batch replay walks
   the identical cycle schedule as a run on real data.
3. **Neighbor dominance** — simulating every ±1-cut neighbor of the winner
   is strictly no better than the winner (the search did not miss a local
   improvement).

Multi-DFE forcing recipe: tiny test graphs fit one device at any sane fill
cap, so tests that need a real cut compute ``(u1 + u2) / 2`` — the midpoint
between the 1-DFE plan's peak utilization and the best 2-split's — and pass
it as ``fill_cap``.  That cap makes one device infeasible and two feasible
by construction (naive scaling fails: per-DFE infrastructure BRAM alone
exceeds very small budgets).
"""

import json

import numpy as np
import pytest

from repro.dataflow import simulate, verify
from repro.dataflow.engine import Engine
from repro.models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph
from repro.planner import (
    PlanError,
    allowed_cut_positions,
    neighbor_partitions,
    plan_partition,
    predict_partition_timing,
)


def _images(graph, n, seed=0):
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, spec.height, spec.width, spec.channels))


def _forcing_cap(graph):
    """Fill cap that makes 1 DFE infeasible and 2 DFEs feasible."""
    one = plan_partition(graph, fill_cap=1.0, predict=False)
    assert one.n_dfes == 1
    two = plan_partition(
        graph, objective="min-latency", n_dfes=2, fill_cap=1.0, predict=False
    )
    return (one.max_utilization + two.max_utilization) / 2


FAMILIES = {
    "vgg": lambda: direct_vgg_graph(16, width=0.0625, classes=4),
    "alexnet": lambda: direct_alexnet_graph(64, width=0.25, classes=4),
    "resnet18": lambda: direct_resnet18_graph(
        16, width=0.25, classes=4, stages=[(64, 1, 1)]
    ),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def forced_plan(request):
    """A forced-2-DFE min-DFE plan per family (module-scoped: replays once)."""
    graph = FAMILIES[request.param]()
    cap = _forcing_cap(graph)
    plan = plan_partition(graph, fill_cap=cap)
    return graph, plan


class TestWinnersVerifyClean:
    def test_forced_winner_is_strict_clean(self, forced_plan):
        graph, plan = forced_plan
        assert plan.n_dfes == 2
        report = verify(graph, partition=plan.groups)
        assert not report.errors and not report.warnings, report.render()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_single_dfe_winner_is_strict_clean(self, family):
        graph = FAMILIES[family]()
        plan = plan_partition(graph, predict=False)
        assert plan.n_dfes == 1
        report = verify(graph, partition=plan.groups)
        assert not report.errors and not report.warnings, report.render()


class TestExactPrediction:
    def test_predicted_timing_matches_leap_simulation_bit_for_bit(self, forced_plan):
        graph, plan = forced_plan
        predicted = plan.predicted
        run = simulate(
            graph, _images(graph, predicted.n_images), partition=plan.groups, mode="leap"
        )
        assert run.latency_cycles == predicted.latency_cycles
        assert run.steady_state_interval == predicted.interval
        assert tuple(run.run.completion_cycles) == predicted.completion_cycles

    def test_prediction_is_mode_independent(self):
        graph = FAMILIES["vgg"]()
        predicted = predict_partition_timing(graph, [list(graph.order[1:])])
        run = simulate(
            graph, _images(graph, predicted.n_images), mode="fast"
        )
        assert run.latency_cycles == predicted.latency_cycles
        assert tuple(run.run.completion_cycles) == predicted.completion_cycles

    def test_replay_is_cached_per_partition(self, monkeypatch):
        graph = FAMILIES["vgg"]()
        partition = [list(graph.order[1:])]
        a = predict_partition_timing(graph, partition)
        runs = []
        monkeypatch.setattr(Engine, "run", lambda *args, **kw: runs.append(args))
        b = predict_partition_timing(graph, partition)
        assert a == b and runs == []  # served from the graph's timing cache


class TestNeighborDominance:
    def test_no_neighbor_beats_the_winner(self, forced_plan):
        graph, plan = forced_plan
        winner = plan.predicted.interval
        assert winner is not None
        neighbors = neighbor_partitions(graph, plan)
        assert neighbors, "a forced 2-DFE plan must have at least one neighbor"
        for cuts, partition in neighbors:
            run = simulate(
                graph,
                _images(graph, plan.predicted.n_images),
                partition=partition,
                mode="leap",
            )
            interval = run.steady_state_interval
            assert interval is not None
            assert interval >= winner, (
                f"neighbor {cuts} beats winner {plan.cuts}: {interval} < {winner}"
            )


class TestSearchInternals:
    def test_dp_and_branch_and_bound_agree_on_chains(self):
        # vgg is linear: min-dfes routes to the DP; min-latency at the same
        # device count routes to branch-and-bound.  Both must land on the
        # same cut (analytic latency is cut-invariant on chains, so the
        # bottleneck-utilization tiebreak decides in both searches).
        graph = FAMILIES["vgg"]()
        cap = _forcing_cap(graph)
        dp = plan_partition(graph, fill_cap=cap, predict=False)
        bnb = plan_partition(
            graph, objective="min-latency", n_dfes=2, fill_cap=cap, predict=False
        )
        assert dp.n_dfes == bnb.n_dfes == 2
        assert dp.cuts == bnb.cuts

    def test_audit_records_budget_kills(self, forced_plan):
        _, plan = forced_plan
        codes = {pruned.killed_by for pruned in plan.audit}
        assert codes & {"V701", "V702", "V703"}, codes

    def test_residual_cuts_are_killed_as_v503(self):
        graph = FAMILIES["resnet18"]()
        cap = _forcing_cap(graph)
        plan = plan_partition(graph, fill_cap=cap, predict=False)
        codes = {pruned.killed_by for pruned in plan.audit}
        assert "V503" in codes, codes
        # And the winner's cut respects block atomicity by construction.
        assert all(cut in allowed_cut_positions(graph) for cut in plan.cuts)

    def test_allowed_positions_exclude_residual_interiors(self):
        graph = FAMILIES["resnet18"]()
        nodes = [n for n in graph.order if n != graph.order[0]]
        positions = allowed_cut_positions(graph)
        inside = next(
            i for i, n in enumerate(nodes) if ".add" in n
        )  # cut right before an adder splits it from its operands
        assert inside not in positions

    def test_min_latency_requires_dfes(self):
        graph = FAMILIES["vgg"]()
        with pytest.raises(ValueError, match="n_dfes"):
            plan_partition(graph, objective="min-latency")

    def test_infeasible_budget_raises_plan_error(self):
        graph = FAMILIES["vgg"]()
        with pytest.raises(PlanError):
            plan_partition(graph, fill_cap=0.01, predict=False)

    def test_unmeetable_slo_raises_plan_error(self):
        graph = FAMILIES["vgg"]()
        with pytest.raises(PlanError, match="V704"):
            plan_partition(graph, slo_fps=1e12, predict=False)


class TestPlanSerialization:
    def test_plan_schema_round_trips(self, forced_plan):
        _, plan = forced_plan
        payload = json.loads(json.dumps(plan.as_dict()))
        assert payload["schema"] == "repro-plan/1"
        assert payload["n_dfes"] == 2
        assert payload["cuts"] == list(plan.cuts)
        assert len(payload["ledgers"]) == 2
        for ledger in payload["ledgers"]:
            assert 0.0 < ledger["max_utilization"] <= 1.0
        assert payload["predicted"]["interval"] == plan.predicted.interval
        assert all(p["killed_by"] for p in payload["audit"])

    def test_render_mentions_the_prediction(self, forced_plan):
        _, plan = forced_plan
        text = plan.render()
        assert "2 DFE(s)" in text
        assert "predicted: interval" in text


class TestVerifyReportJson:
    def test_verify_report_as_dict_schema(self):
        graph = FAMILIES["vgg"]()
        report = verify(graph)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schema"] == "repro-check/1"
        assert payload["subject"] == graph.name
        assert payload["ok"] is True
        assert payload["counts"]["errors"] == 0
        for diag in payload["diagnostics"]:
            assert set(diag) == {"code", "severity", "where", "message", "paper", "data"}

    def test_diagnostics_order_is_stable(self):
        graph = FAMILIES["resnet18"]()
        a = verify(graph).as_dict()
        b = verify(graph).as_dict()
        assert a == b


class TestPartitionFeasibility:
    def test_clean_partition_has_no_findings(self):
        from repro.dataflow.verify import partition_feasibility

        graph = FAMILIES["vgg"]()
        diags = partition_feasibility(graph, [list(graph.order[1:])])
        assert [d for d in diags if d.severity != "info"] == []

    def test_budget_overflow_codes(self):
        from repro.dataflow.verify import partition_feasibility

        graph = FAMILIES["vgg"]()
        diags = partition_feasibility(graph, [list(graph.order[1:])], fill_cap=0.01)
        codes = {d.code for d in diags if d.severity == "error"}
        assert codes >= {"V701", "V702", "V703"}

    def test_residual_cut_is_v503(self):
        from repro.dataflow.verify import partition_feasibility

        graph = FAMILIES["resnet18"]()
        nodes = [n for n in graph.order if n != graph.order[0]]
        adder = next(i for i, n in enumerate(nodes) if ".add" in n)
        partition = [nodes[:adder], nodes[adder:]]
        codes = {d.code for d in partition_feasibility(graph, partition)}
        assert "V503" in codes


class TestPlanCli:
    def test_plan_check_simulate_neighbors_exit_zero(self, capsys):
        from repro.cli import main

        assert (
            main(["plan", "vgg:16:0.0625", "--check", "--simulate", "--neighbors"]) == 0
        )
        out = capsys.readouterr().out
        assert "exact match" in out

    def test_plan_json_payload(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "plan.json"
        assert main(["plan", "vgg:16:0.0625", "--json", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro-plan/1"
        # Refuse to overwrite without --force.
        assert main(["plan", "vgg:16:0.0625", "--json", "--out", str(out_file)]) == 2
        assert (
            main(
                ["plan", "vgg:16:0.0625", "--json", "--out", str(out_file), "--force"]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--objective", "min-latency"],
            ["--objective", "min-latency", "--dfes", "0"],
            ["--objective", "min-latency", "--dfes", "-1"],
            ["--objective", "min-dfes", "--dfes", "0"],
            ["--objective", "min-dfes", "--dfes", "-2"],
        ],
    )
    def test_bad_dfes_exits_2_naming_the_flag(self, capsys, argv):
        from repro.cli import main

        assert main(["plan", "vgg", *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--dfes" in err[0]

    def test_check_json_payload(self, capsys):
        from repro.cli import main

        assert main(["check", "vgg:16:0.0625", "--plan", "--strict", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-check/1"
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["ok"] is True

    def test_fleet_plan_dfes(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--mix", "vgg:16:0.0625,resnet18:16", "--plan-dfes"]) == 0
        out = capsys.readouterr().out
        assert "fits one 8-DFE MPC-X node" in out


class TestFleetDfePlanning:
    def test_plan_fleet_dfes_schema(self):
        from repro.fleet import ReplicaSpec, plan_fleet_dfes

        specs = [ReplicaSpec("vgg", 16), ReplicaSpec("vgg", 16)]
        answer = plan_fleet_dfes(specs)
        assert answer["schema"] == "repro-fleet-dfes/1"
        assert answer["total_dfes"] == 2  # one DFE each at test scale
        assert answer["fits_node"] is True
        assert len(answer["replicas"]) == 2
        assert answer["replicas"][0]["n_dfes"] == 1
