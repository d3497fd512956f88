"""CLI tests for the telemetry-facing subcommands (simulate --json, top, stats)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.telemetry import validate_exposition


class TestSimulateJson:
    def test_json_mode_is_machine_readable(self, capsys):
        rc = cli_main(["simulate", "--images", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-telemetry/1"
        assert payload["stats"]["images"] == 2
        assert payload["stats"]["cycles"] > payload["stats"]["latency_cycles"] > 0
        assert payload["stats"]["fps"] > 0
        assert payload["manifest"]["topology"]["name"].startswith("vgg")
        names = {f["name"] for f in payload["metrics"]}
        assert "repro_kernel_cycles_total" in names

    def test_exports_prometheus_and_snapshot_files(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        snap = tmp_path / "m.json"
        rc = cli_main(
            ["simulate", "--images", "2", "--prom", str(prom), "--snapshot", str(snap)]
        )
        assert rc == 0
        assert validate_exposition(prom.read_text()) == []
        assert json.loads(snap.read_text())["finished"] is True

    def test_existing_export_requires_force(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        prom.write_text("old\n")
        rc = cli_main(["simulate", "--prom", str(prom)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        assert prom.read_text() == "old\n"
        rc = cli_main(["simulate", "--prom", str(prom), "--force"])
        assert rc == 0
        assert prom.read_text() != "old\n"


class TestImagesEdge:
    @pytest.mark.parametrize("command", [["simulate"], ["top", "--plain", "--refresh", "0"]])
    @pytest.mark.parametrize("images", ["0", "-3"])
    def test_no_images_exits_2_naming_the_flag(self, capsys, command, images):
        rc = cli_main([*command, "--images", images])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"--images must be >= 1, got {images}"]


class TestOutputGuard:
    """Every ``--out`` subcommand goes through the one overwrite guard."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--out"],
            ["load", "--rate", "1000", "--json", "--out"],
            ["fleet", "--replicas", "1", "--out"],
            ["check", "vgg:16:0.0625", "--out"],
            ["plan", "vgg:16:0.0625", "--out"],
            ["perf", "report", "--out"],
            ["perf", "diff", "--out"],
        ],
    )
    def test_existing_out_refused_without_force(self, capsys, tmp_path, argv):
        out = tmp_path / "taken.json"
        out.write_text("old\n")
        assert cli_main([*argv, str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{out} exists; pass --force to overwrite"]
        assert out.read_text() == "old\n"


class TestSimulateLeapDemotion:
    def test_open_loop_leap_warns_with_reason(self, capsys):
        # An open-loop arrival schedule demotes --mode leap to the fast
        # path; the CLI must say so (one stderr line naming the reason)
        # instead of silently delivering fast-path wall clock.
        rc = cli_main(
            ["simulate", "--images", "2", "--mode", "leap", "--rate", "9000"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "leap demoted to the fast path" in captured.err
        assert "open-loop" in captured.err
        # The demotion line replaces the no-window note on stdout.
        assert "no steady-state window" not in captured.out

    def test_closed_loop_leap_does_not_warn(self, capsys):
        rc = cli_main(["simulate", "--images", "2", "--mode", "leap"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "demoted" not in captured.err

    def test_open_loop_rate_without_leap_mode_is_quiet(self, capsys):
        rc = cli_main(["simulate", "--images", "2", "--rate", "9000"])
        assert rc == 0
        assert "demoted" not in capsys.readouterr().err


class TestTraceOverwriteGuard:
    def test_trace_refuses_existing_out(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text("{}")
        rc = cli_main(["trace", "--out", str(out)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        assert out.read_text() == "{}"

    def test_trace_force_overwrites(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text("{}")
        rc = cli_main(["trace", "--out", str(out), "--force"])
        assert rc == 0
        assert out.read_text() != "{}"


class TestTop:
    def test_plain_dashboard_runs(self, capsys):
        rc = cli_main(["top", "--plain", "--images", "2", "--refresh", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "run complete" in out
        assert "utilization" in out


class TestStats:
    def test_healthy_run_reports_ok(self, capsys):
        rc = cli_main(["stats", "--images", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall-adjusted utilization" in out
        assert "FPS" in out

    def test_fault_injected_skip_names_root_edge(self, capsys):
        rc = cli_main(
            [
                "stats",
                "--network",
                "resnet18",
                "--skip-capacity",
                "8",
                "--max-cycles",
                "50000",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "root bottleneck edge" in out
        assert "minimum safe capacity" in out

    def test_skip_capacity_on_chain_topology_rejected(self, capsys):
        rc = cli_main(["stats", "--network", "vgg", "--skip-capacity", "4"])
        assert rc == 2
        assert "no adders" in capsys.readouterr().err
