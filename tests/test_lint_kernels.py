"""Tests for the kernel-contract linter (tools/lint_kernels.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
LINTER = REPO_ROOT / "tools" / "lint_kernels.py"

_spec = importlib.util.spec_from_file_location("lint_kernels", LINTER)
lint_kernels = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("lint_kernels", lint_kernels)
_spec.loader.exec_module(lint_kernels)


def _codes(source: str, tmp_path: Path) -> list[str]:
    path = tmp_path / "probe.py"
    path.write_text(source)
    return [v.code for v in lint_kernels.lint_file(path)]


class TestRepoIsClean:
    def test_default_paths_have_no_violations(self):
        violations = lint_kernels.lint_paths(list(lint_kernels.DEFAULT_PATHS))
        assert violations == [], [v.render() for v in violations]

    def test_cli_exit_zero_on_repo(self, capsys):
        assert lint_kernels.main([]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_cli_exit_nonzero_on_missing_path(self, capsys):
        assert lint_kernels.main([str(REPO_ROOT / "no" / "such" / "file.py")]) == 1
        assert "KC000" in capsys.readouterr().out


class TestTickReturns:
    def test_bad_return_value_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        return 7
"""
        assert _codes(src, tmp_path) == ["KC001"]

    @pytest.mark.parametrize(
        "ret",
        ["return", "return None", "return self._starved(cycle)",
         "return self._blocked(cycle)", "return self._idle(cycle)"],
    )
    def test_allowed_returns_pass(self, ret, tmp_path):
        src = f"""
class GoodKernel(Kernel):
    def tick(self, cycle):
        {ret}
"""
        assert _codes(src, tmp_path) == []

    def test_non_kernel_classes_ignored(self, tmp_path):
        src = """
class Helper:
    def tick(self, cycle):
        return 3.14 / 2
"""
        assert _codes(src, tmp_path) == []


class TestStreamMutation:
    def test_direct_fifo_mutator_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        self.inputs[0]._fifo.popleft()
"""
        assert _codes(src, tmp_path) == ["KC002"]

    def test_aliased_fifo_mutator_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        inp = self.inputs[0]
        fifo = inp._fifo
        fifo.append((0, 1))
"""
        assert _codes(src, tmp_path) == ["KC002"]

    def test_value_deque_mutator_flagged(self, tmp_path):
        # The value deque rides in step with _fifo; touching it alone desyncs them.
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        inp = self.inputs[0]
        inp._values.popleft()
        vals = self.outputs[0]._values
        vals.append(7)
"""
        assert _codes(src, tmp_path) == ["KC002", "KC002"]

    def test_stream_attribute_assignment_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        out = self.outputs[0]
        out.capacity = 99
"""
        assert _codes(src, tmp_path) == ["KC002"]

    def test_tuple_unpacked_stream_alias_tracked(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        a, b = self.inputs
        b._fifo = None
"""
        assert _codes(src, tmp_path) == ["KC002"]

    def test_fifo_reads_allowed(self, tmp_path):
        # Reading the deque on the hot path is the repo's documented idiom.
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        inp = self.inputs[0]
        fifo = inp._fifo
        if fifo and fifo[0][1] <= cycle:
            value = inp.pop(cycle)
"""
        assert _codes(src, tmp_path) == []

    def test_own_state_alias_writes_allowed(self, tmp_path):
        # Hoisting `stats = self.stats` and writing through it is fine.
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        stats = self.stats
        stats.active_cycles += 1
        grid = self._grid
        grid[0] = 5
        self.outputs[0].push(1, cycle)
"""
        assert _codes(src, tmp_path) == []


class TestFloatFreeTick:
    def test_float_literal_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        x = 0.5
"""
        assert _codes(src, tmp_path) == ["KC003"]

    def test_true_division_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        x = cycle / 2
"""
        assert _codes(src, tmp_path) == ["KC003"]

    def test_float_call_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        x = float(cycle)
"""
        assert _codes(src, tmp_path) == ["KC003"]

    def test_floor_division_and_ints_pass(self, tmp_path):
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        x = cycle // 2 + 3
"""
        assert _codes(src, tmp_path) == []

    def test_float_outside_tick_allowed(self, tmp_path):
        # Numeric lowering helpers (e.g. _compute_outputs) may use floats.
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        return None

    def _compute_outputs(self, window):
        return [x / 2.0 for x in window]
"""
        assert _codes(src, tmp_path) == []


class TestSlotsDataclasses:
    def test_missing_slots_flagged(self, tmp_path):
        src = """
from dataclasses import dataclass

@dataclass
class Record:
    x: int = 0
"""
        assert _codes(src, tmp_path) == ["KC004"]

    def test_slots_true_passes(self, tmp_path):
        src = """
from dataclasses import dataclass

@dataclass(slots=True)
class Record:
    x: int = 0
"""
        assert _codes(src, tmp_path) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        assert _codes("def broken(:\n", tmp_path) == ["KC000"]


class TestStateMutationScope:
    def test_mutation_from_accessor_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        return None

    def render(self):
        self.stats.emitted += 1
        return "x"
"""
        assert _codes(src, tmp_path) == ["KC005"]

    def test_mutation_via_tick_helper_allowed(self, tmp_path):
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        self._account(cycle)
        return None

    def _account(self, cycle):
        self._bump()

    def _bump(self):
        self.stats.ticks += 1
"""
        assert _codes(src, tmp_path) == []

    def test_batch_compute_is_a_root(self, tmp_path):
        src = """
class GoodKernel(Kernel):
    def batch_compute(self, images):
        self.stats.images += 1
"""
        assert _codes(src, tmp_path) == []

    def test_same_file_slots_dataclass_attr_tracked(self, tmp_path):
        src = """
from dataclasses import dataclass

@dataclass(slots=True)
class Window:
    rows: int = 0

class BadKernel(Kernel):
    def __init__(self):
        self.window = Window()

    def tick(self, cycle):
        return None

    def describe(self):
        self.window.rows = 3
"""
        assert _codes(src, tmp_path) == ["KC005"]

    def test_constructors_and_reset_exempt(self, tmp_path):
        src = """
class GoodKernel(Kernel):
    def __init__(self):
        self.stats.ticks = 0

    def reset(self):
        self.stats.ticks = 0

    def tick(self, cycle):
        return None
"""
        assert _codes(src, tmp_path) == []

    def test_subscript_mutation_below_state_flagged(self, tmp_path):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        return None

    def snapshot(self):
        self.stats.counts[0] = 1
"""
        assert _codes(src, tmp_path) == ["KC005"]

    def test_kernel_without_local_roots_skipped(self, tmp_path):
        # tick() lives on the base class; mutation scope is its contract.
        src = """
class Mixin(Kernel):
    def helper(self):
        self.stats.ticks += 1
"""
        assert _codes(src, tmp_path) == []

    def test_non_state_attributes_ignored(self, tmp_path):
        src = """
class GoodKernel(Kernel):
    def tick(self, cycle):
        return None

    def configure(self):
        self.capacity.limit = 5
"""
        assert _codes(src, tmp_path) == []


class TestSchedulerStateWrites:
    def test_write_outside_allowed_places_flagged(self, tmp_path):
        src = """
def force_wake(kernel, cycle):
    kernel._wake_at = cycle


class EagerKernel(Kernel):
    def tick(self, cycle):
        self._parked, self._park_kind = False, 0
        return None
"""
        assert _codes(src, tmp_path) == ["KC006", "KC006", "KC006"]

    def test_allowed_writers_and_reads_pass(self, tmp_path):
        module = tmp_path / "repro" / "dataflow"
        module.mkdir(parents=True)
        src = """
class Kernel:
    def __init__(self, name):
        self._parked = False
        self._wake_at = 1 << 62

    def reset(self):
        self._park_cycle = 0

    def tick(self, cycle):
        if self._parked and self._wake_at > cycle:
            return None
        self._wake_hint = cycle + 1
        return None
"""
        path = module / "kernel.py"
        path.write_text(src)
        assert [v.code for v in lint_kernels.lint_file(path)] == []
        # The same writes from a method the allow-list does not name are flagged.
        path.write_text(src + "\n    def rewind(self):\n        self._wake_at = 0\n")
        assert [v.code for v in lint_kernels.lint_file(path)] == ["KC006"]

    def test_default_run_covers_the_whole_package(self):
        assert "src/repro" in lint_kernels.KC006_PATHS
        violations = lint_kernels.lint_repo()
        assert violations == [], [v.render() for v in violations]


class TestSelectFlag:
    def test_select_filters_codes(self, tmp_path, capsys):
        src = """
class BadKernel(Kernel):
    def tick(self, cycle):
        x = 0.5
        return 7
"""
        path = tmp_path / "probe.py"
        path.write_text(src)
        assert lint_kernels.main([str(path), "--select", "KC003"]) == 1
        out = capsys.readouterr().out
        assert "KC003" in out and "KC001" not in out
        assert lint_kernels.main([str(path), "--select", "KC005"]) == 0
