"""Scheduler equivalence for the cycle simulator: exhaustive / fast / leap.

The park/wake scheduler (``Engine.run(..., fast=True)``) and the
steady-state leap scheduler (``simulate(..., mode="leap")``) must both be
*observably identical* to the exhaustive per-cycle tick loop: same total
cycles, same per-image completion cycles, same output tensors, bit-identical
kernel and stream statistics — stall counters included, since the paper's
occupancy and bottleneck analyses are computed from them — and byte-identical
event traces.  These tests drive every tiny topology used across the suite
through all three paths, plus hypothesis-randomized networks for the long
tail of shapes.  (Deeper leap-specific behaviour — demotion, vetoes, the
paper-scale interval check — lives in test_leap.py.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.engine import Engine
from repro.dataflow.kernel import WAKE_NEVER, Kernel
from repro.dataflow.leap import LeapController
from repro.dataflow.manager import build_pipeline, simulate
from repro.dataflow.stream import Stream
from repro.dataflow.trace import Tracer
from repro.nn import export_model

from .conftest import make_tiny_chain_model, make_tiny_resnet_model
from .test_random_topologies import build_random_graph


def _half_partition(graph):
    names = [n for n in graph.topological() if n != graph.input_name]
    half = len(names) // 2
    return [names[:half], names[half:]]


def _assert_runs_identical(slow, fast):
    assert fast.cycles == slow.cycles
    assert fast.run.completion_cycles == slow.run.completion_cycles
    assert np.array_equal(fast.output, slow.output)
    for name, a in slow.run.kernel_stats.items():
        b = fast.run.kernel_stats[name]
        assert dataclasses.asdict(b) == dataclasses.asdict(a), f"kernel {name}"
    for name, a in slow.run.stream_stats.items():
        b = fast.run.stream_stats[name]
        assert dataclasses.asdict(b) == dataclasses.asdict(a), f"stream {name}"


def _images(seed: int, n: int = 2, size: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, size, size, 3), dtype=np.int64)


def _case(name: str):
    if name in ("chain", "bitops"):
        graph = export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")
    else:
        graph = export_model(make_tiny_resnet_model(), (16, 16, 3), name="tiny-resnet")
    kwargs = {}
    if name == "bitops":
        kwargs["use_bitops"] = True
    if name == "multi_dfe":
        kwargs["partition"] = _half_partition(graph)
    return graph, kwargs


@pytest.mark.parametrize("topology", ["chain", "resnet", "bitops", "multi_dfe"])
def test_fast_path_matches_exhaustive(topology):
    graph, kwargs = _case(topology)
    images = _images(0)
    slow = simulate(graph, images, fast=False, **kwargs)
    fast = simulate(graph, images, fast=True, **kwargs)
    _assert_runs_identical(slow, fast)


@pytest.mark.parametrize("topology", ["chain", "resnet", "bitops", "multi_dfe"])
def test_leap_mode_matches_exhaustive_and_fast(topology):
    """Three-way equivalence with the leap scheduler actually leaping.

    Eight images give the pipeline enough steady state for the controller
    to prove a period and jump; everything observable — cycles, outputs,
    stats, and the full event trace — must still be bit-identical.
    """
    graph, kwargs = _case(topology)
    images = _images(1, n=8)
    t_slow, t_fast, t_leap = Tracer(), Tracer(), Tracer()
    slow = simulate(graph, images, mode="exhaustive", trace=t_slow, **kwargs)
    fast = simulate(graph, images, mode="fast", trace=t_fast, **kwargs)
    leap = simulate(graph, images, mode="leap", trace=t_leap, **kwargs)
    _assert_runs_identical(slow, fast)
    _assert_runs_identical(slow, leap)
    assert t_fast.state() == t_slow.state()
    assert t_leap.state() == t_slow.state()
    assert leap.leap_report is not None
    assert leap.leap_report.leaps >= 1, "leap controller never engaged"
    assert fast.leap_report is None


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([6, 8, 10]),
    depth=st.integers(1, 3),
    with_residual=st.booleans(),
)
def test_fast_path_matches_exhaustive_random(seed, size, depth, with_residual):
    graph = build_random_graph(seed, size, depth, with_residual)
    rng = np.random.default_rng(seed + 1)
    channels = graph.input_spec.channels
    images = rng.integers(0, 4, size=(5, size, size, channels), dtype=np.int64)
    slow = simulate(graph, images, fast=False)
    fast = simulate(graph, images, fast=True)
    leap = simulate(graph, images, mode="leap")
    _assert_runs_identical(slow, fast)
    _assert_runs_identical(slow, leap)


# -- synthetic regression topologies ------------------------------------
#
# Hand-built kernels for scheduler edge cases the model-derived graphs
# cannot reach.  They follow the Kernel stats conventions exactly so the
# fast path's bulk accounting applies to them unchanged, and they record
# every live tick cycle so tests can assert the clock never ran backwards.


class _RecordingKernel(Kernel):
    """Base for synthetic kernels: records the cycle of every live tick."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.tick_cycles: list[int] = []

    def tick(self, cycle: int) -> int | None:
        self.tick_cycles.append(cycle)
        return self._tick(cycle)


class _ListSource(_RecordingKernel):
    """Pushes a fixed list of values, one per cycle; idles when drained."""

    blocked_rejects_output = True

    def __init__(self, name: str, values: list[int]) -> None:
        super().__init__(name)
        self._values = list(values)
        self._pos = 0

    def _tick(self, cycle: int) -> int | None:
        if self._pos >= len(self._values):
            return self._idle(cycle)
        if self.outputs[0].push(self._values[self._pos], cycle):
            self._pos += 1
            self.stats.elements_out += 1
            self.stats.mark_active(cycle)
            return None
        return self._blocked(cycle)


class _EagerAdd(_RecordingKernel):
    """Adds two streams, popping input 0 *before* checking input 1.

    The eager pop is legal — the element is held across ticks, and every
    cycle the kernel then spends parked is side-effect-free — but it is
    exactly the shape that wakes a blocked writer whose sweep slot has
    already passed, leaving the writer's ``_wake_at`` in the past.  With
    every kernel parked right after, the fast path's fast-forward used to
    adopt that stale wake-up and run the clock backwards.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._held: int | None = None

    def _tick(self, cycle: int) -> int | None:
        a, b = self.inputs
        if self._held is None and a.can_pop(cycle):
            self._held = a.pop(cycle)
            self.stats.elements_in += 1
        if self._held is None or not b.can_pop(cycle):
            return self._starved(cycle)
        out = self.outputs[0]
        if not out.can_push():
            return self._blocked(cycle)
        out.push(self._held + b.pop(cycle), cycle)
        self._held = None
        self.stats.elements_in += 1
        self.stats.elements_out += 1
        self.stats.mark_active(cycle)
        return None


class _CountSink(_RecordingKernel):
    """Pops everything that arrives; done after ``expected`` elements."""

    def __init__(self, name: str, expected: int) -> None:
        super().__init__(name)
        self.expected = expected
        self.received: list[int] = []

    @property
    def done(self) -> bool:
        return len(self.received) >= self.expected

    def _tick(self, cycle: int) -> int | None:
        inp = self.inputs[0]
        if not inp.can_pop(cycle):
            return self._starved(cycle)
        self.received.append(inp.pop(cycle))
        self.stats.elements_in += 1
        self.stats.mark_active(cycle)
        return None


class _RingStage(_RecordingKernel):
    """Pass-through +1 stage used to build an (intentionally) deadlocked ring."""

    def _tick(self, cycle: int) -> int | None:
        inp = self.inputs[0]
        if not inp.can_pop(cycle):
            return self._starved(cycle)
        if not self.outputs[0].can_push():
            return self._blocked(cycle)
        self.outputs[0].push(inp.pop(cycle) + 1, cycle)
        self.stats.elements_in += 1
        self.stats.elements_out += 1
        self.stats.mark_active(cycle)
        return None


def _build_rewind_topology():
    """The clock-rewind regression shape (see _EagerAdd).

    Sweep order puts the capacity-1 writer ``w`` before the eager adder
    ``e``; ``p`` feeds the adder's second input through a latency-6 link so
    that after the eager pop *every* kernel is parked and the fast path
    fast-forwards — with ``w`` holding a wake-up cycle already in the past.
    """
    engine = Engine("rewind")
    w = _ListSource("w", [10, 11, 12])
    p = _ListSource("p", [1])
    e = _EagerAdd("e")
    s = _CountSink("s", expected=1)
    for kernel in (w, p, e, s):
        engine.add_kernel(kernel)
    engine.connect(w, e, Stream("a", capacity=1))
    engine.connect(p, e, Stream("b", capacity=4, latency=6))
    engine.connect(e, s, Stream("out", capacity=4))
    return engine, s


def _run_engine(fast: bool, trace: Tracer | None = None):
    engine, sink = _build_rewind_topology()
    cycles = engine.run(lambda: sink.done, max_cycles=10_000, fast=fast, trace=trace)
    kstats, sstats = engine.collect_stats()
    return engine, sink, cycles, kstats, sstats


def test_fast_forward_never_rewinds_the_clock():
    """Regression: a stale pop-hook wake-up must not drag the clock back.

    Pre-fix, ``cycle = target`` in the fast-forward adopted the parked
    writer's past wake cycle, the writer ticked the same cycle twice, and
    its push landed one cycle earlier than the exhaustive loop's.
    """
    slow_engine, slow_sink, slow_cycles, slow_k, slow_s = _run_engine(fast=False)
    fast_engine, fast_sink, fast_cycles, fast_k, fast_s = _run_engine(fast=True)

    assert fast_cycles == slow_cycles
    assert fast_sink.received == slow_sink.received
    for name, a in slow_k.items():
        assert dataclasses.asdict(fast_k[name]) == dataclasses.asdict(a), f"kernel {name}"
    for name, a in slow_s.items():
        assert dataclasses.asdict(fast_s[name]) == dataclasses.asdict(a), f"stream {name}"
    # No kernel may ever observe the clock move backwards, and no kernel
    # may tick the same cycle twice (the rewind's double-tick signature).
    for kernel in fast_engine.kernels:
        ticks = kernel.tick_cycles
        assert all(b > a for a, b in zip(ticks, ticks[1:])), f"{kernel.name}: {ticks}"


def test_fast_forward_rewind_trace_equality():
    """The regression topology also produces identical event traces."""
    t_slow, t_fast = Tracer(), Tracer()
    _run_engine(fast=False, trace=t_slow)
    _run_engine(fast=True, trace=t_fast)
    assert t_fast.state() == t_slow.state()


@pytest.mark.parametrize("fast", [False, True])
def test_deadlock_aborts_at_max_cycles(fast):
    """A cyclic starvation deadlock must abort at exactly ``max_cycles``."""
    engine = Engine("ring")
    a = _RingStage("a")
    b = _RingStage("b")
    engine.add_kernel(a)
    engine.add_kernel(b)
    engine.connect(a, b, Stream("ab", capacity=2))
    engine.connect(b, a, Stream("ba", capacity=2))
    with pytest.raises(RuntimeError, match="no convergence after 500 cycles"):
        engine.run(lambda: False, max_cycles=500, fast=fast)


def test_deadlock_abort_settles_identical_stall_counters():
    """Fast and exhaustive abort with bit-identical settled statistics."""
    results = {}
    for fast in (False, True):
        engine = Engine("ring")
        a = _RingStage("a")
        b = _RingStage("b")
        engine.add_kernel(a)
        engine.add_kernel(b)
        engine.connect(a, b, Stream("ab", capacity=2))
        engine.connect(b, a, Stream("ba", capacity=2))
        with pytest.raises(RuntimeError):
            engine.run(lambda: False, max_cycles=500, fast=fast)
        kstats, sstats = engine.collect_stats()
        results[fast] = (
            {n: dataclasses.asdict(s) for n, s in kstats.items()},
            {n: dataclasses.asdict(s) for n, s in sstats.items()},
        )
    assert results[True] == results[False]
    kstats, _ = results[True]
    assert kstats["a"]["input_starved_cycles"] == 500
    assert kstats["b"]["input_starved_cycles"] == 500


@pytest.mark.parametrize("max_cycles", [0, -1])
def test_run_rejects_non_positive_cycle_budget(max_cycles):
    engine = Engine("guard")
    with pytest.raises(ValueError, match="max_cycles must be a positive cycle budget"):
        engine.run(lambda: True, max_cycles=max_cycles)


# -- tick order and the runnable set -------------------------------------
#
# The fast path keeps a runnable set instead of sweeping every kernel: the
# kernels that did not park last cycle plus a heap of timed wakes.  These
# tests pin what that set must preserve: any tick order (not just the
# topological one the manager builds), the same-cycle pop-wake rule in
# both directions, no visits to parked kernels, and a heap that follows a
# leap jump's shift of every parked wake cycle.


def _run_in_order(graph, images, order_seed: int | None, fast: bool, **kwargs):
    """Build a pipeline, shuffle its tick order, run it traced."""
    pipeline = build_pipeline(graph, images, **kwargs)
    engine = pipeline.engine
    if order_seed is not None:
        np.random.default_rng(order_seed).shuffle(engine.kernels)
    tracer = Tracer()
    cycles = engine.run(lambda: pipeline.sink.done, fast=fast, trace=tracer)
    kstats, sstats = engine.collect_stats()
    return pipeline, cycles, kstats, sstats, tracer


def _assert_order_runs_identical(graph, images, order_seed: int, **kwargs):
    slow = _run_in_order(graph, images, order_seed, fast=False, **kwargs)
    fast = _run_in_order(graph, images, order_seed, fast=True, **kwargs)
    assert [k.name for k in fast[0].engine.kernels] == [k.name for k in slow[0].engine.kernels]
    assert fast[1] == slow[1]
    assert fast[0].sink.completion_cycles == slow[0].sink.completion_cycles
    assert np.array_equal(fast[0].sink.output_tensor(), slow[0].sink.output_tensor())
    for name, a in slow[2].items():
        assert dataclasses.asdict(fast[2][name]) == dataclasses.asdict(a), f"kernel {name}"
    for name, a in slow[3].items():
        assert dataclasses.asdict(fast[3][name]) == dataclasses.asdict(a), f"stream {name}"
    assert fast[4].state() == slow[4].state()
    return fast[0]


def _blocked_writer_directions(pipeline) -> set[str]:
    """Tick-order directions of the edges whose writer ever blocked."""
    position = {k.name: i for i, k in enumerate(pipeline.engine.kernels)}
    directions = set()
    for stream in pipeline.engine.streams:
        writer, reader = stream.writer, stream.reader
        if writer is None or reader is None or not writer.stats.output_blocked_cycles:
            continue
        ahead = position[writer.name] > position[reader.name]
        directions.add("ahead" if ahead else "behind")
    return directions


@pytest.mark.parametrize("topology", ["chain", "resnet", "multi_dfe"])
@pytest.mark.parametrize("order_seed", [0, 1])
def test_shuffled_tick_order_matches_exhaustive(topology, order_seed):
    """Any tick order: fast ≡ exhaustive on counts, stats and the event log.

    A shuffled order has writers both ahead of and behind their readers,
    so a pop frees a blocked writer whose sweep slot is still to come
    (it reruns this cycle) as well as one whose slot has passed (it ticks
    next cycle); the test requires both kinds of blocked writer to occur.
    """
    graph, kwargs = _case(topology)
    pipeline = _assert_order_runs_identical(graph, _images(order_seed), order_seed, **kwargs)
    assert _blocked_writer_directions(pipeline) == {"ahead", "behind"}


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([6, 8, 10]),
    depth=st.integers(1, 3),
    with_residual=st.booleans(),
    order_seed=st.integers(0, 2**16),
)
def test_shuffled_tick_order_matches_exhaustive_random(
    seed, size, depth, with_residual, order_seed
):
    graph = build_random_graph(seed, size, depth, with_residual)
    rng = np.random.default_rng(seed + 1)
    channels = graph.input_spec.channels
    images = rng.integers(0, 4, size=(3, size, size, channels), dtype=np.int64)
    _assert_order_runs_identical(graph, images, order_seed)


def _count_ticks(engine: Engine) -> dict[str, int]:
    """Wrap every kernel's tick: total calls, and calls that made progress."""
    counts = {"calls": 0, "progress": 0}
    for kernel in engine.kernels:
        inner = kernel.tick

        def tick(cycle: int, inner=inner) -> int | None:
            status = inner(cycle)
            counts["calls"] += 1
            if status is None:
                counts["progress"] += 1
            return status

        kernel.tick = tick
    return counts


def test_parked_kernels_are_not_ticked_open_loop():
    """Images 10⁵ cycles apart: the idle gaps cost no ticks at all.

    Nearly every kernel waits on nearly every cycle of this run; the fast
    path ticks only kernels that made progress last cycle or whose wake
    fell due, so its tick count stays within a small multiple of the
    progress ticks, while matching the exhaustive loop exactly.
    """
    graph = export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")
    images = _images(3, n=3)
    arrivals = [0, 100_000, 200_000]
    slow = simulate(graph, images, fast=False, arrival_cycles=arrivals)
    pipeline = build_pipeline(graph, images, arrival_cycles=arrivals)
    counts = _count_ticks(pipeline.engine)
    cycles = pipeline.engine.run(lambda: pipeline.sink.done, fast=True)
    assert cycles == slow.cycles > 200_000
    assert pipeline.sink.completion_cycles == slow.run.completion_cycles
    kstats, sstats = pipeline.engine.collect_stats()
    for name, a in slow.run.kernel_stats.items():
        assert dataclasses.asdict(kstats[name]) == dataclasses.asdict(a), f"kernel {name}"
    for name, a in slow.run.stream_stats.items():
        assert dataclasses.asdict(sstats[name]) == dataclasses.asdict(a), f"stream {name}"
    assert counts["progress"] > 0
    assert counts["calls"] <= 2 * counts["progress"], counts
    # The exhaustive loop ticks every kernel every cycle; here the whole
    # run averages under one tick per cycle.
    assert counts["calls"] < cycles


def test_leap_jump_rebuilds_the_wake_heap(monkeypatch):
    """Leap ≡ fast across jumps that land with timed wakes pending.

    On a 2-DFE MaxRing partition, kernels downstream of the link sit
    parked with a finite wake cycle (the link element's ready cycle) when
    the controller jumps.  The jump shifts those wake cycles, so the wake
    heap must be rebuilt; stale entries would leave them asleep.
    """
    graph, kwargs = _case("multi_dfe")
    images = _images(4, n=6)
    pending: list[str] = []
    apply = LeapController._apply

    def recording_apply(self, prev, cur, n, period):
        pending.extend(
            k.name for k in self._engine.kernels if k._parked and k._wake_at < WAKE_NEVER
        )
        apply(self, prev, cur, n, period)

    t_fast, t_leap = Tracer(), Tracer()
    fast = simulate(graph, images, mode="fast", trace=t_fast, **kwargs)
    monkeypatch.setattr(LeapController, "_apply", recording_apply)
    leap = simulate(graph, images, mode="leap", trace=t_leap, **kwargs)
    assert leap.leap_report is not None and leap.leap_report.leaps >= 1
    assert pending, "no kernel held a timed wake across a jump"
    _assert_runs_identical(fast, leap)
    assert t_leap.state() == t_fast.state()
