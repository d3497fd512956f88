"""The timing/value split: payload-free runs, the value pass, and the payload fallback.

Kernel timing never depends on element values, so ``build_pipeline``'s
pipelines run timing-only on the fast and leap schedulers and take their
output values from one memoized vectorized pass.  The exhaustive loop, the
bitops datapath and any kernel that has not declared value-independent
timing carry values through every stream instead.  These tests pin that
split: the two paths agree on everything observable, a value-reading
kernel forces the payload path, and the value pass runs once per pipeline.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import leap as leap_module
from repro.dataflow.kernel import Kernel
from repro.dataflow.leap import batch_reference_outputs
from repro.dataflow.manager import build_pipeline, simulate, timing_run
from repro.dataflow.stream import Stream
from repro.dataflow.trace import Tracer
from repro.nn import export_model
from repro.nn.inference import run_graph

from .conftest import make_tiny_chain_model
from .test_random_topologies import build_random_graph


def _chain_graph():
    return export_model(make_tiny_chain_model(), (16, 16, 3), name="tiny-chain")


def _images(graph, n: int, seed: int = 0) -> np.ndarray:
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(n, spec.height, spec.width, spec.channels))


def _assert_identical(ref, other):
    assert other.cycles == ref.cycles
    assert other.run.completion_cycles == ref.run.completion_cycles
    assert np.array_equal(other.output, ref.output)
    for name, a in ref.run.kernel_stats.items():
        assert dataclasses.asdict(other.run.kernel_stats[name]) == dataclasses.asdict(a), name
    for name, a in ref.run.stream_stats.items():
        assert dataclasses.asdict(other.run.stream_stats[name]) == dataclasses.asdict(a), name


class _OddHold(Kernel):
    """Fault injection: a pass-through stage whose timing reads the values.

    Each odd element is held one extra cycle before it is forwarded, so
    the schedule depends on what flows through — exactly what a kernel
    outside the value-independence declaration may do.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._held: int | None = None
        self._hold = 0
        self.odd_seen = 0

    def tick(self, cycle: int) -> int | None:
        if self._held is None:
            inp = self.inputs[0]
            if not inp.can_pop(cycle):
                return self._starved(cycle)
            self._held = inp.pop(cycle)
            self._hold = self._held % 2
            self.odd_seen += self._hold
            self.stats.elements_in += 1
            self.stats.mark_active(cycle)
            return None
        if self._hold:
            self._hold = 0
            self.stats.mark_active(cycle)
            return None
        out = self.outputs[0]
        if not out.can_push():
            return self._blocked(cycle)
        out.push(self._held, cycle)
        self._held = None
        self.stats.elements_out += 1
        self.stats.mark_active(cycle)
        return None


def _with_odd_hold(graph, images):
    """A model pipeline with an ``_OddHold`` stage spliced before the sink."""
    pipeline = build_pipeline(graph, images)
    engine, sink = pipeline.engine, pipeline.sink
    edge = sink.inputs[0]
    hold = _OddHold("odd_hold")
    engine.kernels.insert(engine.kernels.index(sink), hold)
    tail = Stream("odd_hold->host_sink", bits=edge.bits)
    tail.mark_every, edge.mark_every = edge.mark_every, 0
    edge.reader = hold
    hold.inputs.append(edge)
    sink.inputs[:] = []
    engine.connect(hold, sink, tail)
    return pipeline, hold


def test_value_reading_kernel_forces_the_payload_path():
    """(a) An undeclared kernel is run on real values, never mis-timed."""
    graph = _chain_graph()
    images = _images(graph, 3)
    runs = {}
    for fast in (True, False):
        pipeline, hold = _with_odd_hold(graph, images)
        cycles = pipeline.engine.run(lambda p=pipeline: p.sink.done, fast=fast)
        assert all(k.payload for k in pipeline.engine.kernels)
        kstats, sstats = pipeline.engine.collect_stats()
        runs[fast] = {
            "cycles": cycles,
            "completions": list(pipeline.sink.completion_cycles),
            "odd_seen": hold.odd_seen,
            "output": pipeline.sink.output_tensor().tolist(),
            "kernels": {n: dataclasses.asdict(st) for n, st in kstats.items()},
            "streams": {n: dataclasses.asdict(st) for n, st in sstats.items()},
        }
    assert runs[True] == runs[False]
    assert runs[True]["odd_seen"] > 0, "the held values must be the real (odd) outputs"
    assert runs[True]["output"] == run_graph(graph, images).output.tolist()
    # A kernel class that wrongly declares value independence gets a
    # timing-only run, and its first value read fails loudly instead of
    # mis-timing.
    pipeline, hold = _with_odd_hold(graph, images)
    hold.__class__ = type("_DeclaredOddHold", (_OddHold,), {"supports_leap": True})
    with pytest.raises(IndexError):
        pipeline.engine.run(lambda: pipeline.sink.done)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.sampled_from([6, 8, 10]),
    depth=st.integers(1, 3),
    with_residual=st.booleans(),
)
def test_timing_only_matches_payload_on_random_graphs(seed, size, depth, with_residual):
    """(b) Timing-only fast/leap ≡ payload exhaustive, traces included."""
    graph = build_random_graph(seed, size, depth, with_residual)
    images = _images(graph, 5, seed=seed + 1)
    tracers = {mode: Tracer() for mode in ("exhaustive", "fast", "leap")}
    runs = {mode: simulate(graph, images, mode=mode, trace=t) for mode, t in tracers.items()}
    assert all(k.payload for k in runs["exhaustive"].pipeline.engine.kernels)
    for mode in ("fast", "leap"):
        assert not any(k.payload for k in runs[mode].pipeline.engine.kernels)
        _assert_identical(runs["exhaustive"], runs[mode])
        assert tracers[mode].state() == tracers["exhaustive"].state()
    assert np.array_equal(runs["fast"].output, run_graph(graph, images).output)


def test_value_pass_runs_once_per_pipeline(monkeypatch):
    """(c) output_tensor() then batch_reference_outputs() share one pass."""
    calls = []
    real = leap_module._value_pass

    def counting(pipeline, images):
        calls.append(images.shape[0])
        return real(pipeline, images)

    monkeypatch.setattr(leap_module, "_value_pass", counting)
    graph = _chain_graph()
    images = _images(graph, 6)
    pipeline = build_pipeline(graph, images)
    pipeline.engine.run(lambda: pipeline.sink.done)
    first = pipeline.sink.output_tensor()
    again = batch_reference_outputs(pipeline, images)
    assert pipeline.sink.output_tensor() is first and again is first
    assert batch_reference_outputs(pipeline, images.copy()) is first  # equal batch
    assert calls == [6]
    # Another batch through the same kernels is computed, not memoized.
    other = batch_reference_outputs(pipeline, images[:2] + 0)
    assert np.array_equal(other, first[:2]) and calls == [6, 2]
    assert pipeline.sink.output_tensor() is first
    # simulate() reads the outputs through the same memo.
    run = simulate(graph, images, mode="leap")
    assert run.leap_report is not None and run.leap_report.leaps >= 1
    assert batch_reference_outputs(run.pipeline, images) is run.output
    assert calls == [6, 2, 6]
    assert np.array_equal(run.output, run_graph(graph, images).output)


def test_shared_outputs_cannot_be_edited_in_place():
    """Every reader shares the memo, so no reader can change it for the others."""
    graph = _chain_graph()
    images = _images(graph, 3)
    run = simulate(graph, images)
    expected = run_graph(graph, images).output
    with pytest.raises(ValueError, match="read-only"):
        run.output[0, 0, 0, 0] += 1
    edited = run.pipeline.sink.output_tensor().copy()
    edited += 1
    assert np.array_equal(run.pipeline.sink.output_tensor(), expected)
    assert np.array_equal(batch_reference_outputs(run.pipeline, images), expected)


def test_output_tensor_raises_before_the_sink_is_done():
    """(d) No values are served for images that have not all arrived."""
    graph = _chain_graph()
    images = _images(graph, 2)
    pipeline = build_pipeline(graph, images)
    with pytest.raises(RuntimeError, match="elements received"):
        pipeline.sink.output_tensor()
    pipeline.engine.run(lambda: len(pipeline.sink.completion_cycles) >= 1)
    with pytest.raises(RuntimeError, match="elements received"):
        pipeline.sink.output_tensor()


def test_leap_over_a_payload_run_serves_the_value_pass():
    """A bitops (payload) run that leaps skips values; the sink falls back."""
    graph = _chain_graph()
    images = _images(graph, 8)
    run = simulate(graph, images, mode="leap", use_bitops=True)
    assert run.leap_report is not None and run.leap_report.leaps >= 1
    assert all(k.payload for k in run.pipeline.engine.kernels)
    assert run.pipeline.outputs is run.output
    assert np.array_equal(run.output, run_graph(graph, images, use_bitops=True).output)


def test_timing_run_is_the_simulated_schedule():
    """The one timing primitive walks the schedule of a real run, cached per graph."""
    graph = _chain_graph()
    run = simulate(graph, _images(graph, 4))
    timing = timing_run(graph, 4)
    assert timing.cycles == run.cycles
    assert list(timing.completion_cycles) == run.run.completion_cycles
    assert timing.latency_cycles == run.latency_cycles
    assert timing.interval == run.steady_state_interval
    assert timing_run(graph, 4) is timing
