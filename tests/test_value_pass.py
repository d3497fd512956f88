"""The value pass: chunked per-tap GEMMs and integer thresholds, bit-exact.

Every timing-only run takes its outputs from ``batch_reference_outputs``,
which walks the graph over chunks of images through each kernel's
``batch_compute``.  These tests pin that pass against the independent
references — ``run_graph`` (dense int64 matmul + ``ThresholdUnit.apply``),
the bitops datapath and the streamed payload outputs — across chunk
boundaries, on the float64 fallback, on threshold ties, and check that its
GEMMs stay on one BLAS thread.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import leap as leap_module
from repro.dataflow.leap import VALUE_PASS_CHUNK, batch_reference_outputs
from repro.dataflow.manager import build_pipeline, simulate
from repro.dataflow.stream import Stream
from repro.kernels.conv import SINGLE_THREAD_GEMM_MNK, ConvKernel, capped_matmul
from repro.kernels.threshold import IntegerThresholds, ThresholdKernel
from repro.models import direct_alexnet_graph, direct_resnet18_graph, direct_vgg_graph
from repro.nn.graph import ConvNode, TensorSpec, ThresholdNode
from repro.nn.inference import run_graph
from repro.quantization.thresholds import ThresholdUnit

from .test_random_topologies import build_random_graph

BATCHES = [1, VALUE_PASS_CHUNK - 1, VALUE_PASS_CHUNK, VALUE_PASS_CHUNK + 1]


def _levels(graph, n: int, seed: int) -> np.ndarray:
    spec = graph.input_spec
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << spec.bits, size=(n, spec.height, spec.width, spec.channels))


def _value_pass(graph, images: np.ndarray) -> np.ndarray:
    return batch_reference_outputs(build_pipeline(graph, images), images)


# -- (a) value pass == run_graph == bitops -----------------------------------


@given(
    st.integers(0, 2**31 - 1),
    st.integers(6, 10),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from(BATCHES),
)
@settings(max_examples=12, deadline=None)
def test_random_graphs_across_chunk_boundaries(seed, size, depth, with_residual, n):
    graph = build_random_graph(seed, size, depth, with_residual)
    images = _levels(graph, n, seed ^ 0x5EED)
    out = _value_pass(graph, images)
    assert np.array_equal(out, run_graph(graph, images).output)
    assert np.array_equal(out, run_graph(graph, images, use_bitops=True).output)


@pytest.mark.parametrize(
    "build",
    [
        lambda: direct_vgg_graph(16, width=0.0625, classes=4),
        lambda: direct_resnet18_graph(16, width=0.0625, classes=4),
        lambda: direct_alexnet_graph(67, width=0.0625, fc_features=64, classes=4),
    ],
    ids=["vgg", "resnet18", "alexnet"],
)
@pytest.mark.parametrize("n", BATCHES)
def test_shipped_models_across_chunk_boundaries(build, n):
    graph = build()
    images = _levels(graph, n, n)
    out = _value_pass(graph, images)
    assert out.shape[0] == n
    assert np.array_equal(out, run_graph(graph, images).output)
    assert np.array_equal(out, run_graph(graph, images, use_bitops=True).output)


def test_value_pass_matches_the_streamed_payload_outputs():
    graph = direct_resnet18_graph(16, width=0.0625, classes=4)
    images = _levels(graph, 2, 7)
    streamed = simulate(graph, images, mode="exhaustive")
    assert all(k.payload for k in streamed.pipeline.engine.kernels)
    assert np.array_equal(_value_pass(graph, images), streamed.output)


def test_chunks_walk_the_graph_in_order(monkeypatch):
    """A batch of 2 chunks + 1 image is walked three times, in image order."""
    seen = []
    real = leap_module._chunk_pass

    def recording(pipeline, images):
        seen.append(images.shape[0])
        return real(pipeline, images)

    monkeypatch.setattr(leap_module, "_chunk_pass", recording)
    graph = direct_vgg_graph(16, width=0.0625, classes=4)
    images = _levels(graph, 2 * VALUE_PASS_CHUNK + 1, 3)
    out = _value_pass(graph, images)
    assert seen == [VALUE_PASS_CHUNK, VALUE_PASS_CHUNK, 1]
    assert np.array_equal(out, run_graph(graph, images).output)


# -- (b) the float64 route ---------------------------------------------------


def _conv_kernel(k: int, channels: int, out_channels: int, kind: str, bits: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    weights = rng.choice([-1, 1], size=(k, k, channels, out_channels))
    node = ConvNode("conv", weights, stride=1, pad=k // 2)
    return node, ConvKernel("conv", node, TensorSpec(5, 5, channels, kind, bits))


def test_levels_input_takes_float32():
    node, kernel = _conv_kernel(3, 16, 8, "levels", 2)
    x = np.random.default_rng(1).integers(0, 4, size=(3, 5, 5, 16))
    assert kernel.gemm_dtype(x) is np.float32
    assert np.array_equal(kernel.batch_compute(x), node.compute([x]))


def test_bound_at_2_pow_24_takes_float64_and_stays_exact(monkeypatch):
    node, kernel = _conv_kernel(3, 4, 8, "acc", 16)
    # k²·C·max|x| = 36 · (2**22 - 1) >= 2**24: partial sums leave float32's
    # exact-integer range, and odd magnitudes there lose their low bits.
    rng = np.random.default_rng(2)
    x = rng.integers(-(2**22) + 1, 2**22, size=(2, 5, 5, 4)) | 1
    x[0, 0, 0, 0] = 2**22 - 1
    assert kernel.gemm_dtype(x) is np.float64
    expected = node.compute([x])
    assert np.array_equal(kernel.batch_compute(x), expected)
    # The choice matters: the same GEMMs in float32 get this batch wrong.
    monkeypatch.setattr(ConvKernel, "gemm_dtype", lambda self, x: np.float32)
    assert not np.array_equal(kernel.batch_compute(x), expected)


def test_acc_input_beyond_its_clamped_spec_takes_float64():
    """The bound comes from the data: a 16-bit ``acc`` spec would say float32."""
    node, kernel = _conv_kernel(1, 256, 4, "acc", 16)
    spec_peak = 1 << 15
    assert 256 * spec_peak < 1 << 24  # what the clamped spec would promise
    x = np.full((1, 5, 5, 256), (1 << 17) + 1)
    assert kernel.gemm_dtype(x) is np.float64
    assert np.array_equal(kernel.batch_compute(x), node.compute([x]))


def test_pad_level_counts_toward_the_bound():
    _, kernel = _conv_kernel(3, 4, 2, "acc", 16)
    kernel._pad_value = 1 << 20
    assert kernel.gemm_dtype(np.zeros((1, 5, 5, 4), dtype=np.int64)) is np.float64


def test_capped_matmul_splits_rows_and_columns(monkeypatch):
    rng = np.random.default_rng(3)
    calls = []
    real = np.matmul

    def spy(a, b, out):
        calls.append(a.shape[-2] * b.shape[0] * b.shape[1])
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    for m, k, n in [(1000, 64, 64), (7, 600, 1000), (1, 3, 1)]:
        a = rng.integers(-3, 4, size=(m, k)).astype(np.float32)
        b = rng.choice([-1.0, 1.0], size=(k, n)).astype(np.float32)
        out = np.empty((m, n), dtype=np.float32)
        calls.clear()
        capped_matmul(a, b, out)
        assert np.array_equal(out, a.astype(np.int64) @ b.astype(np.int64))
        assert calls and max(calls) <= SINGLE_THREAD_GEMM_MNK


# -- (c) threshold ties --------------------------------------------------------


def _unit(tau, step, sign, const, bits) -> ThresholdUnit:
    return ThresholdUnit(
        tau=np.asarray(tau, dtype=np.float64),
        step=np.asarray(step, dtype=np.float64),
        slope_sign=np.asarray(sign, dtype=np.int64),
        const_level=np.asarray(const, dtype=np.int64),
        bits=bits,
    )


TIE_UNITS = {
    # Integer endpoints, so accumulators land exactly on them; fractional
    # ones; negative and zero slopes; an endpoint past float32's exact range.
    "2bit": _unit([0.0, 2.5, -3.0, 7.0, 1.0, 2.0**24 + 0.5],
                  [2.0, -1.5, 1.0, -2.0, 0.0, 1.0], [1, -1, 1, -1, 0, 1], [0, 0, 0, 0, 3, 0], 2),
    "4bit": _unit([-20.0, 15.5, 0.25, 3.0], [3.0, -2.0, 0.5, 0.0], [1, -1, 1, 0], [0, 0, 0, 9], 4),
    "8bit": _unit([-300.0, 250.0, -0.5, 4.0], [2.0, -2.0, 0.75, 0.0], [1, -1, 1, 0], [0, 0, 0, 200], 8),
}


def _tie_values(unit: ThresholdUnit) -> np.ndarray:
    """Every integer on, next to, and between the unit's endpoints, ``(N, 1, 1, 1)``."""
    ends = unit.endpoints()
    near = ends[np.abs(ends) < 1e6]
    lo, hi = int(np.floor(near.min())) - 3, int(np.ceil(near.max())) + 3
    return np.arange(lo, hi + 1).reshape(-1, 1, 1, 1)


@pytest.mark.parametrize("name", sorted(TIE_UNITS))
@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_integer_thresholds_equal_the_unit_on_ties(name, dtype):
    unit = TIE_UNITS[name]
    acc = np.repeat(_tie_values(unit), unit.channels, axis=-1)
    assert np.array_equal(IntegerThresholds(unit)(acc.astype(dtype)), unit.apply(acc))


@pytest.mark.parametrize("name", sorted(TIE_UNITS))
def test_fused_conv_and_threshold_kernel_equal_the_unit(name):
    unit = TIE_UNITS[name]
    c = unit.channels
    x = _tie_values(unit)
    # A 1x1 conv from one input channel with all-+1 weights makes every
    # output channel's accumulator the input itself: the fused unit sees
    # each tie value on every channel.
    node = ConvNode("fan-out", np.ones((1, 1, 1, c), dtype=np.int8), threshold=unit)
    conv = ConvKernel("fan-out", node, TensorSpec(1, 1, 1, "acc", 16))
    acc = np.repeat(x, c, axis=-1)
    assert np.array_equal(conv.batch_compute(x), unit.apply(acc))
    # The streaming path levels one completed window at a time.
    per_window = [conv._compute_outputs(np.array([v])) for v in x.ravel()]
    assert per_window == unit.apply(acc).reshape(-1, c).tolist()
    threshold = ThresholdKernel("th", ThresholdNode("th", unit), TensorSpec(1, 1, c, "acc", 16))
    assert np.array_equal(threshold.batch_compute(acc), unit.apply(acc))
    # The streaming threshold kernel levels one element per tick.
    inp, out = Stream("in", capacity=acc.size), Stream("out", capacity=acc.size)
    threshold.connect_input(inp)
    threshold.connect_output(out)
    for v in acc.ravel().tolist():
        inp.push(v, 0)
    streamed = []
    for cycle in range(4 * acc.size):
        threshold.tick(cycle)
        if out.can_pop(cycle):
            streamed.append(out.pop(cycle))
    assert streamed == unit.apply(acc).ravel().tolist()


# -- (d) the GEMMs stay on one thread ----------------------------------------


def test_value_pass_does_not_spin_blas_threads():
    """CPU time tracks wall time: no BLAS worker pool wakes up (and spins)."""
    graph = direct_vgg_graph(32, width=0.25, classes=10)
    images = _levels(graph, 64, 5)
    pipeline = build_pipeline(graph, images)
    leap_module._value_pass(pipeline, images)  # warm caches
    time.sleep(0.5)  # let any worker spin left by earlier tests run out
    excess = []
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.process_time()
        leap_module._value_pass(pipeline, images)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        excess.append(cpu - (1.25 * wall + 0.010))
    assert min(excess) <= 0, f"value pass used {min(excess):.3f}s of CPU beyond 1.25x wall"
