"""Standalone BatchNorm + activation threshold kernel (§III-B3).

In the common case the threshold unit is fused into the convolution kernel
(no extra cycles).  After a residual add, however, BatchNorm + activation
run as their own streaming stage: one element in, one level out per clock,
evaluated as the paper describes — a comparison cascade (binary search)
over the ``2**n − 1`` pre-computed endpoints of the element's channel.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..dataflow.kernel import Kernel
from ..nn.graph import TensorSpec, ThresholdNode
from ..quantization.thresholds import ThresholdUnit

__all__ = ["IntegerThresholds", "ThresholdKernel"]


class IntegerThresholds:
    """A :class:`ThresholdUnit` leveled over integer accumulators, batched.

    For an integer ``a`` and a real endpoint ``e``, ``a >= e`` exactly when
    ``a >= ceil(e)``; with the slope sign folded in (``a <= e`` iff
    ``-a >= -e``) every channel's level is the count of its ceiled,
    sign-folded endpoints at or below the sign-folded accumulator, and a
    zero-slope channel takes its constant level.  The comparisons are exact
    in the accumulator's own float dtype as long as it holds every value
    exactly (float32 below 2**24, float64 below 2**53): a ceiled endpoint
    in that range converts exactly, and one beyond it stays beyond every
    value.  Bit-identical to :meth:`ThresholdUnit.apply` on integer inputs
    (a tested property).  One routine serves the conv's fused unit, per
    window and per batch, and the standalone threshold kernel's value pass;
    that kernel's streaming ``tick`` bisects the same tables per element
    (the paper's comparison cascade).
    """

    def __init__(self, unit: ThresholdUnit) -> None:
        sign = np.asarray(unit.slope_sign)
        self.flip = np.where(sign < 0, -1.0, 1.0)
        self.is_const = sign == 0
        self.const = np.asarray(unit.const_level)
        folded = unit.endpoints() * self.flip[:, None]
        folded[self.is_const] = 0.0  # unused; keeps NaNs out of the tables
        # (C, E), ascending per channel; ceil keeps infinities as they are.
        self.ends = np.sort(np.ceil(folded), axis=1)
        self.count_dtype = np.min_scalar_type(self.ends.shape[1])
        self.flips = bool((sign < 0).any())
        self.has_const = bool(self.is_const.any())
        self._tables: dict[tuple[int, np.dtype], tuple[np.ndarray | None, np.ndarray]] = {}

    def __call__(self, acc: np.ndarray) -> np.ndarray:
        """Levels of an integer-valued ``(..., W, C)`` accumulator, as int64.

        Integer arrays are compared in float64, so their values must stay
        below 2**53 in magnitude (skip-path sums are 16-bit).
        """
        if acc.dtype.kind != "f":
            acc = acc.astype(np.float64)
        # Rows of a whole image row (Wo pixels x C channels) against the
        # per-channel tables tiled to match: long inner loops, not one numpy
        # inner loop per pixel.  One compare-and-count pass per endpoint,
        # counted in the smallest dtype that holds their number.
        shape = acc.shape
        flip, ends = self._tiled(shape[-2], acc.dtype)
        v = acc.reshape(-1, ends.shape[1])
        if flip is not None:
            v = v * flip
        out = (v >= ends[0]).astype(self.count_dtype)
        for e in ends[1:]:
            out += v >= e
        out = out.reshape(shape)
        if self.has_const:
            np.copyto(out, self.const, where=self.is_const, casting="unsafe")
        return out.astype(np.int64)

    def _tiled(self, rep: int, dtype: np.dtype) -> tuple[np.ndarray | None, np.ndarray]:
        """The slope signs and ``(E, rep·C)`` endpoints repeated over ``rep`` pixels."""
        key = (rep, dtype)
        tables = self._tables.get(key)
        if tables is None:
            flip = np.tile(self.flip, rep).astype(dtype) if self.flips else None
            tables = self._tables[key] = (flip, np.tile(self.ends.T, (1, rep)).astype(dtype))
        return tables


class ThresholdKernel(Kernel):
    """Streaming fused BatchNorm + n-bit activation."""

    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(self, name: str, node: ThresholdNode, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.unit = node.unit
        self.channels = in_spec.channels
        if self.unit.channels != self.channels:
            raise ValueError(f"{name}: threshold channels != stream channels")
        # Pre-compute per-channel endpoint tables once (the normalization
        # cache of the paper: two parameters per channel, expanded here).
        # The batched routine's ceiled, sign-folded endpoints serve the hot
        # path too (stream elements are integers): one bisect_right over
        # them counts the level of either slope polarity (plain Python
        # bisect beats an np.searchsorted call per element by ~5x).
        self._levels = IntegerThresholds(self.unit)
        self._ends = [row.tolist() for row in self._levels.ends]
        self._flip = [int(f) for f in self._levels.flip]
        self._is_const = self._levels.is_const.tolist()
        self._const = [int(v) for v in self.unit.const_level]
        self.images_done = 0
        self._count = 0
        self._per_image = in_spec.elements

    def expected_cycles_per_image(self) -> int:
        return self._per_image

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._count,)

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched threshold pass over ``(N, H, W, C)`` (:class:`IntegerThresholds`)."""
        return self._levels(x)

    def tick(self, cycle: int) -> int | None:
        inp = self.inputs[0]
        out = self.outputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0] <= cycle):
            return self._starved(cycle)
        if len(out._fifo) >= out.capacity:
            return self._blocked(cycle)
        count = self._count
        if self.payload:
            # The element's channel follows from its position (channels
            # innermost, and every image is a whole number of pixels).
            value = inp.pop(cycle)
            chan = count % self.channels
            if self._is_const[chan]:
                level = self._const[chan]
            else:
                level = bisect_right(self._ends[chan], value * self._flip[chan])
            out.push(level, cycle)
        else:
            inp.pop_token(cycle)
            out.push_token(cycle)
        stats = self.stats
        stats.elements_in += 1
        stats.elements_out += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        count += 1
        if count >= self._per_image:
            count = 0
            self.images_done += 1
        self._count = count
        return None

    def reset(self) -> None:
        super().reset()
        self._count = 0
        self.images_done = 0
