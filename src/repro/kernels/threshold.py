"""Standalone BatchNorm + activation threshold kernel (§III-B3).

In the common case the threshold unit is fused into the convolution kernel
(no extra cycles).  After a residual add, however, BatchNorm + activation
run as their own streaming stage: one element in, one level out per clock,
evaluated as the paper describes — a comparison cascade (binary search)
over the ``2**n − 1`` pre-computed endpoints of the element's channel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..dataflow.kernel import Kernel
from ..nn.graph import TensorSpec, ThresholdNode

__all__ = ["ThresholdKernel"]


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
        ends = self.unit.endpoints()
        self._signs = [int(s) for s in self.unit.slope_sign]
        self._const = [int(v) for v in self.unit.const_level]
        # Ascending per-channel endpoint lists for the hot path: plain
        # Python bisect beats an np.searchsorted call per element by ~5x.
        # Negative-slope channels store the reversed (ascending) endpoints.
        self._asc: list[list[float]] = [
            ends[c][::-1].tolist() if self._signs[c] < 0 else ends[c].tolist()
            for c in range(self.channels)
        ]
        self._n_ends = ends.shape[1]
        self.images_done = 0
        self._count = 0
        self._per_image = in_spec.elements

    def expected_cycles_per_image(self) -> int:
        return self._per_image

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._count,)

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched threshold pass over ``(N, H, W, C)``, one searchsorted per channel.

        Mirrors the per-element bisect of :meth:`tick` exactly — bisect_right
        on ascending endpoints for positive slopes, the reversed left-search
        count for negative ones, the constant level where the slope is zero.
        """
        out = np.empty(x.shape, dtype=np.int64)
        for c in range(self.channels):
            v = x[..., c]
            sign = self._signs[c]
            if sign == 0:
                out[..., c] = self._const[c]
            elif sign > 0:
                out[..., c] = np.searchsorted(self._asc[c], v, side="right")
            else:
                out[..., c] = self._n_ends - np.searchsorted(self._asc[c], v, side="left")
        return out

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
            sign = self._signs[chan]
            if sign == 0:
                level = self._const[chan]
            elif sign > 0:
                level = bisect_right(self._asc[chan], value)
            else:
                level = self._n_ends - bisect_left(self._asc[chan], value)
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
