"""Streaming pooling kernels (paper §III-B2).

"The pooling kernel is built similarly to the convolutional one.  Since the
pooling has no parameters, output pixels are calculated as soon as enough
data is accumulated inside the internal buffers.  In addition, since each
output pixel depends only on its own feature map, we do not need to wait
until input is finished, but can produce output at the same clock cycle at
which the input is received."

Concretely: with depth-first streaming, the K x K window of channel ``i``
completes exactly when element ``(r, c, i)`` of the window's bottom-right
pixel arrives — so the kernel can emit channel ``i``'s max in that same
cycle, never stalling the input (output rate ≤ input rate because pooling
is contractive).
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import Kernel
from ..dataflow.window import depth_first_buffer_elements
from ..nn.graph import MaxPoolNode, TensorSpec

__all__ = ["MaxPoolKernel"]


class MaxPoolKernel(Kernel):
    """Max pooling over a depth-first pixel stream, one in / up to one out per cycle."""

    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(self, name: str, node: MaxPoolNode, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.k = node.kernel_size
        self.stride = node.stride
        self.pad = node.pad
        self.h = in_spec.height + 2 * node.pad
        self.w = in_spec.width + 2 * node.pad
        self.channels = in_spec.channels
        # Payload state, built on first use — a flat Python-int grid where
        # element (r, c, i) lives at (r*w + c)*C + i (plain list indexing
        # beats per-cycle numpy scalar access).
        self._grid: list[int] = []
        self._total = self.h * self.w * self.channels
        self._pos = 0
        self._pixel = 0
        self._i = 0
        self.images_done = 0
        # Per-pixel geometry tables and the flat offsets of the K x K window
        # (relative to the bottom-right element, same channel).
        self._emit_px = [
            self._emits_at(r, c) for r in range(self.h) for c in range(self.w)
        ]
        self._pad_px = [
            self._is_pad(r, c) for r in range(self.h) for c in range(self.w)
        ]
        self._win_offsets = [
            (dr * self.w + dc) * self.channels
            for dr in range(self.k)
            for dc in range(self.k)
        ]

    def hardware_buffer_elements(self) -> int:
        return depth_first_buffer_elements(self.w, self.channels, self.k)

    def expected_cycles_per_image(self) -> int:
        """Pooling adds no stall cycles: per-image cost is the scan itself."""
        return self._total

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._pos,)

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched functional max pool, ``(N, H, W, C)`` -> ``(N, Ho, Wo, C)``.

        Mirrors the streaming kernel exactly: the grid is padded with level 0
        (neutral under max for non-negative levels) and outputs appear at the
        stride-valid window positions.
        """
        n = x.shape[0]
        grid = np.zeros((n, self.h, self.w, self.channels), dtype=np.int64)
        p = self.pad
        grid[:, p : self.h - p, p : self.w - p, :] = x
        windows = np.lib.stride_tricks.sliding_window_view(grid, (self.k, self.k), axis=(1, 2))
        windows = windows[:, :: self.stride, :: self.stride]
        return windows.max(axis=(-2, -1))

    def _emits_at(self, r: int, c: int) -> bool:
        if r < self.k - 1 or c < self.k - 1:
            return False
        return (r - (self.k - 1)) % self.stride == 0 and (c - (self.k - 1)) % self.stride == 0

    def _is_pad(self, r: int, c: int) -> bool:
        p = self.pad
        return p > 0 and (r < p or r >= self.h - p or c < p or c >= self.w - p)

    def tick(self, cycle: int) -> int | None:
        pixel = self._pixel
        emits = self._emit_px[pixel]
        out = self.outputs[0]
        if emits and len(out._fifo) >= out.capacity:
            # Must emit this cycle but there is no space: stall the input too
            # (the value cannot be consumed without producing).
            return self._blocked(cycle)
        payload = self.payload
        stats = self.stats
        value = 0  # padding: level 0, neutral under max for non-negative levels
        if not self._pad_px[pixel]:
            inp = self.inputs[0]
            fifo = inp._fifo
            if not (fifo and fifo[0] <= cycle):
                return self._starved(cycle)
            if payload:
                value = inp.pop(cycle)
            else:
                inp.pop_token(cycle)
            stats.elements_in += 1
        i = self._i
        if payload:
            grid = self._grid or self._new_grid()
            base = pixel * self.channels + i
            grid[base] = value
        self._pos += 1
        if i + 1 < self.channels:
            self._i = i + 1
        else:
            self._i = 0
            self._pixel = pixel + 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if emits:
            if payload:
                out.push(max(grid[base - off] for off in self._win_offsets), cycle)
            else:
                out.push_token(cycle)
            stats.elements_out += 1
        if self._pos >= self._total:
            self._finish_image()
        return None

    def _new_grid(self) -> list[int]:
        self._grid = [0] * self._total
        return self._grid

    def _finish_image(self) -> None:
        self.images_done += 1
        self._pos = 0
        self._pixel = 0
        self._i = 0

    def reset(self) -> None:
        super().reset()
        self._pos = 0
        self._pixel = 0
        self._i = 0
        self._grid = []
        self.images_done = 0
