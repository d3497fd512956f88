"""Global average pooling as a streaming integer reduction.

ResNet-18's final pooling (the only non-max pooling in the paper's
networks) is exported as an exact integer *sum* per channel; the divisor is
folded into the output affine.  The kernel consumes the whole feature map
(one element per cycle) and then drains one channel sum per cycle.
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import Kernel
from ..nn.graph import TensorSpec

__all__ = ["GlobalAvgSumKernel"]


class GlobalAvgSumKernel(Kernel):
    """Per-channel integer sum over the full spatial extent."""

    blocked_rejects_output = True
    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(self, name: str, in_spec: TensorSpec) -> None:
        super().__init__(name)
        self.channels = in_spec.channels
        self._per_image = in_spec.elements
        self._sums = [0] * self.channels
        self._count = 0
        self._emit_chan: int | None = None
        self.images_done = 0

    def expected_cycles_per_image(self) -> int:
        """Consume every element, then drain the C channel sums."""
        return self._per_image + self.channels

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._count, -1 if self._emit_chan is None else self._emit_chan)

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """Batched exact integer channel sums, ``(N, H, W, C)`` -> ``(N, 1, 1, C)``."""
        return x.sum(axis=(1, 2), keepdims=True, dtype=np.int64)

    def tick(self, cycle: int) -> int | None:
        out = self.outputs[0]
        if self._emit_chan is not None:
            if self.payload:
                pushed = out.push(self._sums[self._emit_chan], cycle)
            else:
                pushed = out.push_token(cycle)
            if pushed:
                self.stats.elements_out += 1
                self.stats.mark_active(cycle)
                self._emit_chan += 1
                if self._emit_chan >= self.channels:
                    self._emit_chan = None
                    self._sums = [0] * self.channels
                    self.images_done += 1
                return None
            return self._blocked(cycle)
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0] <= cycle):
            return self._starved(cycle)
        if self.payload:
            self._sums[self._count % self.channels] += inp.pop(cycle)
        else:
            inp.pop_token(cycle)
        self.stats.elements_in += 1
        self._count += 1
        self.stats.mark_active(cycle)
        if self._count >= self._per_image:
            self._count = 0
            self._emit_chan = 0
        return None

    def reset(self) -> None:
        super().reset()
        self._sums = [0] * self.channels
        self._count = 0
        self._emit_chan = None
        self.images_done = 0
