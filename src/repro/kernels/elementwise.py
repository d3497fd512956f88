"""Element-wise streaming kernels: the residual adder and the stream fork.

The paper's skip-connection infrastructure (§III-B5, Figure 2) is exactly
these two pieces plus a delay buffer: the convolution output is *forked*
into the regular path and the skip path, and a later *adder* sums the
delayed skip stream with the next convolution's output.  "The addition of a
skip connection requires a minimal amount of resources — one adder and the
buffer."
"""

from __future__ import annotations

import numpy as np

from ..dataflow.kernel import Kernel

__all__ = ["AddKernel", "ForkKernel"]


class AddKernel(Kernel):
    """Sum two integer streams element-wise (the residual adder).

    Consumes one element from each input when both are available and the
    output has space; the skip path carries 16-bit integers in hardware.
    """

    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(self, name: str, per_image_elements: int) -> None:
        super().__init__(name)
        self._per_image = per_image_elements
        self._count = 0
        self.images_done = 0

    def expected_cycles_per_image(self) -> int:
        return self._per_image

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._count,)

    def batch_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched functional residual add over ``(N, H, W, C)`` tensors."""
        return a + b

    def tick(self, cycle: int) -> int | None:
        a, b = self.inputs
        fa, fb = a._fifo, b._fifo
        if not (fa and fa[0] <= cycle and fb and fb[0] <= cycle):
            return self._starved(cycle)
        out = self.outputs[0]
        if len(out._fifo) >= out.capacity:
            return self._blocked(cycle)
        if self.payload:
            out.push(a.pop(cycle) + b.pop(cycle), cycle)
        else:
            a.pop_token(cycle)
            b.pop_token(cycle)
            out.push_token(cycle)
        stats = self.stats
        stats.elements_in += 2
        stats.elements_out += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        self._count += 1
        if self._count >= self._per_image:
            self._count = 0
            self.images_done += 1
        return None

    def reset(self) -> None:
        super().reset()
        self._count = 0
        self.images_done = 0


class ForkKernel(Kernel):
    """Duplicate a stream to N consumers (the skip-path split of Figure 2).

    An element advances only when *every* output has space — a wire fork
    has no storage of its own.
    """

    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(self, name: str, per_image_elements: int) -> None:
        super().__init__(name)
        self._per_image = per_image_elements
        self._count = 0
        self.images_done = 0

    def expected_cycles_per_image(self) -> int:
        return self._per_image

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._count,)

    def tick(self, cycle: int) -> int | None:
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0] <= cycle):
            return self._starved(cycle)
        outputs = self.outputs
        for o in outputs:
            if len(o._fifo) >= o.capacity:
                return self._blocked(cycle)
        if self.payload:
            value = inp.pop(cycle)
            for o in outputs:
                o.push(value, cycle)
        else:
            inp.pop_token(cycle)
            for o in outputs:
                o.push_token(cycle)
        stats = self.stats
        stats.elements_in += 1
        stats.elements_out += len(outputs)
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        self._count += 1
        if self._count >= self._per_image:
            self._count = 0
            self.images_done += 1
        return None

    def reset(self) -> None:
        super().reset()
        self._count = 0
        self.images_done = 0
