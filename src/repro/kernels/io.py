"""Host-side source and sink kernels (the CPU ends of the PCIe streams).

The paper keeps all pre-trained parameters on the CPU and streams images in
"directly from the CPU" (unlike FINN, which stores inputs on-chip); results
stream back for the CPU-side softmax/readout.  :class:`HostSource` replays
a batch of images as a depth-first element stream; :class:`HostSink`
reassembles output tensors and records per-image completion cycles — the
measurement point for latency, throughput and initiation-interval claims.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..dataflow.kernel import Kernel
from ..nn.graph import TensorSpec

__all__ = ["HostSource", "HostSink"]


class HostSource(Kernel):
    """Streams a batch of images into the first on-fabric kernel.

    Each image's *admission cycle* — the cycle its first element entered the
    fabric — is stamped into :attr:`admission_cycles`, giving every image
    the ingest end of its lifecycle span (the sink records the completion
    end).  An optional ``arrival_cycles`` schedule turns the source into an
    **open-loop** load generator: image *i* is withheld until its arrival
    cycle, modelling requests landing at the host at a target rate instead
    of back-to-back.  The gap between arrival and admission is the
    host-queue wait (backpressure from a saturated pipeline shows up here
    first).  While waiting for a future arrival the source parks idle with a
    self-scheduled wake at exactly that cycle, so the fast scheduler skips
    the gap and the idle accounting stays bit-identical to the exhaustive
    loop.
    """

    blocked_rejects_output = True
    supports_leap = True
    leap_counters = ("_pos", "_boundary")
    leap_cycle_lists = ("admission_cycles",)

    def __init__(
        self,
        name: str,
        images: np.ndarray,
        spec: TensorSpec,
        arrival_cycles: list[int] | None = None,
    ) -> None:
        super().__init__(name)
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        expected = (spec.height, spec.width, spec.channels)
        if images.shape[1:] != expected:
            raise ValueError(f"images shape {images.shape[1:]} != input spec {expected}")
        self.n_images = images.shape[0]
        self.images = images
        # Payload runs stream the depth-first flattening (row, column,
        # channel — C order of HWC) as plain Python ints, built on first
        # use so the per-cycle push path never touches numpy scalars.
        self._flat: list[int] | None = None
        self._n = images.size
        self._per_image = spec.elements
        self._pos = 0
        # Position of the next image boundary: pos == _boundary means the
        # next element pushed is the first element of image len(admission_cycles).
        self._boundary = 0
        self.admission_cycles: list[int] = []
        if arrival_cycles is not None:
            arrival_cycles = [int(c) for c in arrival_cycles]
            if len(arrival_cycles) != self.n_images:
                raise ValueError(
                    f"arrival schedule has {len(arrival_cycles)} entries "
                    f"for {self.n_images} image(s)"
                )
            if any(c < 0 for c in arrival_cycles):
                raise ValueError("arrival cycles must be >= 0")
            if any(b < a for a, b in zip(arrival_cycles, arrival_cycles[1:])):
                raise ValueError("arrival cycles must be non-decreasing")
        self.arrival_cycles = arrival_cycles
        # An open-loop source's behaviour depends on the absolute arrival
        # schedule, which a leaped clock would skip over — the leap
        # scheduler must fall back to the plain fast path (tested property).
        self.supports_leap = arrival_cycles is None

    @property
    def done(self) -> bool:
        return self._pos >= self._n

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        # Position within the current image (drives boundary marks) plus a
        # wet/dry flag: a drained source idles where a wet one pushes, so
        # the two states must never compare equal.
        return (self._boundary - self._pos, int(self._pos < self._n))

    def leap_images_left(self) -> int:
        """Whole images not yet begun — the leap scheduler's admission budget."""
        return (self._n - self._pos) // self._per_image

    def arrived_count(self, cycle: int) -> int:
        """Images available at the host by ``cycle`` (all of them closed-loop)."""
        if self.arrival_cycles is None:
            return self.n_images
        count = 0
        for arrival in self.arrival_cycles:
            if arrival <= cycle:
                count += 1
            else:
                break
        return count

    def tick(self, cycle: int) -> int | None:
        pos = self._pos
        if pos >= self._n:
            return self._idle(cycle)
        at_boundary = pos == self._boundary
        if at_boundary and self.arrival_cycles is not None:
            arrival = self.arrival_cycles[len(self.admission_cycles)]
            if cycle < arrival:
                # The next image has not arrived yet: idle until it does.
                self._wake_hint = arrival
                return self._idle(cycle)
        out = self.outputs[0]
        if self.payload:
            flat = self._flat
            if flat is None:
                flat = self._flat = self.images.reshape(-1).astype(np.int64).tolist()
            pushed = out.push(flat[pos], cycle)
        else:
            pushed = out.push_token(cycle)
        if pushed:
            if at_boundary:
                self.admission_cycles.append(cycle)
                self._boundary += self._per_image
                tracer = self._tracer
                if tracer is not None:
                    tracer.on_image_admitted(len(self.admission_cycles) - 1, cycle)
            self._pos = pos + 1
            stats = self.stats
            stats.elements_out += 1
            stats.active_cycles += 1
            if stats.first_active_cycle is None:
                stats.first_active_cycle = cycle
            stats.last_active_cycle = cycle
            return None
        else:
            return self._blocked(cycle)

    def reset(self) -> None:
        super().reset()
        self._pos = 0
        self._boundary = 0
        self.admission_cycles = []


class HostSink(Kernel):
    """Collects the output stream and reassembles per-image tensors."""

    supports_leap = True
    leap_counters = ("_pos",)
    leap_cycle_lists = ("completion_cycles",)

    def __init__(self, name: str, spec: TensorSpec, n_images: int) -> None:
        super().__init__(name)
        self.spec = spec
        self.n_images = n_images
        self._per_image = spec.elements
        self._total = n_images * self._per_image
        # Values streamed in by a payload run (a leap skips some of them).
        self._values: list[int] = []
        self._pos = 0
        self.completion_cycles: list[int] = []
        # The output values of a timing-only run: the pipeline installs its
        # memoized vectorized pass here (see build_pipeline).
        self.value_pass: Callable[[], np.ndarray] | None = None

    @property
    def done(self) -> bool:
        return self._pos >= self._total

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        return (self._pos % self._per_image,)

    def tick(self, cycle: int) -> None:
        pos = self._pos
        if pos >= self._total:
            return self._idle(cycle)
        inp = self.inputs[0]
        fifo = inp._fifo
        if not (fifo and fifo[0] <= cycle):
            return self._starved(cycle)
        if self.payload:
            self._values.append(inp.pop(cycle))
        else:
            inp.pop_token(cycle)
        pos += 1
        self._pos = pos
        stats = self.stats
        stats.elements_in += 1
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if pos % self._per_image == 0:
            self.completion_cycles.append(cycle)
            tracer = self._tracer
            if tracer is not None:
                tracer.on_image_complete(len(self.completion_cycles) - 1, cycle)

    def output_tensor(self) -> np.ndarray:
        """The outputs, shape (N, H, W, C), once every element has arrived.

        A payload run that streamed every element returns exactly what it
        received.  Otherwise (a timing-only run, or a leap that skipped
        elements) the values come from the pipeline's vectorized pass,
        which is bit-identical to the streamed datapath (tested property).
        """
        if not self.done:
            raise RuntimeError(f"sink {self.name!r}: only {self._pos}/{self._total} elements received")
        if len(self._values) == self._total:
            return np.asarray(self._values, dtype=np.int64).reshape(
                self.n_images, self.spec.height, self.spec.width, self.spec.channels
            )
        if self.value_pass is None:
            raise RuntimeError(
                f"sink {self.name!r}: the run carried no values and no value pass is installed"
            )
        return self.value_pass()

    def reset(self) -> None:
        super().reset()
        self._values = []
        self._pos = 0
        self.completion_cycles = []
