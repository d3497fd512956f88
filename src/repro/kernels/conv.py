"""The streaming convolution kernel (paper Figure 3, §III-B1).

Behaviour per clock cycle, exactly as the paper describes:

* the kernel scans the (padded) input grid depth-first, consuming one
  stream element per cycle; at padding positions it "stops the input stream
  and inputs padding values into the buffer instead";
* every time the shift-register window completes at a valid output position
  (stride-aligned, inside the border), the kernel **halts the input** and
  emits one output pixel per clock until all ``O`` filters have been applied
  at this position;
* positions that produce no output (borders, stride-skipped pixels) consume
  input without an emit phase — the source of the ~13x first-layer speedup
  the paper reports for stride 4;
* the XNOR-popcount dot product, BatchNorm and activation all happen inside
  the kernel's pipeline and cost no extra cycles (they add pipeline depth,
  not initiation-interval cycles).

Fully connected layers reuse this kernel with ``K`` equal to the feature
map size (§III-B4).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..dataflow.kernel import Kernel
from ..dataflow.window import ScanWindow, depth_first_buffer_elements
from ..nn.graph import ConvNode, TensorSpec

__all__ = ["ConvKernel"]


class ConvKernel(Kernel):
    """Streaming convolution of one IR :class:`ConvNode`.

    Parameters
    ----------
    name:
        Kernel name (usually the IR node name).
    node:
        The convolution node carrying ±1 weights, stride/pad and the
        optional fused threshold unit.
    in_spec:
        Input tensor spec (unpadded).
    use_bitops:
        Compute each output position through the packed XNOR/AND-popcount
        route instead of a dense ±1 matmul.  Bit-identical; slower in
        NumPy, faithful to the hardware datapath.
    """

    blocked_rejects_output = True
    supports_leap = True
    leap_counters = ("images_done",)

    def __init__(
        self, name: str, node: ConvNode, in_spec: TensorSpec, use_bitops: bool = False
    ) -> None:
        super().__init__(name)
        self.node = node
        self.in_spec = in_spec
        self.k = node.kernel_size
        self.stride = node.stride
        self.pad = node.pad
        self.hp = in_spec.height + 2 * node.pad
        self.wp = in_spec.width + 2 * node.pad
        self.channels = in_spec.channels
        self.out_channels = node.out_channels
        self.use_bitops = use_bitops
        # Bitops operands hoisted out of the per-position path: the packed
        # weight words, activation bit width, and a reusable plane-packing
        # buffer sized to the window vector (tail bits stay zero).
        self._in_bits = in_spec.bits
        if use_bitops:
            self._packed_words = node.packed_weights().words
            n_taps = self.k * self.k * self.channels
            n_words = (n_taps + 63) // 64
            self._pack_buf = np.zeros((self._in_bits, n_words * 64), dtype=np.uint8)
            self._plane_shifts = np.arange(self._in_bits, dtype=np.int64)[:, None]
        else:
            self._packed_words = None
        # Control state: the depth-first scan position of the current image
        # (element, pixel, channel) and the outputs still to emit at the
        # current window position.  This is all a timing-only tick touches.
        self._total = self.hp * self.wp * self.channels
        self._pos = 0
        self._pixel = 0
        self._i = 0
        self._pending = 0
        self.images_done = 0
        # Payload state, built on first use: the shift-register window and
        # the current position's ``O`` output values.
        self._window: ScanWindow | None = None
        self._emit: list[int] = []
        self._pad_value = int(node.pad_level)
        # Per-pixel geometry tables, indexed by the scan pixel ``r * wp + c``:
        # padding membership, and whether the window completing at this
        # pixel is a valid (in-border, stride-aligned) output position.
        self._pad_px = [
            self._is_pad(r, c) for r in range(self.hp) for c in range(self.wp)
        ]
        km1 = self.k - 1
        self._emit_px = [
            r >= km1 and c >= km1 and self._is_valid_position(r, c)
            for r in range(self.hp)
            for c in range(self.wp)
        ]
        # Parameter-fetch cost (paper: weights + normalization parameters are
        # streamed in depth-first once, before inference starts).
        self.param_load_cycles = node.weight_count // max(1, self.k * self.k * self.channels) + (
            node.out_channels if node.threshold is not None else 0
        )

    # -- arithmetic tables (value passes only; built on first use) --------
    @cached_property
    def _wmat_f(self) -> np.ndarray:
        # Float64 weight matrix routes the GEMMs through BLAS; all
        # magnitudes stay far below 2**53, so the products are exact.
        return self.node.weights.reshape(-1, self.out_channels).astype(np.float64)

    @cached_property
    def _thresholds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Fused-threshold tables (the paper's normalization cache).

        Per-output-channel endpoints with the slope sign folded in, so one
        ``>=`` comparison covers both polarities (count(acc <= e) ==
        count(-acc >= -e)), plus the sign vector and the constant levels
        used where the slope is zero.
        """
        unit = self.node.threshold
        if unit is None:
            return None
        ends = unit.endpoints()  # (O, 2**n - 1)
        sign = np.asarray(unit.slope_sign)
        sv = np.where(sign < 0, -1.0, 1.0)
        return ends * sv[:, None], sv, sign == 0, np.asarray(unit.const_level)

    # -- geometry ------------------------------------------------------
    def _is_pad(self, r: int, c: int) -> bool:
        p = self.pad
        return r < p or r >= self.hp - p or c < p or c >= self.wp - p

    def _is_valid_position(self, r: int, c: int) -> bool:
        return (r - (self.k - 1)) % self.stride == 0 and (c - (self.k - 1)) % self.stride == 0

    def hardware_buffer_elements(self) -> int:
        """Shift-register footprint: ``I·L·(K−1) + I·K`` over the padded line."""
        return depth_first_buffer_elements(self.wp, self.channels, self.k)

    def expected_cycles_per_image(self) -> int:
        """Closed-form per-image cycles: scan elements + per-position emits.

        This is the quantity the paper's §IV-B4 "theoretical estimation of
        the number of clocks per picture" sums over layers; the cycle
        simulator is tested to match it exactly in steady state.
        """
        scan = self.hp * self.wp * self.channels
        n_out_r = (self.hp - self.k) // self.stride + 1
        n_out_c = (self.wp - self.k) // self.stride + 1
        return scan + n_out_r * n_out_c * self.out_channels

    # -- per-position math ----------------------------------------------
    def _compute_outputs(self, window: np.ndarray) -> list[int]:
        """All ``O`` filter outputs of one completed window, as one batch.

        One GEMM (or one bitplane GEMM in bitops mode) plus one vectorized
        threshold pass replaces the per-filter loop; the results are then
        replayed onto the output stream one element per clock, so cycle
        accounting is untouched.
        """
        if self.use_bitops:
            acc = self._accumulate_bitpacked(window.reshape(-1))
            acc_f = acc.astype(np.float64)
        else:
            acc_f = window.reshape(-1).astype(np.float64) @ self._wmat_f
        return self._threshold(acc_f).tolist()

    def _threshold(self, acc: np.ndarray) -> np.ndarray:
        """Vectorized ThresholdUnit.apply over a ``(..., O)`` accumulator.

        The level is the count of sign-folded endpoints at-or-below the
        accumulator, the constant level where the slope is zero; without a
        fused unit the accumulator itself is the output.
        """
        tables = self._thresholds
        if tables is None:
            return acc.astype(np.int64)
        ends, sv, is_const, const = tables
        out = ((acc * sv)[..., None] >= ends).sum(axis=-1, dtype=np.int64)
        return np.where(is_const, const, out)

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        # Scan position and emit backlog fully determine the next tick's
        # control flow; window *contents* are data and never steer it.
        return (self._pos, self._pending)

    def batch_compute(self, x: np.ndarray) -> np.ndarray:
        """All output pixels of a batch of images as one blocked GEMM.

        ``x`` is ``(N, H, W, C)`` level-space int64; the result is
        ``(N, Ho, Wo, O)``.  The W-windows × N-images im2col matrix goes
        through the same float64 weight matrix and vectorized threshold
        cascade as the streaming per-window path — every product and sum is
        an exact integer far below 2**53, so the batched result is
        bit-identical regardless of BLAS blocking (and to the bitops route,
        a tested property).  The value pass
        (:func:`~repro.dataflow.leap.batch_reference_outputs`) serves every
        timing-only run's outputs through it.
        """
        n = x.shape[0]
        k, stride = self.k, self.stride
        grid = np.full((n, self.hp, self.wp, self.channels), float(self._pad_value))
        p = self.pad
        grid[:, p : self.hp - p, p : self.wp - p, :] = x
        n_out_r = (self.hp - k) // stride + 1
        n_out_c = (self.wp - k) // stride + 1
        # One (C_in, O) GEMM per window tap, accumulated over the k*k taps:
        # im2col would gather the same data into one giant matrix, but the
        # strided 6D copy dwarfs the GEMM itself at batch scale.  The weight
        # matrix unflattens back to (k, k, C, O) — the ScanWindow tap order.
        taps = self._wmat_f.reshape(k, k, self.channels, self.out_channels)
        acc = np.zeros((n, n_out_r, n_out_c, self.out_channels))
        for dr in range(k):
            for dc in range(k):
                rows = grid[:, dr : dr + (n_out_r - 1) * stride + 1 : stride,
                            dc : dc + (n_out_c - 1) * stride + 1 : stride, :]
                acc += rows @ taps[dr, dc]
        return self._threshold(acc)

    def _accumulate_bitpacked(self, vec: np.ndarray) -> np.ndarray:
        """One AND-popcount GEMM for a single window vector.

        Equivalent to ``bitplane_gemm(packed_weights, pack_bitplanes(vec))``
        but packs into a reusable buffer and skips the (1, O, W) broadcast
        shape, since the conv hot loop always computes one position.
        """
        buf = self._pack_buf
        buf[:, : vec.shape[0]] = (vec >> self._plane_shifts) & 1
        planes = np.packbits(buf, axis=-1, bitorder="little").view(np.uint64)
        w_words = self._packed_words
        acc = None
        for b in range(self._in_bits):
            plane = planes[b]
            and_pc = np.bitwise_count(w_words & plane).sum(axis=-1, dtype=np.int64)
            mask_pc = int(np.bitwise_count(plane).sum())
            term = (2 * and_pc - mask_pc) << b
            acc = term if acc is None else acc + term
        return acc

    # -- cycle behaviour --------------------------------------------------
    def tick(self, cycle: int) -> int | None:
        pending = self._pending
        if pending:
            # Emit phase: input halted, one output pixel (channel) per clock.
            out = self.outputs[0]
            if self.payload:
                pushed = out.push(self._emit[-pending], cycle)
            else:
                pushed = out.push_token(cycle)
            if not pushed:
                return self._blocked(cycle)
            self._pending = pending - 1
            stats = self.stats
            stats.active_cycles += 1
            if stats.first_active_cycle is None:
                stats.first_active_cycle = cycle
            stats.last_active_cycle = cycle
            stats.elements_out += 1
            if pending == 1 and self._pos >= self._total:
                self._finish_image()
            return None

        # Scan phase: one element per clock, a padding level at padding
        # positions ("stops the input stream and inputs padding values").
        pixel = self._pixel
        payload = self.payload
        value = self._pad_value
        stats = self.stats
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
        stats.active_cycles += 1
        if stats.first_active_cycle is None:
            stats.first_active_cycle = cycle
        stats.last_active_cycle = cycle
        if payload:
            window = self._window
            if window is None:
                window = self._window = ScanWindow(self.hp, self.wp, self.channels, self.k)
            completed = window.feed(value)
        pos = self._pos + 1
        self._pos = pos
        i = self._i + 1
        if i < self.channels:
            self._i = i
        else:
            # Last channel of the pixel: the window (if any) completes here.
            self._i = 0
            self._pixel = pixel + 1
            if self._emit_px[pixel]:
                self._pending = self.out_channels
                if payload:
                    self._emit = self._compute_outputs(completed[2])
                return None
        if pos >= self._total:
            self._finish_image()
        return None

    def _finish_image(self) -> None:
        self.images_done += 1
        self._pos = 0
        self._pixel = 0
        self._i = 0
        if self._window is not None:
            self._window.reset()

    def reset(self) -> None:
        super().reset()
        self._finish_image()
        self._pending = 0
        self.images_done = 0
