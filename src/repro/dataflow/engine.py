"""The cycle-driven dataflow engine.

An :class:`Engine` owns a set of kernels and the streams between them and
advances them clock by clock.  Kernels tick in topological order; since a
stream element pushed at cycle *t* only becomes visible at *t + 1* (plus
link latency), tick order cannot create same-cycle combinational paths —
the model is a registered pipeline, like the synthesized fabric.

The engine is where the paper's overlap claim becomes measurable: "due to
this computation overlap, the latency is pretty small, and after the
initiation interval, computations are performed by all layers
simultaneously."  :meth:`Engine.run` reports per-kernel activity windows
and per-image completion cycles so that claim can be tested, not assumed.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from .interval import mean_completion_interval
from .kernel import STALL_BLOCKED, STALL_STARVED, WAKE_NEVER, Kernel, KernelStats
from .stream import Stream, StreamStats
from .trace import Tracer

if TYPE_CHECKING:
    from ..telemetry.collector import Telemetry
    from .leap import LeapController

__all__ = ["Engine", "RunResult"]


@dataclass
class RunResult:
    """Outcome of an engine run."""

    cycles: int
    completion_cycles: list[int]
    output: np.ndarray | None
    kernel_stats: dict[str, KernelStats]
    stream_stats: dict[str, StreamStats]
    converged: bool

    @property
    def latency_cycles(self) -> int:
        """Cycles until the first image fully emerged."""
        if not self.completion_cycles:
            raise ValueError("no image completed")
        return self.completion_cycles[0]

    @property
    def steady_state_interval(self) -> float | None:
        """Mean cycles between completions (throughput⁻¹); ``None`` under two."""
        return mean_completion_interval(self.completion_cycles)

    def overlap_fraction(self, kernels: list[str]) -> float:
        """Fraction of the run during which all named kernels were concurrently live.

        A kernel is "live" between its first and last active cycle; full
        pipelining means every layer's live window covers nearly the whole
        run after the initiation interval.
        """
        windows = []
        for name in kernels:
            st = self.kernel_stats[name]
            if st.first_active_cycle is None:
                return 0.0
            windows.append((st.first_active_cycle, st.last_active_cycle))
        start = max(w[0] for w in windows)
        end = min(w[1] for w in windows)
        if end <= start:
            return 0.0
        return (end - start) / max(1, self.cycles)


class Engine:
    """A single simulated DFE (or a chain of them when links have latency)."""

    def __init__(self, name: str = "dfe") -> None:
        self.name = name
        self.kernels: list[Kernel] = []
        self.streams: list[Stream] = []
        # Active tracer for the current run (None = tracing off).  Held on
        # the engine so the bulk stall accounting can synthesize the spans
        # the fast path never ticked.
        self._tracer: Tracer | None = None
        # Active telemetry collector (None = telemetry off).  The run loops
        # pay one `is not None` test per cycle for it — no per-event hooks.
        self._telemetry: Telemetry | None = None

    def add_kernel(self, kernel: Kernel) -> Kernel:
        self.kernels.append(kernel)
        return kernel

    def add_stream(self, stream: Stream) -> Stream:
        self.streams.append(stream)
        return stream

    def connect(self, producer: Kernel, consumer: Kernel, stream: Stream) -> Stream:
        self.add_stream(stream)
        producer.connect_output(stream)
        consumer.connect_input(stream)
        stream.writer = producer
        stream.reader = consumer
        return stream

    def run(
        self,
        done: Callable[[], bool],
        max_cycles: int = 50_000_000,
        fast: bool = True,
        trace: Tracer | None = None,
        telemetry: "Telemetry | None" = None,
        leap: "LeapController | None" = None,
    ) -> int:
        """Tick kernels until ``done()`` is true; returns the cycle count.

        ``fast=True`` (the default) runs the runnable-set scheduler: kernels
        that report a stall (starved / blocked / idle) are parked and woken
        by stream push/pop events, with the skipped cycles bulk-accounted so
        every counter matches the exhaustive loop bit for bit.  Each cycle
        ticks, in kernel-list order, only the kernels that did not park on
        the previous cycle plus those whose wake fell due; wakes wait on a
        min-heap of ``(wake_cycle, kernel_index)`` entries, and an entry
        whose kernel has since woken or re-parked is stale and dropped.  A
        pop that frees a blocked writer wakes it this cycle if its slot is
        still ahead in the tick order, else on the next cycle.  When no
        kernel is runnable the engine jumps straight to the earliest live
        wake, never backwards.  ``fast=False`` keeps the original
        tick-everything loop as the executable reference semantics.

        ``trace`` accepts a fresh :class:`~repro.dataflow.trace.Tracer`;
        the engine installs its hooks on every kernel and stream for the
        duration of the run, so the tracer sees every tick classification,
        push/pop/reject, link transit, and image completion with exact
        cycle timestamps.  Both schedulers produce the identical event log
        (the fast path synthesizes stall spans for the cycles it skipped);
        tracing changes no observable behaviour, only records it.

        ``telemetry`` accepts a fresh
        :class:`~repro.telemetry.collector.Telemetry`; the run loops sample
        it every ``telemetry.sample_every`` simulated cycles (mirroring the
        aggregate counters into its metrics registry) and seal it with a
        final sample at the run's cycle count, which therefore reconciles
        exactly with :meth:`collect_stats`.  On a non-converging run the
        collector is left unsealed for the caller (see
        :func:`repro.telemetry.attribution.run_attributed`).

        ``leap`` accepts a :class:`~repro.dataflow.leap.LeapController`
        (built by ``LeapController.for_engine``): on top of the fast
        scheduler, proven steady-state periods are skipped wholesale, with
        every counter, list, park offset and trace event synthesized to
        stay bit-identical to the exhaustive loop; the wake heap is rebuilt
        from the shifted park state after each jump.  Requires ``fast=True``.
        """
        if max_cycles <= 0:
            raise ValueError(
                f"engine {self.name!r}: max_cycles must be a positive cycle budget, "
                f"got {max_cycles!r}"
            )
        if leap is not None:
            if not fast:
                raise ValueError(
                    f"engine {self.name!r}: the leap scheduler extends the fast path; "
                    "pass fast=True (or drop the controller)"
                )
            trace = leap.begin_run(max_cycles, trace)
        if trace is not None:
            trace.attach(self)
        if telemetry is not None:
            telemetry.attach(self)
        self._tracer = trace
        self._telemetry = telemetry
        try:
            if fast:
                cycles = self._run_fast(done, max_cycles, leap)
            else:
                cycles = self._run_exhaustive(done, max_cycles)
            if trace is not None:
                trace.finish(cycles)
            if telemetry is not None:
                telemetry.finish(cycles)
            return cycles
        finally:
            self._tracer = None
            self._telemetry = None
            if trace is not None:
                trace.detach(self)

    def _run_exhaustive(self, done: Callable[[], bool], max_cycles: int) -> int:
        """The reference loop: every kernel ticks every cycle."""
        tracer = self._tracer
        if tracer is not None:
            return self._run_exhaustive_traced(done, max_cycles, tracer)
        telemetry = self._telemetry
        cycle = 0
        kernels = self.kernels
        while not done():
            for kernel in kernels:
                kernel.tick(cycle)
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                raise self._no_convergence(max_cycles)
        return cycle

    def _run_exhaustive_traced(
        self, done: Callable[[], bool], max_cycles: int, tracer: Tracer
    ) -> int:
        """The reference loop with every tick classification recorded."""
        telemetry = self._telemetry
        cycle = 0
        kernels = self.kernels
        on_tick = tracer.on_tick
        while not done():
            for kernel in kernels:
                on_tick(kernel.name, cycle, kernel.tick(cycle))
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                raise self._no_convergence(max_cycles)
        return cycle

    # -- fast path -------------------------------------------------------
    #
    # Invariants that make event-skipping exact (see DESIGN.md):
    #
    # * A kernel that reported STARVED cannot unstall until an input stream
    #   gains a ready element — either a pending element's ready cycle
    #   passes (timed wake scheduled at park time) or a new push arrives
    #   (push hook fires with the exact ready cycle).
    # * A kernel that reported BLOCKED cannot unstall until an output pop
    #   frees space (pop hook).
    # * An IDLE kernel (host endpoints after their data is exhausted) never
    #   unstalls unless it set a ``_wake_hint``; otherwise its idle cycles
    #   are settled when the run ends.
    # * Stall ticks are side-effect-free except for their counters: one
    #   stall counter per cycle, plus one ``full_rejections`` per cycle on
    #   ``outputs[0]`` for kernels whose blocked tick attempts a push
    #   (``blocked_rejects_output``).  Parked cycles replay exactly those
    #   increments, so stats are bit-identical to the exhaustive loop.
    # * Kernels whose tick reports no classification are never parked and
    #   tick every cycle, so arbitrary user kernels degrade to the
    #   exhaustive semantics rather than to wrong schedules.
    #
    # The runnable set that replaces the per-cycle sweep over all kernels:
    #
    # * Each cycle ticks, in kernel-list order, the kernels that did not
    #   park on the previous cycle plus the parked kernels whose wake is
    #   due.  Parked kernels are never visited otherwise.
    # * Every write of a finite ``_wake_at`` to a parked kernel — the park
    #   itself and the stream push/pop hooks, which only ever lower it —
    #   pushes ``(wake_cycle, kernel_index)`` onto the shared wake heap
    #   (``Kernel._wake_heap``).  An entry is stale, and dropped when
    #   popped, unless its kernel is still parked with ``_wake_at`` equal
    #   to the entry's cycle.  A kernel whose wake returns to an earlier
    #   value holds two identical entries; they pop adjacently and the
    #   second is dropped.
    # * Same-cycle rule: only a pop hook wakes a kernel at the current
    #   cycle.  If the freed writer's slot is still ahead of the popping
    #   kernel it is inserted into this cycle's sweep; otherwise it ticks
    #   on the next cycle, exactly when the exhaustive loop's next tick of
    #   it would first see the space.
    # * When nothing is runnable the clock jumps to the earliest live heap
    #   entry, never backwards.  A leap jump shifts park offsets and wake
    #   cycles, so the heap is rebuilt from kernel state after it.

    def _run_fast(
        self,
        done: Callable[[], bool],
        max_cycles: int,
        leap: "LeapController | None" = None,
    ) -> int:
        kernels = self.kernels
        tracer = self._tracer
        telemetry = self._telemetry
        heap: list[tuple[int, int]] = []
        for index, kernel in enumerate(kernels):
            kernel._parked = False
            kernel._wake_at = WAKE_NEVER
            kernel._sched_index = index
            kernel._wake_heap = heap
        # Kernels to tick next cycle: those that did not park (in list
        # order) and those woken for it (unordered until merged).
        runnable = list(range(len(kernels)))
        woken: list[int] = []
        cycle = 0
        while not done():
            if not runnable and not woken:
                # Nothing runnable: fast-forward straight to the earliest
                # live wake-up (pending stream latency, usually a link in
                # flight).  Heap entries are all at or after this cycle, so
                # the jump never rewinds the clock.
                while heap:
                    wake, index = heap[0]
                    kernel = kernels[index]
                    if kernel._parked and kernel._wake_at == wake:
                        break
                    heappop(heap)
                target = heap[0][0] if heap else WAKE_NEVER
                if target >= max_cycles:
                    self._settle(max_cycles)
                if target > cycle:
                    cycle = target
            if heap and heap[0][0] <= cycle:
                last: tuple[int, int] | None = None
                while heap and heap[0][0] <= cycle:
                    entry = heappop(heap)
                    if entry == last:
                        continue
                    last = entry
                    wake, index = entry
                    kernel = kernels[index]
                    if kernel._parked and kernel._wake_at == wake:
                        woken.append(index)
            todo = runnable
            if woken:
                todo += woken
                todo.sort()
                woken = []
            runnable = []
            for position in todo:
                kernel = kernels[position]
                if kernel._parked:
                    # Wake: replay the stall counters for the skipped cycles.
                    skipped = cycle - kernel._park_cycle - 1
                    if skipped > 0:
                        self._account(kernel, skipped)
                    kernel._parked = False
                    kernel._wake_at = WAKE_NEVER
                status = kernel.tick(cycle)
                if tracer is not None:
                    tracer.on_tick(kernel.name, cycle, status)
                if status is None:
                    runnable.append(position)
                else:
                    kernel._parked = True
                    kernel._park_cycle = cycle
                    kernel._park_kind = status
                    wake = WAKE_NEVER
                    if status == STALL_STARVED:
                        # Timed wake at the earliest not-yet-ready input
                        # element; inputs that are already ready cannot
                        # change this kernel's state (only a new push on
                        # another input can, via the push hook).
                        for stream in kernel.inputs:
                            fifo = stream._fifo
                            if fifo:
                                ready = fifo[0][1]
                                if cycle < ready < wake:
                                    wake = ready
                    elif status == STALL_BLOCKED:
                        # Defensive: with a non-topological tick order a
                        # consumer may pop before this kernel ticks; re-check
                        # next cycle if space already exists.
                        if all(s.can_push() for s in kernel.outputs):
                            wake = cycle + 1
                    elif kernel._wake_hint > cycle:
                        # An idle park with a self-scheduled wake-up: the
                        # open-loop host source knows the exact cycle its
                        # next image arrives.  Other STALL_IDLE kernels never
                        # wake and are settled at end of run.
                        wake = kernel._wake_hint
                    kernel._wake_at = wake
                    if wake < WAKE_NEVER:
                        heappush(heap, (wake, position))
                if heap and heap[0][0] <= cycle:
                    # A pop hook in this tick freed a blocked writer at this
                    # very cycle: it reruns now if its slot is still ahead
                    # (iteration picks up the insertion), else next cycle.
                    while heap and heap[0][0] <= cycle:
                        wake, index = heappop(heap)
                        kernel = kernels[index]
                        if kernel._parked and kernel._wake_at == wake:
                            if index > position:
                                insort(todo, index)
                            else:
                                woken.append(index)
            if leap is not None:
                # After the sweep the cycle's state is final: the controller
                # snapshots at sink completions and, once periodicity is
                # proven, fast-forwards whole steady-state periods.  The
                # jump lands on the same all-counters-exact state the loop
                # would reach by simulating them, so everything below
                # (telemetry sampling, budget abort, park bookkeeping)
                # continues unchanged.
                jumped = leap.on_cycle_end(cycle)
                if jumped is not None:
                    cycle = jumped
                    # The jump shifted every parked kernel's wake cycle:
                    # rebuild the heap from kernel state (this also covers
                    # the kernels already woken for the next cycle).
                    heap[:] = [
                        (k._wake_at, i)
                        for i, k in enumerate(kernels)
                        if k._parked and k._wake_at < WAKE_NEVER
                    ]
                    heapify(heap)
                    woken = []
            cycle += 1
            if telemetry is not None and cycle >= telemetry.next_sample_at:
                # Mid-run samples virtually account parked kernels' pending
                # stall cycles (see Telemetry.sample), so sampled counters
                # match the exhaustive loop's at this very cycle.
                telemetry.sample(cycle)
            if cycle >= max_cycles:
                self._settle(max_cycles)
        # The exhaustive loop ticked still-parked kernels through the final
        # cycle (cycle - 1); settle their stall counters to match.
        for kernel in kernels:
            if kernel._parked:
                skipped = cycle - kernel._park_cycle - 1
                if skipped > 0:
                    self._account(kernel, skipped)
                kernel._parked = False
                kernel._wake_at = WAKE_NEVER
        return cycle

    def _settle(self, max_cycles: int) -> None:
        """Account parked kernels up to ``max_cycles`` and raise (no convergence)."""
        for kernel in self.kernels:
            if kernel._parked:
                skipped = max_cycles - kernel._park_cycle - 1
                if skipped > 0:
                    self._account(kernel, skipped)
                kernel._parked = False
                kernel._wake_at = WAKE_NEVER
        raise self._no_convergence(max_cycles)

    def _no_convergence(self, max_cycles: int) -> RuntimeError:
        """Build the abort error, naming the starved/blocked edges at abort.

        A deadlocked pipeline shows a cycle of blame: some kernel blocked on
        a full stream (usually an undersized skip FIFO) starves everything
        downstream of it.  Reporting each stalled kernel with the offending
        stream's occupancy turns "no convergence" into a pointer at the
        exact edge; the static verifier can then name the minimum safe
        capacity without re-running anything.
        """
        cycle = max_cycles  # visibility at the abort point (all pushes settled)
        lines: list[str] = []
        for kernel in self.kernels:
            full = [s for s in kernel.outputs if len(s._fifo) >= s.capacity]
            if full:
                detail = ", ".join(
                    f"full {s.name!r} (occupancy {len(s._fifo)}/{s.capacity})" for s in full
                )
                lines.append(f"    {kernel.name}: blocked on {detail}")
                continue
            starved = [s for s in kernel.inputs if s.ready_count(cycle) == 0]
            if kernel.inputs and starved:
                detail = ", ".join(
                    f"{s.name!r} (occupancy {len(s._fifo)}/{s.capacity}, 0 ready)"
                    for s in starved
                )
                lines.append(f"    {kernel.name}: starved on empty {detail}")
        message = (
            f"engine {self.name!r}: no convergence after {max_cycles} cycles "
            "(deadlock or undersized run budget)"
        )
        if lines:
            shown = lines[:8]
            if len(lines) > len(shown):
                shown.append(f"    ... and {len(lines) - len(shown)} more stalled kernels")
            message += (
                "\n  stalled kernels at abort:\n"
                + "\n".join(shown)
                + "\n  hint: `python -m repro check` statically verifies FIFO sizing, "
                "bitwidths and partition feasibility before any cycle is simulated"
            )
        return RuntimeError(message)

    def _account(self, kernel: Kernel, skipped: int) -> None:
        """Replay ``skipped`` stall cycles' worth of counters on a parked kernel."""
        stats = kernel.stats
        kind = kernel._park_kind
        if kind == STALL_STARVED:
            stats.input_starved_cycles += skipped
        elif kind == STALL_BLOCKED:
            stats.output_blocked_cycles += skipped
            if kernel.blocked_rejects_output:
                kernel.outputs[0].stats.full_rejections += skipped
        else:
            stats.idle_cycles += skipped
        tracer = self._tracer
        if tracer is not None:
            # Synthesize the stall span the fast path never ticked so the
            # event trace is identical to the exhaustive loop's: the span
            # extends the live park tick through the cycle before the wake.
            start = kernel._park_cycle + 1
            end = kernel._park_cycle + skipped
            tracer.on_stall_span(kernel.name, kind, start, end)
            if kind == STALL_BLOCKED and kernel.blocked_rejects_output:
                tracer.on_reject_span(kernel.outputs[0].name, start, end)

    def reset(self) -> None:
        for kernel in self.kernels:
            kernel.reset()
        for stream in self.streams:
            stream.reset()

    def collect_stats(self) -> tuple[dict[str, KernelStats], dict[str, StreamStats]]:
        return (
            {k.name: k.stats for k in self.kernels},
            {s.name: s.stats for s in self.streams},
        )
