"""Streams: the FIFO channels connecting dataflow kernels.

A :class:`Stream` models the configurable routing + FMem buffering the
Maxeler fabric provides between kernels: bounded capacity, one-cycle
register delay (an element pushed at cycle *t* is visible at *t + 1*), and
optional extra latency for off-chip links (MaxRing / PCIe).  Streams count
their own backpressure events so experiments can verify claims like "the
skip buffer never creates delays by itself" (§III-B5).

Each element is a token stamped with its ready cycle.  Timing-only runs
move tokens alone (:meth:`Stream.push_token` / :meth:`Stream.pop_token`);
payload runs also carry each element's value (:meth:`Stream.push` /
:meth:`Stream.pop`).  Both share every counter, hook and wake.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernel import Kernel
    from .trace import Tracer

__all__ = ["Stream", "StreamStats"]


@dataclass(slots=True)
class StreamStats:
    """Counters a stream accumulates over a run."""

    pushes: int = 0
    pops: int = 0
    full_rejections: int = 0
    max_occupancy: int = 0


class Stream:
    """A bounded FIFO with cycle-tagged availability.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity:
        Maximum elements buffered.  The small default models the flip-flop
        FIFOs between adjacent kernels; skip-connection delay buffers get
        their exact §III-B5 size from the manager.
    latency:
        Extra cycles before a pushed element becomes visible (0 for on-chip
        streams; link models add their transport latency here).
    bits:
        Width of one element in bits; used by link-bandwidth accounting.
    """

    __slots__ = (
        "name",
        "capacity",
        "latency",
        "bits",
        "_fifo",
        "_values",
        "stats",
        "reader",
        "writer",
        "tracer",
        "mark_every",
        "mark_cycles",
    )

    def __init__(self, name: str, capacity: int = 4, latency: int = 0, bits: int = 2) -> None:
        if capacity < 1:
            raise ValueError(f"stream {name!r}: capacity must be >= 1")
        if latency < 0:
            raise ValueError(f"stream {name!r}: latency must be >= 0")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.bits = bits
        # One ready cycle per buffered element: the whole timing state.
        # Payload runs (see Engine.run) keep the element values alongside,
        # in ``_values``; timing-only runs never touch it.
        self._fifo: deque[int] = deque()
        self._values: deque[int] = deque()
        self.stats = StreamStats()
        # Endpoint kernels (set by Engine.connect).  push/pop wake parked
        # endpoints directly (see the fast-path invariants in engine.py).
        self.reader: Kernel | None = None
        self.writer: Kernel | None = None
        # Event tracer installed by Engine.run(trace=...) for the duration
        # of a traced run; None keeps the hot path hook-free.
        self.tracer: Tracer | None = None
        # Image-boundary marks: with ``mark_every`` set to the per-image
        # element count of the producing node, the push cycle of every
        # image's first element is recorded in ``mark_cycles`` — the
        # "first-pixel-out" instant the per-image lifecycle records use at
        # partition boundaries and the sink edge.  0 disables marking (one
        # int test per push when off).
        self.mark_every: int = 0
        self.mark_cycles: list[int] = []

    def __repr__(self) -> str:
        return f"Stream({self.name!r}, occ={len(self._fifo)}/{self.capacity})"

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def can_push(self) -> bool:
        return len(self._fifo) < self.capacity

    def push_token(self, cycle: int) -> bool:
        """Append one payload-free element; False (and a rejection) when full.

        The timing-only engine moves only these tokens: an element's ready
        cycle is all the schedule depends on (see :meth:`push` for values).
        """
        fifo = self._fifo
        stats = self.stats
        occ = len(fifo)
        if occ >= self.capacity:
            stats.full_rejections += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.on_reject(self.name, cycle)
            return False
        ready = cycle + 1 + self.latency
        fifo.append(ready)
        stats.pushes += 1
        if self.mark_every and (stats.pushes - 1) % self.mark_every == 0:
            self.mark_cycles.append(cycle)
        if occ >= stats.max_occupancy:
            stats.max_occupancy = occ + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_push(self.name, cycle, ready, occ + 1)
        if not occ:
            # Only an empty->nonempty transition can unstarve the reader; a
            # push behind existing elements is covered by the wake already
            # scheduled for the head element.  (1 == STALL_STARVED; literal
            # to avoid a circular import with kernel.py.)
            reader = self.reader
            if reader is not None and reader._parked and reader._park_kind == 1:
                if ready < reader._wake_at:
                    reader._wake_at = ready
                    heappush(reader._wake_heap, (ready, reader._sched_index))
        return True

    def push(self, value: int, cycle: int) -> bool:
        """Append ``value`` (payload runs); returns False when full."""
        if self.push_token(cycle):
            self._values.append(int(value))
            return True
        return False

    def can_pop(self, cycle: int) -> bool:
        return bool(self._fifo) and self._fifo[0] <= cycle

    def ready_count(self, cycle: int) -> int:
        """Number of elements visible at ``cycle`` (cheap scan from the head)."""
        count = 0
        for ready in self._fifo:
            if ready <= cycle:
                count += 1
            else:
                break
        return count

    def pop_token(self, cycle: int) -> None:
        """Remove the head element's token; caller must check :meth:`can_pop`."""
        fifo = self._fifo
        if not (fifo and fifo[0] <= cycle):
            raise RuntimeError(f"stream {self.name!r}: pop on empty/unready stream")
        was_full = len(fifo) >= self.capacity
        fifo.popleft()
        self.stats.pops += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_pop(self.name, cycle, len(fifo))
        if was_full:
            # Only a full->nonfull transition can unblock the writer.  Wake
            # at this very cycle: if the writer's slot in the engine sweep is
            # still ahead it reruns this cycle (non-topological order);
            # otherwise the engine ticks it on the next cycle, which matches
            # the exhaustive loop (the writer already ticked blocked this
            # cycle before the pop).  (2 == STALL_BLOCKED.)
            writer = self.writer
            if writer is not None and writer._parked and writer._park_kind == 2:
                if cycle < writer._wake_at:
                    writer._wake_at = cycle
                    heappush(writer._wake_heap, (cycle, writer._sched_index))

    def pop(self, cycle: int) -> int:
        """Remove and return the head value (payload runs); see :meth:`pop_token`."""
        self.pop_token(cycle)
        return self._values.popleft()

    def head_ready_cycle(self) -> int | None:
        """Ready cycle of the head element, or None when empty."""
        fifo = self._fifo
        return fifo[0] if fifo else None

    def peek(self, cycle: int) -> int:
        if not self.can_pop(cycle):
            raise RuntimeError(f"stream {self.name!r}: peek on empty/unready stream")
        return self._values[0]

    def reset(self) -> None:
        self._fifo.clear()
        self._values.clear()
        self.stats = StreamStats()
        self.mark_cycles = []
