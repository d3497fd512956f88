"""Kernel base class: the unit of functional decomposition.

Each NN layer becomes one kernel (§III: "each layer is represented in the
DFE Manager by a single function call").  A kernel owns input and output
streams and implements :meth:`tick`, which the engine calls once per clock
cycle.  The contract mirrors the paper's hardware model:

* at most one element consumed per input stream per cycle,
* at most one element produced per output stream per cycle,
* a kernel starts computing as soon as enough data has accumulated in its
  internal buffer — there is no layer-level barrier.

Kernels accumulate activity statistics so runs can quantify pipeline
overlap, initiation intervals, and stall causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from .stream import Stream

if TYPE_CHECKING:
    from .trace import Tracer

__all__ = ["Kernel", "KernelStats", "STALL_STARVED", "STALL_BLOCKED", "STALL_IDLE", "WAKE_NEVER"]

# Stall classifications a tick reports through the helpers below.  The fast
# engine path uses them to park a kernel: a kernel that reported a stall is
# guaranteed (by the kernel contract) to keep stalling the same way every
# cycle until one of its streams changes state, so the scheduler can stop
# ticking it and bulk-account the skipped cycles on wake-up.
STALL_STARVED = 1
STALL_BLOCKED = 2
STALL_IDLE = 3

# Wake cycle of a parked kernel with no scheduled wake-up (it can only be
# woken by a stream push/pop hook, or settled when the run ends).
WAKE_NEVER = 1 << 62


@dataclass(slots=True)
class KernelStats:
    """Per-kernel activity counters."""

    active_cycles: int = 0
    input_starved_cycles: int = 0
    output_blocked_cycles: int = 0
    idle_cycles: int = 0
    first_active_cycle: int | None = None
    last_active_cycle: int | None = None
    elements_in: int = 0
    elements_out: int = 0

    def mark_active(self, cycle: int) -> None:
        self.active_cycles += 1
        if self.first_active_cycle is None:
            self.first_active_cycle = cycle
        self.last_active_cycle = cycle


class Kernel:
    """Base dataflow kernel."""

    # True for kernels whose blocked cycles attempt a push (and therefore
    # count a full_rejection on outputs[0] every blocked cycle); the fast
    # scheduler replays those rejections for parked cycles.
    blocked_rejects_output: ClassVar[bool] = False

    # -- leap-mode contract (see dataflow/leap.py) ----------------------
    # A kernel that opts in guarantees its *control flow* never branches on
    # stream element values (only on counts, positions and stream state), and
    # exposes that control state through leap_phase().  The leap scheduler
    # refuses to fast-forward an engine containing any kernel that has not
    # opted in — unknown kernels degrade to the plain fast path, mirroring
    # the park/wake scheduler's own "no classification, no parking" rule.
    # Declared as a plain class attribute (not ClassVar) so instances may
    # veto support at construction time (the open-loop host source does).
    supports_leap: bool = False
    # Attribute names extrapolated linearly across a leap: monotone
    # per-period accumulators beyond KernelStats (e.g. ``images_done``,
    # the host source's flat read position).
    leap_counters: ClassVar[tuple[str, ...]] = ()
    # Attribute names holding cycle-stamped lists that grow once per
    # steady-state period and are replayed shifted by the period (e.g. the
    # source's admission_cycles, the sink's completion_cycles).
    leap_cycle_lists: ClassVar[tuple[str, ...]] = ()
    # Attribute names holding per-element *value* lists that grow once per
    # period; a leap replicates the window's slice unshifted (the values are
    # placeholders — leap-mode outputs come from the batched functional
    # path, see leap.batch_reference_outputs).
    leap_value_lists: ClassVar[tuple[str, ...]] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: list[Stream] = []
        self.outputs: list[Stream] = []
        self.stats = KernelStats()
        # Fast-scheduler park bookkeeping.  A tick reports its stall kind by
        # returning one of the STALL_* codes (via the helpers below); a tick
        # returning None made progress or gave no classification — such
        # kernels are never parked.
        self._parked = False
        self._park_cycle = 0
        self._park_kind = 0
        self._wake_at = WAKE_NEVER
        # The fast scheduler's handles for this kernel: its position in the
        # engine's tick order and the engine's wake heap of
        # ``(wake_cycle, index)`` entries.  Whoever lowers ``_wake_at`` on a
        # parked kernel pushes a matching entry (see Engine._run_fast).
        self._sched_index = 0
        self._wake_heap: list[tuple[int, int]] = []
        # Self-scheduled wake-up for an idle park: a tick that returns
        # STALL_IDLE may first set ``_wake_hint`` to a future cycle at which
        # its state will change without any stream event (the open-loop host
        # source waiting for the next image arrival).  The fast scheduler
        # honours the hint instead of parking the kernel forever; the
        # exhaustive loop ignores it (it ticks every cycle anyway), so the
        # idle-cycle accounting stays bit-identical on both paths.
        self._wake_hint = 0
        # Event tracer installed by Engine.run(trace=...) for the duration
        # of a traced run.  The engine records tick classifications itself;
        # this handle is for kernel-level events the engine cannot see,
        # e.g. the host sink's per-image completions.
        self._tracer: Tracer | None = None

    def connect_input(self, stream: Stream) -> None:
        self.inputs.append(stream)

    def connect_output(self, stream: Stream) -> None:
        self.outputs.append(stream)

    def tick(self, cycle: int) -> int | None:  # pragma: no cover - abstract
        """Advance one clock cycle; return a STALL_* code when stalled."""
        raise NotImplementedError

    def leap_phase(self, cycle: int) -> tuple[int, ...]:
        """The kernel's value-independent control state, as a comparable tuple.

        Two equal phases at two sink-completion instants mean the kernel
        will repeat the exact same tick-by-tick behaviour (shifted in time)
        over the next period — the periodicity test the leap scheduler
        anchors on.  Cycle-stamped quantities must be encoded *relative* to
        ``cycle`` (the scheduler adds the park/wake bookkeeping itself).
        Only called when :attr:`supports_leap` is true.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support leap mode")

    def reset(self) -> None:
        """Clear run state (image-independent parameters persist)."""
        self.stats = KernelStats()
        self._parked = False
        self._park_cycle = 0
        self._park_kind = 0
        self._wake_at = WAKE_NEVER
        self._wake_hint = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    # convenience helpers ------------------------------------------------
    # Each counts one live stall cycle and returns the classification so a
    # tick can report it with ``return self._starved(cycle)``.
    def _starved(self, cycle: int) -> int:
        self.stats.input_starved_cycles += 1
        return STALL_STARVED

    def _blocked(self, cycle: int) -> int:
        self.stats.output_blocked_cycles += 1
        return STALL_BLOCKED

    def _idle(self, cycle: int) -> int:
        self.stats.idle_cycles += 1
        return STALL_IDLE
