"""Steady-state leap scheduler: fast-forward whole pipeline periods.

The park/wake fast path (engine.py) skips *cycles* no kernel can use; this
module skips entire steady-state *periods*.  Once the pipeline reaches its
steady state — the regime the paper's §IV-B4 clocks-per-picture model
describes — the whole machine repeats the same control schedule every
``P`` cycles, shifted in time.  The leap controller proves that repetition
from two equal state snapshots and then jumps ``n`` periods at once:
counters are extrapolated linearly, cycle-stamped lists are replayed
shifted, parked kernels keep their relative wake offsets, and the trace
recorder replays the reference window's event stream ``n`` times so the
merged event log stays byte-identical to the exhaustive loop's.

Why this is exact and not an approximation:

* **Value independence.**  No opted-in kernel branches on stream element
  *values* — only on counts, scan positions and stream occupancy (the
  :attr:`~repro.dataflow.kernel.Kernel.supports_leap` contract).  Control
  state is therefore fully captured by
  :meth:`~repro.dataflow.kernel.Kernel.leap_phase` plus the park/FIFO
  bookkeeping this module snapshots itself.
* **Phase equality ⇒ periodicity.**  The engine is deterministic, so two
  instants with equal phase (everything cycle-stamped compared *relative*
  to the instant) evolve identically, shifted by their distance ``P``.
  Snapshots are anchored at sink completions; equality of two of them is a
  proof, not a heuristic — there is nothing left that could diverge until
  the host source runs dry, and the window budget keeps the source wet
  through every leaped period.
* **Values come from the functional path.**  Leaped windows never compute
  element values (timing-only runs carry none at all); the sink serves
  every output from :func:`batch_reference_outputs`, the kernels'
  vectorized ``batch_compute`` methods (exact integer arithmetic in
  float64, far below 2**53), which is bit-identical to the streaming
  datapath — a tested property.

Anything that breaks the contract — an open-loop arrival schedule, a
custom kernel that never opted in, a phase mismatch, a non-linear counter
delta — demotes the run to the plain fast path (no controller, or a vetoed
jump); results stay bit-identical either way, only the wall-clock changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .interval import exact_completion_period
from .kernel import WAKE_NEVER, Kernel
from .stream import Stream
from .trace import Tracer

if TYPE_CHECKING:
    from .engine import Engine
    from .manager import Pipeline

__all__ = ["LeapController", "LeapReport", "batch_reference_outputs"]

# Snapshots kept for period detection.  Most pipelines complete one image
# per period (snapshot distance 1); a few snapshots of slack let the
# detector catch schedules whose phase only recurs every few completions.
_MAX_SNAPSHOTS = 8

# Images per walk of the graph in the value pass (``_value_pass``).  On a
# 256-image VGG 32x32 w0.25 batch (2-vCPU x86 host) one whole-batch walk
# took ~0.42 s and 220 MB peak; chunks of 64/32/16/8/4 took ~0.33/0.31/0.35/
# 0.27/0.27 s at 100/83/69/64/62 MB, and 8 beat 32 in 5 of 6 A/B runs.
VALUE_PASS_CHUNK = 8


@dataclass
class LeapReport:
    """What the leap controller did during one run.

    A ``mode="leap"`` request that never got a controller (an open-loop
    source, a multi-source/sink graph, a kernel outside the contract) still
    produces a report: ``demoted`` is set and ``demotion_reason`` carries
    the human-readable reason from :meth:`LeapController.ineligibility`, so
    the CLI can warn instead of silently running the fast path.
    """

    leaps: int = 0  # jumps taken
    windows: int = 0  # total periods skipped across all jumps
    leaped_cycles: int = 0  # total cycles skipped
    period: int = 0  # last proven period, in cycles
    vetoes: int = 0  # jumps abandoned by delta validation
    demoted: bool = False  # True when no controller could be built at all
    demotion_reason: str | None = None


@dataclass
class _Snapshot:
    """Full control-state fingerprint at one sink-completion instant.

    ``phase`` is the comparable part (everything relative to ``cycle``);
    the remaining fields are the absolute counter/list readings the jump
    needs to extrapolate deltas from.
    """

    cycle: int
    phase: tuple[Any, ...]
    kernel_stats: list[tuple[int, int, int, int, int | None, int | None, int, int]]
    counters: list[tuple[int, ...]]
    list_lens: list[tuple[int, ...]]
    stream_stats: list[tuple[int, int, int]]
    mark_lens: list[int]
    n_admitted: int
    n_completed: int
    trace_mark: int


class _RecordingTracer(Tracer):
    """Forwards every hook to the real tracer while buffering the window.

    Installed in place of the user's tracer for leap runs (it *is* a
    :class:`Tracer`, so every engine/stream/kernel call site type-checks).
    On a jump the buffered reference window is replayed ``n`` times with
    all cycle stamps shifted by ``j * P`` and image indices by the
    window's admission/completion counts; the tracer's span merging then
    reconstructs exactly the event log the exhaustive loop would have
    written — long stall spans chain across the jump because a parked
    kernel's re-park instant sits exactly one period after the previous
    one (that is what phase equality asserts).
    """

    def __init__(self, inner: Tracer) -> None:
        super().__init__()
        self._inner = inner
        self._buffer: list[tuple[Any, ...]] = []

    # -- engine lifecycle: delegate, then steal the hook pointers --------
    def attach(self, engine: Engine) -> None:
        self._inner.attach(engine)
        for kernel in engine.kernels:
            kernel._tracer = self
        for stream in engine.streams:
            stream.tracer = self

    def detach(self, engine: Engine) -> None:
        self._inner.detach(engine)

    def finish(self, total_cycles: int) -> None:
        self._inner.finish(total_cycles)

    # -- recording hooks -------------------------------------------------
    def on_tick(self, kernel: str, cycle: int, status: int | None) -> None:
        self._inner.on_tick(kernel, cycle, status)
        self._buffer.append(("tick", kernel, cycle, status))

    def on_stall_span(self, kernel: str, status: int, start: int, end: int) -> None:
        self._inner.on_stall_span(kernel, status, start, end)
        self._buffer.append(("stall", kernel, status, start, end))

    def on_push(self, stream: str, cycle: int, ready: int, occupancy: int) -> None:
        self._inner.on_push(stream, cycle, ready, occupancy)
        self._buffer.append(("push", stream, cycle, ready, occupancy))

    def on_pop(self, stream: str, cycle: int, occupancy: int) -> None:
        self._inner.on_pop(stream, cycle, occupancy)
        self._buffer.append(("pop", stream, cycle, occupancy))

    # on_reject is inherited: the base implementation routes through
    # on_reject_span, so overriding the span hook covers both.
    def on_reject_span(self, stream: str, start: int, end: int) -> None:
        self._inner.on_reject_span(stream, start, end)
        self._buffer.append(("reject", stream, start, end))

    def on_image_admitted(self, index: int, cycle: int) -> None:
        self._inner.on_image_admitted(index, cycle)
        self._buffer.append(("admit", index, cycle))

    def on_image_complete(self, index: int, cycle: int) -> None:
        self._inner.on_image_complete(index, cycle)
        self._buffer.append(("complete", index, cycle))

    # -- window bookkeeping ----------------------------------------------
    def mark(self) -> int:
        return len(self._buffer)

    def trim(self, mark: int) -> None:
        del self._buffer[:mark]

    def replay(self, mark: int, n: int, period: int, d_adm: int, d_comp: int) -> None:
        """Emit the buffered window ``[mark:]`` ``n`` more times, shifted."""
        inner = self._inner
        window = self._buffer[mark:]
        for j in range(1, n + 1):
            shift = j * period
            for ev in window:
                kind = ev[0]
                if kind == "tick":
                    inner.on_tick(ev[1], ev[2] + shift, ev[3])
                elif kind == "push":
                    inner.on_push(ev[1], ev[2] + shift, ev[3] + shift, ev[4])
                elif kind == "pop":
                    inner.on_pop(ev[1], ev[2] + shift, ev[3])
                elif kind == "stall":
                    inner.on_stall_span(ev[1], ev[2], ev[3] + shift, ev[4] + shift)
                elif kind == "reject":
                    inner.on_reject_span(ev[1], ev[2] + shift, ev[3] + shift)
                elif kind == "admit":
                    inner.on_image_admitted(ev[1] + j * d_adm, ev[2] + shift)
                else:
                    inner.on_image_complete(ev[1] + j * d_comp, ev[2] + shift)


class LeapController:
    """Periodicity detector + whole-period fast-forward for one engine run.

    Create via :meth:`for_engine` (returns ``None`` when any kernel has
    not opted into the leap contract — the run then uses the plain fast
    path).  The engine calls :meth:`on_cycle_end` after every swept cycle;
    the controller answers with the post-jump cycle when it can prove and
    afford a leap, ``None`` otherwise.
    """

    def __init__(self, engine: Engine, source: Kernel, sink: Kernel) -> None:
        self._engine = engine
        self._source = source
        self._sink = sink
        self._max_cycles = 0
        self._recorder: _RecordingTracer | None = None
        self._snaps: deque[_Snapshot] = deque(maxlen=_MAX_SNAPSHOTS)
        self._seen_completions = 0
        self.report = LeapReport()

    @classmethod
    def ineligibility(cls, engine: Engine) -> str | None:
        """Why ``engine`` cannot leap, or ``None`` when it can.

        The single source of the demotion rules: :meth:`for_engine` builds a
        controller exactly when this returns ``None``, and the returned
        string is what ``StreamingRun.leap_report.demotion_reason`` (and the
        CLI's one-line warning) surface to the user.
        """
        kernels = engine.kernels
        if not kernels:
            return "engine has no kernels"
        outside = [k for k in kernels if not k.supports_leap]
        if outside:
            # An open-loop host source opts out on construction; name that
            # case explicitly — it is the routine one (repro load, fleet
            # replicas), not a custom-kernel escape hatch.
            open_loop = [k for k in outside if getattr(k, "arrival_cycles", None) is not None]
            if open_loop:
                return (
                    f"open-loop arrival schedule on source {open_loop[0].name!r} "
                    "(leap requires closed-loop, back-to-back admission)"
                )
            names = ", ".join(repr(k.name) for k in outside[:3])
            more = f" (+{len(outside) - 3} more)" if len(outside) > 3 else ""
            return f"kernel(s) outside the value-independence contract: {names}{more}"
        sources = [k for k in kernels if hasattr(k, "leap_images_left")]
        sinks = [k for k in kernels if hasattr(k, "completion_cycles")]
        if len(sources) != 1 or len(sinks) != 1:
            return (
                f"{len(sources)} host source(s) and {len(sinks)} host sink(s); "
                "the periodicity proof needs exactly one of each"
            )
        return None

    @classmethod
    def for_engine(cls, engine: Engine) -> LeapController | None:
        """A controller for ``engine``, or ``None`` when leap cannot apply.

        Mirrors the fast scheduler's "no classification, no parking" rule:
        a single kernel outside the contract (a custom test kernel, an
        open-loop host source) demotes the whole run to the fast path
        rather than risking a wrong schedule.
        """
        if cls.ineligibility(engine) is not None:
            return None
        kernels = engine.kernels
        sources = [k for k in kernels if hasattr(k, "leap_images_left")]
        sinks = [k for k in kernels if hasattr(k, "completion_cycles")]
        return cls(engine, sources[0], sinks[0])

    # -- run lifecycle ---------------------------------------------------
    def begin_run(self, max_cycles: int, trace: Tracer | None) -> Tracer | None:
        """Arm the controller for one run; returns the tracer to install."""
        self._max_cycles = max_cycles
        self._snaps.clear()
        self._seen_completions = 0
        self.report = LeapReport()
        if trace is None:
            self._recorder = None
            return None
        self._recorder = _RecordingTracer(trace)
        return self._recorder

    # -- per-cycle hook ---------------------------------------------------
    def on_cycle_end(self, cycle: int) -> int | None:
        """Detect/extend periodicity after the sweep at ``cycle``.

        Returns the new engine cycle after a jump, else ``None``.  Cheap
        when nothing completed this cycle (one ``len`` compare).
        """
        completions: list[int] = getattr(self._sink, "completion_cycles")
        n_done = len(completions)
        if n_done == self._seen_completions:
            return None
        self._seen_completions = n_done
        # The shared steady-state primitive gates snapshot comparison: with
        # fewer than two completions there is no candidate period at all.
        if exact_completion_period(completions, window=1) is None:
            self._snaps.append(self._snapshot(cycle))
            return None
        snap = self._snapshot(cycle)
        matched: _Snapshot | None = None
        for old in reversed(self._snaps):
            if old.cycle < cycle and snap.phase == old.phase:
                matched = old
                break
        if matched is None:
            self._snaps.append(snap)
            return None
        period = cycle - matched.cycle
        n = self._window_budget(cycle, period, matched, snap)
        if n <= 0:
            self._snaps.append(snap)
            return None
        if not self._validate(matched, snap, period):
            self.report.vetoes += 1
            self._snaps.append(snap)
            return None
        self._apply(matched, snap, n, period)
        self.report.leaps += 1
        self.report.windows += n
        self.report.leaped_cycles += n * period
        self.report.period = period
        # Post-jump state is a fresh exhaustive-exact instant: re-arm from
        # scratch (stale snapshots hold pre-jump absolute readings).
        self._snaps.clear()
        self._seen_completions = len(completions)
        recorder = self._recorder
        if recorder is not None:
            recorder.trim(recorder.mark())
        return cycle + n * period

    # -- snapshotting ------------------------------------------------------
    def _snapshot(self, cycle: int) -> _Snapshot:
        phase: list[Any] = []
        kstats: list[tuple[int, int, int, int, int | None, int | None, int, int]] = []
        counters: list[tuple[int, ...]] = []
        list_lens: list[tuple[int, ...]] = []
        for k in self._engine.kernels:
            phase.append(k.leap_phase(cycle))
            if k._parked:
                wake = k._wake_at
                phase.append(
                    (1, k._park_kind, cycle - k._park_cycle, wake - cycle if wake < WAKE_NEVER else None)
                )
            else:
                phase.append((0,))
            st = k.stats
            kstats.append(
                (
                    st.active_cycles,
                    st.input_starved_cycles,
                    st.output_blocked_cycles,
                    st.idle_cycles,
                    st.first_active_cycle,
                    st.last_active_cycle,
                    st.elements_in,
                    st.elements_out,
                )
            )
            counters.append(tuple(int(getattr(k, a)) for a in k.leap_counters))
            list_lens.append(tuple(len(getattr(k, a)) for a in k.leap_cycle_lists))
        sstats: list[tuple[int, int, int]] = []
        mark_lens: list[int] = []
        for s in self._engine.streams:
            fifo = s._fifo
            tail: list[int] = []
            for i in range(len(fifo) - 1, -1, -1):
                ready = fifo[i]
                if ready <= cycle:
                    break  # ready cycles are monotone: the rest is visible
                tail.append(ready - cycle)
            phase.append(
                (len(fifo), tuple(tail), s.stats.pushes % s.mark_every if s.mark_every else 0)
            )
            sstats.append((s.stats.pushes, s.stats.pops, s.stats.full_rejections))
            mark_lens.append(len(s.mark_cycles))
        recorder = self._recorder
        return _Snapshot(
            cycle=cycle,
            phase=tuple(phase),
            kernel_stats=kstats,
            counters=counters,
            list_lens=list_lens,
            stream_stats=sstats,
            mark_lens=mark_lens,
            n_admitted=len(getattr(self._source, "admission_cycles")),
            n_completed=len(getattr(self._sink, "completion_cycles")),
            trace_mark=recorder.mark() if recorder is not None else 0,
        )

    # -- jump sizing -------------------------------------------------------
    def _window_budget(self, cycle: int, period: int, prev: _Snapshot, cur: _Snapshot) -> int:
        """How many periods the run can afford to skip, conservatively.

        * steady state conserves images: one window must admit exactly as
          many images as it completes (else the pipeline is still filling
          or draining — not safe to extrapolate);
        * the source must stay wet through every leaped window, so at least
          one window's worth of images is held back for live simulation
          (the final approach to dryness is never leaped over);
        * the clock may not jump past ``max_cycles - 1`` — the budget abort
          must fire at exactly the cycle the exhaustive loop aborts at.
        """
        d_adm = cur.n_admitted - prev.n_admitted
        d_comp = cur.n_completed - prev.n_completed
        if d_adm != d_comp or d_adm <= 0:
            return 0
        images_left = int(getattr(self._source, "leap_images_left")())
        n_images = images_left // d_adm - 1
        n_budget = (self._max_cycles - 1 - cycle) // period
        return min(n_images, n_budget)

    # -- delta validation --------------------------------------------------
    def _validate(self, prev: _Snapshot, cur: _Snapshot, period: int) -> bool:
        """Every extrapolated quantity must actually be linear in the window.

        Counters may only grow; cycle-stamped stats may only advance by 0
        or exactly one period.  A violation means the window was not the
        steady state it appeared to be — the jump is vetoed and the run
        continues live (bit-identical, just slower).
        """
        for ps, cs in zip(prev.kernel_stats, cur.kernel_stats):
            for i in (0, 1, 2, 3, 6, 7):
                if int(cs[i]) < int(ps[i]):
                    return False
            p_la, c_la = ps[5], cs[5]
            if p_la is not None:
                if c_la is None:
                    return False
                if c_la - p_la not in (0, period):
                    return False
        for pc, cc in zip(prev.counters, cur.counters):
            if any(c < p for p, c in zip(pc, cc)):
                return False
        for pl, cl in zip(prev.list_lens, cur.list_lens):
            if any(c < p for p, c in zip(pl, cl)):
                return False
        for pss, css in zip(prev.stream_stats, cur.stream_stats):
            if any(c < p for p, c in zip(pss, css)):
                return False
        return not any(c < p for p, c in zip(prev.mark_lens, cur.mark_lens))

    # -- the jump ----------------------------------------------------------
    def _apply(self, prev: _Snapshot, cur: _Snapshot, n: int, period: int) -> None:
        """Fast-forward the whole engine ``n`` periods from ``cur.cycle``."""
        shift_total = n * period
        for idx, k in enumerate(self._engine.kernels):
            ps, cs = prev.kernel_stats[idx], cur.kernel_stats[idx]
            st = k.stats
            st.active_cycles += n * (cs[0] - ps[0])
            st.input_starved_cycles += n * (cs[1] - ps[1])
            st.output_blocked_cycles += n * (cs[2] - ps[2])
            st.idle_cycles += n * (cs[3] - ps[3])
            st.elements_in += n * (cs[6] - ps[6])
            st.elements_out += n * (cs[7] - ps[7])
            # first_active_cycle is set once and never moves.  last_active:
            # a kernel active in the window is active (shifted) in every
            # leaped window; one inactive in the window stays put.
            la = st.last_active_cycle
            if la is not None and (ps[5] is None or la - ps[5] == period):
                st.last_active_cycle = la + shift_total
            for name, pv, cv in zip(k.leap_counters, prev.counters[idx], cur.counters[idx]):
                setattr(k, name, cv + n * (cv - pv))
            for li, name in enumerate(k.leap_cycle_lists):
                d = cur.list_lens[idx][li] - prev.list_lens[idx][li]
                if not d:
                    continue
                lst: list[int] = getattr(k, name)
                window = lst[len(lst) - d :]
                for j in range(1, n + 1):
                    s = j * period
                    lst.extend(v + s for v in window)
            if k._parked:
                k._park_cycle += shift_total
                if k._wake_at < WAKE_NEVER:
                    k._wake_at += shift_total
        for idx, s2 in enumerate(self._engine.streams):
            self._apply_stream(s2, prev.stream_stats[idx], cur.stream_stats[idx],
                               prev.mark_lens[idx], cur.mark_lens[idx], cur.cycle, n, period)
        recorder = self._recorder
        if recorder is not None:
            d_adm = cur.n_admitted - prev.n_admitted
            d_comp = cur.n_completed - prev.n_completed
            recorder.replay(prev.trace_mark, n, period, d_adm, d_comp)

    @staticmethod
    def _apply_stream(
        stream: Stream,
        prev_stats: tuple[int, int, int],
        cur_stats: tuple[int, int, int],
        prev_marks: int,
        cur_marks: int,
        cycle: int,
        n: int,
        period: int,
    ) -> None:
        shift_total = n * period
        st = stream.stats
        st.pushes += n * (cur_stats[0] - prev_stats[0])
        st.pops += n * (cur_stats[1] - prev_stats[1])
        st.full_rejections += n * (cur_stats[2] - prev_stats[2])
        # max_occupancy is pinned, not extrapolated: every leaped window
        # repeats the reference window's occupancy profile, whose peak is
        # already folded into the current maximum.
        d = cur_marks - prev_marks
        if d:
            marks = stream.mark_cycles
            window = marks[len(marks) - d :]
            for j in range(1, n + 1):
                s = j * period
                marks.extend(v + s for v in window)
        # Elements still in flight (ready in the future) ride along with
        # the clock; ready cycles are monotone so only the tail shifts.
        fifo = stream._fifo
        for i in range(len(fifo) - 1, -1, -1):
            ready = fifo[i]
            if ready <= cycle:
                break
            fifo[i] = ready + shift_total


def batch_reference_outputs(pipeline: Pipeline, images: np.ndarray) -> np.ndarray:
    """All images' outputs through the kernels' batched functional paths.

    Walks the IR graph topologically, feeding each kernel's
    ``batch_compute`` the (port-ordered) parent tensors.  Bit-identical to
    both the streamed outputs and :func:`repro.nn.inference.run_graph`
    (tested properties); every run that did not stream all its values — a
    timing-only run, or a leap over payload windows — takes its outputs
    from here.  The pass over the pipeline's own image batch (the source's
    array, or an equal one) runs at most once per pipeline: later calls
    (``sink.output_tensor()`` included) return the memoized result, which
    is read-only because every caller shares it.  The memo reflects the
    batch when it was first computed — a pipeline's images are not meant
    to change after it is built.  Any other batch is computed afresh.
    """
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    own = pipeline.source.images
    if images is own or (images.shape == own.shape and np.array_equal(images, own)):
        if pipeline.outputs is None:
            outputs = _value_pass(pipeline, own)
            outputs.setflags(write=False)
            pipeline.outputs = outputs
        return pipeline.outputs
    return _value_pass(pipeline, images)


def _value_pass(pipeline: Pipeline, images: np.ndarray) -> np.ndarray:
    # The graph is walked once per chunk of VALUE_PASS_CHUNK images, so each
    # layer's working set (its padded grid, per-tap rows and accumulators)
    # stays small however large the batch.
    chunks = [
        _chunk_pass(pipeline, images[lo : lo + VALUE_PASS_CHUNK])
        for lo in range(0, max(1, len(images)), VALUE_PASS_CHUNK)
    ]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _chunk_pass(pipeline: Pipeline, images: np.ndarray) -> np.ndarray:
    graph = pipeline.graph
    values: dict[str, np.ndarray] = {graph.input_name: images.astype(np.int64)}
    for name in graph.topological():
        if name == graph.input_name:
            continue
        kernel = pipeline.kernels_by_node[name]
        ins = [values[p] for p in graph.parents(name)]
        compute = getattr(kernel, "batch_compute")
        values[name] = np.asarray(compute(*ins), dtype=np.int64)
    return values[graph.output_name]
