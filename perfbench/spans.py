"""Recorders passed to a workload's composed call as its ``span`` argument.

:class:`Spans` records the traced runs.  A span is one call into a library
layer, timed from outside: name, start, end and the id of the span that
was open when it began.  Spans stay in memory until the run ends;
:meth:`Spans.dump` writes them out.  A layer's self time is its span's
duration minus the time its direct child spans cover (children of one
parent never overlap: the recorder is single-threaded and nests strictly).

:class:`Probes` samples the host's speed through the end-to-end calls and
``no_spans`` records nothing.  Each recorder's ``watch`` wraps an engine
run's ``done`` predicate; only :class:`Probes` does anything with it.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Spans:
    """Records nested spans; call the instance as ``with spans("layer"): ...``."""

    def __init__(self) -> None:
        self.records: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[Span]:
        span = Span(
            id=len(self.records),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start_ns=time.perf_counter_ns(),
        )
        self.records.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_ns = time.perf_counter_ns()

    @staticmethod
    def watch(done: Callable[[], bool]) -> Callable[[], bool]:
        return done

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.records if s.parent == span.id]

    def self_ns(self, span: Span) -> int:
        return span.duration_ns - sum(c.duration_ns for c in self.children(span))

    def descendants(self, span: Span) -> list[Span]:
        out: list[Span] = []
        todo = [span]
        while todo:
            for child in self.children(todo.pop()):
                out.append(child)
                todo.append(child)
        return out

    def self_seconds_by_name(self, root: Span) -> dict[str, float]:
        """Total self time per span name over ``root``'s subtree (root excluded)."""
        totals: dict[str, float] = {}
        for span in self.descendants(root):
            totals[span.name] = totals.get(span.name, 0.0) + self.self_ns(span) / 1e9
        return totals

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s duration covered by its direct children."""
        covered = sum(c.duration_ns for c in self.children(root))
        return covered / root.duration_ns if root.duration_ns > 0 else 1.0

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "spans": [
                {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self.self_ns(s),
                }
                for s in self.records
            ],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")


class NoSpans:
    """The untraced stand-in for a :class:`Spans` instance."""

    def __call__(self, name: str) -> ContextManager[None]:
        return nullcontext()

    watch = Spans.watch


no_spans = NoSpans()


# The host-speed probe: a fixed pure-Python loop, and the time it takes
# at the reference speed.  The reference only fixes the unit: on the
# 2-vCPU VM the benchmark was written on, the loop took about 0.24 ms on
# an uncontended vCPU and 0.35-0.4 ms on a contended one.
PROBE_LOOP = 5000
PROBE_REF_S = 2.7e-4


class Probes:
    """Times one call in slices, sampling the host's speed between them.

    The probe loop runs when :meth:`sample` is called (before and after
    the call), on entering every span, and at every ``every[i]``-th poll
    of the ``done`` predicate of the call's ``i``-th engine run (the engine
    polls it once per scheduler step).  The time between two probes is a
    slice; :meth:`reference_seconds` divides each slice by the mean
    slowdown of the probes on either side of it, so the samples follow the
    host through the call.  With ``every=None`` the polls are only
    counted, which spaces the probes of later calls (:meth:`spacing`).
    """

    def __init__(self, every: list[int] | None = None) -> None:
        self.every = every
        self.polls: list[int] = []
        self.samples: list[float] = []
        self.slices: list[float] = []
        self._last_end: float | None = None

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i & 7
        end = time.perf_counter()
        if self._last_end is not None:
            self.slices.append(start - self._last_end)
        self.samples.append(end - start)
        self._last_end = end

    def seconds(self) -> float:
        """Host seconds between the first and the last probe, probes left out."""
        return sum(self.slices)

    def reference_seconds(self) -> float:
        """:meth:`seconds` at the reference speed."""
        return sum(
            seconds * 2 * PROBE_REF_S / (before + after)
            for seconds, before, after in zip(self.slices, self.samples, self.samples[1:])
        )

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        self.sample()
        yield None

    def watch(self, done: Callable[[], bool]) -> Callable[[], bool]:
        index = len(self.polls)
        self.polls.append(0)
        polls = self.polls
        if self.every is None:

            def counted() -> bool:
                polls[index] += 1
                return done()

            return counted
        every = countdown = self.every[index]
        sample = self.sample

        def sampled() -> bool:
            nonlocal countdown
            countdown -= 1
            if not countdown:
                countdown = every
                sample()
            return done()

        return sampled

    def spacing(self, samples: int) -> list[int]:
        """Polls between probes that spread ``samples`` over each counted engine run."""
        return [max(1, -(-polls // samples)) for polls in self.polls]
