"""Benchmark-side span recorder.

Spans are recorded from the benchmark's own files, around the calls
into each layer of ``repro``; nothing inside ``src/`` is traced.  A span
is ``(name, start, end, parent, op)`` on a monotonic clock; spans of one
operation share its ``op`` id.  They stay in memory and are written as
JSONL only when the run ends (:meth:`Recorder.write_jsonl`).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  With the recorder off, :meth:`span`
costs one branch and returns a shared no-op context manager.

:class:`Regions` times the regions of a pass and turns host seconds into
*reference seconds*.  The sandbox this runs in switches between a fast
and a slow state, about 30% apart, every few seconds to tens of seconds;
a 12 s run can sit wholly in either, so raw times spread by more than
any bound worth setting.  A fixed pure-Python loop timed before and
after each region measures the host's slowdown at that moment, and the
region's seconds are divided by it.  Raw seconds stay in the record.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Callable, Iterable, Iterator

__all__ = ["Span", "Recorder", "OFF", "Regions", "REF_LOOP_S", "loop_s",
           "covered", "self_times", "by_name"]

#: what :func:`loop_s` reads on the sandbox in its fast state: slowdown 1.0
REF_LOOP_S = 0.65e-3


class Span:
    """One recorded interval; also its own context manager."""

    __slots__ = ("rec", "name", "op", "parent", "start", "end", "thread",
                 "slowdown")

    def __init__(self, rec: "Recorder", name: str, op: str | None) -> None:
        self.rec = rec
        self.name = name
        self.op = op
        self.parent: Span | None = None
        self.start = self.end = 0.0
        self.thread = 0
        #: host slowdown of the region the span ran in (see Regions)
        self.slowdown = 1.0

    def __enter__(self) -> "Span":
        stack = self.rec._stack()
        if stack:
            self.parent = stack[-1]
            if self.op is None:
                self.op = self.parent.op
        stack.append(self)
        self.thread = threading.get_ident()
        self.rec.spans.append(self)     # list.append is atomic under the GIL
        self.start = self.rec.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = self.rec.clock()
        self.rec._stack().pop()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def ref_s(self) -> float:
        """Duration in reference seconds."""
        return (self.end - self.start) / self.slowdown


class _NoSpan:
    """What a disabled recorder hands out: enter/exit do nothing."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: str | None = None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, op)

    def write_jsonl(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op,
                    "parent": ids[id(s.parent)] if s.parent else None,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "slowdown": s.slowdown,
                }) + "\n")


#: a recorder that is off, for untraced passes
OFF = Recorder(enabled=False)


def covered(intervals: Iterable[tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


def loop_s() -> float:
    """Host speed right now: best of three runs of a fixed loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class Regions:
    """The timed regions of one pass, in raw and in reference seconds.

    A region's slowdown is the mean of loop samples taken just before
    and just after it.  A region that spends its time in other processes
    or threads (a farm pass, a serve phase) is long enough for the host
    to change state inside it, so ``time(name, sampled=True)`` also
    samples every 50 ms from a helper thread while it runs: about 5% of
    one core, the same on every commit.
    """

    SAMPLE_EVERY_S = 0.05

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.raw: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self.slowdown: dict[str, float] = {}
        #: (when, loop seconds) of the sample that closed the last region
        self._last = (float("-inf"), 0.0)

    @contextlib.contextmanager
    def time(self, name: str, sampled: bool = False) -> Iterator[None]:
        when, loop = self._last
        # back-to-back regions share the sample between them
        loops = [loop if time.perf_counter() - when < 0.005 else loop_s()]
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(self.SAMPLE_EVERY_S):
                loops.append(loop_s())

        sampler = threading.Thread(target=sample) if sampled else None
        if sampler is not None:
            sampler.start()
        first_span = len(self.rec.spans)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if sampler is not None:
                stop.set()
                sampler.join()
            loops.append(loop_s())
            self._last = (time.perf_counter(), loops[-1])
            slow = sum(loops) / len(loops) / REF_LOOP_S
            self.raw[name] = t1 - t0
            self.ref[name] = (t1 - t0) / slow
            self.slowdown[name] = slow
            for span in self.rec.spans[first_span:]:
                span.slowdown = slow


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``id(span) -> self time`` in reference seconds: duration minus
    child cover, over the slowdown of the region it ran in."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.duration - covered(children.get(id(s), ()),
                                         s.start, s.end)) / s.slowdown
            for s in spans}


def by_name(spans: Iterable[Span]) -> dict[str, list[float]]:
    """Self times grouped by span name, in recording order."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(selfs[id(s)])
    return out
