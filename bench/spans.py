"""Bench-side spans, self times and Chrome trace-event export.

The program under test carries no tracing of its own, so the benchmark
measures each layer from outside: it wraps every call into a module's
public function in a span named after that layer (``traffic.simulate``,
``pdns.store.ingest``, ...).  Spans nest by thread-local stack, or by an
explicit parent for work done on another thread.  A disabled
:class:`Tracer` hands out one shared no-op context, so untraced runs pay
one attribute check per call.

Timestamps come from ``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so spans recorded by the serve subprocess
line up with the client's when both files are merged by pid.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterable, List, Optional, Tuple

_NULL = nullcontext()


class Span:
    """One timed interval; ``parent`` is the enclosing span's id."""

    __slots__ = ("id", "name", "parent", "tid", "start_ns", "end_ns")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 tid: int, start_ns: int) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start_ns = start_ns
        self.end_ns = start_ns

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_row(self) -> list:
        """JSON form, for spans recorded in another process."""
        return [self.id, self.name, self.parent, self.tid, self.start_ns,
                self.end_ns]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        span_id, name, parent, tid, start_ns, end_ns = row
        span = cls(span_id, name, parent, tid, start_ns)
        span.end_ns = end_ns
        return span


class _Active:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_parent", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: Optional[Span]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._parent)
        return self._span

    def __exit__(self, *exc: object) -> None:
        assert self._span is not None
        self._tracer._close(self._span)


class Tracer:
    """Collects spans in memory; :meth:`spans` is read after the run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def span(self, name: str,
             parent: Optional[Span] = None) -> ContextManager[Any]:
        """Time the ``with`` body as span ``name``.  ``parent`` overrides
        the enclosing span of this thread (for worker threads)."""
        if not self.enabled:
            return _NULL
        return _Active(self, name, parent)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, None if parent is None else parent.id,
                    threading.get_ident(), time.perf_counter_ns())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)


# -- analysis -----------------------------------------------------------

def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[lo, hi)`` intervals."""
    covered = 0
    end: Optional[int] = None
    for lo, hi in sorted(intervals):
        if end is None or lo >= end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [(max(lo, span.start_ns), min(hi, span.end_ns))
                   for lo, hi in children.get(span.id, [])]
        covered = _union_ns((lo, hi) for lo, hi in clipped if hi > lo)
        out[span.id] = (span.end_ns - span.start_ns - covered) / 1e9
    return out


def descendants(spans: List[Span], root: Span) -> List[Span]:
    """``root`` and every span below it."""
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    found = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for span in frontier:
            nxt.extend(by_parent.get(span.id, []))
        found.extend(nxt)
        frontier = nxt
    return found


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Summed self seconds per span name."""
    selfs = self_seconds(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + selfs[span.id]
    return totals


def write_chrome_trace(path: Path,
                       spans_by_pid: Dict[int, List[Span]]) -> None:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events: List[Dict[str, object]] = []
    origin = min((span.start_ns for spans in spans_by_pid.values()
                  for span in spans), default=0)
    for pid, spans in sorted(spans_by_pid.items()):
        tids: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: s.start_ns):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({"name": span.name, "ph": "X", "pid": pid,
                           "tid": tid,
                           "ts": (span.start_ns - origin) / 1000.0,
                           "dur": (span.end_ns - span.start_ns) / 1000.0,
                           "args": {"id": span.id, "parent": span.parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.part")
    tmp.write_text(json.dumps({"traceEvents": events,
                               "displayTimeUnit": "ms"}))
    os.replace(tmp, path)
