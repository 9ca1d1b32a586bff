"""Thread-safe hierarchical wall-clock span tracer.

Real runs (the OS-thread backend, the public API pipeline, the solver)
cannot use the simulator's cycle accounting — they need *wall-clock* spans.
:class:`Tracer` records ``perf_counter_ns`` intervals as a tree (each thread
keeps its own open-span stack, so nesting is captured without any global
coordination) and is safe to use from many threads at once.

The disabled path is near-free: :meth:`Tracer.span` returns a shared no-op
context manager without allocating, so instrumentation can stay in hot code
permanently.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN"]

#: thread-local holder of the active :class:`~repro.telemetry.context.TraceContext`
#: (managed by :mod:`repro.telemetry.context`; kept here so the span hot path
#: reads it without an import cycle)
_CONTEXT = threading.local()


def current_trace():
    """The :class:`TraceContext` active on this thread, or ``None``."""
    return getattr(_CONTEXT, "value", None)


# ----------------------------------------------------------------------
# sampling-profiler attribution mirrors
# ----------------------------------------------------------------------
# The span stack lives in a thread-local, which the profiler's sampler
# thread cannot read. While a profiler runs (``_MIRROR_ON``), span
# enter/exit additionally maintains this plain ``{thread_id: ...}`` dict;
# each individual dict / list operation is atomic under the GIL, so the
# sampler reads it lock-free. When no profiler runs the only cost on the span hot path is
# one module-global bool check.

_MIRROR_ON = False
#: thread id -> list of ``(span_name, category)``, innermost last
_SPAN_MIRROR: Dict[int, List[tuple]] = {}


def _set_mirror(on: bool) -> None:
    """Toggle mirror maintenance (called by the profiler's start/stop)."""
    global _MIRROR_ON
    _MIRROR_ON = bool(on)
    if not on:
        _SPAN_MIRROR.clear()


@dataclass
class SpanRecord:
    """One finished wall-clock span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_ns: int
    duration_ns: int
    thread_id: int
    #: logical worker lane (thread backend); ``None`` = main/pipeline code
    worker: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: request trace id stamped from the active :class:`TraceContext`
    trace_id: Optional[str] = None
    #: OS process that recorded the span (cross-process attribution)
    pid: Optional[int] = None

    @property
    def end_ns(self) -> int:
        """Exclusive end timestamp (``start_ns + duration_ns``)."""
        return self.start_ns + self.duration_ns

    def to_event(self) -> dict:
        """JSON-serializable event record (the JSONL ``span`` schema)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
            "tid": self.thread_id,
            "worker": self.worker,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
            "pid": self.pid,
        }

    @classmethod
    def from_event(cls, event: dict) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_event` dict (merge path)."""
        return cls(
            span_id=event["id"],
            parent_id=event.get("parent"),
            name=event["name"],
            category=event.get("cat", "phase"),
            start_ns=event["start_ns"],
            duration_ns=event["dur_ns"],
            thread_id=event.get("tid", 0),
            worker=event.get("worker"),
            attrs=dict(event.get("attrs") or {}),
            trace_id=event.get("trace_id"),
            pid=event.get("pid"),
        )


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (disabled mode)."""

    @property
    def span_id(self) -> None:
        """No id while disabled (keeps caller code branch-free)."""
        return None


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager measuring one span on the owning thread's stack."""

    __slots__ = ("_tracer", "_name", "_category", "_worker", "_attrs",
                 "_span_id", "_parent_id", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 worker: Optional[int], attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._worker = worker
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Attach extra attributes to the span before it closes."""
        self._attrs.update(attrs)

    @property
    def span_id(self) -> int:
        """The id assigned at ``__enter__`` (parent for merged sub-traces)."""
        return self._span_id

    def __enter__(self) -> "_ActiveSpan":
        tr = self._tracer
        stack = tr._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tr._ids)
        stack.append(self._span_id)
        if _MIRROR_ON:
            _SPAN_MIRROR.setdefault(threading.get_ident(), []).append(
                (self._name, self._category)
            )
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tr = self._tracer
        stack = tr._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        if _MIRROR_ON:
            mirror = _SPAN_MIRROR.get(threading.get_ident())
            if mirror:
                mirror.pop()
        ctx = getattr(_CONTEXT, "value", None)
        rec = SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self._name,
            category=self._category,
            start_ns=self._start_ns - tr.epoch_ns,
            duration_ns=end - self._start_ns,
            thread_id=threading.get_ident(),
            worker=self._worker,
            attrs=self._attrs,
            trace_id=ctx.trace_id if ctx is not None else None,
            pid=os.getpid(),
        )
        with tr._lock:
            tr._records.append(rec)
        return False


class Tracer:
    """Collects :class:`SpanRecord` trees from any number of threads.

    Timestamps are stored relative to :attr:`epoch_ns` (the construction or
    last :meth:`clear` time) so exported traces start near zero.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.epoch_ns = time.perf_counter_ns()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, category: str = "phase",
             worker: Optional[int] = None, **attrs):
        """Open a wall-clock span as a context manager.

        Returns the shared :data:`NULL_SPAN` when tracing is disabled —
        callers can leave ``with tracer.span(...)`` in hot paths.
        """
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, category, worker, attrs)

    def records(self) -> List[SpanRecord]:
        """Snapshot of all finished spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all records and restart the epoch."""
        with self._lock:
            self._records.clear()
            self.epoch_ns = time.perf_counter_ns()

    def phase_totals(self) -> Dict[str, int]:
        """Total nanoseconds per span name (wall, summed over records)."""
        out: Dict[str, int] = {}
        for rec in self.records():
            out[rec.name] = out.get(rec.name, 0) + rec.duration_ns
        return out
