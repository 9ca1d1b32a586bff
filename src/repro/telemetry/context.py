"""Cross-boundary request tracing: trace contexts and worker-span merging.

PR-1 telemetry sees one process and stops at its edge.  This module gives
every request an identity that survives the two boundaries the system now
crosses:

* **threads** — a :class:`TraceContext` is activated on whatever thread
  serves the request (the facade caller, a :class:`ReorderService` worker)
  and every span closed while it is active is stamped with its
  ``trace_id`` (see :class:`~repro.telemetry.spans.SpanRecord.trace_id`);
* **processes** — the process-pool executor ships the context *into* each
  worker task, the worker records spans and counters on a private capture
  of its (forked) global telemetry, and pickles a :class:`WorkerReport`
  back alongside the result; :func:`merge_worker_report` folds it into the
  parent tracer with fresh span ids, correct parent links (worker roots
  hang off the dispatching ``parallel.*`` span), a stable lane per worker
  pid and additive counter deltas.

The result is one coherent trace per request: a Chrome-trace export of a
``method="parallel"`` run shows the service span, the pipeline phases and
the per-process worker spans on one timeline under one ``trace_id``
(worker tracers are re-based on the parent's epoch — ``perf_counter_ns``
is CLOCK_MONOTONIC on the platforms that have ``fork``, so timestamps from
forked children are directly comparable).

Context activation is thread-local and costs one attribute write; nothing
here runs unless telemetry is enabled.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.spans import SpanRecord, _CONTEXT, current_trace

__all__ = [
    "TraceContext",
    "WorkerReport",
    "new_trace_context",
    "current_trace",
    "activate",
    "ensure_context",
    "collect_worker_report",
    "begin_worker_capture",
    "merge_worker_report",
]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one request, propagated across threads and processes.

    Picklable by construction (plain strings/ints) so the process-pool
    executor can ship it to workers with the task payload.
    """

    trace_id: str
    request_id: str
    #: span the remote/worker sub-trace should hang off (merge target)
    parent_span_id: Optional[int] = None

    def child(self, parent_span_id: Optional[int]) -> "TraceContext":
        """The same trace, re-anchored under a new parent span."""
        return TraceContext(self.trace_id, self.request_id, parent_span_id)


def new_trace_context(request_id: Optional[str] = None) -> TraceContext:
    """A fresh context: random 16-hex trace id, caller-chosen request id."""
    trace_id = uuid.uuid4().hex[:16]
    return TraceContext(
        trace_id=trace_id,
        request_id=request_id if request_id is not None else trace_id,
    )


class _Activation:
    """Context manager installing a :class:`TraceContext` on this thread.

    ``activate(None)`` is a no-op scope, so callers never branch.  The
    previous context is restored on exit (nesting = re-anchoring).
    """

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._prev = getattr(_CONTEXT, "value", None)
            _CONTEXT.value = self._ctx
        return self._ctx

    def __exit__(self, *exc) -> bool:
        if self._ctx is not None:
            _CONTEXT.value = self._prev
        return False


def activate(ctx: Optional[TraceContext]) -> _Activation:
    """Scope ``ctx`` as the current trace context of this thread."""
    return _Activation(ctx)


def ensure_context(request_id: Optional[str] = None) -> _Activation:
    """Activate a fresh context unless one is already current.

    The facade uses this at its entry so a bare ``repro.reorder()`` call
    gets a trace id, while a call made *inside* a service request inherits
    the request's context instead of forking a new one.
    """
    if current_trace() is not None:
        return _Activation(None)
    return _Activation(new_trace_context(request_id))


# ----------------------------------------------------------------------
# cross-process capture and merge
# ----------------------------------------------------------------------
@dataclass
class WorkerReport:
    """What one worker task ships back beside its result.

    ``spans`` are :meth:`SpanRecord.to_event` dicts (already JSON-plain,
    so the payload pickles small and survives schema drift), ``metrics``
    is the worker registry's ``to_dict()`` snapshot — a *delta*, because
    the capture is reset at task start.
    """

    pid: int
    spans: List[dict] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: folded-stack sample counts from the worker's own sampling profiler
    #: (empty unless the parent ran one — see ``repro.telemetry.profiler``)
    profile: Dict[str, int] = field(default_factory=dict)


def begin_worker_capture(
    epoch_ns: int, profile_hz: Optional[float] = None
) -> None:
    """Reset the (forked) global telemetry into per-task capture mode.

    Called at the top of every traced worker task: drops whatever spans
    and counters the fork inherited from the parent, re-bases the tracer
    on the parent's epoch so timestamps line up on one timeline, and
    enables recording.  When the parent runs a sampling profiler it
    forwards its rate as ``profile_hz`` and the worker starts its own
    ``role="worker"`` sampler for the task's duration.
    """
    from repro import telemetry
    from repro.telemetry import profiler as _profiler

    tel = telemetry.get()
    tel.reset()
    tel.tracer.epoch_ns = epoch_ns
    tel.enable()
    _profiler.begin_worker_profile(profile_hz)


def collect_worker_report() -> WorkerReport:
    """Snapshot the worker-side capture into a picklable report."""
    from repro import telemetry
    from repro.telemetry import profiler as _profiler

    tel = telemetry.get()
    return WorkerReport(
        pid=os.getpid(),
        spans=[rec.to_event() for rec in tel.tracer.records()],
        metrics=tel.metrics.to_dict(),
        profile=_profiler.take_worker_profile(),
    )


def merge_worker_report(
    tel,
    report: WorkerReport,
    *,
    parent_span_id: Optional[int],
    lane: Optional[int] = None,
    trace_id: Optional[str] = None,
) -> int:
    """Fold one :class:`WorkerReport` into the parent telemetry.

    Span ids are reallocated from the parent tracer's counter (worker-local
    ids collide across workers), intra-report parent links are remapped,
    and report roots are attached under ``parent_span_id`` — so the merged
    spans form one tree with the dispatch span.  Every span gets the
    worker's ``lane`` (stable per pid, assigned by the caller), keeps its
    recording ``pid``, and is stamped with ``trace_id`` when the worker ran
    without one.  Counter deltas add, and the report's folded profile (if
    any) is absorbed into the parent's active sampling profiler — the
    cross-process flamegraph path.  Returns the number of merged spans.
    """
    id_map: Dict[int, int] = {}
    records: List[SpanRecord] = []
    for event in report.spans:
        rec = SpanRecord.from_event(event)
        id_map[rec.span_id] = next(tel.tracer._ids)
        records.append(rec)
    for rec in records:
        rec.span_id = id_map[rec.span_id]
        rec.parent_id = (
            id_map[rec.parent_id] if rec.parent_id in id_map
            else parent_span_id
        )
        if lane is not None:
            rec.worker = lane
        if rec.pid is None:
            rec.pid = report.pid
        if rec.trace_id is None:
            rec.trace_id = trace_id
    with tel.tracer._lock:
        tel.tracer._records.extend(records)
    tel.metrics.merge_snapshot(report.metrics)
    if report.profile:
        from repro.telemetry import profiler as _profiler

        prof = _profiler.get_profiler()
        if prof is not None:
            prof.merge_folded(report.profile)
    return len(records)
