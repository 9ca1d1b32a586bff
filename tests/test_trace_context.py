"""Tests for cross-boundary request tracing (``repro.telemetry.context``).

Covers context creation/activation semantics, trace-id stamping on spans,
worker-report merging (id renumbering, re-parenting, lane/pid attribution,
counter-delta accumulation), and the PR's acceptance invariant: a
``method="parallel"`` multi-component reorder through ``ReorderService``
yields ONE coherent trace — worker-process spans merged under the
request's ``trace_id``, exportable as a single Chrome trace.
"""

import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.matrices import generators as g
from repro.sparse.csr import CSRMatrix
from repro.telemetry import context as tctx
from repro.telemetry.spans import SpanRecord


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _block_diag(blocks):
    """Disconnected union of square patterns (multi-component inputs)."""
    n = sum(b.n for b in blocks)
    edges = []
    base = 0
    for b in blocks:
        for u in range(b.n):
            for v in b.indices[b.indptr[u]:b.indptr[u + 1]]:
                if u < v:
                    edges.append((base + u, base + int(v)))
        base += b.n
    return CSRMatrix.from_edges(n, edges)


class TestTraceContext:
    def test_new_context_ids(self):
        ctx = tctx.new_trace_context()
        assert len(ctx.trace_id) == 16
        assert ctx.request_id == ctx.trace_id
        assert ctx.parent_span_id is None
        named = tctx.new_trace_context(request_id="req-7")
        assert named.request_id == "req-7"
        assert named.trace_id != ctx.trace_id

    def test_activation_is_scoped_and_restores(self):
        assert tctx.current_trace() is None
        ctx = tctx.new_trace_context()
        with tctx.activate(ctx):
            assert tctx.current_trace() is ctx
            inner = tctx.new_trace_context()
            with tctx.activate(inner):
                assert tctx.current_trace() is inner
            assert tctx.current_trace() is ctx
        assert tctx.current_trace() is None

    def test_activate_none_is_noop(self):
        with tctx.activate(None) as got:
            assert got is None
            assert tctx.current_trace() is None

    def test_ensure_context_creates_once(self):
        with tctx.ensure_context("outer") as ctx:
            assert ctx is not None
            with tctx.ensure_context("inner") as inherited:
                # an active context is inherited, not replaced
                assert inherited is None
                assert tctx.current_trace() is ctx
        assert tctx.current_trace() is None

    def test_child_reanchors_same_trace(self):
        ctx = tctx.new_trace_context("r")
        child = ctx.child(41)
        assert child.trace_id == ctx.trace_id
        assert child.request_id == "r"
        assert child.parent_span_id == 41

    def test_context_is_picklable(self):
        import pickle

        ctx = tctx.new_trace_context("r")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


class TestSpanStamping:
    def test_spans_carry_trace_id_and_pid(self):
        telemetry.enable()
        tel = telemetry.get()
        with tctx.ensure_context() as ctx:
            with tel.span("a"):
                with tel.span("b"):
                    pass
        for rec in tel.tracer.records():
            assert rec.trace_id == ctx.trace_id
            assert rec.pid == os.getpid()

    def test_span_without_context_has_no_trace_id(self):
        telemetry.enable()
        tel = telemetry.get()
        with tel.span("lone"):
            pass
        (rec,) = tel.tracer.records()
        assert rec.trace_id is None
        assert rec.pid == os.getpid()

    def test_span_record_event_round_trip(self):
        rec = SpanRecord(
            span_id=3, parent_id=1, name="x", category="c",
            start_ns=10, duration_ns=5, thread_id=7, worker=2,
            attrs={"k": 1}, trace_id="t" * 16, pid=1234,
        )
        assert SpanRecord.from_event(rec.to_event()) == rec


class TestWorkerReportMerge:
    def _worker_report(self, epoch_ns, pid=99999):
        worker = telemetry.Telemetry(enabled=True)
        worker.tracer.epoch_ns = epoch_ns
        with worker.tracer.span("parallel.worker", category="parallel"):
            with worker.tracer.span("inner"):
                pass
        worker.metrics.counter("vectorized.levels").add(4)
        worker.metrics.histogram("w_ms").observe(2.0)
        # stamp the simulated worker pid (a real report's events carry the
        # recording process's pid already — here everything runs in-process)
        events = []
        for r in worker.tracer.records():
            event = r.to_event()
            event["pid"] = pid
            events.append(event)
        return tctx.WorkerReport(
            pid=pid, spans=events, metrics=worker.metrics.to_dict(),
        )

    def test_merge_renumbers_and_reparents(self):
        telemetry.enable()
        tel = telemetry.get()
        with tel.span("dispatch") as sp:
            parent_id = sp.span_id
        report = self._worker_report(tel.tracer.epoch_ns)
        n = tctx.merge_worker_report(
            tel, report, parent_span_id=parent_id, lane=0, trace_id="T" * 16
        )
        assert n == 2
        by_name = {r.name: r for r in tel.tracer.records()}
        root = by_name["parallel.worker"]
        inner = by_name["inner"]
        assert root.parent_id == parent_id
        assert inner.parent_id == root.span_id
        # fresh ids, no collision with the parent's spans
        ids = [r.span_id for r in tel.tracer.records()]
        assert len(ids) == len(set(ids))
        assert root.worker == 0 and inner.worker == 0
        assert root.pid == 99999
        assert root.trace_id == "T" * 16

    def test_merge_preserves_worker_trace_id(self):
        telemetry.enable()
        tel = telemetry.get()
        worker = telemetry.Telemetry(enabled=True)
        with tctx.activate(tctx.new_trace_context("w")) as wctx:
            with worker.tracer.span("parallel.worker"):
                pass
        report = tctx.WorkerReport(
            pid=1, spans=[r.to_event() for r in worker.tracer.records()],
            metrics={},
        )
        tctx.merge_worker_report(
            tel, report, parent_span_id=None, trace_id="other"
        )
        (rec,) = tel.tracer.records()
        # the worker recorded under its own active context; merge must not
        # overwrite it
        assert rec.trace_id == wctx.trace_id

    def test_merge_accumulates_counter_deltas(self):
        telemetry.enable()
        tel = telemetry.get()
        tel.metrics.counter("vectorized.levels").add(1)
        for _ in range(2):
            report = self._worker_report(tel.tracer.epoch_ns)
            tctx.merge_worker_report(tel, report, parent_span_id=None)
        assert tel.metrics.counter("vectorized.levels").value == 1 + 4 + 4
        hist = tel.metrics.histogram("w_ms").to_dict()
        assert hist["count"] == 2

    def test_merge_assigns_stable_lane_per_pid(self):
        telemetry.enable()
        tel = telemetry.get()
        from repro.parallel.executor import _merge_reports

        reports = [
            self._worker_report(tel.tracer.epoch_ns, pid=p)
            for p in (111, 222, 111)
        ]
        _merge_reports(tel, reports, parent_span_id=None, trace_id=None)
        lanes = {
            r.pid: r.worker for r in tel.tracer.records()
            if r.name == "parallel.worker"
        }
        assert lanes == {111: 0, 222: 1}


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process-pool tracing needs fork",
)
class TestCrossProcessTrace:
    """The acceptance invariant: one request, one trace, many processes."""

    def _multi_component_matrix(self):
        # two components, n = 2 * 36*36 = 2592 > MIN_PARALLEL_NODES, so the
        # pool genuinely forks
        return _block_diag([g.grid2d(36, 36), g.grid2d(36, 36)])

    def test_service_parallel_request_yields_one_trace(self, tmp_path):
        from repro.service import ReorderService, ServiceConfig

        telemetry.enable()
        tel = telemetry.get()
        mat = self._multi_component_matrix()
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            res = svc.reorder(mat, method="parallel")
        assert res.method == "parallel"

        records = tel.tracer.records()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec.name, []).append(rec)

        (request_span,) = by_name["service.request"]
        trace_id = request_span.trace_id
        assert trace_id is not None

        worker_spans = by_name.get("parallel.worker", [])
        assert len(worker_spans) == 2, (
            "expected one traced worker span per component; got "
            f"{sorted(by_name)}"
        )
        parent_pid = os.getpid()
        for w in worker_spans:
            # recorded in a different OS process...
            assert w.pid is not None and w.pid != parent_pid
            # ...but stamped with the request's trace id
            assert w.trace_id == trace_id

        # worker roots hang off the dispatch span, which chains up to the
        # service.request span: one tree per request
        (dispatch,) = by_name["parallel.components"]
        by_id = {r.span_id: r for r in records}
        for w in worker_spans:
            assert w.parent_id == dispatch.span_id
            node = dispatch
            while node.parent_id is not None:
                node = by_id[node.parent_id]
            assert node.span_id == request_span.span_id

        # the whole thing exports as one Chrome trace containing the
        # worker-process spans
        out = tmp_path / "trace.json"
        tel.write_chrome_trace(out)
        events = json.loads(out.read_text())["traceEvents"]
        names = {e.get("name") for e in events}
        assert "parallel.worker" in names
        assert "service.request" in names

    def test_worker_counters_merge_into_parent(self):
        from repro.core.api import _reorder_rcm

        telemetry.enable()
        tel = telemetry.get()
        mat = self._multi_component_matrix()
        with tctx.ensure_context():
            res = _reorder_rcm(mat, method="parallel")
        assert res.n_components == 2
        counters = tel.snapshot()["counters"]
        # rcm_vectorized instruments per-level work; the workers ran it,
        # the parent holds the totals
        assert counters.get("vectorized.nodes_ordered", 0) == mat.n
        assert counters.get("parallel.tasks", 0) == 2

    def test_disabled_telemetry_ships_no_reports(self):
        from repro.core.api import _reorder_rcm

        mat = self._multi_component_matrix()
        res = _reorder_rcm(mat, method="parallel")
        assert res.n_components == 2
        assert telemetry.get().tracer.records() == []

    def test_parallel_permutation_identical_with_tracing(self):
        from repro.core.api import _reorder_rcm

        mat = self._multi_component_matrix()
        ref = _reorder_rcm(mat, method="serial").permutation
        telemetry.enable()
        with tctx.ensure_context():
            traced = _reorder_rcm(mat, method="parallel").permutation
        assert np.array_equal(traced, ref)
