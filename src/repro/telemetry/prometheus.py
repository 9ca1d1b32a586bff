"""Prometheus text exposition and the embedded ``/metrics`` endpoint.

Turns a :class:`~repro.telemetry.metrics.MetricsRegistry` into the
Prometheus text format (version ``0.0.4``) and serves it from a stdlib
``http.server`` so a long-running ``repro serve --listen PORT`` workload is
scrapeable while it runs.  No third-party client library: the format is
four line shapes (``# HELP``, ``# TYPE``, samples, cumulative histogram
buckets) and writing them directly keeps the dependency budget at zero.

Naming: dotted instrument names (``service.cache.hits``) become legal
Prometheus series by swapping separators for ``_``
(``service_cache_hits_total`` — counters get the conventional ``_total``
suffix).  :data:`METRIC_INVENTORY` is the curated catalogue of the
families the system emits; ``docs/observability.md`` embeds its rendered
table verbatim and ``test_doc_drift.py`` keeps the two in lock-step.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "CONTENT_TYPE",
    "METRIC_INVENTORY",
    "MetricsServer",
    "escape_label_value",
    "metric_inventory_table",
    "prometheus_name",
    "render_prometheus",
]

#: exposition Content-Type mandated by the text format spec
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, *, suffix: str = "") -> str:
    """A dotted instrument name as a legal Prometheus metric name.

    Dots (and any other illegal characters) become ``_``; a leading digit
    is guarded with ``_``.  ``suffix`` is appended as-is (``_total``, ...).
    """
    out = _INVALID.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out + suffix


def escape_label_value(value: str) -> str:
    """A label value escaped per the text-exposition spec.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="..."`` — in that order, so an
    already-present backslash never double-escapes the quote that follows.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value) -> str:
    """A sample value in exposition syntax (ints stay integral)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def render_prometheus(registry) -> str:
    """Render every instrument of ``registry`` as text exposition.

    Counters gain ``_total``; histograms expand to the conventional
    cumulative ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``.
    Families are sorted by name so scrapes diff cleanly.
    """
    snap = registry.to_dict()
    lines: List[str] = []

    for name, value in snap.get("counters", {}).items():
        pname = prometheus_name(name, suffix="_total")
        lines.append(f"# HELP {pname} repro counter {name}")
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(value)}")

    for name, value in snap.get("gauges", {}).items():
        pname = prometheus_name(name)
        lines.append(f"# HELP {pname} repro gauge {name}")
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(value)}")

    for name, summary in snap.get("histograms", {}).items():
        pname = prometheus_name(name)
        lines.append(f"# HELP {pname} repro histogram {name}")
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        buckets = summary.get("buckets") or {}
        # to_dict keeps bounds as strings in ascending order ("inf" last)
        for le, n in buckets.items():
            cumulative += n
            bound = "+Inf" if le == "inf" else escape_label_value(le)
            lines.append(f'{pname}_bucket{{le="{bound}"}} {cumulative}')
        if "inf" not in buckets:
            lines.append(f'{pname}_bucket{{le="+Inf"}} {summary["count"]}')
        lines.append(f"{pname}_sum {_fmt(summary.get('sum', 0.0))}")
        lines.append(f"{pname}_count {summary['count']}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# metric catalogue (docs drift-guard source of truth)
# ----------------------------------------------------------------------
#: (instrument family, kind, what it measures) — dotted names; ``*``
#: marks a reason/stage label folded into the name at emission time
METRIC_INVENTORY: Tuple[Tuple[str, str, str], ...] = (
    ("service.requests", "counter", "requests admitted by `ReorderService.submit`"),
    ("service.computed", "counter", "requests computed (cache/coalesce misses)"),
    ("service.coalesced", "counter", "requests piggybacked on an in-flight twin"),
    ("service.rejected", "counter", "requests refused by backpressure"),
    ("service.timeouts", "counter", "requests that hit their deadline"),
    ("service.fallbacks.*", "counter", "degradations taken, by landing method"),
    ("service.cache.hits", "counter", "memory-cache hits"),
    ("service.cache.misses", "counter", "memory-cache misses"),
    ("service.cache.disk_hits", "counter", "disk-cache hits"),
    ("service.cache.evictions", "counter", "LRU evictions"),
    ("service.cache.size", "gauge", "entries currently cached"),
    ("service.queue.depth", "gauge", "requests waiting for a slot"),
    ("service.hit_latency_ms", "histogram", "wall ms to serve a warm cache hit"),
    ("service.batch.size", "histogram", "requests per batched-admission dispatch group"),
    ("parallel.tasks", "counter", "component tasks dispatched to the pool"),
    ("parallel.matrices", "counter", "matrices processed by `map_matrices`"),
    ("parallel.chunks", "counter", "matrix chunks shipped to the pool"),
    ("parallel.fallbacks.*", "counter", "in-process fallbacks, by reason"),
    ("parallel.pool.reused", "counter", "dispatches served by an already-warm persistent pool"),
    ("parallel.shm.published", "counter", "CSR patterns published into shared memory"),
    ("parallel.shm.bytes", "counter", "bytes written through the shared-memory transport"),
    ("parallel.shm.leaked", "counter", "segments reclaimed by the atexit sweep (should stay 0)"),
    ("threads.batches.*", "counter", "speculative batch lifecycle (generated/dequeued/executed/empty)"),
    ("threads.speculation.*", "counter", "speculation economy (discovered/dropped/rediscovery_passes/sorted_elements)"),
    ("threads.overhangs.*", "counter", "overhang forwarding (forwarded/nodes)"),
    ("threads.n_workers", "gauge", "worker threads serving the run"),
    ("threads.batch.discovered", "histogram", "speculatively discovered nodes per batch"),
    ("threads.batch.dropped", "histogram", "nodes dropped per rediscovery pass"),
    ("threads.speculation.efficiency", "gauge", "kept fraction of speculatively discovered nodes (last run)"),
    ("vectorized.levels", "counter", "BFS levels swept by the vectorized kernel"),
    ("vectorized.edges_gathered", "counter", "CSR edges gathered"),
    ("vectorized.nodes_ordered", "counter", "nodes placed in the permutation"),
    ("vectorized.frontier", "histogram", "BFS frontier width per level"),
    ("request.bandwidth_reduction", "histogram", "per-request relative bandwidth reduction (1 - after/before)"),
    ("request.envelope_reduction", "histogram", "per-request relative envelope (profile) reduction"),
    ("slo.health_score", "gauge", "fraction of evaluable SLOs currently met"),
    ("slo.*", "gauge", "per-SLO burn (1.0 = at objective) and ok flag"),
    ("cg.iterations", "counter", "conjugate-gradient iterations"),
    ("cg.spmv", "counter", "sparse matrix-vector products"),
    ("cg.final_relative_residual", "histogram", "relative residual at convergence"),
    ("telemetry.jsonl.skipped", "counter", "corrupt JSONL lines skipped by `read_jsonl`"),
    ("telemetry.profiler.samples", "gauge", "stack samples held by the sampling profiler (fork-worker profiles merged in)"),
    ("telemetry.profiler.overhead_pct", "gauge", "profiler self-measurement: % of wall time spent inside sample ticks"),
    ("sim.*", "counter/gauge", "simulated-machine stats absorbed via `absorb_run_stats`"),
)


def metric_inventory_table() -> str:
    """The catalogue as a markdown table with exposition names.

    Embedded verbatim in ``docs/observability.md``; regenerate with
    ``repro telemetry inventory`` whenever a family is added.
    """
    lines = [
        "| instrument | kind | Prometheus series | measures |",
        "|---|---|---|---|",
    ]
    for family, kind, desc in METRIC_INVENTORY:
        wildcard = family.endswith(".*")
        base = family[:-2] if wildcard else family
        series = prometheus_name(base)
        if wildcard:
            series += "_*"
        if kind == "counter":
            series += "_total"
        lines.append(f"| `{family}` | {kind} | `{series}` | {desc} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# embedded HTTP endpoint
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes ``/metrics`` / ``/healthz`` / ``/statusz`` plus the debug
    pair ``/debug/flame`` (collapsed stacks) and ``/debug/critpath``
    (critical-path JSON); 404 otherwise."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        srv: "MetricsServer" = self.server.metrics_server  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            srv.refresh_slo()
            body = render_prometheus(srv.registry).encode()
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        elif path == "/statusz":
            body = (json.dumps(srv.status(), indent=2, sort_keys=True)
                    + "\n").encode()
            self._reply(200, "application/json", body)
        elif path == "/debug/flame":
            text = srv.flame_text()
            if text is None:
                self._reply(404, "text/plain; charset=utf-8",
                            b"profiler not running\n")
            else:
                self._reply(200, "text/plain; charset=utf-8", text.encode())
        elif path == "/debug/critpath":
            body = (json.dumps(srv.critpath_doc(), indent=2, sort_keys=True)
                    + "\n").encode()
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args) -> None:
        """Silence per-request stderr chatter (scrapes are periodic)."""


class MetricsServer:
    """Background ``/metrics`` + ``/healthz`` + ``/statusz`` endpoint.

    Binds ``127.0.0.1:port`` (``port=0`` lets the OS pick — tests use
    this), serves from a daemon thread, and reads a live
    :class:`MetricsRegistry` on every scrape, so it can be started before
    the workload and left up for its lifetime.  ``status_fn`` lets the
    owner (the CLI serve loop) splice live service stats into ``/statusz``.

    Every ``/metrics`` scrape and ``/statusz`` read re-evaluates the
    declarative SLO spec (:mod:`repro.telemetry.slo`) against the live
    registry, exporting ``slo.*`` gauges and a health score; ``/statusz``
    additionally reports endpoint ``uptime_s`` and lifecycle ``state``
    (``serving`` / ``shutting-down`` once :meth:`mark_shutdown` ran).
    """

    def __init__(self, registry, port: int = 0, host: str = "127.0.0.1",
                 status_fn: Optional[Callable[[], dict]] = None,
                 calibration_fn: Optional[Callable[[], Optional[dict]]] = None,
                 profile_fn: Optional[Callable[[], Optional[dict]]] = None,
                 critpath_fn: Optional[Callable[[], Optional[dict]]] = None,
                 ) -> None:
        self.registry = registry
        self._status_fn = status_fn
        self._calibration_fn = calibration_fn
        self._profile_fn = profile_fn
        self._critpath_fn = critpath_fn
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.metrics_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._started_unix = time.time()
        self._shutting_down = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _calibration(self) -> Optional[dict]:
        if self._calibration_fn is None:
            return None
        try:
            return self._calibration_fn()
        except Exception:  # pragma: no cover - defensive
            return None

    def evaluate_slo(self) -> dict:
        """The live SLO evaluation over the served registry."""
        from repro.telemetry import slo

        return slo.evaluate(
            self.registry.to_dict(), calibration=self._calibration()
        )

    def refresh_slo(self) -> dict:
        """Re-evaluate the SLO spec and mirror it onto ``slo.*`` gauges."""
        from repro.telemetry import slo

        evaluation = self.evaluate_slo()
        slo.export_gauges(self.registry, evaluation)
        return evaluation

    def mark_shutdown(self) -> None:
        """Flip ``/statusz`` state to ``shutting-down`` (graceful drain)."""
        self._shutting_down = True

    def flame_text(self) -> Optional[str]:
        """Collapsed stacks for ``/debug/flame``; None = no profiler.

        ``profile_fn`` (folded counts dict) wins when provided; the
        default reads the process-wide sampling profiler, so ``repro
        serve --profile --listen`` needs no extra wiring.
        """
        folded: Optional[dict] = None
        if self._profile_fn is not None:
            try:
                folded = self._profile_fn()
            except Exception:  # pragma: no cover - defensive
                folded = None
        else:
            from repro.telemetry import profiler as _profiler

            prof = _profiler.get_profiler()
            folded = prof.folded() if prof is not None else None
        if folded is None:
            return None
        from repro.telemetry.export import profile_to_collapsed

        return profile_to_collapsed(folded)

    def critpath_doc(self) -> dict:
        """The ``/debug/critpath`` document (critical path + what-ifs).

        ``critpath_fn`` overrides; the default analyzes the global
        tracer's records.  Always JSON — an empty span store yields a
        ``{"spans": 0, ...}`` stub rather than an error.
        """
        doc: Optional[dict] = None
        if self._critpath_fn is not None:
            try:
                doc = self._critpath_fn()
            except Exception as exc:  # pragma: no cover - defensive
                doc = {"spans": 0, "error": repr(exc)}
        else:
            from repro import telemetry
            from repro.telemetry.critical_path import critical_path

            doc = critical_path(telemetry.get().tracer.records())
        if doc is None:
            doc = {"spans": 0, "note": "no completed spans recorded"}
        return doc

    def status(self) -> dict:
        """The ``/statusz`` document: instrument totals + owner stats +
        SLO health + endpoint lifecycle (uptime, serving/shutting-down)."""
        evaluation = self.refresh_slo()
        snap = self.registry.to_dict()
        doc: Dict[str, object] = {
            "counters": snap.get("counters", {}),
            "gauges": snap.get("gauges", {}),
            "slo": evaluation,
            "uptime_s": time.time() - self._started_unix,
            "state": "shutting-down" if self._shutting_down else "serving",
        }
        from repro.telemetry import profiler as _profiler

        doc["profiler"] = _profiler.profiler_stats()
        if self._status_fn is not None:
            try:
                doc["service"] = self._status_fn()
            except Exception as exc:  # pragma: no cover - defensive
                doc["service"] = {"error": repr(exc)}
        return doc

    def start(self) -> "MetricsServer":
        """Begin serving on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-server", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the endpoint down and join the serving thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
