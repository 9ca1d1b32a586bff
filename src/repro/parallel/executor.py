"""Process-pool executor: one shared-memory transport, pool reuse and
graceful in-process fallback.

The pool is built on ``fork`` and is **persistent**: the first dispatch
creates and warms it, every later dispatch reuses it (counter
``parallel.pool.reused``), so process startup and warm-up are paid once
per executor lifetime instead of once per call.  Matrix payloads travel
through the zero-copy shared-memory transport (:mod:`repro.parallel.shm`):
the parent publishes ``indptr``/``indices`` into shared segments, workers
attach read-only views, and permutations come back through a shared result
arena — no CSR bytes ever cross the pipe.

There is one worker task per work shape (:func:`_component_task`,
:func:`_chunk_task`) and one parent-side dispatch (:func:`_dispatch`).
When ``fork`` is not available (e.g. Windows / some macOS configurations),
when shared memory is unusable on the platform, when the pool fails, or
when the input is too small to pay for dispatch, every entry point runs
the same code in-process — the caller always gets the identical result.
The in-process target comes from the backend registry's degradation chain
(:func:`repro.backends.in_process_fallback`), the same declaration the
service layer's fallback chain derives from.

Telemetry: spans ``parallel.components`` / ``parallel.map`` wrap the
dispatch, and counters ``parallel.tasks``, ``parallel.chunks``,
``parallel.pool.reused`` and ``parallel.fallbacks.<reason>`` record what
actually ran where.  When telemetry is enabled the parent hands every task
a trace tuple: the worker resets its forked-in telemetry, records
spans/counters locally under the request's
:class:`~repro.telemetry.context.TraceContext`, and ships a
:class:`~repro.telemetry.context.WorkerReport` back with its result; the
parent merges every report under the dispatch span with a stable lane per
worker pid, so one request produces one coherent cross-process trace.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro import telemetry
from repro.parallel import shm
from repro.telemetry import profiler as _profiler
from repro.telemetry.spans import current_trace
from repro.validation import check_min

__all__ = [
    "ParallelConfig",
    "fork_available",
    "rcm_components",
    "record_fallback",
    "map_matrices",
    "reset_pools",
    "resolve_workers",
]

#: inputs with fewer total nodes run in-process: process startup costs
#: milliseconds, which a small matrix never wins back
MIN_PARALLEL_NODES = 2048

#: spin every worker up when a pool is created, before real work is timed
WARMUP = True


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the process-parallel execution layer.

    ``n_workers=None`` sizes the pool to ``os.cpu_count()``.
    ``chunk_size`` is the number of matrices per :func:`map_matrices`
    task (``None`` derives it from the batch and pool size; otherwise it
    must be at least 1).  Inputs with fewer than :data:`MIN_PARALLEL_NODES`
    total nodes (or a single task) run in-process; ``force_processes``
    overrides that heuristic (tests, benchmarks).
    """

    n_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    force_processes: bool = False

    def __post_init__(self) -> None:
        if self.chunk_size is not None:
            check_min("chunk_size", self.chunk_size, 1)


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(n_workers: Optional[int]) -> int:
    """Effective pool size: requested count, capped at 1 minimum."""
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    return max(int(n_workers), 1)


# ----------------------------------------------------------------------
# persistent pool (one per worker count, warmed once, reused across calls)
# ----------------------------------------------------------------------
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _warmup_task(token: int) -> int:
    return token


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared fork pool for ``workers``, created+warmed on first use.

    Reuse is the whole point: service batches and repeated facade calls
    hit an already-warm pool (``parallel.pool.reused`` counts the hits)
    instead of paying ``POOL_STARTUP_CYCLES`` per dispatch.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is not None:
            tel = telemetry.get()
            if tel.enabled:
                tel.counter("parallel.pool.reused").add(1)
            return pool
        import multiprocessing

        # fork after the resource tracker exists, so workers inherit it
        shm.ensure_tracker()
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        if WARMUP:
            # once per pool lifetime; reusing callers skip straight to submit
            for fut in [pool.submit(_warmup_task, i) for i in range(workers)]:
                fut.result()
        _POOLS[workers] = pool
        return pool


def _discard_pool(workers: int) -> None:
    """Drop a broken pool so the next dispatch builds a fresh one."""
    with _POOLS_LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def reset_pools() -> None:
    """Shut down every persistent pool (test hook + atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(reset_pools)


# ----------------------------------------------------------------------
# worker side: one task per work shape
# ----------------------------------------------------------------------

#: sentinel standing in for a permutation that lives in the result arena;
#: the parent swaps the real block back in before anyone sees the result
_SHM_RESIDENT = np.zeros(0, dtype=np.int64)

#: ``(TraceContext or None, parent epoch_ns, parent profiler hz or None)``
#: — what a worker needs to record into the parent's trace
TraceArgs = Tuple[object, int, Optional[float]]


@contextmanager
def _worker_trace(trace: Optional[TraceArgs], **attrs):
    """Wrap a task body in the request's trace; a no-op when untraced.

    The worker re-bases its (forked) telemetry on the parent's epoch,
    activates the request's trace context and wraps the body in a
    ``parallel.worker`` span, so the parent can merge a self-consistent
    sub-trace (see :mod:`repro.telemetry.context`).  When the parent runs
    a sampling profiler the worker runs its own and takes one synchronous
    sample inside the span, so every task lands at least one attributed
    stack in the merged flamegraph no matter how short it ran.
    """
    if trace is None:
        yield
        return
    from repro.telemetry import context as tctx

    ctx, epoch_ns, prof_hz = trace
    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    with tctx.activate(ctx):
        with telemetry.get().span("parallel.worker", category="parallel",
                                  **attrs):
            yield
            _profiler.sample_now()


def _worker_report(trace: Optional[TraceArgs]):
    """The task's :class:`WorkerReport`, or ``None`` when untraced."""
    if trace is None:
        return None
    from repro.telemetry import context as tctx

    return tctx.collect_worker_report()


def _component_task(
    csr: shm.CSRHandle, arena: shm.ArenaHandle, start: int,
    offset: int, length: int, trace: Optional[TraceArgs],
):
    """Order one component into its arena block: ``(None, report)`` —
    the permutation already sits in shared memory."""
    from repro.core.vectorized import rcm_vectorized

    with _worker_trace(trace, start_node=int(start)):
        out = shm.attach_arena(arena)
        out[offset:offset + length] = rcm_vectorized(
            shm.attach_csr(csr), int(start)
        )
    return None, _worker_report(trace)


def _chunk_task(
    items: Sequence[Tuple[shm.CSRHandle, int]],
    arena: shm.ArenaHandle, kwargs: dict, trace: Optional[TraceArgs],
):
    """Run the full pipeline per matrix: ``(results, report)``.

    Permutations go home via the arena, everything else (bandwidths,
    phases, stats) via the light perm-stripped results."""
    from repro.core.api import _reorder_rcm

    results = []
    with _worker_trace(trace, n_matrices=len(items)):
        out = shm.attach_arena(arena)
        for handle, offset in items:
            res = _reorder_rcm(shm.attach_csr(handle), **kwargs)
            out[offset:offset + handle.n] = res.permutation
            res.permutation = _SHM_RESIDENT
            results.append(res)
    return results, _worker_report(trace)


# ----------------------------------------------------------------------
# parent side: one dispatch
# ----------------------------------------------------------------------
def _merge_reports(tel, reports, *, parent_span_id, trace_id) -> None:
    """Fold worker reports into the parent, one stable lane per pid."""
    from repro.telemetry import context as tctx

    lanes: dict = {}
    for report in reports:
        lane = lanes.setdefault(report.pid, len(lanes))
        tctx.merge_worker_report(
            tel, report, parent_span_id=parent_span_id,
            lane=lane, trace_id=trace_id,
        )


def _dispatch(
    pool: ProcessPoolExecutor, task, args: Sequence[tuple],
    weights: Sequence[int], span: str, **attrs,
) -> list:
    """Run ``task(*args[i], trace)`` for every ``i`` on ``pool``.

    Tasks are submitted heaviest first (LPT scheduling, by ``weights``)
    so stragglers don't tail, and their values come back in input order.
    Under telemetry each task gets the request's trace tuple and its
    :class:`WorkerReport` is merged under the ``span`` that wraps the
    dispatch.
    """
    tel = telemetry.get()
    req_ctx = current_trace() if tel.enabled else None
    trace = (
        (req_ctx, tel.tracer.epoch_ns, _profiler.active_hz())
        if tel.enabled else None
    )
    order = np.argsort(-np.asarray(weights, dtype=np.int64), kind="stable")
    with tel.span(span, category="parallel", **attrs) as sp:
        futures = {int(i): pool.submit(task, *args[i], trace) for i in order}
        pairs = [futures[i].result() for i in range(len(args))]
        if trace is not None:
            _merge_reports(
                tel, [report for _, report in pairs],
                parent_span_id=sp.span_id,
                trace_id=req_ctx.trace_id if req_ctx else None,
            )
    return [value for value, _ in pairs]


def _in_process_reason(
    n_tasks: int, workers: int, n_nodes: int, cfg: ParallelConfig
) -> Optional[str]:
    """Why this dispatch must run in-process, or ``None`` to use the pool."""
    if not cfg.force_processes and (
        n_tasks == 1 or workers == 1 or n_nodes < MIN_PARALLEL_NODES
    ):
        return "small-input"
    if not fork_available():
        return "no-fork"
    if not shm.shm_available():
        return "no-shm"
    return None


def record_fallback(reason: str, *, prefix: str = "parallel") -> None:
    """Bump the ``<prefix>.fallbacks`` counters for one degradation event.

    The shared convention across execution layers: a total under
    ``<prefix>.fallbacks`` plus one ``<prefix>.fallbacks.<reason>`` counter
    per cause.  The process-pool layer records under ``parallel``; the
    service layer reuses the same shape under ``service``.
    """
    tel = telemetry.get()
    if tel.enabled:
        tel.counter(f"{prefix}.fallbacks").add(1)
        tel.counter(f"{prefix}.fallbacks.{reason}").add(1)


# ----------------------------------------------------------------------
# per-component partitioning
# ----------------------------------------------------------------------
def rcm_components(
    mat: CSRMatrix,
    starts: Sequence[int],
    *,
    sizes: Sequence[int],
    config: Optional[ParallelConfig] = None,
) -> List[np.ndarray]:
    """RCM permutation block of each component, computed concurrently.

    ``starts[i]`` is the start node of component ``i`` and ``sizes[i]`` its
    node count; the sizes place each block in the shared result arena and
    drive largest-first scheduling so the pool drains evenly.  Blocks come
    back in input order and are bit-identical to running
    :func:`repro.core.vectorized.rcm_vectorized` per start in sequence.
    """
    from repro import backends

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)

    def in_process(reason: str) -> List[np.ndarray]:
        record_fallback(reason)
        target = backends.get(backends.in_process_fallback("parallel"))
        return [
            target.run_component(
                mat, int(s), total=total, n_workers=1, config=None, seed=0,
            )[0]
            for s, total in zip(starts, sizes)
        ]

    if not starts:
        return []
    # an explicit method="parallel" request is honored even on few-core
    # hosts (cross-process traces depend on it); the auto cost model is
    # what steers commodity requests away from the pool
    reason = _in_process_reason(len(starts), workers, mat.n, cfg)
    if reason is not None:
        return in_process(reason)

    # arena offset of each block, plus the total size at the end
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    try:
        # pool first, segments second: freshly forked workers then never
        # inherit this dispatch's entries in the shm registry
        pool = _get_pool(workers)
        with shm.ShmBatch() as batch:
            (csr,) = batch.publish_many([mat])
            arena = batch.result_arena(int(offsets[-1]))
            args = [
                (csr, arena.handle, int(s), int(offsets[i]), int(sizes[i]))
                for i, s in enumerate(starts)
            ]
            _dispatch(
                pool, _component_task, args, sizes, "parallel.components",
                n_tasks=len(starts), workers=workers,
            )
            parts = [
                arena.block(int(offsets[i]), int(sizes[i]))
                for i in range(len(starts))
            ]
    except (BrokenProcessPool, OSError, RuntimeError):
        _discard_pool(workers)
        return in_process("pool-error")
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("parallel.tasks").add(len(starts))
    return parts


# ----------------------------------------------------------------------
# chunked multi-matrix throughput
# ----------------------------------------------------------------------
def map_matrices(
    mats: Sequence[CSRMatrix],
    *,
    method: str = "vectorized",
    start="min-valence",
    symmetrize: bool = False,
    config: Optional[ParallelConfig] = None,
) -> list:
    """Reorder many matrices through worker processes, chunked.

    The batch throughput path (CLI benches and the service's batched
    admission): each chunk of matrices runs the full
    :func:`repro.core.api._reorder_rcm` pipeline in one worker, so per-task
    IPC overhead is amortized over ``chunk_size`` matrices.  Returns one
    :class:`~repro.core.api.ReorderResult` per input matrix, in order.

    The whole batch is packed into one shared segment, workers attach
    zero-copy and write permutations into a shared arena; results come
    home perm-stripped and are rehydrated from the arena.
    """
    from repro.core.api import _reorder_rcm

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)
    kwargs = dict(method=method, start=start, symmetrize=symmetrize)

    def in_process(reason: str) -> list:
        record_fallback(reason)
        return [_reorder_rcm(m, **kwargs) for m in mats]

    if not mats:
        return []
    sizes = [m.n for m in mats]
    # effective parallelism is capped by physical cores: a 4-worker pool on
    # a 1-core host only adds dispatch overhead to CPU-bound batch work
    effective = min(workers, os.cpu_count() or workers)
    reason = _in_process_reason(len(mats), effective, sum(sizes), cfg)
    if reason is not None:
        return in_process(reason)

    chunk = cfg.chunk_size or max(1, -(-len(mats) // (workers * 4)))
    bounds = range(0, len(mats), chunk)
    # arena offset of each block, plus the total size at the end
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    try:
        pool = _get_pool(workers)
        with shm.ShmBatch() as batch:
            items = [
                (h, int(offsets[i]))
                for i, h in enumerate(batch.publish_many(mats))
            ]
            arena = batch.result_arena(int(offsets[-1]))
            per_chunk = _dispatch(
                pool, _chunk_task,
                [(items[i:i + chunk], arena.handle, kwargs) for i in bounds],
                [sum(sizes[i:i + chunk]) for i in bounds], "parallel.map",
                n_matrices=len(mats), n_chunks=len(bounds), workers=workers,
            )
            results = [res for part in per_chunk for res in part]
            # rehydrate: swap each arena block in for the stripped sentinel
            for i, res in enumerate(results):
                res.permutation = arena.block(int(offsets[i]), sizes[i])
    except (BrokenProcessPool, OSError, RuntimeError):
        _discard_pool(workers)
        return in_process("pool-error")
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("parallel.matrices").add(len(mats))
        tel.counter("parallel.chunks").add(len(bounds))
    return results
