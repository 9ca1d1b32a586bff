"""Process-pool executor with shared-memory transport, pool reuse and
graceful fallback.

The pool is built on ``fork`` and is **persistent**: the first dispatch
creates and warms it, every later dispatch reuses it (counter
``parallel.pool.reused``), so process startup and warm-up are paid once
per executor lifetime instead of once per call.  Matrix payloads travel
through the zero-copy shared-memory transport (:mod:`repro.parallel.shm`):
the parent publishes ``indptr``/``indices`` into shared segments, workers
attach read-only views, and permutations come back through a shared result
arena — no CSR bytes ever cross the pipe on this path.

When ``fork`` is not available (e.g. Windows / some macOS configurations),
when shared memory is unusable or opted out (``REPRO_NO_SHM``), when the
pool fails to start, or when the input is too small to pay for dispatch,
every entry point silently executes the same code path in-process (or over
the legacy pickle transport) — the caller always gets the identical
result.  The in-process target comes from the backend registry's
degradation chain (:func:`repro.backends.in_process_fallback`), the same
declaration the service layer's fallback chain derives from.

Telemetry: spans ``parallel.components`` / ``parallel.map`` wrap the
dispatch (attribute ``transport`` says which path ran), and counters
``parallel.tasks``, ``parallel.chunks``, ``parallel.pool.reused`` and
``parallel.fallbacks`` record what actually ran where.  When telemetry is
enabled the pool switches to *traced* task functions: each worker resets
its forked-in telemetry, records spans/counters locally under the
request's :class:`~repro.telemetry.context.TraceContext`, and ships a
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro import telemetry
from repro.parallel import shm
from repro.telemetry import profiler as _profiler
from repro.telemetry.spans import current_trace

__all__ = [
    "ParallelConfig",
    "fork_available",
    "rcm_components",
    "record_fallback",
    "map_matrices",
    "reset_pools",
    "resolve_workers",
]


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the process-parallel execution layer.

    ``n_workers=None`` sizes the pool to ``os.cpu_count()``.  Inputs with
    fewer than ``min_parallel_nodes`` total nodes (or a single task) run
    in-process: process startup costs milliseconds, which a small matrix
    never wins back.  ``force_processes`` overrides that heuristic (tests,
    benchmarks).
    """

    n_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    warmup: bool = True
    min_parallel_nodes: int = 2048
    force_processes: bool = False


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


def _warm_pool(pool: ProcessPoolExecutor, workers: int) -> None:
    """Spin up every worker process before real work is timed.

    Runs once per pool *lifetime* — :func:`_get_pool` warms a pool when it
    creates it and never again; reusing callers skip straight to submit.
    """
    for fut in [pool.submit(_warmup_task, i) for i in range(workers)]:
        fut.result()


def _get_pool(workers: int, *, warmup: bool = True) -> ProcessPoolExecutor:
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
        if warmup:
            _warm_pool(pool, workers)
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
# worker-side task functions — shared-memory transport
# ----------------------------------------------------------------------

#: sentinel standing in for a permutation that lives in the result arena;
#: the parent swaps the real block back in before anyone sees the result
_SHM_RESIDENT = np.zeros(0, dtype=np.int64)


def _component_task_shm(
    csr: shm.CSRHandle, arena: shm.ArenaHandle, start: int,
    offset: int, length: int,
) -> None:
    from repro.core.vectorized import rcm_vectorized

    mat = shm.attach_csr(csr)
    out = shm.attach_arena(arena)
    out[offset:offset + length] = rcm_vectorized(mat, int(start))
    return None


def _component_task_shm_traced(
    csr: shm.CSRHandle, arena: shm.ArenaHandle, start: int,
    offset: int, length: int, ctx, epoch_ns: int,
    prof_hz: Optional[float] = None,
):
    """Traced variant: returns the :class:`WorkerReport` only — the
    permutation already sits in the arena.

    The worker re-bases its (forked) telemetry on the parent's epoch,
    activates the request's trace context and wraps the kernel in a
    ``parallel.worker`` span, so the parent can merge a self-consistent
    sub-trace (see :mod:`repro.telemetry.context`).  ``prof_hz`` is the
    parent sampling profiler's rate (None = off): the worker runs its
    own sampler and takes one synchronous sample inside the span, so
    every task lands at least one attributed stack in the merged
    flamegraph no matter how short it ran.
    """
    from repro.core.vectorized import rcm_vectorized
    from repro.telemetry import context as tctx
    from repro.telemetry import profiler as _profiler

    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    tel = telemetry.get()
    mat = shm.attach_csr(csr)
    out = shm.attach_arena(arena)
    with tctx.activate(ctx):
        with tel.span("parallel.worker", category="parallel",
                      start_node=int(start)):
            out[offset:offset + length] = rcm_vectorized(mat, int(start))
            _profiler.sample_now()
    return tctx.collect_worker_report()


def _map_chunk_shm(
    items: Sequence[Tuple[shm.CSRHandle, int]],
    arena: shm.ArenaHandle, kwargs: dict,
) -> list:
    """Run the full pipeline per matrix; permutations go home via the
    arena, everything else (bandwidths, phases, stats) via the light
    perm-stripped result."""
    from repro.core.api import _reorder_rcm

    out = shm.attach_arena(arena)
    results = []
    for handle, offset in items:
        mat = shm.attach_csr(handle)
        res = _reorder_rcm(mat, **kwargs)
        out[offset:offset + handle.n] = res.permutation
        res.permutation = _SHM_RESIDENT
        results.append(res)
    return results


def _map_chunk_shm_traced(
    items: Sequence[Tuple[shm.CSRHandle, int]],
    arena: shm.ArenaHandle, kwargs: dict, ctx, epoch_ns: int,
    prof_hz: Optional[float] = None,
):
    """Traced variant of :func:`_map_chunk_shm`: ``(results, WorkerReport)``."""
    from repro.core.api import _reorder_rcm
    from repro.telemetry import context as tctx
    from repro.telemetry import profiler as _profiler

    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    tel = telemetry.get()
    out = shm.attach_arena(arena)
    results = []
    with tctx.activate(ctx):
        with tel.span("parallel.worker", category="parallel",
                      n_matrices=len(items)):
            for handle, offset in items:
                mat = shm.attach_csr(handle)
                res = _reorder_rcm(mat, **kwargs)
                out[offset:offset + handle.n] = res.permutation
                res.permutation = _SHM_RESIDENT
                results.append(res)
            _profiler.sample_now()
    return results, tctx.collect_worker_report()


# ----------------------------------------------------------------------
# worker-side task functions — legacy pickle transport (fallback path)
# ----------------------------------------------------------------------
_WORKER_MAT: Optional[CSRMatrix] = None


def _init_matrix_worker(indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
    global _WORKER_MAT
    _WORKER_MAT = CSRMatrix(indptr=indptr, indices=indices, data=None, n=n)


def _component_task(start: int) -> np.ndarray:
    from repro.core.vectorized import rcm_vectorized

    assert _WORKER_MAT is not None, "pool initializer did not run"
    return rcm_vectorized(_WORKER_MAT, start)


def _component_task_traced(
    start: int, ctx, epoch_ns: int, prof_hz: Optional[float] = None
):
    """Traced pickle-path variant: returns ``(permutation, WorkerReport)``."""
    from repro.core.vectorized import rcm_vectorized
    from repro.telemetry import context as tctx
    from repro.telemetry import profiler as _profiler

    assert _WORKER_MAT is not None, "pool initializer did not run"
    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    tel = telemetry.get()
    with tctx.activate(ctx):
        with tel.span("parallel.worker", category="parallel",
                      start_node=int(start)):
            perm = rcm_vectorized(_WORKER_MAT, start)
            _profiler.sample_now()
    return perm, tctx.collect_worker_report()


def _chunk_task(
    payload: Sequence[Tuple[np.ndarray, np.ndarray, int]], kwargs: dict
) -> list:
    from repro.core.api import _reorder_rcm

    out = []
    for indptr, indices, n in payload:
        mat = CSRMatrix(indptr=indptr, indices=indices, data=None, n=n)
        out.append(_reorder_rcm(mat, **kwargs))
    return out


def _chunk_task_traced(
    payload: Sequence[Tuple[np.ndarray, np.ndarray, int]], kwargs: dict,
    ctx, epoch_ns: int, prof_hz: Optional[float] = None,
):
    """Traced variant of :func:`_chunk_task`: ``(results, WorkerReport)``."""
    from repro.core.api import _reorder_rcm
    from repro.telemetry import context as tctx
    from repro.telemetry import profiler as _profiler

    tctx.begin_worker_capture(epoch_ns, profile_hz=prof_hz)
    tel = telemetry.get()
    out = []
    with tctx.activate(ctx):
        with tel.span("parallel.worker", category="parallel",
                      n_matrices=len(payload)):
            for indptr, indices, n in payload:
                mat = CSRMatrix(indptr=indptr, indices=indices, data=None, n=n)
                out.append(_reorder_rcm(mat, **kwargs))
            _profiler.sample_now()
    return out, tctx.collect_worker_report()


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
    sizes: Optional[Sequence[int]] = None,
    config: Optional[ParallelConfig] = None,
) -> List[np.ndarray]:
    """RCM permutation block of each component, computed concurrently.

    ``starts[i]`` is the start node of component ``i``; ``sizes`` (when
    known) drives largest-first scheduling so the pool drains evenly.
    Blocks come back in input order and are bit-identical to running
    :func:`repro.core.vectorized.rcm_vectorized` per start in sequence.

    Transport: the shared-memory path (matrix published once, blocks
    written into a shared arena at offsets derived from ``sizes``) when
    :func:`repro.parallel.shm.shm_available` and ``sizes`` is given;
    otherwise the legacy pickle path (matrix shipped by the pool
    initializer, blocks pickled back).
    """
    from repro import backends

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)
    tel = telemetry.get()

    def in_process(reason: str) -> List[np.ndarray]:
        record_fallback(reason)
        target = backends.get(backends.in_process_fallback("parallel"))
        return [
            target.run_component(
                mat, int(s), total=total, n_workers=1, config=None, seed=0,
            )[0]
            for s, total in zip(
                starts, sizes if sizes is not None else [None] * len(starts)
            )
        ]

    if not starts:
        return []
    # an explicit method="parallel" request is honored even on few-core
    # hosts (cross-process traces depend on it); the auto cost model is
    # what steers commodity requests away from the pool
    if not cfg.force_processes and (
        len(starts) == 1 or workers == 1 or mat.n < cfg.min_parallel_nodes
    ):
        return in_process("small-input")
    if not fork_available():
        return in_process("no-fork")

    # largest component first (LPT scheduling) so stragglers don't tail
    order = np.arange(len(starts))
    if sizes is not None:
        order = order[np.argsort(np.asarray(sizes))[::-1]]

    if shm.shm_available() and sizes is not None:
        try:
            return _components_shm(
                mat, starts, sizes, order, cfg, workers, tel
            )
        except (BrokenProcessPool, OSError, RuntimeError):
            _discard_pool(workers)
            return in_process("pool-error")
    return _components_pickle(mat, starts, order, cfg, workers, tel, in_process)


def _components_shm(mat, starts, sizes, order, cfg, workers, tel):
    # pool first, segments second: freshly forked workers then never
    # inherit this dispatch's entries in the shm registry
    pool = _get_pool(workers, warmup=cfg.warmup)
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    with shm.ShmBatch() as batch:
        csr = batch.publish_csr(mat)
        arena = batch.result_arena(int(offsets[-1]))
        ah = arena.handle
        traced = tel.enabled
        req_ctx = current_trace() if traced else None
        with tel.span(
            "parallel.components", category="parallel",
            n_tasks=len(starts), workers=workers, transport="shm",
        ) as sp:
            if traced:
                futures = {
                    int(i): pool.submit(
                        _component_task_shm_traced, csr, ah,
                        int(starts[i]), int(offsets[i]), int(sizes[i]),
                        req_ctx, tel.tracer.epoch_ns, _profiler.active_hz(),
                    )
                    for i in order
                }
                reports = [futures[i].result() for i in range(len(starts))]
                _merge_reports(
                    tel, reports, parent_span_id=sp.span_id,
                    trace_id=req_ctx.trace_id if req_ctx else None,
                )
            else:
                futures = {
                    int(i): pool.submit(
                        _component_task_shm, csr, ah,
                        int(starts[i]), int(offsets[i]), int(sizes[i]),
                    )
                    for i in order
                }
                for i in range(len(starts)):
                    futures[i].result()
        parts = [
            arena.block(int(offsets[i]), int(sizes[i]))
            for i in range(len(starts))
        ]
    if tel.enabled:
        tel.counter("parallel.tasks").add(len(starts))
    return parts


def _components_pickle(mat, starts, order, cfg, workers, tel, in_process):
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(workers, len(starts)),
            mp_context=ctx,
            initializer=_init_matrix_worker,
            initargs=(mat.indptr, mat.indices, mat.n),
        ) as pool:
            if cfg.warmup:
                _warm_pool(pool, min(workers, len(starts)))
            traced = tel.enabled
            req_ctx = current_trace() if traced else None
            with tel.span(
                "parallel.components", category="parallel",
                n_tasks=len(starts), workers=workers, transport="pickle",
            ) as sp:
                if traced:
                    futures = {
                        int(i): pool.submit(
                            _component_task_traced, int(starts[i]),
                            req_ctx, tel.tracer.epoch_ns,
                            _profiler.active_hz(),
                        )
                        for i in order
                    }
                    pairs = [futures[i].result() for i in range(len(starts))]
                    parts = [perm for perm, _ in pairs]
                    _merge_reports(
                        tel, [rep for _, rep in pairs],
                        parent_span_id=sp.span_id,
                        trace_id=req_ctx.trace_id if req_ctx else None,
                    )
                else:
                    futures = {
                        int(i): pool.submit(_component_task, int(starts[i]))
                        for i in order
                    }
                    parts = [futures[i].result() for i in range(len(starts))]
        if tel.enabled:
            tel.counter("parallel.tasks").add(len(starts))
        return parts
    except (BrokenProcessPool, OSError, RuntimeError):
        return in_process("pool-error")


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

    Transport: with shared memory available the whole batch is packed into
    one segment, workers attach zero-copy and write permutations into a
    shared arena; results come home perm-stripped and are rehydrated from
    the arena.  Otherwise each chunk's CSR triples are pickled (legacy
    path).  Both paths run on the persistent warmed pool.
    """
    from repro.core.api import _reorder_rcm

    cfg = config or ParallelConfig()
    workers = resolve_workers(cfg.n_workers)
    tel = telemetry.get()
    kwargs = dict(method=method, start=start, symmetrize=symmetrize)

    def in_process(reason: str) -> list:
        record_fallback(reason)
        return [_reorder_rcm(m, **kwargs) for m in mats]

    if not mats:
        return []
    total_nodes = sum(m.n for m in mats)
    # effective parallelism is capped by physical cores: a 4-worker pool on
    # a 1-core host only adds dispatch overhead to CPU-bound batch work
    effective = min(workers, os.cpu_count() or workers)
    if not cfg.force_processes and (
        len(mats) == 1 or effective == 1
        or total_nodes < cfg.min_parallel_nodes
    ):
        return in_process("small-input")
    if not fork_available():
        return in_process("no-fork")

    chunk = cfg.chunk_size or max(1, -(-len(mats) // (workers * 4)))
    try:
        if shm.shm_available():
            return _map_shm(mats, kwargs, chunk, cfg, workers, tel)
        return _map_pickle(mats, kwargs, chunk, cfg, workers, tel)
    except (BrokenProcessPool, OSError, RuntimeError):
        _discard_pool(workers)
        return in_process("pool-error")


def _map_shm(mats, kwargs, chunk, cfg, workers, tel):
    pool = _get_pool(workers, warmup=cfg.warmup)
    offsets = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum(np.asarray([m.n for m in mats], dtype=np.int64), out=offsets[1:])
    with shm.ShmBatch() as batch:
        handles = batch.publish_many(mats)
        arena = batch.result_arena(int(offsets[-1]))
        ah = arena.handle
        items = [(h, int(offsets[i])) for i, h in enumerate(handles)]
        chunks = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        traced = tel.enabled
        req_ctx = current_trace() if traced else None
        with tel.span(
            "parallel.map", category="parallel",
            n_matrices=len(mats), n_chunks=len(chunks), workers=workers,
            transport="shm",
        ) as sp:
            results: list = []
            if traced:
                futures = [
                    pool.submit(_map_chunk_shm_traced, c, ah, kwargs,
                                req_ctx, tel.tracer.epoch_ns,
                                _profiler.active_hz())
                    for c in chunks
                ]
                reports = []
                for fut in futures:
                    chunk_results, report = fut.result()
                    results.extend(chunk_results)
                    reports.append(report)
                _merge_reports(
                    tel, reports, parent_span_id=sp.span_id,
                    trace_id=req_ctx.trace_id if req_ctx else None,
                )
            else:
                futures = [
                    pool.submit(_map_chunk_shm, c, ah, kwargs)
                    for c in chunks
                ]
                for fut in futures:
                    results.extend(fut.result())
        # rehydrate: swap each arena block in for the stripped sentinel
        for i, res in enumerate(results):
            res.permutation = arena.block(
                int(offsets[i]), int(offsets[i + 1] - offsets[i])
            )
    if tel.enabled:
        tel.counter("parallel.matrices").add(len(mats))
        tel.counter("parallel.chunks").add(len(chunks))
    return results


def _map_pickle(mats, kwargs, chunk, cfg, workers, tel):
    payloads = [
        [(m.indptr, m.indices, m.n) for m in mats[i : i + chunk]]
        for i in range(0, len(mats), chunk)
    ]
    pool = _get_pool(workers, warmup=cfg.warmup)
    traced = tel.enabled
    req_ctx = current_trace() if traced else None
    with tel.span(
        "parallel.map", category="parallel",
        n_matrices=len(mats), n_chunks=len(payloads), workers=workers,
        transport="pickle",
    ) as sp:
        results: list = []
        if traced:
            futures = [
                pool.submit(_chunk_task_traced, p, kwargs,
                            req_ctx, tel.tracer.epoch_ns,
                            _profiler.active_hz())
                for p in payloads
            ]
            reports = []
            for fut in futures:
                chunk_results, report = fut.result()
                results.extend(chunk_results)
                reports.append(report)
            _merge_reports(
                tel, reports, parent_span_id=sp.span_id,
                trace_id=req_ctx.trace_id if req_ctx else None,
            )
        else:
            futures = [pool.submit(_chunk_task, p, kwargs) for p in payloads]
            for fut in futures:
                results.extend(fut.result())
    if tel.enabled:
        tel.counter("parallel.matrices").add(len(mats))
        tel.counter("parallel.chunks").add(len(payloads))
    return results
