"""Service-layer throughput: cold compute, warm cache serving, batching.

Writes the canonical ``BENCH_service_throughput.json`` artifact (consumed
by ``check_regressions.py``'s ratio invariants) with:

* the cold computation time, the per-request warm cache-hit time and
  their ratio — serving a warm hit must be at least **10x** faster than
  the cold compute (content-hash caching's acceptance bar);
* the batched-admission rate vs the per-request dispatch rate over the
  same concurrent workload of distinct patterns — batching must win
  (``batch_speedup``), because grouped dispatch amortizes the validate
  phase across the whole batch and collapses N pool hops into one;
* the wall time of one shared-memory ``map_matrices`` dispatch
  (``shm_dispatch_ms``, ``None`` where shm is unavailable);
* the warm-path cost of the continuous sampling profiler at its default
  rate (``profiler_overhead_pct``: best-of-reps per-request time with the
  profiler on vs off — budget ≤3%, enforced by check_regressions.py).

The test is intentionally *not* named ``test_service_throughput``: the
autouse ``bench_record`` fixture derives its own ``BENCH_<name>.json``
from the test name, and must not overwrite the canonical artifact written
here.
"""

from __future__ import annotations

import json
import time

from repro.matrices import get_matrix
from repro.matrices.generators import delaunay_mesh
from repro.service import ReorderService, ServiceConfig
from repro.telemetry import profiler
from repro.telemetry.events import SCHEMA, host_info

MATRIX = "bcspwr10"
WARM_ROUNDS = 30
MIN_HIT_SPEEDUP = 10.0
#: best-of reps for the profiler on/off warm comparison — both sides take
#: their floor, so an unlucky sample tick in one rep cannot fail the gate
PROFILER_REPS = 7
#: acceptance budget mirrored by check_regressions.py
MAX_PROFILER_OVERHEAD_PCT = 3.0

#: batched-admission workload: distinct small patterns (no cache hits, no
#: coalescing — every request really computes)
BATCH_N = 96
BATCH_WINDOW_MS = 10.0
BATCH_ROUNDS = 3
#: bench-level sanity floor; check_regressions.py enforces its own
MIN_BATCH_SPEEDUP = 1.2


def _batch_workload():
    return [delaunay_mesh(20, seed=i) for i in range(BATCH_N)]


def _concurrent_requests_per_s(mats, window_ms, max_batch):
    """Best-of-rounds rate for the same concurrent submit-all workload,
    per-request dispatch (``window_ms=0``) or batched admission."""
    best = 0.0
    for _ in range(BATCH_ROUNDS):
        cfg = ServiceConfig(
            n_workers=2, max_pending=2 * len(mats),
            batch_window_ms=window_ms, max_batch=max_batch,
        )
        with ReorderService(cfg) as svc:
            t0 = time.perf_counter()
            futs = [svc.submit(m) for m in mats]
            for f in futs:
                f.result(timeout=60)
            best = max(best, len(mats) / (time.perf_counter() - t0))
    return best


def _shm_dispatch_ms(mats):
    """Wall ms of one forced-pool ``map_matrices`` dispatch over the
    shared-memory transport (``None`` when shm/fork is unavailable)."""
    from repro.parallel import ParallelConfig, map_matrices
    from repro.parallel import shm
    from repro.parallel.executor import fork_available

    if not (shm.shm_available() and fork_available()):
        return None
    cfg = ParallelConfig(n_workers=2, force_processes=True)
    map_matrices(mats, method="serial", config=cfg)  # fork + warm once
    t0 = time.perf_counter()
    out = map_matrices(mats, method="serial", config=cfg)
    ms = (time.perf_counter() - t0) * 1e3
    assert len(out) == len(mats)
    return ms


def test_service_cache_serving(benchmark, results_dir):
    mat = get_matrix(MATRIX)
    with ReorderService(ServiceConfig(n_workers=2)) as svc:
        t0 = time.perf_counter_ns()
        cold = svc.reorder(mat)
        cold_ms = (time.perf_counter_ns() - t0) / 1e6

        # manual warm timing for the artifact (pedantic reports separately);
        # best-of-reps shields the floor check from scheduler noise
        warm_ms = float("inf")
        for _ in range(PROFILER_REPS):
            t0 = time.perf_counter_ns()
            for _ in range(WARM_ROUNDS):
                warm = svc.reorder(mat)
            warm_ms = min(
                warm_ms, (time.perf_counter_ns() - t0) / 1e6 / WARM_ROUNDS
            )

        # the same warm loop with the sampling profiler running at its
        # default rate; best-of-reps on both sides makes the comparison a
        # floor-vs-floor one, which is what the <=3% overhead budget gates
        prof = profiler.start_profiler()
        try:
            warm_prof_ms = float("inf")
            for _ in range(PROFILER_REPS):
                t0 = time.perf_counter_ns()
                for _ in range(WARM_ROUNDS):
                    svc.reorder(mat)
                warm_prof_ms = min(
                    warm_prof_ms,
                    (time.perf_counter_ns() - t0) / 1e6 / WARM_ROUNDS,
                )
        finally:
            prof = profiler.stop_profiler()
        profiler_overhead_pct = (
            max(0.0, (warm_prof_ms - warm_ms) / warm_ms * 100.0)
            if warm_ms > 0 else 0.0
        )

        benchmark.pedantic(svc.reorder, args=(mat,), rounds=5, iterations=3)
        stats = svc.stats()

    assert warm.permutation.tobytes() == cold.permutation.tobytes()
    hit_speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")

    # batched admission vs per-request dispatch, same concurrent workload
    batch_mats = _batch_workload()
    single_rps = _concurrent_requests_per_s(batch_mats, 0.0, 16)
    batched_rps = _concurrent_requests_per_s(
        batch_mats, BATCH_WINDOW_MS, BATCH_N
    )
    batch_speedup = batched_rps / single_rps if single_rps > 0 else None
    shm_ms = _shm_dispatch_ms(batch_mats)

    payload = {
        "schema": SCHEMA,
        "bench": "service_throughput",
        "matrix": MATRIX,
        "method": None,
        "n": mat.n,
        "nnz": mat.nnz,
        "wall_ms": cold_ms,
        "cold_ms": cold_ms,
        "warm_ms_per_request": warm_ms,
        "hit_speedup": hit_speedup,
        "warm_requests_per_s": 1000.0 / warm_ms if warm_ms > 0 else None,
        "warm_ms_per_request_profiled": warm_prof_ms,
        "profiler_overhead_pct": profiler_overhead_pct,
        "profiler_hz": prof.hz if prof is not None else None,
        "profiler_samples": prof.sample_count if prof is not None else 0,
        "single_requests_per_s": single_rps,
        "batched_requests_per_s": batched_rps,
        "batch_speedup": batch_speedup,
        "batch_size": BATCH_N,
        "batch_window_ms": BATCH_WINDOW_MS,
        "shm_dispatch_ms": shm_ms,
        "service_stats": stats,
        "host": host_info(),
        "unix_time": time.time(),
    }
    out = results_dir / "BENCH_service_throughput.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # acceptance invariants, also enforced by check_regressions.py
    assert hit_speedup >= MIN_HIT_SPEEDUP, (
        f"warm cache hit only {hit_speedup:.1f}x faster than cold compute "
        f"(cold {cold_ms:.2f}ms, warm {warm_ms:.4f}ms)"
    )
    assert batch_speedup is not None and batch_speedup >= MIN_BATCH_SPEEDUP, (
        f"batched admission only {batch_speedup:.2f}x the per-request "
        f"dispatch rate (batched {batched_rps:.0f}/s, single "
        f"{single_rps:.0f}/s over {BATCH_N} distinct patterns)"
    )
    assert profiler_overhead_pct <= MAX_PROFILER_OVERHEAD_PCT, (
        f"sampling profiler degrades the warm path by "
        f"{profiler_overhead_pct:.2f}% "
        f"(profiler-on {warm_prof_ms:.4f}ms vs off {warm_ms:.4f}ms per "
        f"request; budget {MAX_PROFILER_OVERHEAD_PCT}%)"
    )


def test_service_coalesced_fanout(benchmark):
    """Concurrent duplicate fan-out: N submissions, one computation."""
    mat = get_matrix(MATRIX)

    def fanout():
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            futs = [svc.submit(mat) for _ in range(8)]
            for f in futs:
                f.result(timeout=60)
            return svc
    svc = benchmark.pedantic(fanout, rounds=3, iterations=1)
    assert svc.counters["computed"] == 1
    assert svc.counters["coalesced"] == 7
