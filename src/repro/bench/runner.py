"""Shared plumbing: run every approach on one test-set matrix.

``bench_matrix`` reproduces one Table I row: per-matrix statistics plus the
best core-RCM timing (over a thread-count sweep) of each approach.  All
parallel timings come from the simulated machine; all approaches are
verified to return the serial ground-truth permutation as they run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import components_by_min_node, front_statistics, FrontStats
from repro.sparse.bandwidth import bandwidth, bandwidth_after
from repro.matrices.suite import TESTSET, SuiteEntry, get_matrix
from repro.core.serial import cuthill_mckee, serial_cycles
from repro.core.leveled import rcm_leveled, leveled_cycles
from repro.core.batch import run_batch_rcm
from repro.core.batch_gpu import run_batch_rcm_gpu
from repro.core.batches import BatchConfig
from repro.machine.costmodel import CPUCostModel, GPUCostModel, SERIAL_CPU
from repro.machine.stats import RunStats
from repro.baselines.hsl import hsl_cycles
from repro.baselines.reorderlib import reorderlib_result, reorderlib_cycles

__all__ = [
    "APPROACHES",
    "THREAD_COUNTS",
    "ApproachTiming",
    "MatrixBench",
    "bench_matrix",
    "clear_cache",
]

#: Table I's approach columns, in the paper's order
APPROACHES = (
    "HSL",
    "Reorderlib",
    "CPU-RCM",
    "CPU-BATCH-BASIC",
    "CPU-BATCH",
    "GPU-RCM",
    "GPU-BATCH",
)

#: default sweep (the paper sweeps 1-24; this subset brackets every optimum)
THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 24)

CPU_MODEL = CPUCostModel()
GPU_MODEL = GPUCostModel()


@dataclass
class ApproachTiming:
    name: str
    milliseconds: float
    threads: int = 1
    stats: Optional[RunStats] = None


@dataclass
class MatrixBench:
    """One Table I row, measured."""

    entry: SuiteEntry
    n: int
    nnz: int
    max_valence: int
    front: FrontStats
    start: int
    init_bw: int
    reord_bw: int
    timings: Dict[str, ApproachTiming] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.entry.name

    def ms(self, approach: str) -> float:
        """Best simulated milliseconds of one approach on this matrix."""
        return self.timings[approach].milliseconds

    def speedup_vs(self, approach: str, reference: str = "HSL") -> float:
        """Speed-up factor of ``approach`` relative to ``reference``."""
        return self.ms(reference) / self.ms(approach)


def pick_start(mat: CSRMatrix) -> Tuple[int, int]:
    """Benchmark start node: minimum-valence node of the largest component.

    Returns ``(start, component_size)``.  Table I times the *core* RCM only,
    so the start node is fixed deterministically per matrix.
    """
    valence = np.diff(mat.indptr)
    # the first largest component: ties go to the smallest member
    best = max(components_by_min_node(mat), key=len)
    return int(best[np.argmin(valence[best])]), int(best.size)


_CACHE: Dict[Tuple[str, Tuple[int, ...]], MatrixBench] = {}


def clear_cache() -> None:
    """Drop memoized bench results (tests / recalibration)."""
    _CACHE.clear()


def bench_matrix(
    name: str,
    *,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    approaches: Sequence[str] = APPROACHES,
    verify: bool = True,
) -> MatrixBench:
    """Measure one test-set matrix across approaches (memoized)."""
    key = (name, tuple(thread_counts))
    if key in _CACHE and set(approaches) <= set(_CACHE[key].timings):
        return _CACHE[key]

    entry = next(e for e in TESTSET if e.name == name)
    mat = get_matrix(name)
    start, total = pick_start(mat)
    cm = cuthill_mckee(mat, start)
    rcm = cm[::-1]
    # bandwidth over the full matrix; other components keep identity order
    full_perm = np.concatenate(
        [rcm, np.setdiff1d(np.arange(mat.n, dtype=np.int64), rcm, assume_unique=False)]
    )
    bench = MatrixBench(
        entry=entry,
        n=mat.n,
        nnz=mat.nnz,
        max_valence=int(np.diff(mat.indptr).max()) if mat.n else 0,
        front=front_statistics(mat, start),
        start=start,
        init_bw=bandwidth(mat),
        reord_bw=bandwidth_after(mat, full_perm),
    )

    def check(perm: np.ndarray, label: str) -> None:
        if verify and not np.array_equal(perm, rcm):
            raise AssertionError(f"{label} diverged from serial RCM on {name}")

    for approach in approaches:
        if approach in bench.timings:
            continue
        if approach == "CPU-RCM":
            cyc = serial_cycles(mat, cm)
            bench.timings[approach] = ApproachTiming(
                approach, cyc / (SERIAL_CPU.clock_ghz * 1e6), 1
            )
        elif approach == "HSL":
            cyc = hsl_cycles(mat, cm)
            bench.timings[approach] = ApproachTiming(
                approach, cyc / (SERIAL_CPU.clock_ghz * 1e6), 1
            )
        elif approach == "Reorderlib":
            res = reorderlib_result(mat, start)
            check(res.permutation, approach)
            best = min(
                (
                    (reorderlib_cycles(res, tc) / (CPU_MODEL.clock_ghz * 1e6), tc)
                    for tc in thread_counts
                ),
            )
            bench.timings[approach] = ApproachTiming(approach, best[0], best[1])
        elif approach in ("CPU-BATCH", "CPU-BATCH-BASIC"):
            basic = approach == "CPU-BATCH-BASIC"
            cfg = (
                BatchConfig(early_signaling=False, overhang=False, multibatch=1)
                if basic
                else BatchConfig()
            )
            best_ms, best_tc, best_stats = np.inf, 1, None
            for tc in thread_counts:
                res = run_batch_rcm(
                    mat, start, model=CPU_MODEL, n_workers=tc, config=cfg, total=total
                )
                check(res.permutation, approach)
                if res.milliseconds < best_ms:
                    best_ms, best_tc, best_stats = res.milliseconds, tc, res.stats
            bench.timings[approach] = ApproachTiming(
                approach, best_ms, best_tc, best_stats
            )
        elif approach == "GPU-RCM":
            res = rcm_leveled(mat, start)
            check(res.permutation, approach)
            cyc = leveled_cycles(res, GPU_MODEL, GPU_MODEL.max_workers)
            bench.timings[approach] = ApproachTiming(
                approach, cyc / (GPU_MODEL.clock_ghz * 1e6), GPU_MODEL.max_workers
            )
        elif approach == "GPU-BATCH":
            res = run_batch_rcm_gpu(mat, start, total=total)
            check(res.permutation, approach)
            bench.timings[approach] = ApproachTiming(
                approach, res.milliseconds, res.n_workers, res.stats
            )
        else:
            raise ValueError(f"unknown approach {approach!r}")

    _CACHE[key] = bench
    return bench
