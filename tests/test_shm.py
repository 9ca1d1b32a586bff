"""Shared-memory transport lifecycle: publish/attach round trips,
guaranteed unlink on every exit path, the no-pickle guarantee, pool reuse
and the in-process fallback when shared memory is unavailable.

These tests force the process-pool path (``force_processes=True``) so they
exercise the real transport even on single-core CI hosts.  Tests that
re-register pickle reducers or break the pool call ``reset_pools()`` on
both sides so no other test inherits a poisoned pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import telemetry
from repro.matrices import generators as g
from repro.parallel import (
    ParallelConfig,
    fork_available,
    map_matrices,
    rcm_components,
    reset_pools,
    shm,
)
from repro.core.api import _components_by_min_node, _reorder_rcm
from repro.core.vectorized import rcm_vectorized
from repro.sparse.csr import CSRMatrix

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on platform"
)
needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    telemetry.disable()
    yield
    telemetry.reset()
    telemetry.disable()


def _workload(count: int = 6, size: int = 14) -> list:
    return [g.grid2d(size + i, size) for i in range(count)]


def _two_components() -> CSRMatrix:
    """A 1380-node pattern with two components of different sizes."""
    import scipy.sparse as sp

    blocks = [g.grid2d(30, 30).to_scipy(), g.grid2d(24, 20).to_scipy()]
    return CSRMatrix.from_scipy(sp.block_diag(blocks, format="csr"))


# ----------------------------------------------------------------------
# publish / attach round trips
# ----------------------------------------------------------------------
@needs_shm
class TestPublishAttach:
    def test_publish_one_round_trip(self, medium_grid):
        with shm.ShmBatch() as batch:
            (handle,) = batch.publish_many([medium_grid])
            assert handle.offset == 0
            view = shm.attach_csr(handle)
            assert view.n == medium_grid.n
            assert np.array_equal(view.indptr, medium_grid.indptr)
            assert np.array_equal(view.indices, medium_grid.indices)

    def test_attached_view_is_read_only(self, medium_grid):
        with shm.ShmBatch() as batch:
            view = shm.attach_csr(batch.publish_many([medium_grid])[0])
            with pytest.raises(ValueError):
                view.indices[0] = 99

    def test_publish_many_packs_one_segment(self):
        mats = _workload(4)
        with shm.ShmBatch() as batch:
            handles = batch.publish_many(mats)
            assert len({h.name for h in handles}) == 1  # one segment
            for mat, handle in zip(mats, handles):
                view = shm.attach_csr(handle)
                assert np.array_equal(view.indptr, mat.indptr)
                assert np.array_equal(view.indices, mat.indices)

    def test_arena_blocks_survive_unlink(self):
        with shm.ShmBatch() as batch:
            arena = batch.result_arena(8)
            worker_view = shm.attach_arena(arena.handle)
            worker_view[:] = np.arange(8)
            block = arena.block(2, 4)
        # the batch is closed and the segment unlinked; the copy lives on
        assert np.array_equal(block, [2, 3, 4, 5])


# ----------------------------------------------------------------------
# guaranteed-unlink lifecycle
# ----------------------------------------------------------------------
@needs_shm
class TestLifecycle:
    def test_unlink_on_success(self, medium_grid):
        with shm.ShmBatch() as batch:
            batch.publish_many([medium_grid])
            batch.result_arena(medium_grid.n)
            assert len(shm.active_segments()) == 2
        assert shm.active_segments() == ()

    def test_unlink_on_error_path(self, medium_grid):
        with pytest.raises(RuntimeError, match="mid-batch"):
            with shm.ShmBatch() as batch:
                batch.publish_many([medium_grid])
                raise RuntimeError("simulated failure mid-batch")
        assert shm.active_segments() == ()

    def test_close_is_idempotent(self, medium_grid):
        batch = shm.ShmBatch()
        batch.publish_many([medium_grid])
        batch.close()
        batch.close()
        assert shm.active_segments() == ()

    def test_sweep_counts_leaks(self, medium_grid):
        telemetry.enable()
        leaked = shm.ShmBatch()
        leaked.publish_many([medium_grid])
        assert len(shm.active_segments()) == 1
        assert shm.sweep_leaked() == 1
        assert shm.active_segments() == ()
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.shm.leaked"] == 1

    def test_publish_counters(self, medium_grid):
        telemetry.enable()
        with shm.ShmBatch() as batch:
            batch.publish_many([medium_grid])
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.shm.published"] == 1
        assert counters["parallel.shm.bytes"] > 0

    @needs_fork
    def test_dispatch_leaves_no_segments(self):
        mats = _workload()
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        map_matrices(mats, method="vectorized", config=cfg)
        assert shm.active_segments() == ()

    @needs_fork
    def test_broken_pool_leaves_no_segments_and_recovers(self):
        """A dispatch that hits a dead pool must unlink its segments,
        fall back in-process and still return correct results."""
        from repro.parallel import executor

        reset_pools()
        pool = executor._get_pool(2)
        fut = pool.submit(os._exit, 13)  # kill a worker mid-task
        with pytest.raises(Exception):
            fut.result(timeout=30)

        mats = _workload()
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        try:
            results = map_matrices(mats, method="vectorized", config=cfg)
        finally:
            reset_pools()
        assert shm.active_segments() == ()
        for mat, res in zip(mats, results):
            ref = _reorder_rcm(mat, method="vectorized")
            assert np.array_equal(res.permutation, ref.permutation)


# ----------------------------------------------------------------------
# the no-pickle guarantee
# ----------------------------------------------------------------------
def _rebuild_empty(dtype_str: str) -> np.ndarray:
    return np.zeros(0, dtype=dtype_str)


def _forbid_ndarray_pickle(arr: np.ndarray):
    if arr.size:
        raise AssertionError(
            f"{arr.size}-element ndarray crossed the process pipe"
        )
    return (_rebuild_empty, (arr.dtype.str,))


@needs_shm
@needs_fork
class TestNoPickle:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_no_matrix_bytes_cross_the_pipe(self, traced):
        """With the reducer below registered in parent and workers, any
        non-empty ndarray going through ForkingPickler raises — proving
        matrices and permutations travel via shared memory only, with or
        without the worker reports telemetry ships home.  (The empty
        perm-stripped sentinel is the single allowed ndarray.)"""
        from multiprocessing.reduction import ForkingPickler

        # set both ways: the autouse fixture resets telemetry but leaves
        # it enabled if an earlier test turned it on
        if traced:
            telemetry.enable()
        else:
            telemetry.disable()
        reset_pools()  # workers must fork *after* the reducer registers
        ForkingPickler.register(np.ndarray, _forbid_ndarray_pickle)
        try:
            mats = _workload()
            cfg = ParallelConfig(n_workers=2, force_processes=True)
            results = map_matrices(mats, method="vectorized", config=cfg)

            mat = _two_components()
            comps = _components_by_min_node(mat)
            starts = [int(c[0]) for c in comps]
            sizes = [int(c.size) for c in comps]
            parts = rcm_components(mat, starts, sizes=sizes, config=cfg)
        finally:
            ForkingPickler._extra_reducers.pop(np.ndarray, None)
            reset_pools()

        for m, res in zip(mats, results):
            ref = _reorder_rcm(m, method="vectorized")
            assert np.array_equal(res.permutation, ref.permutation)
        for start, part in zip(starts, parts):
            assert np.array_equal(part, rcm_vectorized(mat, start))
        workers = [
            r for r in telemetry.get().tracer.records()
            if r.name == "parallel.worker"
        ]
        # traced: one worker span per component and per chunk (six
        # matrices on two workers make one-matrix chunks)
        assert len(workers) == (len(starts) + len(mats) if traced else 0)

    def test_guard_reducer_fires_on_ndarray(self):
        """Sanity check of the guard itself: a non-empty ndarray pushed
        through ForkingPickler must trip the reducer (so the test above
        is actually probing something)."""
        import io

        from multiprocessing.reduction import ForkingPickler

        ForkingPickler.register(np.ndarray, _forbid_ndarray_pickle)
        try:
            with pytest.raises(AssertionError, match="crossed the process"):
                ForkingPickler(io.BytesIO()).dump(np.arange(4))
        finally:
            ForkingPickler._extra_reducers.pop(np.ndarray, None)


# ----------------------------------------------------------------------
# no-shm fallback + pool reuse
# ----------------------------------------------------------------------
class TestOptOutAndPool:
    @needs_fork
    def test_no_shm_runs_in_process(self, monkeypatch):
        """Without usable shared memory both entry points run in-process,
        byte-identical, and say why on ``parallel.fallbacks.no-shm``."""
        from repro.parallel import executor

        def no_pool(workers):
            raise AssertionError("the pool must not be reached")

        monkeypatch.setattr(shm, "shm_available", lambda: False)
        monkeypatch.setattr(executor, "_get_pool", no_pool)
        telemetry.enable()
        mats = _workload()
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        results = map_matrices(mats, method="vectorized", config=cfg)
        mat = _two_components()
        comps = _components_by_min_node(mat)
        starts = [int(c[0]) for c in comps]
        parts = rcm_components(
            mat, starts, sizes=[int(c.size) for c in comps], config=cfg
        )

        assert len(results) == len(mats)
        for m, res in zip(mats, results):
            ref = _reorder_rcm(m, method="vectorized")
            assert res.permutation.tobytes() == ref.permutation.tobytes()
        for start, part in zip(starts, parts):
            assert part.tobytes() == rcm_vectorized(mat, start).tobytes()
        counters = telemetry.get().snapshot()["counters"]
        assert counters["parallel.fallbacks.no-shm"] == 2
        assert "parallel.tasks" not in counters
        assert "parallel.matrices" not in counters

    @needs_shm
    @needs_fork
    def test_pool_reused_across_dispatches(self):
        reset_pools()
        telemetry.enable()
        mats = _workload()
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        map_matrices(mats, method="vectorized", config=cfg)
        map_matrices(mats, method="vectorized", config=cfg)
        counters = telemetry.get().snapshot()["counters"]
        assert counters.get("parallel.pool.reused", 0) >= 1
