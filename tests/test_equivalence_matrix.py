"""Cross-method golden equivalence battery.

The paper's headline invariant — every execution method returns the exact
serial RCM permutation — used to be spot-checked per method in scattered
tests.  This module is the single battery: every matrix in the suite runs
through every execution method (serial, vectorized, parallel, leveled,
unordered, algebraic, the three simulated batch backends, OS threads and
``"auto"``) plus the service layer cold and warm, and each permutation must
be **byte-identical** to the serial golden reference.

When a method diverges here, fix the method — never widen the comparison.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.api import METHODS
from repro.facade import reorder
from repro.matrices import generators as g
from repro.matrices.mycielski import mycielskian
from repro.service import (
    AsyncReorderService,
    PermutationCache,
    ReorderService,
    ServiceConfig,
)
from repro.sparse.csr import CSRMatrix, coo_to_csr


def _random_symmetric(n, density, seed):
    rng = np.random.default_rng(seed)
    m = max(int(n * n * density / 2), n)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return coo_to_csr(
        n, np.concatenate([rows, cols]), np.concatenate([cols, rows])
    )


#: name -> builder; spans the structural regimes the paper's test set does:
#: chains, disconnected components, regular meshes, irregular meshes,
#: dense small-world cores, hub-dominated skews and random patterns —
#: plus one representative per hostile-graph scenario family
#: (``repro.matrices.scenarios``): banded, road-like, power-law (R-MAT
#: and Kronecker flavours) and small-world.
MATRIX_BUILDERS = {
    "path-5": lambda: CSRMatrix.from_edges(5, [(i, i + 1) for i in range(4)]),
    "two-triangles": lambda: CSRMatrix.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    ),
    "grid-20x20": lambda: g.grid2d(20, 20),
    "mesh-300": lambda: g.delaunay_mesh(300, seed=7),
    "mycielski-7": lambda: mycielskian(7),
    "hub-400": lambda: g.hub_matrix(400, n_hubs=2, hub_degree_frac=0.7, seed=3),
    "random-250": lambda: _random_symmetric(250, 0.02, 3),
    "banded-200": lambda: g.banded(200, 5, density=0.85, seed=11),
    "road-300": lambda: g.road_network(300, aspect=40.0, seed=13),
    "rmat-256": lambda: g.rmat(8, edge_factor=5, seed=17),
    "kron-256": lambda: g.kronecker(8, edge_factor=5, seed=19),
    "smallworld-240": lambda: g.watts_strogatz(240, 6, 0.12, seed=23),
}

MATRICES = sorted(MATRIX_BUILDERS)

#: every non-serial execution method, plus the resolver
EXECUTION_METHODS = [m for m in METHODS if m != "serial"] + ["auto"]


@lru_cache(maxsize=None)
def matrix(name: str) -> CSRMatrix:
    return MATRIX_BUILDERS[name]()


@lru_cache(maxsize=None)
def golden(name: str) -> bytes:
    """The serial RCM permutation — the reference every method must match."""
    return reorder(matrix(name), method="serial").permutation.tobytes()


@lru_cache(maxsize=None)
def is_connected(name: str) -> bool:
    return reorder(matrix(name), method="serial").n_components == 1


class TestMethodMatrix:
    @pytest.mark.parametrize("name", MATRICES)
    @pytest.mark.parametrize("method", EXECUTION_METHODS)
    def test_byte_identical_to_serial(self, name, method):
        got = reorder(matrix(name), method=method)
        assert got.permutation.tobytes() == golden(name)

    @pytest.mark.parametrize("name", MATRICES)
    @pytest.mark.parametrize(
        "method", ["vectorized", "parallel", "threads", "batch-cpu"]
    )
    @pytest.mark.parametrize("start", [0, "peripheral"])
    def test_start_variants(self, name, method, start):
        if start == 0 and not is_connected(name):
            pytest.skip("explicit start requires a connected graph")
        ref = reorder(matrix(name), method="serial", start=start)
        got = reorder(matrix(name), method=method, start=start)
        assert got.permutation.tobytes() == ref.permutation.tobytes()


class TestBatchMatrix:
    """`reorder_many` and the service's batched admission must hand back
    the same bytes as one-at-a-time serial calls — batching is a transport
    and scheduling optimization, never a semantic one."""

    @pytest.mark.parametrize("method", ["serial", "vectorized", "auto"])
    def test_reorder_many_byte_identical(self, method):
        from repro.facade import reorder_many

        mats = [matrix(name) for name in MATRICES]
        results = reorder_many(mats, method=method)
        for name, res in zip(MATRICES, results):
            assert res.permutation.tobytes() == golden(name)

    def test_reorder_many_cache_tier(self):
        from repro.facade import reorder_many

        cache = PermutationCache(capacity=32)
        mats = [matrix(name) for name in MATRICES]
        cold = reorder_many(mats, method="serial", cache=cache)
        warm = reorder_many(mats, method="serial", cache=cache)
        for name, res in zip(MATRICES, warm):
            assert res.permutation.tobytes() == golden(name)
            assert "cache" in res.phase_ns
        for name, res in zip(MATRICES, cold):
            assert res.permutation.tobytes() == golden(name)

    def test_batched_service_byte_identical(self):
        cfg = ServiceConfig(
            n_workers=2, batch_window_ms=25.0, max_batch=len(MATRICES)
        )
        with ReorderService(cfg) as svc:
            futures = [
                (name, svc.submit(matrix(name), method="serial"))
                for name in MATRICES
            ]
            for name, fut in futures:
                assert fut.result(60).permutation.tobytes() == golden(name)


class TestServiceMatrix:
    @pytest.mark.parametrize("name", MATRICES)
    def test_service_cold_and_warm(self, name):
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            cold = svc.reorder(matrix(name), method="serial")
            warm = svc.reorder(matrix(name), method="serial")
        assert cold.permutation.tobytes() == golden(name)
        assert warm.permutation.tobytes() == golden(name)
        assert svc.counters["computed"] == 1  # warm came from the cache

    def test_async_service_cold_and_warm(self):
        import asyncio

        async def run():
            async with AsyncReorderService() as svc:
                cold = await svc.reorder_many(
                    [matrix(name) for name in MATRICES], method="serial"
                )
                warm = await svc.reorder_many(
                    [matrix(name) for name in MATRICES], method="serial"
                )
                return cold, warm, svc.stats()

        cold, warm, stats = asyncio.run(run())
        for name, c, w in zip(MATRICES, cold, warm):
            assert c.permutation.tobytes() == golden(name)
            assert w.permutation.tobytes() == golden(name)
        assert stats["service.computed"] == len(MATRICES)

    @pytest.mark.parametrize("name", MATRICES)
    def test_facade_cache_path(self, name):
        cache = PermutationCache(capacity=8)
        cold = reorder(matrix(name), method="serial", cache=cache)
        warm = reorder(matrix(name), method="serial", cache=cache)
        assert cold.permutation.tobytes() == golden(name)
        assert warm.permutation.tobytes() == golden(name)
        assert "cache" in warm.phase_ns  # served from the cache, not computed
