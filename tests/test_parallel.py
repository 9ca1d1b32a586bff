"""Process-parallel executor: correctness, fallback paths, configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core.api import _reorder_rcm
from repro.errors import ValidationError
from repro.matrices import generators as g
from repro.parallel import (
    ParallelConfig,
    fork_available,
    map_matrices,
    rcm_components,
    resolve_workers,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def many_components() -> CSRMatrix:
    """Five grid components of very different sizes in one matrix."""
    blocks = [g.grid2d(k, k) for k in (3, 5, 8, 12, 2)]
    n = sum(b.n for b in blocks)
    edges, base = [], 0
    for b in blocks:
        for u in range(b.n):
            for v in b.indices[b.indptr[u]:b.indptr[u + 1]]:
                if u < v:
                    edges.append((base + u, base + int(v)))
        base += b.n
    return CSRMatrix.from_edges(n, edges)


class TestComponentPool:
    def test_matches_serial_multi_component(self, many_components):
        ref = _reorder_rcm(many_components, method="serial")
        got = _reorder_rcm(many_components, method="parallel", n_workers=3)
        assert np.array_equal(got.permutation, ref.permutation)
        assert got.method == "parallel"
        assert got.n_components == 5

    def test_forced_pool_matches(self, many_components):
        starts = _reorder_rcm(many_components, method="serial").start_nodes
        sizes = _reorder_rcm(many_components, method="serial").component_sizes
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        ref = [o for o in rcm_components(
            many_components, starts, sizes=sizes,
            config=ParallelConfig(n_workers=0),
        )]
        got = rcm_components(many_components, starts, sizes=sizes, config=cfg)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    def test_small_input_runs_in_process(self, two_triangles):
        tel = telemetry.get()
        tel.reset()
        tel.enable()
        try:
            res = _reorder_rcm(two_triangles, method="parallel")
            counters = tel.snapshot()["counters"]
        finally:
            tel.disable()
            tel.reset()
        assert res.n_components == 2
        assert counters.get("parallel.fallbacks.small-input", 0) >= 1

    def test_fallback_blocks_cover_matrix(self, two_triangles):
        ref = _reorder_rcm(two_triangles, method="serial")
        parts = rcm_components(
            two_triangles, ref.start_nodes, sizes=ref.component_sizes
        )
        assert sum(len(p) for p in parts) == two_triangles.n


class TestMapMatrices:
    def test_matches_in_process_loop(self):
        mats = [g.grid2d(6, 6), g.delaunay_mesh(80, seed=1),
                g.random_geometric(50, k=3, seed=2)]
        seq = [_reorder_rcm(m, method="vectorized") for m in mats]
        cfg = ParallelConfig(n_workers=2, force_processes=True)
        par = map_matrices(mats, method="vectorized", config=cfg)
        assert len(par) == len(seq)
        for a, b in zip(seq, par):
            assert np.array_equal(a.permutation, b.permutation)

    def test_empty_batch(self):
        assert map_matrices([]) == []

    def test_chunking_covers_all(self):
        mats = [g.grid2d(4, 4) for _ in range(7)]
        cfg = ParallelConfig(n_workers=2, chunk_size=2, force_processes=True)
        out = map_matrices(mats, config=cfg)
        assert len(out) == 7
        ref = _reorder_rcm(mats[0], method="serial").permutation
        for res in out:
            assert np.array_equal(res.permutation, ref)


class TestConfig:
    def test_resolve_workers_default_positive(self):
        assert resolve_workers(None) >= 1

    def test_resolve_workers_explicit(self):
        assert resolve_workers(3) == 3

    def test_zero_workers_means_in_process(self, many_components):
        ref = _reorder_rcm(many_components, method="serial")
        got = _reorder_rcm(
            many_components, method="parallel",
            config=ParallelConfig(n_workers=0),
        )
        assert np.array_equal(got.permutation, ref.permutation)

    def test_fork_available_is_bool(self):
        assert isinstance(fork_available(), bool)

    @pytest.mark.parametrize("chunk_size", [0, -1, 2.5, "3"])
    def test_chunk_size_must_be_an_int_of_at_least_one(self, chunk_size):
        with pytest.raises(ValidationError, match="chunk_size"):
            ParallelConfig(n_workers=2, chunk_size=chunk_size,
                           force_processes=True)


class TestThroughputBench:
    def test_measure_rejects_a_short_pool_result(self, monkeypatch):
        import repro.parallel
        from repro.bench import throughput

        real = repro.parallel.map_matrices
        monkeypatch.setattr(
            repro.parallel, "map_matrices",
            lambda mats, **kw: real(mats, **kw)[:-1],
        )
        mats = throughput.build_workload(3, size=6)
        with pytest.raises(AssertionError, match="2 results for 3"):
            throughput.measure(mats, n_workers=2)

    def test_cli_rejects_negative_chunk_size(self):
        from repro.bench import throughput

        with pytest.raises(ValidationError, match="chunk_size"):
            throughput.main(["--quick", "--chunk-size", "-1"])
