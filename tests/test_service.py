"""Behavioural tests for the reordering service layer.

Covers the tentpole guarantees of :mod:`repro.service`: cold/warm
bit-identity with ``method="serial"``, request coalescing (exactly one
underlying computation for concurrent duplicates, observable through the
``service.coalesced`` counter), bounded-queue backpressure, per-request
timeouts, the graceful-degradation chain, the disk cache tier and explicit
invalidation, exactly-one-computation per key under a 16-thread hammer,
the asyncio front door and the ``repro cache`` CLI over a disk tier.
The cross-method value battery lives in
``test_equivalence_matrix.py``; cache-key properties in
``test_service_properties.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

import repro.service.core as service_core
from repro import telemetry
from repro.cli import main as cli_main
from repro.facade import reorder
from repro.service import (
    AsyncReorderService,
    PermutationCache,
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    cache_key,
    fallback_chain,
    pattern_digest,
)
from repro.sparse.csr import CSRMatrix, coo_to_csr


def random_symmetric(n, density, seed):
    """Random symmetric pattern (same recipe as conftest.random_symmetric)."""
    rng = np.random.default_rng(seed)
    m = max(int(n * n * density / 2), n)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return coo_to_csr(
        n, np.concatenate([rows, cols]), np.concatenate([cols, rows])
    )


@pytest.fixture
def tel():
    """Enabled, clean process-wide telemetry; restored afterwards."""
    t = telemetry.get()
    was_enabled = t.enabled
    t.reset()
    t.enable()
    yield t
    t.reset()
    if not was_enabled:
        t.disable()


@pytest.fixture
def gated(monkeypatch):
    """Replace the facade seam with a gate the test opens explicitly.

    Workers block inside the computation until ``release()`` — that is the
    window in which duplicate submissions must coalesce.  ``calls`` records
    every underlying computation that actually ran.
    """
    gate = threading.Event()
    entered = threading.Event()
    calls = []
    real = service_core._call_reorder

    def gated_call(mat, kwargs):
        calls.append(dict(kwargs))
        entered.set()
        if not gate.wait(timeout=10):
            raise RuntimeError("test gate was never opened")
        return real(mat, kwargs)

    monkeypatch.setattr(service_core, "_call_reorder", gated_call)

    class Gate:
        def release(self):
            gate.set()

        def wait_entered(self):
            assert entered.wait(timeout=10), "computation never started"

    g = Gate()
    g.calls = calls
    yield g
    gate.set()  # never leave workers stuck if the test failed early


class TestColdWarm:
    def test_cold_matches_serial_bit_identical(self, medium_grid):
        ref = reorder(medium_grid, method="serial")
        with ReorderService() as svc:
            got = svc.reorder(medium_grid, method="serial")
        assert got.permutation.tobytes() == ref.permutation.tobytes()

    def test_warm_hit_matches_cold(self, medium_grid):
        with ReorderService() as svc:
            cold = svc.reorder(medium_grid)
            warm = svc.reorder(medium_grid)
            assert warm.permutation.tobytes() == cold.permutation.tobytes()
            assert svc.counters["computed"] == 1
            assert svc.cache.stats.hits == 1

    def test_pattern_identical_data_shares_entry(self, medium_grid):
        # same pattern, different values -> one computation serves both
        twin = CSRMatrix(
            medium_grid.indptr.copy(),
            medium_grid.indices.copy(),
            data=np.full(medium_grid.nnz, 7.5),
        )
        assert pattern_digest(twin) == pattern_digest(medium_grid)
        with ReorderService() as svc:
            svc.reorder(medium_grid)
            svc.reorder(twin)
            assert svc.counters["computed"] == 1

    def test_stats_snapshot_shape(self, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            stats = svc.stats()
        assert stats["service.requests"] == 1
        assert stats["service.computed"] == 1
        assert stats["pending"] == 0
        assert stats["cache"]["size"] == 1


class TestCoalescing:
    def test_concurrent_duplicates_compute_once(self, tel, gated, medium_grid):
        """ISSUE acceptance: N concurrent same-key submissions, exactly one
        underlying computation, observable via ``service.coalesced``."""
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            futs = [svc.submit(medium_grid) for _ in range(5)]
            gated.wait_entered()
            gated.release()
            results = [f.result(timeout=10) for f in futs]

        assert len(gated.calls) == 1  # exactly one computation ran
        assert svc.counters["computed"] == 1
        assert svc.counters["coalesced"] == 4
        assert tel.counter("service.coalesced").value == 4
        ref = results[0].permutation.tobytes()
        assert all(r.permutation.tobytes() == ref for r in results)

    def test_distinct_keys_do_not_coalesce(self, gated):
        a = random_symmetric(60, 0.1, 0)
        b = random_symmetric(60, 0.1, 1)
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            fa, fb = svc.submit(a), svc.submit(b)
            gated.release()
            fa.result(timeout=10)
            fb.result(timeout=10)
            assert svc.counters["coalesced"] == 0
            assert len(gated.calls) == 2

    def test_same_matrix_different_start_not_coalesced(self, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=2)) as svc:
            f0 = svc.submit(small_grid, start=0)
            f1 = svc.submit(small_grid, start=1)
            gated.release()
            f0.result(timeout=10)
            f1.result(timeout=10)
            assert svc.counters["coalesced"] == 0
            assert len(gated.calls) == 2


class TestBackpressure:
    def test_full_queue_rejects(self, gated, small_grid):
        cfg = ServiceConfig(n_workers=1, max_pending=1, submit_timeout=0.0)
        other = random_symmetric(40, 0.1, 5)
        with ReorderService(cfg) as svc:
            first = svc.submit(small_grid)  # occupies the only slot
            gated.wait_entered()
            with pytest.raises(ServiceOverloadedError, match="queue full"):
                svc.submit(other)
            assert svc.counters["rejected"] == 1
            gated.release()
            first.result(timeout=10)
        # slot was released on completion
        assert svc.pending == 0

    def test_duplicates_admitted_past_full_queue(self, gated, small_grid):
        # coalesced requests must not consume queue slots
        cfg = ServiceConfig(n_workers=1, max_pending=1)
        with ReorderService(cfg) as svc:
            first = svc.submit(small_grid)
            dup = svc.submit(small_grid)  # same key: coalesces, no slot
            assert dup is first
            gated.release()
            first.result(timeout=10)

    def test_queue_depth_gauge(self, tel, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            svc.submit(small_grid)
            gated.wait_entered()
            assert tel.gauge("service.queue.depth").value == 1
            gated.release()
        assert tel.gauge("service.queue.depth").value == 0


class TestTimeouts:
    def test_request_timeout_raises(self, gated, small_grid):
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            with pytest.raises(ServiceTimeoutError, match="0.05"):
                svc.reorder(small_grid, timeout=0.05)
            assert svc.counters["timeouts"] == 1
            # computation was not cancelled: it finishes and lands in cache
            gated.release()
            res = svc.reorder(small_grid, timeout=10)
        ref = reorder(small_grid, method="serial")
        assert res.permutation.tobytes() == ref.permutation.tobytes()

    def test_config_default_timeout(self, gated, small_grid):
        cfg = ServiceConfig(n_workers=1, request_timeout=0.05)
        with ReorderService(cfg) as svc:
            with pytest.raises(ServiceTimeoutError):
                svc.reorder(small_grid)
            gated.release()


class TestFallback:
    def test_environment_error_degrades_to_next_method(
        self, tel, monkeypatch, medium_grid
    ):
        real = service_core._call_reorder
        failed = []

        def flaky(mat, kwargs):
            if kwargs["method"] == "parallel":
                failed.append(kwargs["method"])
                raise RuntimeError("worker pool died")
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", flaky)
        ref = reorder(medium_grid, method="serial")
        with ReorderService() as svc:
            res = svc.reorder(medium_grid, method="parallel")
        assert failed == ["parallel"]
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        assert res.method == "vectorized"  # first surviving chain entry
        assert svc.counters["fallbacks"] == 1
        assert tel.counter("service.fallbacks.parallel").value == 1

    def test_chain_shape(self):
        assert fallback_chain("rcm", "parallel") == (
            "parallel", "vectorized", "serial",
        )
        assert fallback_chain("rcm", "serial") == ("serial", "vectorized")
        assert fallback_chain("rcm", "vectorized") == ("vectorized", "serial")
        assert fallback_chain("sloan", "direct") == ("direct",)

    def test_chain_derives_from_the_registry(self):
        from repro import backends

        for method in backends.names():
            assert fallback_chain("rcm", method) == backends.degradation_order(
                method
            )

    def test_unregistered_method_degrades_at_admission(self, tel, small_grid):
        # a client asking for an optional backend this install lacks is
        # served by the first registered degradation target, not bounced
        ref = reorder(small_grid, method="vectorized")
        with ReorderService() as svc:
            res = svc.reorder(small_grid, method="gpu-distributed")
        assert res.method == "vectorized"
        assert res.permutation.tobytes() == ref.permutation.tobytes()
        assert svc.counters["fallbacks"] == 1
        assert tel.counter("service.fallbacks.gpu-distributed").value == 1

    def test_unregistered_method_rejected_when_fallback_disabled(
        self, small_grid
    ):
        cfg = ServiceConfig(fallback=False)
        with ReorderService(cfg) as svc:
            with pytest.raises(ValueError, match="method must be one of"):
                svc.submit(small_grid, method="gpu-distributed")
        assert svc.counters["fallbacks"] == 0

    def test_validation_error_propagates_without_fallback(self, monkeypatch):
        calls = []
        real = service_core._call_reorder

        def counting(mat, kwargs):
            calls.append(kwargs["method"])
            return real(mat, kwargs)

        monkeypatch.setattr(service_core, "_call_reorder", counting)
        asym = coo_to_csr(3, [0], [1])  # not symmetric -> ValueError
        with ReorderService() as svc:
            with pytest.raises(ValueError, match="symmetric"):
                svc.reorder(asym)
        assert calls == [calls[0]]  # one attempt, no chain walk

    def test_fallback_disabled_propagates_first_error(
        self, monkeypatch, small_grid
    ):
        def broken(mat, kwargs):
            raise RuntimeError("no fallback expected")

        monkeypatch.setattr(service_core, "_call_reorder", broken)
        cfg = ServiceConfig(fallback=False)
        with ReorderService(cfg) as svc:
            with pytest.raises(RuntimeError, match="no fallback expected"):
                svc.reorder(small_grid)
        assert svc.counters["fallbacks"] == 0

    def test_exhausted_chain_raises_last_error(self, monkeypatch, small_grid):
        def always_broken(mat, kwargs):
            raise RuntimeError(f"{kwargs['method']} down")

        monkeypatch.setattr(service_core, "_call_reorder", always_broken)
        with ReorderService() as svc:
            with pytest.raises(RuntimeError, match="serial down"):
                svc.reorder(small_grid, method="parallel")
        assert svc.counters["fallbacks"] == 2  # parallel and vectorized


class TestDiskTier:
    def test_restart_serves_from_disk(self, tmp_path, medium_grid):
        ref = reorder(medium_grid, method="serial")
        cfg = ServiceConfig(disk_dir=tmp_path)
        with ReorderService(cfg) as svc:
            svc.reorder(medium_grid)
        assert list(tmp_path.glob("*.npz"))

        # fresh service, empty memory tier, same disk dir
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(medium_grid)
            assert svc2.counters["computed"] == 0
            assert svc2.cache.stats.disk_hits == 1
        assert res.permutation.tobytes() == ref.permutation.tobytes()

    def test_torn_disk_entry_is_a_miss(self, tmp_path, small_grid):
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            svc.reorder(small_grid)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not an npz")
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc2:
            res = svc2.reorder(small_grid)
            assert svc2.counters["computed"] == 1  # recomputed, no crash
        ref = reorder(small_grid, method="serial")
        assert res.permutation.tobytes() == ref.permutation.tobytes()


class TestInvalidation:
    def test_invalidate_forces_recompute(self, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            key = cache_key(small_grid)
            assert svc.cache.invalidate(key) == 1
            svc.reorder(small_grid)
            assert svc.counters["computed"] == 2
            assert svc.cache.stats.invalidations == 1

    def test_invalidate_by_digest_prefix_object(self, small_grid, tmp_path):
        cache = PermutationCache(8, disk_dir=tmp_path)
        with ReorderService(cache=cache) as svc:
            svc.reorder(small_grid)
            digest = cache_key(small_grid).digest
            # both tiers held the entry: memory + disk -> 2
            assert cache.invalidate(digest) == 2
            assert len(cache) == 0
            assert not list(tmp_path.glob("*.npz"))

    def test_clear(self, small_grid, medium_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
            svc.reorder(medium_grid)
            assert len(svc.cache) == 2
            svc.cache.clear()
            assert len(svc.cache) == 0


class TestEviction:
    def test_lru_capacity_bound(self):
        mats = [random_symmetric(30 + i, 0.2, i) for i in range(5)]
        cache = PermutationCache(capacity=2)
        with ReorderService(cache=cache) as svc:
            for m in mats:
                svc.reorder(m)
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_evicted_key_recomputes_correctly(self):
        a = random_symmetric(40, 0.1, 0)
        b = random_symmetric(40, 0.1, 1)
        c = random_symmetric(40, 0.1, 2)
        cache = PermutationCache(capacity=1)
        with ReorderService(cache=cache) as svc:
            pa = svc.reorder(a).permutation.tobytes()
            svc.reorder(b)
            svc.reorder(c)
            # "a" was evicted; a fresh request must recompute, not serve b/c
            again = svc.reorder(a).permutation.tobytes()
        assert again == pa


class TestLifecycle:
    def test_closed_service_rejects(self, small_grid):
        svc = ReorderService()
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(small_grid)

    def test_map_preserves_order(self):
        mats = [random_symmetric(30 + 7 * i, 0.15, i) for i in range(4)]
        refs = [reorder(m, method="serial").permutation.tobytes() for m in mats]
        with ReorderService(ServiceConfig(n_workers=3)) as svc:
            out = svc.map(mats)
        assert [r.permutation.tobytes() for r in out] == refs

    def test_request_span_recorded(self, tel, small_grid):
        with ReorderService() as svc:
            svc.reorder(small_grid)
        names = [s.name for s in tel.tracer.records()]
        assert "service.request" in names


class TestConcurrentHammer:
    N_THREADS = 16

    def test_hammer_exactly_one_computation_per_key(
        self, tmp_path, monkeypatch
    ):
        # guards the settle/lookup race in ``submit``: a twin that finished
        # between a thread's cache miss and its slot must not be recomputed
        cfg = ServiceConfig(n_workers=2, max_pending=256, disk_dir=tmp_path)
        mats = [random_symmetric(60, 0.05, seed=100 + i) for i in range(24)]

        computed = {}  # pattern digest -> underlying computations
        written = {}  # cache-key digest -> disk-tier writes
        lock = threading.Lock()
        real_call = service_core._call_reorder
        real_write = PermutationCache._disk_write

        def counting_call(mat, kwargs):
            d = pattern_digest(mat)
            with lock:
                computed[d] = computed.get(d, 0) + 1
            return real_call(mat, kwargs)

        def counting_write(cache, digest, entry):
            with lock:
                written[digest] = written.get(digest, 0) + 1
            real_write(cache, digest, entry)

        monkeypatch.setattr(service_core, "_call_reorder", counting_call)
        monkeypatch.setattr(PermutationCache, "_disk_write", counting_write)

        barrier = threading.Barrier(self.N_THREADS)
        results = [None] * self.N_THREADS
        errors = []

        with ReorderService(cfg) as svc:
            def worker(slot):
                try:
                    barrier.wait(timeout=10)
                    futs = [svc.submit(m) for m in mats]
                    results[slot] = [
                        f.result(timeout=60).permutation.tobytes()
                        for f in futs
                    ]
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(s,))
                for s in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors

        assert computed == {pattern_digest(m): 1 for m in mats}
        assert all(r == results[0] for r in results[1:])
        expect = [reorder(m, method="serial").permutation.tobytes() for m in mats]
        assert results[0] == expect
        digests = {cache_key(m).digest for m in mats}
        assert written == {d: 1 for d in digests}
        assert {p.stem for p in tmp_path.glob("*.npz")} == digests

    def test_twin_settled_after_a_miss_is_served_not_recomputed(
        self, gated, small_grid
    ):
        # the hammer's race, forced: the leader computes, caches and
        # settles between the follower's cache miss and its admission
        with ReorderService(ServiceConfig(n_workers=1)) as svc:
            leader = svc.submit(small_grid)
            gated.wait_entered()
            real_get = svc.cache.get

            def miss_then_settle(key):
                hit = real_get(key)
                gated.release()
                leader.result(timeout=10)
                deadline = time.monotonic() + 10
                while svc.pending and time.monotonic() < deadline:
                    time.sleep(0.001)
                return hit

            svc.cache.get = miss_then_settle
            follower = svc.submit(small_grid)
            del svc.cache.get
            assert (
                follower.result(timeout=10).permutation.tobytes()
                == leader.result().permutation.tobytes()
            )
        assert len(gated.calls) == 1
        assert svc.counters["computed"] == 1


class TestAsyncReorderService:
    def test_reorder_matches_sync_cold_and_warm(self, medium_grid):
        ref = reorder(medium_grid, method="serial")

        async def run():
            async with AsyncReorderService() as svc:
                cold = await svc.reorder(medium_grid, method="serial")
                warm = await svc.reorder(medium_grid, method="serial")
                assert svc.pending == 0
                return cold, warm

        cold, warm = asyncio.run(run())
        assert cold.permutation.tobytes() == ref.permutation.tobytes()
        assert warm.permutation.tobytes() == ref.permutation.tobytes()

    def test_reorder_many_gathers_in_order(self):
        mats = [random_symmetric(40, 0.1, seed=20 + i) for i in range(6)]
        expect = [reorder(m).permutation.tobytes() for m in mats]

        async def run():
            async with AsyncReorderService() as svc:
                got = await svc.reorder_many(mats)
                return [r.permutation.tobytes() for r in got]

        assert asyncio.run(run()) == expect

    def test_timeout_raises_service_timeout(self, gated, small_grid):
        svc = ReorderService(ServiceConfig(n_workers=1))

        async def run():
            front = AsyncReorderService(service=svc)
            with pytest.raises(ServiceTimeoutError):
                await front.reorder(small_grid, timeout=0.2)
            await front.aclose()  # not owned: must leave svc open
            assert not svc._closed

        try:
            asyncio.run(run())
        finally:
            gated.release()
            svc.close()

    def test_config_and_service_are_exclusive(self):
        svc = ReorderService()
        try:
            with pytest.raises(ValueError):
                AsyncReorderService(ServiceConfig(), service=svc)
        finally:
            svc.close()


class TestCacheCli:
    @pytest.fixture
    def populated(self, tmp_path):
        """A disk tier holding four entries; returns (dir, digests)."""
        mats = [random_symmetric(40, 0.1, seed=300 + i) for i in range(4)]
        with ReorderService(ServiceConfig(disk_dir=tmp_path)) as svc:
            for m in mats:
                svc.reorder(m)
        return tmp_path, {cache_key(m).digest for m in mats}

    def test_listing(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root)]) == 0
        assert f"{len(digests)} entries in {root}" in capsys.readouterr().out
        assert cli_main(["cache", str(root), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["digest"] for e in entries} == digests

    def test_invalidate_by_prefix(self, populated, capsys):
        root, digests = populated
        digest = sorted(digests)[0]
        assert cli_main(["cache", str(root), "--invalidate", digest[:12]]) == 0
        assert f"removed {digest}" in capsys.readouterr().out
        assert not (root / f"{digest}.npz").exists()
        assert cli_main(["cache", str(root), "--invalidate", digest]) == 1

    def test_invalidate_ambiguous_prefix_fails(self, populated, capsys):
        root, _digests = populated
        (root / "ffff00.npz").touch()
        (root / "ffff11.npz").touch()
        assert cli_main(["cache", str(root), "--invalidate", "ffff"]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_clear(self, populated, capsys):
        root, digests = populated
        assert cli_main(["cache", str(root), "--clear"]) == 0
        assert f"cleared {len(digests)} entries" in capsys.readouterr().out
        assert not list(root.glob("*.npz"))
