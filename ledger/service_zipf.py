"""``service-zipf``: two closed-loop clients of one ``ReorderService``.

About 90% of requests draw Zipf(1.1) over 128 mid-size patterns, about 10%
ask for a pattern never seen before.  The set-up warms the service with
every pool pattern, so the memory tier (32 entries) serves the head, the
disk tier the tail, and every fresh pattern is a miss that computes, puts
and evicts.  Hits are counted from outside: a hit's result carries no
``ordering`` phase.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

import repro
import repro.core.api as pipeline
import repro.facade as facade
import repro.service.core as service_core
import repro.service.keys as keys
from repro.service import ReorderService, ServiceConfig

from ledger import inputs, stats
from ledger.common import (
    CALL_TIMEOUT_S,
    Computed,
    Window,
    check_all,
    facade_checks,
    kernel_rates,
    ms_since,
    phase_metrics,
    same_permutation,
    serial_golden,
)
from ledger.tracer import Tracer

POOL = 128
CACHE_CAPACITY = 32
#: one sweep of this workload: this many requests of the plan
SWEEP_REQUESTS = 512
#: fresh patterns are checked after the run, this many per batch call
VERIFY_CHUNK = 64


def _is_hit(res) -> bool:
    return "ordering" not in res.phase_ns


class ServiceZipf:
    name = "service-zipf"

    def __init__(self, seed: int, nproc: int, workdir) -> None:
        self.nproc = nproc
        self.pool = inputs.small_patterns(seed, "service-pool", POOL)
        self.goldens = [serial_golden(m, nproc) for m in self.pool]
        self.plan = inputs.RequestPlan.build(seed, POOL)
        self.svc = ReorderService(ServiceConfig(
            n_workers=nproc, cache_capacity=CACHE_CAPACITY, disk_dir=workdir,
        ))
        self.failures: List[str] = []
        self.checked = 0
        # in slices: the service rejects more than max_pending at once
        for lo in range(0, POOL, CACHE_CAPACITY):
            mats = self.pool[lo:lo + CACHE_CAPACITY]
            warm = self.svc.reorder_many(mats, n_workers=nproc)
            self.checked += len(mats)
            self.failures += check_all(
                f"warm-up from pattern {lo}",
                self.goldens[lo:lo + CACHE_CAPACITY],
                [r.permutation for r in warm],
            )
        self._cursor = 0
        self._cursor_lock = threading.Lock()
        #: fresh pattern id -> permutation served, checked in finish()
        self.fresh_served: Dict[int, np.ndarray] = {}
        #: pool or fresh ids whose request computed (had an ordering phase)
        self.computed_ids: Set[int] = set()
        self.computed: List[Computed] = []
        #: latencies of the untraced window, split by what served them
        self.hit_ms: List[float] = []
        self.miss_ms: List[float] = []
        #: (hits, requests answered) over every window
        self.hits_seen = 0
        self.answered = 0
        self.counters0 = dict(self.svc.counters)
        self.cache0 = self.svc.cache.stats.to_dict()

    def _next(self, stop: int):
        with self._cursor_lock:
            if self._cursor >= min(stop, self.plan.items.size):
                return None
            item = int(self.plan.items[self._cursor])
            self._cursor += 1
            return item

    def steps(self) -> List[Callable]:
        """A pass: one sweep (the clients run concurrently, so the sweep
        is one step)."""
        return [self._sweep]

    def _sweep(self, total: Window, tracer: Tracer) -> None:
        """The next :data:`SWEEP_REQUESTS` requests of the plan, sent by
        ``nproc`` closed-loop clients."""
        with self._cursor_lock:
            stop = self._cursor + SWEEP_REQUESTS
        windows = [Window() for _ in range(self.nproc)]
        #: per client: (latency ms, hit)
        records: List[List[Tuple[float, bool]]] = [[] for _ in windows]
        threads = [
            threading.Thread(
                target=self._client, args=(stop, w, rec, tracer),
                name=f"ledger-client-{i}",
            )
            for i, (w, rec) in enumerate(zip(windows, records))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for w in windows:
            total.merge(w)
        if total.attempted < SWEEP_REQUESTS:
            raise RuntimeError(
                "the request plan ran out; raise inputs.PLAN_LENGTH"
            )
        for rec in records:
            self.answered += len(rec)
            self.hits_seen += sum(hit for _, hit in rec)
            if tracer is None:
                for lat, hit in rec:
                    (self.hit_ms if hit else self.miss_ms).append(lat)

    def _client(self, stop: int, w: Window, rec, tracer) -> None:
        while True:
            item = self._next(stop)
            if item is None:
                return
            mat = (
                self.pool[item] if item >= 0
                else self.plan.fresh_pattern(self.pool, -item - 1)
            )
            w.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = self._request(mat)
                else:
                    with tracer.span("ReorderService.reorder", nnz=mat.nnz):
                        res = self._request(mat)
            except Exception as exc:  # overload, timeout or a bug: failed
                w.fail(f"request {item}: {type(exc).__name__}: {exc}")
                continue
            lat = ms_since(t0)
            hit = _is_hit(res)
            if item >= 0 and not same_permutation(
                self.goldens[item], res.permutation
            ):
                w.fail(f"pool pattern {item} differs from the serial golden")
                continue
            if item < 0:
                self.fresh_served[-item - 1] = res.permutation
            if not hit:
                self.computed_ids.add(item)
            w.latencies_ms.append(lat)
            w.nnz += mat.nnz
            rec.append((lat, hit))

    def _request(self, mat):
        return self.svc.reorder(
            mat, n_workers=self.nproc, timeout=CALL_TIMEOUT_S
        )

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def traced(self, tracer: Tracer) -> ExitStack:
        stack = ExitStack()
        nnz = lambda m, **kw: {"nnz": m.nnz}  # noqa: E731

        def facade_done(sp, res):
            self.computed.append(
                Computed(sp.attrs["nnz"], res.method, dict(res.phase_ns), sp)
            )

        stack.enter_context(tracer.patch(
            service_core, "cache_key", "cache_key", nnz))
        stack.enter_context(tracer.patch(
            keys, "pattern_digest", "pattern_digest", nnz))
        stack.enter_context(tracer.patch(
            facade, "reorder", "repro.reorder", nnz, facade_done))
        stack.enter_context(tracer.patch(
            pipeline, "validate_csr", "validate_csr", nnz))
        stack.enter_context(tracer.patch(
            pipeline, "is_structurally_symmetric",
            "is_structurally_symmetric", nnz))
        stack.enter_context(tracer.backends(["serial", "vectorized"]))
        stack.enter_context(self._trace_cache(tracer))
        return stack

    def _trace_cache(self, tracer: Tracer):
        """Spans around this service's ``PermutationCache.get``/``put``;
        a get is classed by the tier that answered it."""
        cache = self.svc.cache
        get, put = cache.get, cache.put

        def traced_get(key):
            in_memory = key in cache
            with tracer.span("cache.get") as sp:
                res = get(key)
            sp.attrs["tier"] = (
                "miss" if res is None else "memory" if in_memory else "disk"
            )
            return res

        cache.get = traced_get
        cache.put = tracer.wrap("cache.put", put)
        stack = ExitStack()

        @stack.callback
        def restore():
            del cache.get
            del cache.put

        return stack

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        out = phase_metrics(self.computed)
        facade_out, problems = facade_checks(self.computed, tracer)
        out.update(facade_out)
        self.failures += problems
        out.update(kernel_rates(tracer, ["repro.reorder"]))

        c = {k: v - self.counters0[k] for k, v in self.svc.counters.items()}
        cs = {
            k: v - self.cache0[k]
            for k, v in self.svc.cache.stats.to_dict().items()
        }
        gets = tracer.named("cache.get")
        digest_nnz = sum(s.attrs["nnz"] for s in tracer.named("pattern_digest"))

        def median_us(spans) -> float:
            return stats.median([s.ns / 1e3 for s in spans]) if spans else 0.0

        out.update({
            "service.hit_ratio": self.hits_seen / max(self.answered, 1),
            "service.hit_latency_p50_ms": stats.median(self.hit_ms or [0.0]),
            "service.miss_latency_p50_ms": stats.median(self.miss_ms or [0.0]),
            "service.coalesced": c["coalesced"],
            "service.rejected": c["rejected"],
            "service.computed_per_distinct_miss":
                c["computed"] / max(len(self.computed_ids), 1),
            "service.hits_observed": self.hits_seen,
            "cache.hits": cs["hits"],
            "cache.misses": cs["misses"],
            "cache.misses_per_computed": cs["misses"] / max(c["computed"], 1),
            "keys.digest_us_per_knnz":
                tracer.total_ns("pattern_digest") / max(digest_nnz, 1),
            "cache.get_hit_us": median_us(
                [s for s in gets if s.attrs.get("tier") == "memory"]),
            "cache.get_disk_hit_us": median_us(
                [s for s in gets if s.attrs.get("tier") == "disk"]),
            "cache.put_us": median_us(tracer.named("cache.put")),
            "cache.evictions": cs["evictions"],
            "cache.disk_hit_ratio": cs["disk_hits"] / max(cs["hits"], 1),
        })
        return out

    def finish(self):
        """Check every fresh pattern served against a serial golden,
        computed now because a run's fresh count is only known at its end."""
        ids = sorted(self.fresh_served)
        for i in range(0, len(ids), VERIFY_CHUNK):
            chunk = ids[i:i + VERIFY_CHUNK]
            goldens = repro.reorder_many(
                [self.plan.fresh_pattern(self.pool, k) for k in chunk],
                method="serial", n_workers=self.nproc,
            )
            self.failures += check_all(
                f"fresh patterns from {chunk[0]}",
                [g.permutation for g in goldens],
                [self.fresh_served[k] for k in chunk],
            )
        return self.checked, self.failures

    def close(self) -> None:
        self.svc.close()
