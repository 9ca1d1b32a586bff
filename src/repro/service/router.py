"""Sharded reordering service: a consistent-hash router over N shards.

The scaling unit is the :class:`~repro.service.core.Shard` — one cache +
coalescing map + bounded queue + admission thread.  This module composes
N of them:

* :class:`HashRing` — consistent hashing of the content-hash ``CacheKey``
  digest onto shard slots.  Each shard owns ~``replicas`` pseudo-random
  points on a 64-bit ring; a key routes to the first point at or after
  its own position (wrapping).  Adding or removing one shard therefore
  remaps only ~1/N of the key population, and every remapped key moves
  *to the new shard* (on add) or *off the dead shard* (on remove) — no
  key ever shuffles between two surviving shards, which is what lets
  per-shard disk tiers survive resharding.
* :class:`ShardedCache` — N :class:`~repro.service.cache.PermutationCache`
  tiers, one per slot, each with a private disk directory
  ``<disk_dir>/shard-<i>`` and read-only fallback probes into its
  siblings' directories (so a key remapped by a resharding still
  warm-hits from disk and is promoted into its new owner's tier).  It
  duck-types ``get``/``put``, so :func:`repro.reorder(cache=..., shards=N)
  <repro.facade.reorder>` uses it exactly like a plain cache.
* :class:`ShardedService` — the router.  ``submit`` admits the method,
  hashes the key **once**, routes on the digest, and hands the finished
  key to the owning shard; everything after routing (hit fast path,
  coalescing, backpressure, batched admission, degradation) is the
  shard's unchanged machinery.  The hot path crosses zero shared state:
  shards never take each other's locks and never write each other's disk
  tiers.

Telemetry: each shard mirrors its counters to ``service.shard.<i>.*``
and maintains ``service.shard.<i>.queue.depth``; aggregate ``service.*``
counters keep summing across shards.  ``stats()`` nests per-shard
snapshots (with ``healthy`` flags) for ``/statusz``.  See
``docs/service.md`` ("Sharded deployment").
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.api import ReorderResult
from repro.errors import ServiceError, ServiceTimeoutError
from repro.parallel.executor import record_fallback
from repro.service.cache import PermutationCache
from repro.service.core import (
    _UNSET,
    ServiceConfig,
    Shard,
    admit_method,
)
from repro.service.keys import CacheKey, cache_key
from repro.sparse.csr import CSRMatrix
from repro.validation import as_csr
from repro import telemetry

__all__ = ["HashRing", "ShardedCache", "ShardedService"]

#: virtual nodes per shard — enough that the largest/mean point-arc ratio
#: (and hence ``shard_balance``) stays close to 1 for small N
DEFAULT_REPLICAS = 128


class HashRing:
    """Consistent-hash ring mapping hex digests onto integer shard ids.

    Each shard id owns ``replicas`` points at
    ``sha256("<id>:<r>")[:8]`` on a 64-bit ring; :meth:`route` walks a
    key (the leading 64 bits of its hex digest) clockwise to the next
    point.  Membership changes move only the arcs adjacent to the added
    or removed shard's points: ~1/N of keys on a change, each moved key
    involving the changed shard.
    """

    def __init__(
        self,
        shard_ids: Iterable[int] = (),
        *,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        # parallel sorted arrays: _points for bisect, _owners for lookup
        self._points: List[int] = []
        self._owners: List[int] = []
        self._shards: set = set()
        for sid in shard_ids:
            self.add(sid)

    @staticmethod
    def _point(sid: int, replica: int) -> int:
        digest = hashlib.sha256(f"{sid}:{replica}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, sid: int) -> None:
        """Insert a shard's virtual nodes (idempotent add is an error)."""
        sid = int(sid)
        if sid in self._shards:
            raise ValueError(f"shard {sid} already on the ring")
        self._shards.add(sid)
        for r in range(self.replicas):
            point = self._point(sid, r)
            i = bisect.bisect_left(self._points, point)
            # ties (astronomically unlikely) resolve to the lower sid so
            # routing stays deterministic regardless of insertion order
            while (
                i < len(self._points)
                and self._points[i] == point
                and self._owners[i] < sid
            ):  # pragma: no cover - needs a sha256 point collision
                i += 1
            self._points.insert(i, point)
            self._owners.insert(i, sid)

    def remove(self, sid: int) -> None:
        """Drop a shard's virtual nodes; its arcs fall to the successors."""
        sid = int(sid)
        if sid not in self._shards:
            raise ValueError(f"shard {sid} not on the ring")
        self._shards.discard(sid)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != sid
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def route(self, digest: str) -> int:
        """The shard id owning ``digest`` (a hex string, >= 16 chars)."""
        if not self._points:
            raise ValueError("empty hash ring")
        point = int(digest[:16], 16)
        i = bisect.bisect_right(self._points, point)
        if i == len(self._points):
            i = 0  # wrap: keys past the last point belong to the first
        return self._owners[i]

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Current members, ascending."""
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)


def shard_dir(root: Union[str, Path], index: int) -> Path:
    """The private disk-tier directory of shard ``index`` under ``root``."""
    return Path(root) / f"shard-{index}"


def discover_shard_dirs(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """Existing ``shard-<i>`` tiers under ``root``, ascending by index.

    What the shard-aware ``repro cache`` CLI iterates; a root without any
    ``shard-*`` subdirectory is an unsharded (single-tier) layout and
    returns ``[]``.
    """
    out: List[Tuple[int, Path]] = []
    root = Path(root)
    if not root.is_dir():
        return out
    for path in root.glob("shard-*"):
        if not path.is_dir():
            continue
        try:
            index = int(path.name.split("-", 1)[1])
        except ValueError:
            continue
        out.append((index, path))
    out.sort()
    return out


class ShardedCache:
    """N per-shard :class:`PermutationCache` tiers behind one hash ring.

    Shard ``i`` persists under ``<disk_dir>/shard-<i>`` and probes its
    siblings' directories read-only on a disk miss (promotion writes land
    only in its own directory) — so resharding never loses warm disk
    entries and never lets one shard write another's tier.  With
    ``disk_dir=None`` the tiers are memory-only.

    Duck-types the single-cache protocol (``get``/``put``/``invalidate``/
    ``clear``/``stats_dict``/``__len__``), routing each key to its owning
    tier, so both the facade's keyed path and :class:`ShardedService`
    use it unchanged.
    """

    def __init__(
        self,
        disk_dir: Optional[Union[str, Path]] = None,
        n_shards: int = 1,
        *,
        capacity: int = 128,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.ring = HashRing(range(self.n_shards), replicas=replicas)
        dirs = (
            [shard_dir(self.disk_dir, i) for i in range(self.n_shards)]
            if self.disk_dir is not None
            else [None] * self.n_shards
        )
        self.caches: List[PermutationCache] = [
            PermutationCache(
                capacity,
                disk_dir=dirs[i],
                fallback_dirs=(
                    [d for j, d in enumerate(dirs) if j != i]
                    if self.disk_dir is not None
                    else ()
                ),
            )
            for i in range(self.n_shards)
        ]

    def shard_index(self, key_or_digest: Union[CacheKey, str]) -> int:
        """The owning shard slot of a key (what the router consults)."""
        digest = (
            key_or_digest.digest
            if isinstance(key_or_digest, CacheKey)
            else str(key_or_digest)
        )
        return self.ring.route(digest)

    def get(self, key: CacheKey) -> Optional[ReorderResult]:
        """Look up the key on its owning shard's cache."""
        return self.caches[self.shard_index(key)].get(key)

    def put(self, key: CacheKey, result: ReorderResult) -> None:
        """Store the result on the key's owning shard's cache."""
        self.caches[self.shard_index(key)].put(key, result)

    def invalidate(self, key_or_digest: Union[CacheKey, str]) -> int:
        """Drop a key from *every* shard tier; total tiers that held it.

        Swept across all shards (not just the current owner) because a
        resharded key may have stale copies under previous owners' disk
        directories.
        """
        return sum(c.invalidate(key_or_digest) for c in self.caches)

    def clear(self, *, purge_disk: bool = False) -> None:
        """Empty every shard's memory tier (and disk with ``purge_disk``)."""
        for c in self.caches:
            c.clear(purge_disk=purge_disk)

    def stats_dict(self) -> dict:
        """Aggregate counters plus the per-shard breakdown."""
        per_shard = [c.stats_dict() for c in self.caches]
        total: Dict[str, int] = {}
        for snap in per_shard:
            for k, v in snap.items():
                total[k] = total.get(k, 0) + int(v)
        total["n_shards"] = self.n_shards
        total["shards"] = per_shard
        return total

    def __len__(self) -> int:
        return sum(len(c) for c in self.caches)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self.caches[self.shard_index(key)]


class ShardedService:
    """N independent :class:`Shard` units behind a consistent-hash router.

    ::

        with ShardedService(shards=4) as svc:
            res = svc.reorder(mat)                 # routed by content hash
            futs = [svc.submit(m) for m in mats]   # fan-out across shards

    The router admits the method and hashes the cache key exactly once
    per request, routes on the digest, and delegates to the owning
    shard's unchanged machinery — so results are byte-identical to
    :class:`~repro.service.core.ReorderService` (``shards=1`` *is* that
    service plus a one-entry ring).  Shards share nothing on the hot
    path; the only cross-shard traffic is the read-only disk-tier
    fallback probe after a resharding.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        shards: int = 2,
        cache: Optional[ShardedCache] = None,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config if config is not None else ServiceConfig()
        if cache is None:
            cache = ShardedCache(
                self.config.disk_dir,
                shards,
                capacity=self.config.cache_capacity,
                replicas=replicas,
            )
        elif cache.n_shards != shards:
            raise ValueError(
                f"cache has {cache.n_shards} shards, service wants {shards}"
            )
        self.cache = cache
        self.ring = cache.ring
        self.shards: List[Shard] = [
            Shard(self.config, cache=cache.caches[i], shard_id=i)
            for i in range(shards)
        ]
        self._closed = False
        self._counter_lock = threading.Lock()
        # router-level counters (admission happens before routing, so
        # these cannot live on any one shard)
        self.counters = {"fallbacks": 0, "timeouts": 0}

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, key_or_digest: Union[CacheKey, str]) -> int:
        """The shard index a key lands on (stable content-hash routing)."""
        return self.cache.shard_index(key_or_digest)

    def _admit(self, algorithm: str, method: str) -> str:
        def _degraded(requested: str) -> None:
            with self._counter_lock:
                self.counters["fallbacks"] += 1
            tel = telemetry.get()
            if tel.enabled:
                tel.counter("service.fallbacks").add(1)
            record_fallback(requested, prefix="service")

        return admit_method(
            algorithm, method,
            fallback=self.config.fallback, on_fallback=_degraded,
        )

    # ------------------------------------------------------------------
    # submission (the ReorderService surface, routed)
    # ------------------------------------------------------------------
    def submit(
        self,
        mat: CSRMatrix,
        *,
        algorithm: str = "rcm",
        method: str = "auto",
        start: Union[int, str] = "min-valence",
        n_workers: int = 4,
        symmetrize: bool = False,
    ) -> "Future[ReorderResult]":
        """Admit, hash once, route, delegate to the owning shard."""
        if self._closed:
            raise ServiceError("service is closed")
        mat = as_csr(mat)
        method = self._admit(algorithm, method)
        key = cache_key(
            mat, algorithm=algorithm, method=method, start=start,
            symmetrize=symmetrize,
        )
        shard = self.shards[self.ring.route(key.digest)]
        return shard.submit(
            mat, algorithm=algorithm, method=method, start=start,
            n_workers=n_workers, symmetrize=symmetrize, _key=key,
        )

    def reorder(
        self, mat: CSRMatrix, *, timeout=_UNSET, **options
    ) -> ReorderResult:
        """Blocking convenience: :meth:`submit` + wait (same semantics as
        :meth:`ReorderService.reorder <repro.service.core.Shard.reorder>`)."""
        fut = self.submit(mat, **options)
        if timeout is _UNSET:
            timeout = self.config.request_timeout
        try:
            return fut.result(timeout)
        except FuturesTimeoutError:
            self._count_timeout()
            raise ServiceTimeoutError(
                f"request did not complete within {timeout}s"
            ) from None

    def reorder_many(
        self, mats: Sequence[CSRMatrix], **options
    ) -> List[ReorderResult]:
        """Submit a batch across shards; gather in input order."""
        futures = [self.submit(m, **options) for m in mats]
        timeout = self.config.request_timeout
        out = []
        for fut in futures:
            try:
                out.append(fut.result(timeout))
            except FuturesTimeoutError:
                self._count_timeout()
                raise ServiceTimeoutError(
                    f"batch request did not complete within {timeout}s"
                ) from None
        return out

    def map(
        self, mats: Sequence[CSRMatrix], **options
    ) -> List[ReorderResult]:
        """Alias of :meth:`reorder_many` (mirrors the single service)."""
        return self.reorder_many(mats, **options)

    def invalidate(self, key_or_digest: Union[CacheKey, str]) -> int:
        """Sweep a key out of every shard tier; tiers that dropped it."""
        return self.cache.invalidate(key_or_digest)

    def _count_timeout(self) -> None:
        with self._counter_lock:
            self.counters["timeouts"] += 1
        tel = telemetry.get()
        if tel.enabled:
            tel.counter("service.timeouts").add(1)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Computations queued or running, summed across shards."""
        return sum(s.pending for s in self.shards)

    def queue_depths(self) -> List[int]:
        """Per-shard pending depth, by shard index (the asyncio front
        end's gauge source)."""
        return [s.pending for s in self.shards]

    @property
    def healthy(self) -> bool:
        """Every shard healthy and the router open."""
        return not self._closed and all(s.healthy for s in self.shards)

    def stats(self) -> dict:
        """Aggregate + per-shard snapshot (what ``/statusz`` serves).

        ``service.*`` counters are summed across shards (plus the
        router-level admission fallbacks and timeout observations);
        ``shards`` nests each shard's own :meth:`Shard.stats` with its
        ``healthy`` flag.
        """
        shard_stats = [s.stats() for s in self.shards]
        agg: Dict[str, int] = {}
        for snap in shard_stats:
            for k, v in snap.items():
                if k.startswith("service."):
                    agg[k] = agg.get(k, 0) + int(v)
        with self._counter_lock:
            agg["service.fallbacks"] = (
                agg.get("service.fallbacks", 0) + self.counters["fallbacks"]
            )
            agg["service.timeouts"] = (
                agg.get("service.timeouts", 0) + self.counters["timeouts"]
            )
        out = {
            "n_shards": self.n_shards,
            "healthy_shards": sum(1 for s in shard_stats if s["healthy"]),
            "pending": sum(s["pending"] for s in shard_stats),
            "max_pending": self.config.max_pending * self.n_shards,
            "n_workers": self.config.n_workers * self.n_shards,
            **agg,
            "cache": self.cache.stats_dict(),
            "shards": shard_stats,
        }
        from repro.telemetry import profiler as _profiler

        prof = _profiler.get_profiler()
        if prof is not None:
            by_shard = prof.samples_by_shard()
            out["profiler"] = {
                "samples": prof.sample_count,
                "overhead_pct": round(prof.overhead_pct, 4),
                "by_shard": {
                    int(s.shard_id): by_shard.get(int(s.shard_id), 0)
                    for s in self.shards
                },
            }
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests; shut every shard down."""
        self._closed = True
        for s in self.shards:
            s.close(wait=wait)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
