"""Reordering-as-a-service: caching, coalescing, bounded admission.

The layer that turns :func:`repro.reorder` into something that can absorb
traffic: a content-hash permutation cache (one reordering amortized over
many downstream uses — the paper's whole premise), request coalescing so
identical concurrent requests share one computation, and a bounded queue
with backpressure and a graceful method-degradation chain.

::

    from repro.service import ReorderService

    with ReorderService() as svc:
        first = svc.reorder(mat)     # computes and caches
        again = svc.reorder(mat)     # served from the cache, bit-identical

:class:`ReorderService` is the one serving unit; the parallelism lives
inside each reordering, not across service copies.
:class:`AsyncReorderService` puts an awaitable front door on it.  The
in-process sharding layer is retired: reading one of its names raises
:class:`repro.errors.RemovedAPIError` naming the replacement (see
:data:`REMOVED`).

See ``docs/service.md`` for cache semantics, coalescing guarantees and the
telemetry taxonomy.
"""

from repro.errors import RemovedAPIError
from repro.service.keys import CacheKey, cache_key, pattern_digest
from repro.service.cache import CacheStats, PermutationCache
from repro.service.core import (
    ReorderService,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    fallback_chain,
)
from repro.service.aio import AsyncReorderService

__all__ = [
    "CacheKey",
    "cache_key",
    "pattern_digest",
    "CacheStats",
    "PermutationCache",
    "ReorderService",
    "AsyncReorderService",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "fallback_chain",
]

#: retired names -> the replacement the error message names; read by this
#: module's ``__getattr__`` and by :mod:`repro`'s
REMOVED = {
    "ShardedService": "ReorderService (one service; raise "
                      "ServiceConfig.cache_capacity for a larger working set)",
    "ShardedCache": "PermutationCache (the one cache a ReorderService owns)",
    "HashRing": "ReorderService (no router: one service owns every key)",
    "Shard": "ReorderService (the serving unit it was the base class of)",
}


def __getattr__(name: str):
    if name in REMOVED:
        raise RemovedAPIError(
            f"repro.service.{name} was removed; use "
            f"repro.service.{REMOVED[name]}"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
