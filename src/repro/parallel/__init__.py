"""Process-parallel execution: per-component RCM and multi-matrix batches.

Every RCM variant in :mod:`repro.core` is bounded by one interpreter; this
subsystem sidesteps the GIL with a :class:`concurrent.futures`
process pool.  Two work shapes are covered:

* **per-component partitioning** — independent connected components of one
  matrix are ordered concurrently (:func:`rcm_components`), largest first so
  the pool drains evenly;
* **chunked multi-matrix throughput** — many matrices are reordered as
  chunks of whole pipelines (:func:`map_matrices`), the batch path behind
  :func:`repro.reorder_many` and the service's batched admission.

Matrix payloads travel through the zero-copy shared-memory transport
(:mod:`repro.parallel.shm`): published once into
``multiprocessing.shared_memory`` segments, attached by workers as
read-only views, permutations written in place into a shared result arena
— no CSR bytes cross the pipe.  The fork pool is persistent and warmed
once per lifetime (``parallel.pool.reused`` counts reuse).  Every entry
point degrades gracefully to in-process execution when ``fork`` or shared
memory is unavailable, the pool fails, or the input is too small to
amortize dispatch.  Results are **bit-identical** to the serial path in
all cases.
"""

from repro.parallel import shm
from repro.parallel.executor import (
    ParallelConfig,
    fork_available,
    map_matrices,
    rcm_components,
    record_fallback,
    reset_pools,
    resolve_workers,
)

__all__ = [
    "ParallelConfig",
    "fork_available",
    "map_matrices",
    "rcm_components",
    "record_fallback",
    "reset_pools",
    "resolve_workers",
    "shm",
]
