"""Zero-copy shared-memory CSR transport for the process pool.

Shipping every CSR payload (``indptr`` + ``indices``) into workers and
every permutation back out through ``ForkingPickler`` costs a full
serialize/copy/deserialize round trip per dispatch that grows linearly
with ``nnz``.  This module replaces both directions with POSIX shared
memory (:mod:`multiprocessing.shared_memory`):

* :meth:`ShmBatch.publish_many` writes the patterns of a batch **once**
  into one shared segment (``[indptr | indices]`` per matrix,
  little-endian int64) and returns one tiny picklable :class:`CSRHandle`
  per matrix (segment name + shape + offset) — the only thing that
  crosses the pipe;
* workers attach read-only NumPy views over the same physical pages
  (:func:`attach_csr`, memoized per worker via a small LRU) — no copy, no
  deserialization;
* permutation outputs are written **in place** into a preallocated shared
  :class:`ResultArena` (:meth:`ShmBatch.result_arena`), one int64 slot per
  node, so results come home without pickling either.

Lifecycle is guaranteed-unlink: every segment a :class:`ShmBatch` creates
is unlinked when the batch context exits — success, worker crash or
timeout alike — and a module ``atexit`` hook sweeps anything that somehow
survived, bumping the ``parallel.shm.leaked`` counter per swept segment so
leaks are observable, not silent.  Counters ``parallel.shm.published`` /
``parallel.shm.bytes`` record transport volume.

When :mod:`multiprocessing.shared_memory` is unusable on the platform
(:func:`shm_available` probes once per process), the executor runs every
dispatch in-process instead (``parallel.fallbacks.no-shm``).
"""

from __future__ import annotations

import atexit
import os
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro import telemetry

__all__ = [
    "CSRHandle",
    "ArenaHandle",
    "ResultArena",
    "ShmBatch",
    "shm_available",
    "ensure_tracker",
    "attach_csr",
    "attach_arena",
    "active_segments",
    "sweep_leaked",
]

_ITEM = np.dtype("<i8").itemsize  # every payload is little-endian int64


def _new_segment_name() -> str:
    """A collision-proof segment name carrying our prefix for sweeps."""
    return f"repro_{os.getpid():x}_{secrets.token_hex(6)}"


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def ensure_tracker() -> None:
    """Start the multiprocessing resource tracker in *this* process.

    Must run in the parent before the fork pool is created, so every
    worker inherits the same tracker — attach-side registrations then
    collapse into the parent's (set semantics) instead of spawning
    per-worker trackers that would try to clean segments they don't own.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker impl detail
        pass


_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """Whether the shared-memory transport is usable on this platform.

    Probed once per process by creating and unlinking a minimal segment.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            seg = _shared_memory().SharedMemory(
                create=True, size=_ITEM, name=_new_segment_name()
            )
            seg.close()
            seg.unlink()
            _AVAILABLE = True
        except (ImportError, OSError, ValueError):
            _AVAILABLE = False
    return _AVAILABLE


@dataclass(frozen=True)
class CSRHandle:
    """Picklable pointer to one published CSR pattern (bytes stay behind).

    ``offset`` is in int64 *elements* from the start of the segment, so a
    whole batch of matrices can share one packed segment
    (:meth:`ShmBatch.publish_many`)."""

    name: str
    n: int
    nnz: int
    offset: int = 0


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable pointer to a shared int64 result arena."""

    name: str
    size: int


# ----------------------------------------------------------------------
# parent side: publishing + guaranteed-unlink registry
# ----------------------------------------------------------------------

#: process-wide registry of segments this process created and has not yet
#: unlinked — the atexit sweep target.  Values are ``(segment, creator
#: pid)``: fork-pool workers inherit this dict at fork time, and the pid
#: guard keeps a worker's interpreter exit from unlinking segments the
#: *parent* still serves to its siblings.
_ACTIVE: Dict[str, Tuple[object, int]] = {}


def active_segments() -> Tuple[str, ...]:
    """Names of segments created by *this* process and not yet unlinked."""
    pid = os.getpid()
    return tuple(n for n, (_, p) in _ACTIVE.items() if p == pid)


def _unlink(name: str) -> None:
    entry = _ACTIVE.pop(name, None)
    if entry is None:
        return
    seg, _ = entry
    try:
        seg.close()
    except BufferError:
        # a NumPy view over seg.buf is still alive (e.g. an arena view the
        # caller kept); the mapping lingers until that view dies, but the
        # name must go away *now* — unlink below regardless.
        pass
    try:
        seg.unlink()
    except OSError:  # pragma: no cover - already gone (double sweep)
        pass


def sweep_leaked() -> int:
    """Unlink every segment this process still owns; returns the count.

    Runs at interpreter exit as the last line of defence.  A non-zero
    return means some dispatch path dropped its :class:`ShmBatch` without
    closing it — counted on ``parallel.shm.leaked`` so the leak shows up
    in metrics instead of as orphaned ``/dev/shm`` files.  Entries created
    by a different pid (inherited across ``fork``) are left alone: their
    creator owns them.
    """
    pid = os.getpid()
    mine = [n for n, (_, p) in _ACTIVE.items() if p == pid]
    for name in mine:
        _unlink(name)
    if mine:
        tel = telemetry.get()
        if tel.enabled:
            tel.counter("parallel.shm.leaked").add(len(mine))
    return len(mine)


atexit.register(sweep_leaked)


class ResultArena:
    """A preallocated shared int64 array that workers fill in place.

    The parent allocates one slot per node of the dispatch; each worker
    writes its permutation block at the offset the task names.  ``view``
    is writable on both sides — the parent copies blocks out after the
    futures resolve, before the segment is unlinked.
    """

    def __init__(self, seg, size: int) -> None:
        self._seg = seg
        self.size = size
        self.view: Optional[np.ndarray] = np.ndarray(
            (size,), dtype="<i8", buffer=seg.buf
        )

    @property
    def handle(self) -> ArenaHandle:
        return ArenaHandle(name=self._seg.name, size=self.size)

    def block(self, offset: int, length: int) -> np.ndarray:
        """An owned copy of one block (safe to keep past unlink)."""
        assert self.view is not None, "arena already released"
        return np.array(self.view[offset:offset + length], dtype=np.int64)

    def release(self) -> None:
        """Drop the parent-side view so the segment can unmap cleanly."""
        self.view = None


class ShmBatch:
    """Context-managed owner of every segment of one dispatch.

    ::

        with ShmBatch() as batch:
            (handle,) = batch.publish_many([mat])
            arena = batch.result_arena(mat.n)
            ... submit tasks carrying (handle, arena.handle, ...) ...
            perm = arena.block(0, mat.n)
        # <- segments are unlinked here, success or raise alike

    Exiting the context unlinks every segment the batch created —
    including the error path out of a broken pool or a timed-out batch —
    which is what makes the transport's lifecycle testable: after the
    ``with`` block, :func:`active_segments` must not contain them.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._arenas: List[ResultArena] = []
        self._published = 0
        self._bytes = 0

    # -- allocation ----------------------------------------------------
    def _create(self, size: int):
        seg = _shared_memory().SharedMemory(
            create=True, size=max(size, _ITEM), name=_new_segment_name()
        )
        _ACTIVE[seg.name] = (seg, os.getpid())
        self._names.append(seg.name)
        self._bytes += size
        return seg

    def publish_many(self, mats: "Sequence[CSRMatrix]") -> List[CSRHandle]:
        """Pack a whole batch of patterns into *one* segment.

        Layout per matrix: ``indptr`` (n+1 int64) immediately followed by
        ``indices`` (nnz int64), at the handle's ``offset``.  One
        allocation + one attach per worker for the entire batch — the
        per-matrix cost of the transport drops to two ``memcpy`` calls.
        """
        if not mats:
            return []
        lengths = [m.n + 1 + m.nnz for m in mats]
        seg = self._create(sum(lengths) * _ITEM)
        buf = np.ndarray((sum(lengths),), dtype="<i8", buffer=seg.buf)
        handles: List[CSRHandle] = []
        at = 0
        for mat, length in zip(mats, lengths):
            buf[at:at + mat.n + 1] = mat.indptr
            buf[at + mat.n + 1:at + length] = mat.indices
            handles.append(
                CSRHandle(name=seg.name, n=mat.n, nnz=mat.nnz, offset=at)
            )
            at += length
        del buf
        self._published += len(mats)
        return handles

    def result_arena(self, size: int) -> ResultArena:
        """Allocate the shared output array (one int64 per node)."""
        arena = ResultArena(self._create(size * _ITEM), size)
        self._arenas.append(arena)
        return arena

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Unlink every segment this batch created (idempotent)."""
        for arena in self._arenas:
            arena.release()
        self._arenas.clear()
        for name in self._names:
            _unlink(name)
        self._names.clear()
        if self._published:
            tel = telemetry.get()
            if tel.enabled:
                tel.counter("parallel.shm.published").add(self._published)
                tel.counter("parallel.shm.bytes").add(self._bytes)
            self._published = 0
            self._bytes = 0

    def __enter__(self) -> "ShmBatch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker side: memoized zero-copy attachment
# ----------------------------------------------------------------------

#: per-worker LRU of attached segments — a pool worker serves many tasks
#: against the same matrix, so the attach (an mmap) happens once, not per
#: task; evicted entries are closed (the parent owns unlinking)
_ATTACH_LRU_CAP = 16
_ATTACHED: "OrderedDict[str, object]" = OrderedDict()


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
        return seg
    # NOTE on the resource tracker: Python < 3.13 registers attach-side
    # handles too.  Fork-pool workers share the parent's tracker process,
    # where re-registering an existing name is a set no-op and the parent's
    # ``unlink()`` unregisters exactly once — so no correction is needed
    # here (an attach-side ``unregister`` would instead *steal* the
    # parent's registration).  :func:`ensure_tracker` keeps the
    # shared-tracker precondition true.
    seg = _shared_memory().SharedMemory(name=name)
    _ATTACHED[name] = seg
    while len(_ATTACHED) > _ATTACH_LRU_CAP:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except (OSError, BufferError):  # pragma: no cover - view alive
            pass
    return seg


def attach_csr(handle: CSRHandle) -> CSRMatrix:
    """A read-only zero-copy :class:`CSRMatrix` view of a published segment.

    The returned arrays alias the shared pages directly; they are marked
    non-writable so a kernel bug cannot corrupt the matrix under every
    other worker's feet.
    """
    seg = _attach(handle.name)
    buf = np.ndarray(
        (handle.n + 1 + handle.nnz,),
        dtype="<i8",
        buffer=seg.buf,
        offset=handle.offset * _ITEM,
    )
    indptr = buf[:handle.n + 1]
    indices = buf[handle.n + 1:]
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return CSRMatrix(
        indptr=indptr, indices=indices, data=None, n=handle.n
    )


def attach_arena(handle: ArenaHandle) -> np.ndarray:
    """The writable shared output array, as seen from a worker."""
    seg = _attach(handle.name)
    return np.ndarray((handle.size,), dtype="<i8", buffer=seg.buf)
