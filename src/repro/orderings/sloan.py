"""Sloan's algorithm for profile and wavefront reduction.

S. Sloan, "An algorithm for profile and wavefront reduction of sparse
matrices", IJNME 23(2), 1986 — reference [21] of the paper.  Sloan numbers
nodes by a priority balancing local wavefront growth against global progress
toward the far end of a pseudo-diameter:

    P(i) = -W1 * incr(i) + W2 * dist(i)

``incr(i)`` is how many nodes numbering ``i`` would add to the wavefront
(its inactive/preactive neighbours, plus itself if not yet in the front) and
``dist(i)`` the BFS distance to the end node.  Nodes progress through the
classical states inactive → preactive → active → postactive.

Implementation: lazy binary heap — every state change re-pushes the affected
nodes; stale entries are detected on pop by recomputing the priority.
Classical weights W1=2, W2=1.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import bfs_levels, components_by_min_node
from repro.core.peripheral import find_pseudo_peripheral

__all__ = ["sloan", "sloan_component", "pseudo_diameter"]

_INACTIVE, _PREACTIVE, _ACTIVE, _POSTACTIVE = 0, 1, 2, 3


def pseudo_diameter(mat: CSRMatrix, members: np.ndarray) -> Tuple[int, int]:
    """A (start, end) pair spanning a pseudo-diameter of one component.

    Start is the pseudo-peripheral node found by the paper's naive search
    seeded at the minimum-valence member; end is a minimum-valence node on
    the start's deepest BFS level.
    """
    valence = np.diff(mat.indptr)
    seed = int(members[np.argmin(valence[members])])
    s = find_pseudo_peripheral(mat, seed).node
    levels = bfs_levels(mat, s)
    depth = int(levels[members].max())
    last = members[levels[members] == depth]
    e = int(last[np.argmin(valence[last])])
    return s, e


def sloan_component(
    mat: CSRMatrix,
    start: int,
    end: int,
    *,
    w1: int = 2,
    w2: int = 1,
) -> np.ndarray:
    """Sloan ordering of the component containing ``start``.

    ``end`` (same component) supplies the distance field.  Returns the
    numbered nodes in order, ``start`` first.
    """
    n = mat.n
    indptr, indices = mat.indptr, mat.indices
    dist = bfs_levels(mat, end)
    if dist[start] < 0:
        raise ValueError("start and end lie in different components")

    state = np.full(n, _INACTIVE, dtype=np.int8)

    def incr(i: int) -> int:
        nbrs = indices[indptr[i] : indptr[i + 1]]
        growth = int(np.count_nonzero(state[nbrs] <= _PREACTIVE))
        if state[i] == _PREACTIVE or state[i] == _INACTIVE:
            growth += 1
        return growth

    def priority(i: int) -> int:
        return -w1 * incr(i) + w2 * int(dist[i])

    heap: List[Tuple[int, int, int]] = []  # (-priority, tiebreak id, node)

    def push(i: int) -> None:
        heapq.heappush(heap, (-priority(i), i, i))

    def touch(i: int) -> None:
        """Re-queue ``i`` and every non-postactive neighbour: their ``incr``
        may have changed with ``i``'s state."""
        if state[i] != _POSTACTIVE:
            push(i)
        for j in indices[indptr[i] : indptr[i + 1]]:
            if state[j] in (_PREACTIVE, _ACTIVE):
                push(int(j))

    state[start] = _PREACTIVE
    push(start)
    order = np.empty(n, dtype=np.int64)
    count = 0

    while heap:
        neg_p, _, i = heapq.heappop(heap)
        if state[i] == _POSTACTIVE or state[i] == _INACTIVE:
            continue
        if -neg_p != priority(i):
            continue  # stale entry; a fresher one is in the heap
        # numbering i: its inactive neighbours enter the front (preactive)
        for j in indices[indptr[i] : indptr[i + 1]]:
            if state[j] == _INACTIVE:
                state[j] = _PREACTIVE
                touch(int(j))
        state[i] = _POSTACTIVE
        order[count] = i
        count += 1
        touch(i)
        # neighbours of the numbered node join the wavefront for real
        for j in indices[indptr[i] : indptr[i + 1]]:
            if state[j] == _PREACTIVE:
                state[j] = _ACTIVE
                touch(int(j))
    return order[:count]


def sloan(mat: CSRMatrix, *, w1: int = 2, w2: int = 1) -> np.ndarray:
    """Sloan ordering of the whole matrix, component by component.

    Components are ordered by smallest member (the library convention);
    within each, a pseudo-diameter picks the start/end pair.
    """
    parts: List[np.ndarray] = []
    for members in components_by_min_node(mat):
        s, e = pseudo_diameter(mat, members)
        parts.append(sloan_component(mat, s, e, w1=w1, w2=w2))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
