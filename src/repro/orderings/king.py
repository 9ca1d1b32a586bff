"""King's ordering — the wavefront-greedy member of the CM family.

I. P. King (1970); implemented alongside GPS in Lewis's TOMS 582 ("Gibbs-
King", the paper's reference [23]).  Where Cuthill-McKee numbers a parent's
children by *valence*, King numbers next whichever eligible node adds the
fewest **new** nodes to the wavefront — a locally optimal front-growth rule
that often beats RCM on profile at slightly higher cost.

Eligible nodes are those adjacent to the numbered set (within the current
component); ties break by valence, then node id (deterministic).  Like RCM
the result is reversed.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import components_by_min_node

__all__ = ["king", "king_component"]


def king_component(mat: CSRMatrix, start: int) -> np.ndarray:
    """King ordering of the component containing ``start`` (start first)."""
    n = mat.n
    indptr, indices = mat.indptr, mat.indices
    valence = np.diff(indptr)
    numbered = np.zeros(n, dtype=bool)
    eligible = np.zeros(n, dtype=bool)

    # growth(i) = neighbours not yet numbered and not yet eligible
    # (numbering i drags exactly those into the wavefront)
    def growth(i: int) -> int:
        nbrs = indices[indptr[i] : indptr[i + 1]]
        return int(np.count_nonzero(~numbered[nbrs] & ~eligible[nbrs]))

    heap: List = []

    def push(i: int) -> None:
        heapq.heappush(heap, (growth(i), int(valence[i]), i))

    def make_eligible(j: int) -> None:
        """Add ``j`` to the candidate front and propagate the growth drop:
        every eligible neighbour of ``j`` now drags one node fewer into the
        wavefront, so it needs a fresh (decreased-key) heap entry."""
        eligible[j] = True
        push(j)
        for k in indices[indptr[j] : indptr[j + 1]]:
            kk = int(k)
            if eligible[kk] and not numbered[kk]:
                push(kk)

    order = np.empty(n, dtype=np.int64)
    order[0] = start
    numbered[start] = True
    count = 1
    for j in indices[indptr[start] : indptr[start + 1]]:
        if not eligible[j]:
            make_eligible(int(j))

    while heap:
        g, v, i = heapq.heappop(heap)
        if numbered[i]:
            continue
        if g != growth(i):
            continue  # stale entry; a fresher (lower-key) one exists
        numbered[i] = True
        order[count] = i
        count += 1
        for j in indices[indptr[i] : indptr[i + 1]]:
            jj = int(j)
            if not numbered[jj] and not eligible[jj]:
                make_eligible(jj)
    return order[:count]


def king(mat: CSRMatrix) -> np.ndarray:
    """Reverse King ordering of the whole matrix (component by component;
    start = minimum-valence member, the classical choice)."""
    valence = np.diff(mat.indptr)
    parts: List[np.ndarray] = []
    for members in components_by_min_node(mat):
        start = int(members[np.argmin(valence[members])])
        parts.append(king_component(mat, start)[::-1])
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
