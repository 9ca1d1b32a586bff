"""Gibbs-Poole-Stockmeyer (GPS) bandwidth-reducing ordering.

N. Gibbs, W. Poole, P. Stockmeyer, "An algorithm for reducing the bandwidth
and profile of a sparse matrix", SINUM 13(2), 1976 — reference [22] of the
paper.  GPS refines RCM with two ideas:

1. **better endpoints** — an iterated pseudo-diameter search that examines
   every minimum-width candidate on the last level (we use the shrinking
   strategy: candidates sorted by degree, keep the BFS with smallest width);
2. **combined level structure** — merge the rooted level structures from
   both endpoints, assigning free nodes to whichever side keeps level widths
   small, then number level by level in CM fashion.

This implementation follows the textbook structure (Lewis's TOMS 582
description) at "reference quality": clarity over micro-optimization — it
exists as a quality baseline for the ordering comparison benchmark.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import bfs_levels, components_by_min_node

__all__ = ["gibbs_poole_stockmeyer", "gps_component", "gps_endpoints"]


def _level_widths(levels: np.ndarray, members: np.ndarray) -> np.ndarray:
    lv = levels[members]
    return np.bincount(lv[lv >= 0])


def gps_endpoints(mat: CSRMatrix, members: np.ndarray) -> Tuple[int, int]:
    """GPS endpoint search: iterate BFS from last-level candidates, keeping
    the deepest structure; among equal depths prefer the narrowest."""
    valence = np.diff(mat.indptr)
    v = int(members[np.argmin(valence[members])])
    best_depth = -1
    best_width = np.iinfo(np.int64).max
    u = v
    for _ in range(8):
        levels = bfs_levels(mat, v)
        depth = int(levels[members].max())
        if depth <= best_depth:
            break
        best_depth = depth
        last = members[levels[members] == depth]
        # examine low-degree candidates on the last level (shrinking set)
        cands = last[np.argsort(valence[last], kind="stable")][:5]
        best_cand = None
        for c in cands:
            c_levels = bfs_levels(mat, int(c))
            c_depth = int(c_levels[members].max())
            c_width = int(_level_widths(c_levels, members).max())
            if c_depth > best_depth:
                # deeper structure found: restart from it
                best_cand = (int(c), c_width, c_depth)
                break
            if c_width < best_width:
                best_cand = (int(c), c_width, c_depth)
                best_width = c_width
        if best_cand is None:
            u = int(cands[0])
            break
        u = best_cand[0]
        if best_cand[2] <= best_depth and best_cand[2] != -1:
            if best_cand[2] < best_depth or True:
                # converged: deepest structure reached
                break
        v = u
    return v, u


def _combined_levels(
    mat: CSRMatrix, members: np.ndarray, s: int, e: int
) -> np.ndarray:
    """Combined level assignment from the (s, e) endpoint pair.

    A node at distance ``d_s`` from s and ``d_e`` from e with total depth
    ``k`` is *fixed* when ``d_s == k - d_e`` (both structures agree); free
    nodes go to the side whose level widths stay smaller (GPS's balancing
    step, applied per connected block of free nodes in descending size).
    """
    ls = bfs_levels(mat, s)
    le = bfs_levels(mat, e)
    depth = int(ls[members].max())
    combined = np.full(mat.n, -1, dtype=np.int64)

    fixed = members[(ls[members] + le[members]) == depth]
    combined[fixed] = ls[fixed]
    free = members[combined[members] < 0]
    if free.size == 0:
        return combined

    # connected blocks of free nodes, largest first (GPS prescription)
    free_set = np.zeros(mat.n, dtype=bool)
    free_set[free] = True
    blocks: List[np.ndarray] = []
    seen = np.zeros(mat.n, dtype=bool)
    indptr, indices = mat.indptr, mat.indices
    for f in free:
        if seen[f]:
            continue
        stack = [int(f)]
        seen[f] = True
        block = []
        while stack:
            x = stack.pop()
            block.append(x)
            for y in indices[indptr[x] : indptr[x + 1]]:
                if free_set[y] and not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        blocks.append(np.asarray(block, dtype=np.int64))
    blocks.sort(key=len, reverse=True)

    widths = np.bincount(combined[fixed], minlength=depth + 1).astype(np.int64)
    for block in blocks:
        # candidate level assignments for this block from either structure
        via_s = ls[block]
        via_e = depth - le[block]
        w_s = widths.copy()
        np.add.at(w_s, via_s, 1)
        w_e = widths.copy()
        np.add.at(w_e, via_e, 1)
        if int(w_s.max()) <= int(w_e.max()):
            combined[block] = via_s
            widths = w_s
        else:
            combined[block] = via_e
            widths = w_e
    return combined


def gps_component(mat: CSRMatrix, members: np.ndarray) -> np.ndarray:
    """GPS ordering of one component: combined levels + CM-style numbering.

    Within each combined level, nodes adjacent to the previous level are
    numbered first, grouped by parent (in parent numbering order) and sorted
    by valence within each group — the Cuthill-McKee discipline; nodes with
    no numbered neighbour yet (possible because combined levels differ from
    the rooted BFS) follow by ascending valence.
    """
    s, e = gps_endpoints(mat, members)
    combined = _combined_levels(mat, members, s, e)
    valence = np.diff(mat.indptr)
    indptr, indices = mat.indptr, mat.indices

    depth = int(combined[members].max())
    numbered = np.zeros(mat.n, dtype=bool)
    # the start node may not sit on combined level 0 when the block
    # balancing flipped its side; fall back to a minimum-valence level-0 node
    level0 = members[combined[members] == 0]
    first = s if combined[s] == 0 else int(level0[np.argmin(valence[level0])])
    order: List[int] = [first]
    numbered[first] = True
    prev_level: List[int] = [first]
    # remaining level-0 nodes
    rest0 = sorted(
        (int(x) for x in level0 if not numbered[x]),
        key=lambda x: (int(valence[x]), x),
    )
    for x in rest0:
        numbered[x] = True
    order.extend(rest0)
    prev_level.extend(rest0)

    for lvl in range(1, depth + 1):
        current: List[int] = []
        for parent in prev_level:
            children = [
                int(j)
                for j in indices[indptr[parent] : indptr[parent + 1]]
                if not numbered[j] and combined[j] == lvl
            ]
            children.sort(key=lambda x: (int(valence[x]), x))
            for c in children:
                numbered[c] = True
            current.extend(children)
        level_nodes = members[combined[members] == lvl]
        rest = sorted(
            (int(x) for x in level_nodes if not numbered[x]),
            key=lambda x: (int(valence[x]), x),
        )
        for x in rest:
            numbered[x] = True
        current.extend(rest)
        order.extend(current)
        prev_level = current
    return np.asarray(order, dtype=np.int64)


def gibbs_poole_stockmeyer(mat: CSRMatrix) -> np.ndarray:
    """GPS ordering (reversed, RCM-style) of the whole matrix."""
    parts: List[np.ndarray] = []
    for members in components_by_min_node(mat):
        parts.append(gps_component(mat, members)[::-1])
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
