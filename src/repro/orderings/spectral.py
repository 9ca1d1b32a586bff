"""Spectral envelope-reducing ordering (Fiedler vector).

Barnard, Pothen, Simon, "A spectral algorithm for envelope reduction of
sparse matrices", NLAA 2(4), 1995 — reference [25] of the paper.  Nodes are
sorted by their component of the Fiedler vector (the eigenvector of the
graph Laplacian's second-smallest eigenvalue); for mesh-like graphs this
produces smooth, low-envelope orderings, at the cost of an eigensolve.

Computed per component with ``scipy.sparse.linalg.eigsh`` (shift-invert on
tiny components falls back to a dense solve).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import components_by_min_node

__all__ = ["spectral_ordering", "fiedler_vector"]


def fiedler_vector(mat: CSRMatrix, members: np.ndarray, *, seed: int = 0) -> np.ndarray:
    """Fiedler vector of one component's Laplacian (values per member)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = members.size
    if m == 1:
        return np.zeros(1)
    local = {int(g): k for k, g in enumerate(members)}
    rows: List[int] = []
    cols: List[int] = []
    for g in members:
        for j in mat.row(int(g)):
            jj = int(j)
            if jj in local and jj != int(g):
                rows.append(local[int(g)])
                cols.append(local[jj])
    a = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(m, m)
    )
    deg = np.asarray(a.sum(axis=1)).ravel()
    lap = sp.diags(deg) - a

    if m <= 64:
        w, v = np.linalg.eigh(lap.toarray())
        return v[:, 1]
    rng = np.random.default_rng(seed)
    v0 = rng.random(m)
    w, v = spla.eigsh(lap.tocsc(), k=2, sigma=-1e-4, which="LM", v0=v0)
    order = np.argsort(w)
    return v[:, order[1]]


def spectral_ordering(mat: CSRMatrix, *, seed: int = 0) -> np.ndarray:
    """Spectral ordering of the whole matrix, component by component.

    Within a component, nodes sort by Fiedler value (ties by node id, and
    the sign is fixed so the minimum-valence endpoint comes first — making
    the ordering deterministic).
    """
    parts: List[np.ndarray] = []
    valence = np.diff(mat.indptr)
    for members in components_by_min_node(mat):
        f = fiedler_vector(mat, members, seed=seed)
        # deterministic sign: lower-valence end first
        asc = members[np.lexsort((members, f))]
        desc = members[np.lexsort((members, -f))]
        pick = asc if valence[asc[0]] <= valence[desc[0]] else desc
        parts.append(pick)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
