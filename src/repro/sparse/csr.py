"""Compressed Sparse Row matrix structure.

The RCM algorithms in :mod:`repro.core` only need the *pattern* of a square
matrix interpreted as an undirected graph: ``indptr`` (row offsets) and
``indices`` (column indices / adjacency lists).  Values are carried along so
that examples can permute real systems, but every algorithm here is purely
structural.

All arrays are NumPy arrays.  ``indices`` within a row are kept sorted
ascending — serial RCM's tie-breaking (stable sort on valence) then becomes a
deterministic function of the matrix, which is what makes "parallel output ==
serial output" a testable exact invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["CSRMatrix", "coo_to_csr"]

ArrayLike = Union[Sequence[int], np.ndarray]


def _as_index_array(arr: ArrayLike, name: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    if out.size == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.issubdtype(out.dtype, np.integer):
        raise TypeError(f"{name} must have an integer dtype, got {out.dtype}")
    return out.astype(np.int64, copy=False)


def coo_to_csr(
    n: int,
    rows: ArrayLike,
    cols: ArrayLike,
    data: Optional[ArrayLike] = None,
    *,
    sum_duplicates: bool = True,
) -> "CSRMatrix":
    """Build a :class:`CSRMatrix` from coordinate (triplet) form.

    Duplicate entries are merged (values summed when present).  Rows and
    column indices must lie in ``[0, n)``.
    """
    rows = _as_index_array(rows, "rows")
    cols = _as_index_array(cols, "cols")
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same length")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("column index out of range")

    values = None
    if data is not None:
        values = np.asarray(data, dtype=np.float64)
        if values.shape != rows.shape:
            raise ValueError("data must have the same length as rows/cols")

    # Lexicographic sort by (row, col); then collapse duplicates.
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    if values is not None:
        values = values[order]

    if sum_duplicates and rows.size:
        keep = np.empty(rows.size, dtype=bool)
        keep[0] = True
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if values is not None and not keep.all():
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group, values)
            values = summed
        rows = rows[keep]
        cols = cols[keep]
        if values is not None and values.size != rows.size:
            values = values[: rows.size]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(indptr=indptr, indices=cols.copy(), data=values, n=n)


@dataclass
class CSRMatrix:
    """A square sparse matrix in CSR format.

    Parameters
    ----------
    indptr:
        ``(n + 1,)`` row offsets, ``indptr[0] == 0``,
        ``indptr[-1] == nnz``.
    indices:
        ``(nnz,)`` column indices; within each row sorted ascending.
    data:
        optional ``(nnz,)`` values (float64); ``None`` means pattern-only.
    n:
        number of rows == number of columns (set automatically when omitted).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: Optional[np.ndarray] = None
    n: int = field(default=-1)

    def __post_init__(self) -> None:
        self.indptr = _as_index_array(self.indptr, "indptr")
        self.indices = _as_index_array(self.indices, "indices")
        if self.n < 0:
            self.n = int(self.indptr.size - 1)
        fault = self.array_fault()
        if fault is not None:
            raise ValueError(fault)
        if self.data is not None:
            self.data = np.asarray(self.data, dtype=np.float64)
            if self.data.size != self.indices.size:
                raise ValueError("data must have nnz entries")

    def array_fault(self) -> Optional[str]:
        """What the constructor would reject in the arrays as they are now
        (they can be written after construction), or ``None``."""
        indptr, indices, n = self.indptr, self.indices, self.n
        for name, arr in (("indptr", indptr), ("indices", indices)):
            if not isinstance(arr, np.ndarray) or arr.ndim != 1:
                return f"{name} must be one-dimensional"
            if not np.issubdtype(arr.dtype, np.integer):
                return f"{name} must have an integer dtype, got {arr.dtype}"
        if n < 0 or indptr.size != n + 1:
            return f"indptr has length {indptr.size}, expected n+1={n + 1}"
        if indptr[0] != 0:
            return "indptr[0] must be 0"
        if int(indptr[-1]) != indices.size:
            return "indptr[-1] must equal len(indices)"
        if np.any(indptr[1:] < indptr[:-1]):
            return "indptr must be non-decreasing"
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            return "column index out of range"
        return None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (a view, do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_values(self, i: int) -> Optional[np.ndarray]:
        """Values of row ``i`` (``None`` for pattern-only matrices)."""
        if self.data is None:
            return None
        return self.data[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Number of stored entries per row (the node *valence* incl. any
        self loop entry)."""
        return np.diff(self.indptr)

    def valences(self) -> np.ndarray:
        """Paper's valence: ``r[n+1] - r[n]``, i.e. row entry count.

        Alias of :meth:`degrees`; kept under the paper's terminology so the
        algorithm code reads like the pseudo code.
        """
        return self.degrees()

    def copy(self) -> "CSRMatrix":
        """Deep copy (arrays owned by the new instance)."""
        return CSRMatrix(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            data=None if self.data is None else self.data.copy(),
            n=self.n,
        )

    # ------------------------------------------------------------------
    # canonicalization
    # ------------------------------------------------------------------
    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with indices within each row sorted ascending.

        One global stable lexsort on (row id, column) reorders every row
        segment at once — no per-row Python loop.
        """
        row_of = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        order = np.lexsort((self.indices, row_of))
        indices = self.indices[order]
        data = None if self.data is None else self.data[order]
        return CSRMatrix(indptr=self.indptr.copy(), indices=indices, data=data, n=self.n)

    def has_sorted_indices(self) -> bool:
        """True when every row's indices are strictly ascending."""
        if self.nnz == 0:
            return True
        row_of = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        same_row = row_of[1:] == row_of[:-1]
        return bool(np.all(self.indices[1:][same_row] > self.indices[:-1][same_row]))

    def strip_diagonal(self) -> "CSRMatrix":
        """Return a copy with diagonal entries removed.

        RCM treats the matrix as a graph; self loops never affect the BFS but
        *do* affect the stored valence, so benchmarks strip them to match the
        conventional "degree" notion when requested.
        """
        row_of = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = self.indices != row_of
        indices = self.indices[keep]
        data = None if self.data is None else self.data[keep]
        counts = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(counts, row_of[keep] + 1, 1)
        indptr = np.cumsum(counts)
        return CSRMatrix(indptr=indptr, indices=indices, data=data, n=self.n)

    def symmetrize(self) -> "CSRMatrix":
        """Return the pattern-symmetric closure ``A | A^T``.

        Values, when present, become ``(A + A^T) / 2`` on entries present in
        both and the one-sided value otherwise — adequate for the structural
        experiments in this repository.
        """
        t = self.transpose()
        n = self.n
        rows_a = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        rows_b = np.repeat(np.arange(n, dtype=np.int64), np.diff(t.indptr))
        rows = np.concatenate([rows_a, rows_b])
        cols = np.concatenate([self.indices, t.indices])
        if self.data is not None:
            data = np.concatenate([self.data * 0.5, t.data * 0.5])
            merged = coo_to_csr(n, rows, cols, data)
            # one-sided entries got halved; fix by comparing with max-merge
            ones = coo_to_csr(
                n, rows, cols, np.ones(rows.size, dtype=np.float64)
            )
            scale = np.where(ones.data > 1.5, 1.0, 2.0)
            merged.data *= scale
            return merged
        return coo_to_csr(n, rows, cols)

    def transpose(self) -> "CSRMatrix":
        """Return ``A^T`` (CSC of A reinterpreted as CSR)."""
        n = self.n
        counts = np.zeros(n + 1, dtype=np.int64)
        np.add.at(counts, self.indices + 1, 1)
        indptr = np.cumsum(counts)
        order = np.argsort(self.indices, kind="stable")
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        indices = row_of[order]
        data = None if self.data is None else self.data[order]
        return CSRMatrix(indptr=indptr, indices=indices, data=data, n=n)

    # ------------------------------------------------------------------
    # permutation
    # ------------------------------------------------------------------
    def permute_symmetric(self, perm: np.ndarray) -> "CSRMatrix":
        """Return ``P A P^T`` where ``perm[k]`` is the *old* index placed at
        new position ``k`` (scipy convention for ``reverse_cuthill_mckee``).

        The inverse mapping ``inv[old] = new`` relabels every row and column.
        """
        perm = _as_index_array(perm, "perm")
        if perm.size != self.n:
            raise ValueError("permutation length must equal n")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n, dtype=np.int64)

        new_rows = inv[
            np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        ]
        new_cols = inv[self.indices]
        return coo_to_csr(self.n, new_rows, new_cols, self.data, sum_duplicates=False)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (ones for pattern-only)."""
        import scipy.sparse as sp

        data = self.data
        if data is None:
            data = np.ones(self.nnz, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy sparse matrix (converted to CSR)."""
        csr = mat.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("matrix must be square")
        if not csr.has_sorted_indices:
            csr = csr.sorted_indices()  # a copy: the caller's input stays
        return cls(
            indptr=np.asarray(csr.indptr, dtype=np.int64),
            indices=np.asarray(csr.indices, dtype=np.int64),
            data=np.asarray(csr.data, dtype=np.float64),
            n=csr.shape[0],
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense matrix must be square 2-D")
        rows, cols = np.nonzero(dense)
        return coo_to_csr(dense.shape[0], rows, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (ones for pattern-only entries)."""
        out = np.zeros(self.shape, dtype=np.float64)
        row_of = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        vals = self.data if self.data is not None else np.ones(self.nnz)
        out[row_of, self.indices] = vals
        return out

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int]], *, symmetric: bool = True
    ) -> "CSRMatrix":
        """Build a pattern matrix from an edge list (adds both directions
        when ``symmetric``; self loops are kept as given)."""
        edge_arr = np.asarray(list(edges), dtype=np.int64)
        if edge_arr.size == 0:
            return cls(
                indptr=np.zeros(n + 1, dtype=np.int64),
                indices=np.zeros(0, dtype=np.int64),
                n=n,
            )
        rows = edge_arr[:, 0]
        cols = edge_arr[:, 1]
        if symmetric:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        return coo_to_csr(n, rows, cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "pattern" if self.data is None else "valued"
        return f"CSRMatrix(n={self.n}, nnz={self.nnz}, {kind})"
