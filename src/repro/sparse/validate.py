"""Structural validation of CSR matrices and permutations.

RCM requires a structurally symmetric pattern (undirected graph).  Every
check runs on one kernel, :func:`_single_pass`: the array invariants first
(the arrays of a :class:`CSRMatrix` can be written after construction),
then strictly ascending rows, which rule out duplicates without a sort,
then symmetry against scipy's counting-sort transpose.  The checks that
name the exact fault run only once the kernel has failed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "validate_csr",
    "is_structurally_symmetric",
    "assert_permutation",
    "has_duplicates",
    "check_arrays",
    "check_batch",
]


def check_arrays(mat: CSRMatrix) -> None:
    """Raise :class:`ValidationError` unless the CSR arrays are sound
    (see :meth:`CSRMatrix.array_fault`)."""
    fault = mat.array_fault()
    if fault is not None:
        raise ValidationError(fault)


def _pattern_view(mat: CSRMatrix):
    """The pattern of a matrix with sound arrays as a scipy CSR matrix."""
    import scipy.sparse as sp  # deferred: importing repro stays light

    return sp.csr_matrix(
        (np.ones(mat.nnz, dtype=np.bool_), mat.indices, mat.indptr),
        shape=mat.shape,
    )


def _equals_transpose(view) -> bool:
    """True when a row-sorted pattern equals its transpose, which the
    counting sort returns row-sorted, so the arrays compare directly."""
    t = view.T.tocsr()
    return (
        np.array_equal(t.indptr, view.indptr)
        and np.array_equal(t.indices, view.indices)
    )


def _single_pass(mat: CSRMatrix, *, symmetric: bool = True) -> bool:
    """The validity kernel: sound arrays, strictly ascending rows and, when
    asked, a symmetric pattern."""
    if mat.array_fault() is not None:
        return False
    view = _pattern_view(mat)
    return view.has_canonical_format and (
        not symmetric or _equals_transpose(view)
    )


def _sorted_bandwidth(mat: CSRMatrix) -> int:
    """``max |i - j|`` of a row-sorted symmetric pattern: each entry above
    the diagonal mirrors one below, so the widest gap between a row and
    its first column is the bandwidth."""
    rows = np.flatnonzero(np.diff(mat.indptr))
    if rows.size == 0:
        return 0
    return int(np.max(rows - mat.indices[mat.indptr[rows]]))


def has_duplicates(mat: CSRMatrix) -> bool:
    """True when any row stores the same column more than once."""
    return not _pattern_view(mat.sort_indices()).has_canonical_format


def is_structurally_symmetric(mat: CSRMatrix) -> bool:
    """True when the pattern equals its transpose (unsound arrays raise
    :class:`ValidationError`)."""
    check_arrays(mat)
    view = _pattern_view(mat)
    if not view.has_canonical_format:
        view = _pattern_view(mat.sort_indices())
    return _equals_transpose(view)


def check_batch(mats) -> Optional[np.ndarray]:
    """The validity kernel over a batch of patterns, one at a time: the
    per-matrix initial bandwidths, or ``None`` when any matrix fails (the
    caller reruns the precise checks to raise the exact error)."""
    bws = np.zeros(len(mats), dtype=np.int64)
    for i, m in enumerate(mats):
        if not _single_pass(m):
            return None
        bws[i] = _sorted_bandwidth(m)
    return bws


def validate_csr(
    mat: CSRMatrix,
    *,
    require_symmetric: bool = False,
    require_sorted: bool = True,
) -> None:
    """Raise :class:`ValidationError` (a ``ValueError``) when the matrix
    violates structural requirements: unsound arrays, duplicates, and —
    when required — unsorted rows or an asymmetric pattern."""
    if _single_pass(mat, symmetric=require_symmetric):
        return
    check_arrays(mat)
    if has_duplicates(mat):
        raise ValidationError(
            "CSR contains duplicate entries; rebuild via coo_to_csr"
        )
    if require_sorted and not mat.has_sorted_indices():
        raise ValidationError(
            "CSR indices must be sorted within each row; call sort_indices()"
        )
    if require_symmetric and not is_structurally_symmetric(mat):
        raise ValidationError(
            "matrix pattern is not symmetric; call symmetrize() before RCM"
        )


def assert_permutation(perm: np.ndarray, n: Optional[int] = None) -> None:
    """Raise ``AssertionError`` unless ``perm`` is a bijection on [0, n)."""
    perm = np.asarray(perm)
    if n is None:
        n = perm.size
    assert perm.size == n, f"permutation length {perm.size} != {n}"
    seen = np.zeros(n, dtype=bool)
    assert perm.min() >= 0 and perm.max() < n, "permutation value out of range"
    seen[perm] = True
    assert seen.all(), "permutation is not a bijection"
