"""The front door: one validator, one input contract, one error surface.

Malformed CSR input — unsorted rows, duplicate entries, asymmetric
patterns, negative or out-of-range indices, non-monotone ``indptr``, a
wrong index dtype and a wrong ``n`` written into the matrix after
construction — and objects that are not CSR
matrices at all must fail through :func:`repro.reorder`,
:func:`repro.reorder_many` and the service with a :class:`ReproError`
carrying the established message, never a stray ``AttributeError`` or
``IndexError``.  scipy sparse input is converted, not rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import backends
from repro.errors import ReproError, ValidationError
from repro.matrices import generators as g
from repro.parallel import ParallelConfig
from repro.service import PermutationCache, ReorderService, pattern_digest
from repro.sparse.bandwidth import bandwidth
from repro.sparse.csr import CSRMatrix, coo_to_csr
from repro.sparse.validate import check_batch, validate_csr

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: the established message of every fault the validate phase names
MESSAGES = {
    "unsorted": "CSR indices must be sorted within each row; call sort_indices()",
    "duplicate": "CSR contains duplicate entries; rebuild via coo_to_csr",
    "asymmetric": (
        "matrix pattern is not symmetric; pass symmetrize=True or call "
        "CSRMatrix.symmetrize() first"
    ),
    "negative": "column index out of range",
    "out-of-range": "column index out of range",
    "indptr": "indptr must be non-decreasing",
    "dtype": "indices must have an integer dtype, got float64",
    "n": None,  # names the lengths; see _message
}
#: faults that live in the arrays themselves: symmetrize cannot mend them
ARRAY_FAULTS = ("negative", "out-of-range", "indptr", "dtype", "n")


def _message(fault, mat) -> str:
    if fault == "n":
        return f"indptr has length {mat.indptr.size}, expected n+1={mat.n + 1}"
    return MESSAGES[fault]


def _symmetric(n, edges) -> CSRMatrix:
    rows = [a for a, b in edges] + [b for a, b in edges]
    cols = [b for a, b in edges] + [a for a, b in edges]
    return coo_to_csr(n, np.asarray(rows, np.int64), np.asarray(cols, np.int64))


@st.composite
def symmetric_patterns(draw, max_n=24):
    n = draw(st.integers(min_value=3, max_value=max_n))
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda t: t[0] != t[1])
    # the path 0-1-2 gives node 1 two neighbours: a row to disorder
    edges = draw(st.sets(pair, max_size=3 * n)) | {(0, 1), (1, 2)}
    return _symmetric(n, sorted(edges))


@st.composite
def malformed(draw):
    """(fault, matrix) with one fault written into a sound matrix."""
    fault = draw(st.sampled_from(sorted(MESSAGES)))
    mat = draw(symmetric_patterns())
    deg = np.diff(mat.indptr)
    multi = np.flatnonzero(deg >= 2)
    if fault == "unsorted":
        r = int(draw(st.sampled_from(list(multi))))
        lo, hi = mat.indptr[r], mat.indptr[r + 1]
        mat.indices[lo:hi] = mat.indices[lo:hi][::-1].copy()
    elif fault == "duplicate":
        r = int(draw(st.sampled_from(list(multi))))
        k = int(mat.indptr[r])
        mat.indices[k + 1] = mat.indices[k]
    elif fault == "asymmetric":
        # drop one direction of one off-diagonal edge
        rows = np.repeat(np.arange(mat.n), deg)
        k = draw(st.integers(0, mat.nnz - 1))
        keep = np.ones(mat.nnz, dtype=bool)
        keep[k] = False
        mat = coo_to_csr(mat.n, rows[keep], mat.indices[keep])
    elif fault == "negative":
        k = draw(st.integers(0, mat.nnz - 1))
        mat.indices[k] = -draw(st.integers(1, 50))
    elif fault == "out-of-range":
        k = draw(st.integers(0, mat.nnz - 1))
        mat.indices[k] = mat.n + draw(st.integers(0, 50))
    elif fault == "indptr":
        i = draw(st.integers(1, mat.n - 1))
        mat.indptr[i] = mat.indptr[-1] + draw(st.integers(1, 5))
    elif fault == "dtype":
        mat.indices = mat.indices.astype(np.float64)
    else:
        mat.n += draw(st.integers(1, 5))
    return fault, mat


NOT_CSR = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=4),
    st.just(np.eye(3)),
    st.just({"indptr": [0], "indices": []}),
)


#: sound matrices that lift a batch over ``MIN_PARALLEL_NODES``, so
#: ``n_workers=2`` sends it through the process pool
POOL_BATCH = [g.grid2d(40, 40), g.grid2d(40, 41)]


def _raises(fault, mat, call):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == _message(fault, mat)


class TestMalformedCsr:
    @given(case=malformed())
    @settings(**SETTINGS)
    def test_reorder(self, case):
        fault, mat = case
        _raises(fault, mat, lambda: repro.reorder(mat))

    @given(case=malformed(), algorithm=st.sampled_from(["rcm", "sloan"]))
    @settings(**SETTINGS)
    def test_reorder_symmetrize(self, case, algorithm):
        fault, mat = case
        if fault in ARRAY_FAULTS:
            _raises(fault, mat, lambda: repro.reorder(
                mat, algorithm=algorithm, symmetrize=True))
        else:
            # symmetrize rebuilds the pattern: sorted, merged, symmetric
            res = repro.reorder(mat, algorithm=algorithm, symmetrize=True)
            assert sorted(res.permutation) == list(range(mat.n))

    @given(case=malformed(), good=symmetric_patterns())
    @settings(**SETTINGS)
    def test_reorder_many(self, case, good):
        fault, mat = case
        _raises(
            fault, mat, lambda: repro.reorder_many([good, mat], n_workers=1)
        )

    @given(case=malformed())
    @settings(**dict(SETTINGS, max_examples=12))
    def test_reorder_many_pool_path(self, case):
        fault, mat = case
        _raises(fault, mat, lambda: repro.reorder_many(
            POOL_BATCH + [mat], method="serial", n_workers=2))

    def test_pool_batch_reaches_the_pool(self, monkeypatch):
        from repro.parallel import executor

        seen = []
        real = executor._dispatch

        def spy(pool, task, args, weights, span, **attrs):
            seen.append((span, attrs["n_matrices"]))
            return real(pool, task, args, weights, span, **attrs)

        monkeypatch.setattr(executor, "_dispatch", spy)
        repro.reorder_many(
            POOL_BATCH + [g.grid2d(3, 3)], method="serial", n_workers=2)
        assert seen == [("parallel.map", len(POOL_BATCH) + 1)]

    @given(case=malformed())
    @settings(**dict(SETTINGS, max_examples=20))
    def test_service(self, case):
        fault, mat = case
        with ReorderService() as svc:
            _raises(fault, mat, lambda: svc.reorder(mat))

    @given(case=malformed())
    @settings(**SETTINGS)
    def test_validate_csr_and_check_batch(self, case):
        fault, mat = case
        assert check_batch([mat]) is None
        if fault != "asymmetric":
            _raises(fault, mat, lambda: validate_csr(mat))

    @pytest.mark.parametrize("method", backends.method_choices())
    def test_every_method(self, method):
        mat = g.grid2d(4, 4)
        mat.indices[3] = -1
        _raises("negative", mat, lambda: repro.reorder(mat, method=method))


class TestInputContract:
    @given(obj=NOT_CSR)
    @settings(**SETTINGS)
    def test_non_csr_rejected_everywhere(self, obj):
        name = type(obj).__qualname__
        for call in (
            lambda: repro.reorder(obj),
            lambda: repro.reorder_many([obj]),
        ):
            with pytest.raises(ValidationError, match=name):
                call()
        with ReorderService() as svc:
            with pytest.raises(ValidationError, match=name):
                svc.reorder(obj)

    @pytest.mark.parametrize("method", ["batch-cpu", "serial"])
    @pytest.mark.parametrize(
        "config", [ParallelConfig(n_workers=2), 5, "batch"],
        ids=["ParallelConfig", "int", "str"],
    )
    def test_config_must_be_a_batch_config(self, config, method):
        mat = g.grid2d(10, 10)
        name = type(config).__qualname__
        for call in (
            lambda: repro.reorder(mat, method=method, config=config),
            lambda: repro.reorder_many([mat], method=method, config=config),
        ):
            with pytest.raises(ValidationError, match=name):
                call()

    def test_reorder_many_needs_an_iterable(self):
        with pytest.raises(ValidationError, match="iterable"):
            repro.reorder_many(None)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_scipy_input_is_converted(self, fmt):
        mat = g.grid2d(6, 5)
        sci = mat.to_scipy().asformat(fmt)
        want = repro.reorder(mat, method="serial").permutation
        assert np.array_equal(repro.reorder(sci, method="serial").permutation, want)
        (res,) = repro.reorder_many([sci], method="serial")
        assert np.array_equal(res.permutation, want)
        with ReorderService() as svc:
            assert np.array_equal(svc.reorder(sci).permutation, want)

    def test_scipy_input_is_not_mutated(self):
        sci = sp.csr_matrix(
            (np.ones(4), np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
            shape=(2, 2),
        )
        repro.reorder(sci)
        assert list(sci.indices) == [1, 0, 1, 0]

    def test_rectangular_scipy_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            repro.reorder(sp.random(3, 4, density=0.5, format="csr"))

    def test_every_failure_is_a_repro_error(self):
        mat = g.grid2d(3, 3)
        mat.indptr[2] = 99
        with pytest.raises(ReproError):
            repro.reorder(mat)


class TestCheckBatch:
    @given(mats=st.lists(symmetric_patterns(), max_size=5))
    @settings(**SETTINGS)
    def test_bandwidths_match(self, mats):
        bws = check_batch(mats)
        assert list(bws) == [bandwidth(m) for m in mats]

    def test_empty_and_edgeless(self):
        assert check_batch([]).size == 0
        empty = CSRMatrix(indptr=[0, 0, 0], indices=[], n=2)
        assert list(check_batch([empty])) == [0]


class TestPatternDigest:
    """The digest is fed in slices; it must equal the one-shot digest so
    disk tiers written before stay valid."""

    def test_pinned_small(self):
        mat = CSRMatrix.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert pattern_digest(mat) == (
            "09d7557e28ee91dd1bb632501cbed86db069bb926c0e716aaf44748b36f35fec"
        )

    def test_pinned_many_slices(self):
        # 27840 bytes of indices: many slices
        assert pattern_digest(g.grid2d(30, 30)) == (
            "d48fedb4eb79752abbf41fbee1eb1cf079d7ab539f904aed16e76a647f9c0781"
        )

    def test_pinned_empty(self):
        assert pattern_digest(CSRMatrix(indptr=[0], indices=[], n=0)) == (
            "0a71dfb3c62c6a7282d940c8f9cd0697405244fdbf400afaced313f8ce4cc09c"
        )


class TestServiceCounting:
    def test_one_miss_per_computed_request(self):
        mats = [g.grid2d(5, 5 + i) for i in range(4)]
        with ReorderService() as svc:
            for m in mats + mats:
                svc.reorder(m)
            assert svc.counters["computed"] == len(mats)
            assert svc.cache.stats.misses == len(mats)
            assert svc.cache.stats.hits == len(mats)

    def test_hit_reports_cache_time(self):
        mat = g.grid2d(6, 6)
        with ReorderService() as svc:
            cold = svc.reorder(mat)
            warm = svc.reorder(mat)
        assert "ordering" in cold.phase_ns
        assert set(warm.phase_ns) == {"cache"}
        assert warm.phase_ns["cache"] > 0

    def test_peek_counts_nothing(self, tmp_path):
        from repro.service import cache_key

        mat = g.grid2d(4, 4)
        key = cache_key(mat)
        cache = PermutationCache(disk_dir=tmp_path)
        assert cache.peek(key) is None
        cache.put(key, repro.reorder(mat))
        cache.clear()
        assert cache.peek(key) is not None  # from disk, promoted
        assert cache.peek(key) is not None  # from memory
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        assert cache.stats.disk_hits == 0
