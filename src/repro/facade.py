"""``repro.reorder()`` — the single public entry point for every ordering.

One facade unifies what used to be two APIs (``core.api.reverse_cuthill_mckee``
for RCM, ``orderings.api.order`` for everything else): every algorithm —
{algorithms} —
goes through the same validated, telemetry-instrumented pipeline and returns
a full :class:`~repro.core.api.ReorderResult` (permutation, bandwidth
before/after, wall-clock phase breakdown).  The RCM execution methods are
{methods}.

All parameters are keyword-only and validated centrally
(:mod:`repro.validation`): unknown ``algorithm``/``method``/``start`` values
raise one uniform ``ValueError`` listing the valid choices.  The choice
lists above are substituted from :data:`ALGORITHMS` and the execution-backend
registry (:mod:`repro.backends`) at import time — each method name is
spelled exactly once, at its ``register()`` call, and
``tests/test_doc_drift.py`` holds this file to it.

For RCM, ``method="auto"`` (the default) asks every auto-candidate backend
to price the pattern through its ``cost_estimate(n, nnz, n_components)``
hook and runs the cheapest — the pure-Python reference on small patterns,
the level-synchronous NumPy kernel once its per-level dispatch overhead
amortizes, the per-component process pool when a huge pattern splits into
enough components to feed it (see
:func:`repro.backends.resolve_auto_method`).  Every RCM method returns the
identical permutation.

Passing ``cache=`` (a :class:`repro.service.PermutationCache` or a
disk-tier directory path) makes the call content-addressed: a pattern +
options seen before is served from the cache without recomputation.
:class:`repro.service.ReorderService` builds coalescing and admission
control on top of the same path.

Batches are first-class: :func:`reorder_many` reorders a whole list of
matrices as **one dispatch** — matrices grouped by resolved backend, shipped
through the zero-copy shared-memory transport to the persistent process
pool (:func:`repro.parallel.map_matrices`), ``method="auto"`` priced with
the batch-aware cost term (``setup_cycles`` amortized over the batch; see
:meth:`repro.backends.Backend.estimate`).  Results are byte-identical to
calling :func:`reorder` per matrix.  Where ``fork`` or shared memory is
unavailable the batch runs in-process, with the same results.

Errors: everything either entry point raises on purpose derives from
:class:`repro.errors.ReproError` — :class:`repro.errors.ValidationError`
(a ``ValueError``) for bad arguments, :class:`repro.errors.BackendUnavailableError`
for unknown methods; the service layer adds
:class:`repro.errors.ServiceOverloadedError` /
:class:`repro.errors.ServiceTimeoutError`.  See :mod:`repro.errors` for
the full hierarchy.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.bandwidth import bandwidth_after
from repro.sparse.validate import check_arrays
from repro import backends
from repro.core.api import METHODS, PHASES, ReorderResult, _reorder_rcm, _validated
from repro.core.batches import BatchConfig
from repro.errors import ValidationError
from repro.validation import as_csr, check_choice, check_min, check_start, choices_text
from repro import telemetry
from repro.telemetry import context as tctx

__all__ = ["reorder", "reorder_many", "ALGORITHMS", "METHODS"]

#: every ordering heuristic the facade dispatches to
ALGORITHMS = ("rcm", "sloan", "gps", "king", "minimum-degree", "spectral")

#: methods valid for algorithms other than ``"rcm"`` (they have exactly one
#: execution strategy, so only the default resolution is accepted)
_DIRECT_METHODS = ("auto", "direct")

# single source of truth: the module docstring enumerates the choice lists
# from ALGORITHMS and the backend registry, never by hand (guarded by
# tests/test_doc_drift)
if __doc__ is not None:  # pragma: no branch - absent only under -OO
    __doc__ = __doc__.format(
        algorithms=choices_text(ALGORITHMS),
        methods=choices_text(backends.names()),
    )


def _resolve_cache(cache):
    """Materialize the ``cache=`` spec into a cache object.

    A cache *object* (anything with ``get``/``put``, typically a
    :class:`PermutationCache`) passes through unchanged; a ``str``/``Path``
    names a disk-tier directory and builds a :class:`PermutationCache`
    over it.
    """
    if cache is None or not isinstance(cache, (str, Path)):
        return cache
    from repro.service.cache import PermutationCache

    return PermutationCache(disk_dir=cache)


def _check_config(config) -> None:
    """``config`` overrides the simulated machine of the ``batch-*``
    methods, so it must be a :class:`BatchConfig` (or ``None``)."""
    if config is not None and not isinstance(config, BatchConfig):
        raise ValidationError(
            "config must be a BatchConfig (the batch-* methods' simulated "
            f"machine) or None; got {type(config).__qualname__}"
        )


def _algorithm_fn(algorithm: str):
    """Resolve a non-RCM ordering heuristic lazily (import cost on use)."""
    if algorithm == "sloan":
        from repro.orderings.sloan import sloan

        return sloan
    if algorithm == "gps":
        from repro.orderings.gps import gibbs_poole_stockmeyer

        return gibbs_poole_stockmeyer
    if algorithm == "king":
        from repro.orderings.king import king

        return king
    if algorithm == "minimum-degree":
        from repro.orderings.mindeg import minimum_degree

        return minimum_degree
    if algorithm == "spectral":
        from repro.orderings.spectral import spectral_ordering

        return spectral_ordering
    raise AssertionError(algorithm)  # pragma: no cover - validated upstream


def reorder(
    mat: CSRMatrix,
    *,
    algorithm: str = "rcm",
    method: str = "auto",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
    cache=None,
) -> ReorderResult:
    """Reorder a symmetric sparse pattern to reduce its bandwidth.

    Parameters
    ----------
    mat:
        square :class:`CSRMatrix` or scipy sparse matrix (converted with
        :meth:`CSRMatrix.from_scipy`); must be structurally symmetric
        unless ``symmetrize`` is set (then ``A | A^T`` is reordered).
        Anything else raises :class:`~repro.errors.ValidationError`.
    algorithm:
        one of :data:`ALGORITHMS`.  ``"rcm"`` runs the paper's pipeline
        (components, start selection, any execution method); the classical
        heuristics (``sloan``, ``gps``, ``king``, ``minimum-degree``,
        ``spectral``) run directly on the whole matrix.
    method:
        RCM execution strategy, one of
        :func:`repro.backends.method_choices`.  ``"auto"`` (default) runs
        the cost-model selector over the registered auto candidates
        (weighing node count, nnz and component count).  All methods
        return the **identical** permutation (the paper's headline
        invariant); they differ in execution strategy and in the
        statistics attached — see the capability table in
        ``docs/api.md``.  For non-RCM algorithms only ``"auto"``/
        ``"direct"`` are accepted.
    start:
        an explicit node id (single-component matrices only), or a strategy:
        ``"min-valence"`` (default — deterministic and cheap) or
        ``"peripheral"`` (the paper's pseudo-peripheral search).  RCM only.
    n_workers:
        worker count for the parallel methods — simulated workers for the
        ``batch-*`` methods, OS threads for ``"threads"``, worker
        *processes* for ``"parallel"``.
    config:
        optional :class:`BatchConfig` override for the ``batch-*``
        methods' simulated machine; anything else raises
        :class:`~repro.errors.ValidationError`.
    seed:
        interleaving jitter seed for the simulated methods (0 = canonical
        deterministic schedule).
    transform:
        optional pre-pass in front of the BFS kernels (RCM only).
        ``"powerlaw"`` applies the Jiang-style hub extraction: hub
        vertices are relabeled to the front and the traversal starts
        from them, keeping the level structure shallow on heavy-tailed
        patterns (the returned permutation still indexes the original
        matrix).  ``"auto"`` applies it exactly when the scenario
        classifier calls the pattern heavy-tailed (see
        :mod:`repro.matrices.scenarios`), and ``None`` (default)
        preserves the classical pipeline — only the untransformed path
        carries the byte-identical-across-methods invariant.
        Incompatible with an explicit integer ``start``.
    cache:
        optional :class:`repro.service.PermutationCache`, or a
        ``str``/``Path`` naming a disk-tier directory.  When given,
        the request is keyed on the content hash of the pattern plus the
        permutation-relevant options; a hit returns the cached result
        (permutation bit-identical to recomputation) with
        ``phase_ns={"cache": <lookup ns>}``, a miss computes and
        populates the cache.

    Returns
    -------
    ReorderResult
        permutation, bandwidth before/after, wall-clock phase timings and
        (for simulated methods) per-component run statistics.
    """
    mat = as_csr(mat)
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    _check_config(config)
    cache = _resolve_cache(cache)

    def compute() -> ReorderResult:
        if algorithm == "rcm":
            return _reorder_rcm(
                mat, method=method, start=start, n_workers=n_workers,
                config=config, symmetrize=symmetrize, seed=seed,
                transform=transform,
            )
        check_choice("method", method, _DIRECT_METHODS)
        check_start(start, max(mat.n, 1))
        if transform is not None:
            raise ValidationError(
                "transform is an RCM-only option; "
                f"algorithm {algorithm!r} does not support it"
            )
        return _reorder_direct(mat, algorithm, symmetrize=symmetrize)

    # every spontaneous call gets a trace identity (service requests
    # arrive with one already active and inherit it unchanged)
    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        if cache is None:
            return compute()

        from repro.service.keys import cache_key

        key = cache_key(
            mat, algorithm=algorithm, method=method, start=start,
            symmetrize=symmetrize, transform=transform,
        )
        t0 = time.perf_counter_ns()
        hit = cache.get(key)
        if hit is not None:
            hit.phase_ns = {"cache": time.perf_counter_ns() - t0}
            return hit
        res = compute()
        cache.put(key, res)
        return res


def reorder_many(
    mats: Sequence[CSRMatrix],
    *,
    algorithm: str = "rcm",
    method: str = "auto",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
    cache=None,
) -> List[ReorderResult]:
    """Reorder a batch of patterns as one amortized dispatch.

    The batch counterpart of :func:`reorder`: same keyword surface, one
    :class:`~repro.core.api.ReorderResult` per input matrix, in order, each
    **byte-identical** to the corresponding single :func:`reorder` call.
    What changes is the execution economics:

    * ``method="auto"`` prices every backend with the batch-aware cost
      term — each backend's one-time ``setup_cycles`` (pool fork/warm-up)
      is amortized over the whole batch
      (:func:`repro.backends.resolve_auto_method` with ``batch=len(mats)``)
      — so a 64-matrix batch can justify the process pool where a
      singleton cannot;
    * matrices are grouped by resolved backend and each group runs as
      **one** executor dispatch (:func:`repro.parallel.map_matrices`):
      CSR payloads travel via the zero-copy shared-memory transport, the
      persistent pool is warmed once and reused;
    * with ``cache=`` given (cache object or disk-tier path, exactly as
      in :func:`reorder`), hits are served per
      matrix up front (``phase_ns={"cache": <ns>}``) and only the misses
      are dispatched; every computed result is cached on the way out.

    Requests that need per-call machinery a grouped dispatch cannot carry
    (non-RCM algorithms, an explicit simulated-machine ``config``, a
    nonzero ``seed``, a ``transform`` pass, or ``method="parallel"``,
    which manages its own pool) fall back to a per-matrix loop over the
    same pipeline — results are identical either way.
    """
    check_choice("algorithm", algorithm, ALGORITHMS)
    check_min("n_workers", n_workers, 1)
    if algorithm == "rcm":
        check_choice("method", method, backends.method_choices())
    _check_config(config)
    cache = _resolve_cache(cache)
    if not isinstance(mats, Iterable):
        raise ValidationError(
            f"mats must be an iterable; got {type(mats).__qualname__}"
        )
    mats = [as_csr(m) for m in mats]
    results: List[Optional[ReorderResult]] = [None] * len(mats)
    if not mats:
        return []

    trace_scope = (
        tctx.ensure_context() if telemetry.get().enabled
        else tctx.activate(None)
    )
    with trace_scope:
        # cache tier first: serve hits, dispatch only the misses
        keys: List[Optional[object]] = [None] * len(mats)
        pend: List[int] = []
        if cache is not None:
            from repro.service.keys import cache_key

            for i, m in enumerate(mats):
                keys[i] = cache_key(
                    m, algorithm=algorithm, method=method, start=start,
                    symmetrize=symmetrize, transform=transform,
                )
                t0 = time.perf_counter_ns()
                hit = cache.get(keys[i])
                if hit is not None:
                    hit.phase_ns = {"cache": time.perf_counter_ns() - t0}
                    results[i] = hit
                else:
                    pend.append(i)
        else:
            pend = list(range(len(mats)))

        if pend:
            computed = _compute_many(
                [mats[i] for i in pend], algorithm=algorithm, method=method,
                start=start, n_workers=n_workers, config=config,
                symmetrize=symmetrize, seed=seed, transform=transform,
            )
            for i, res in zip(pend, computed):
                results[i] = res
                if cache is not None:
                    cache.put(keys[i], res)
    return results  # type: ignore[return-value]


def _compute_many(
    mats: List[CSRMatrix], *, algorithm: str, method: str,
    start: Union[int, str], n_workers: int, config, symmetrize: bool,
    seed: int, transform: Optional[str] = None,
) -> List[ReorderResult]:
    """Grouped batch execution (no cache tier) — the one code path behind
    both :func:`reorder_many` and the service's batched admission, so the
    two surfaces cannot drift apart."""
    from repro.parallel import ParallelConfig, map_matrices

    # the pool path validates in its workers, where an array fault would
    # surface as a plain ValueError: check every matrix before dispatch
    for m in mats:
        check_arrays(m)
    one_by_one = (
        algorithm != "rcm" or config is not None or seed != 0
        or transform is not None
    )
    if one_by_one:
        return [
            reorder(
                m, algorithm=algorithm, method=method, start=start,
                n_workers=n_workers, config=config, symmetrize=symmetrize,
                seed=seed, transform=transform,
            )
            for m in mats
        ]

    # group by the backend that will actually run; "auto" resolves with
    # the dispatch-amortized batch term
    groups: Dict[str, List[int]] = {}
    for i, m in enumerate(mats):
        resolved = method
        if resolved == "auto":
            resolved = backends.resolve_auto_method(
                m.n, m.nnz, 1, batch=len(mats)
            )
        groups.setdefault(resolved, []).append(i)

    results: List[Optional[ReorderResult]] = [None] * len(mats)
    tel = telemetry.get()
    with tel.span(
        "reorder_many", category="api",
        n_matrices=len(mats), n_groups=len(groups),
    ):
        for resolved, idxs in groups.items():
            if resolved == "parallel" or len(idxs) == 1:
                # the process backend schedules components itself (and a
                # pool inside a pool worker cannot fork) — run per matrix
                for i in idxs:
                    results[i] = _reorder_rcm(
                        mats[i], method=resolved, start=start,
                        n_workers=n_workers, symmetrize=symmetrize,
                    )
            else:
                out = map_matrices(
                    [mats[i] for i in idxs], method=resolved, start=start,
                    symmetrize=symmetrize,
                    config=ParallelConfig(n_workers=n_workers),
                )
                for i, res in zip(idxs, out):
                    results[i] = res
    return results  # type: ignore[return-value]


def _reorder_direct(
    mat: CSRMatrix, algorithm: str, *, symmetrize: bool
) -> ReorderResult:
    """Run a whole-matrix heuristic through the same result pipeline."""
    tel = telemetry.get()
    phase_ns = {p: 0 for p in PHASES}

    t_phase = time.perf_counter_ns()
    with tel.span("validate", category="api", n=mat.n, nnz=mat.nnz):
        mat, init_bw = _validated(mat, symmetrize)
    phase_ns["validate"] = time.perf_counter_ns() - t_phase

    t_phase = time.perf_counter_ns()
    with tel.span("ordering", category="api", method=algorithm, size=mat.n):
        perm = np.asarray(_algorithm_fn(algorithm)(mat), dtype=np.int64)
    phase_ns["ordering"] = time.perf_counter_ns() - t_phase

    t_phase = time.perf_counter_ns()
    with tel.span("assembly", category="api"):
        reord_bw = bandwidth_after(mat, perm)
    phase_ns["assembly"] = time.perf_counter_ns() - t_phase

    return ReorderResult(
        permutation=perm,
        method="direct",
        start_nodes=[],
        component_sizes=[],
        initial_bandwidth=init_bw,
        reordered_bandwidth=reord_bw,
        stats=[],
        phase_ns=phase_ns,
        algorithm=algorithm,
    )
