"""RCM pipeline internals: component handling, method/start selection, results.

The single public entry point of the library is :func:`repro.reorder`
(see :mod:`repro.facade`); this module implements the RCM execution pipeline
behind it.  The pre-facade entry point :func:`reverse_cuthill_mckee`
finished its deprecation cycle in 1.2 and now raises
:class:`repro.errors.RemovedAPIError`.

:func:`_reorder_rcm` validates the matrix, decomposes it into connected
components, picks a start node per component (explicitly, by minimum
valence, or pseudo-peripherally) and runs the chosen execution backend,
assembling one global permutation.  Which backends exist, what each one
honors, and what ``method="auto"`` resolves to all live in
:mod:`repro.backends` — this module only walks the pipeline and hands each
component (or, for whole-matrix backends, the component list) to the
registered run callable.

Component convention (matches SciPy's ``csgraph.reverse_cuthill_mckee``
structure): components are ordered by their smallest node id; within the
global permutation each component's RCM block is reversed *within itself*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import backends
from repro.backends import resolve_auto_method  # noqa: F401  (re-export)
from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import components_by_min_node
from repro.sparse.bandwidth import (
    bandwidth_after,
    envelope_after,
    envelope_size,
)
from repro.sparse.validate import (
    check_arrays,
    check_batch,
    is_structurally_symmetric,
    validate_csr,
)
from repro.core.batches import BatchConfig
from repro.core.peripheral import find_pseudo_peripheral
from repro.core.transform import check_transform, plan_powerlaw, resolve_transform
from repro.errors import ValidationError
from repro.machine.stats import RunStats
from repro.validation import check_choice, check_start
from repro import telemetry
from repro.telemetry import flight

__all__ = [
    "ReorderResult",
    "reverse_cuthill_mckee",
    "METHODS",
    "PHASES",
    "resolve_auto_method",
]

#: wall-clock phase names of the reorder pipeline, in execution order
#: (also the telemetry span names)
PHASES = (
    "validate",
    "transform",
    "components",
    "start-selection",
    "ordering",
    "assembly",
)

#: registered RCM execution methods, snapshotted at import for backward
#: compatibility — new code should call :func:`repro.backends.names`
METHODS = backends.names()

#: relative-reduction histogram buckets (reductions live in [0, 1]; a
#: scramble-regression can go negative, caught by the implicit +Inf tail)
_REDUCTION_BUCKETS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class ReorderResult:
    """Outcome of a reordering call.

    ``permutation[k]`` is the old index placed at new position ``k`` —
    apply with :meth:`CSRMatrix.permute_symmetric`.
    """

    permutation: np.ndarray
    method: str
    start_nodes: List[int]
    component_sizes: List[int]
    initial_bandwidth: int
    reordered_bandwidth: int
    #: simulated run stats per component (batch methods only)
    stats: List[RunStats] = field(default_factory=list)
    #: wall-clock nanoseconds per pipeline phase (see :data:`PHASES`)
    phase_ns: Dict[str, int] = field(default_factory=dict)
    #: the ordering algorithm that ran (``"rcm"`` for every RCM method)
    algorithm: str = "rcm"
    #: the transformation pass that was applied (``None`` on the
    #: untransformed path — including ``transform="auto"`` resolving away)
    transform: Optional[str] = None

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def wall_ms(self) -> float:
        """Total measured wall milliseconds across all pipeline phases."""
        return sum(self.phase_ns.values()) / 1e6

    def to_dict(self) -> dict:
        """JSON-serializable summary (bandwidths, phases, per-component
        simulated stats)."""
        return {
            "algorithm": self.algorithm,
            "method": self.method,
            "transform": self.transform,
            "n": int(self.permutation.size),
            "n_components": self.n_components,
            "start_nodes": [int(s) for s in self.start_nodes],
            "component_sizes": [int(s) for s in self.component_sizes],
            "initial_bandwidth": int(self.initial_bandwidth),
            "reordered_bandwidth": int(self.reordered_bandwidth),
            "phase_ns": dict(self.phase_ns),
            "wall_ms": self.wall_ms,
            "stats": [st.to_dict() for st in self.stats],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReorderResult(method={self.method!r}, n={self.permutation.size}, "
            f"bw {self.initial_bandwidth} -> {self.reordered_bandwidth})"
        )


#: components of a validated (symmetric) pattern, by smallest member
_components_by_min_node = components_by_min_node


def _pick_start(
    mat: CSRMatrix, members: np.ndarray, start, *, prefer_hub: bool = False
) -> int:
    valence = np.diff(mat.indptr)
    if prefer_hub:
        # transformed path: a hub-first BFS keeps the level structure
        # shallow, which is the entire point of the power-law pass
        return int(members[np.argmax(valence[members])])
    if start == "min-valence":
        return int(members[np.argmin(valence[members])])
    if start == "peripheral":
        seed = int(members[np.argmin(valence[members])])
        return find_pseudo_peripheral(mat, seed).node
    raise AssertionError(start)  # pragma: no cover - validated upstream


def _validated(mat: CSRMatrix, symmetrize: bool) -> Tuple[CSRMatrix, int]:
    """The validate phase: the pattern to reorder and its initial bandwidth
    from one :func:`check_batch` pass over a batch of one; only when it
    fails do the precise checks run, to raise the exact error."""
    if symmetrize:
        check_arrays(mat)
        mat = mat.symmetrize()
    bws = check_batch([mat])
    if bws is None:
        validate_csr(mat, require_sorted=True)
        if not is_structurally_symmetric(mat):
            raise ValidationError(
                "matrix pattern is not symmetric; pass symmetrize=True or call "
                "CSRMatrix.symmetrize() first"
            )
    return mat, int(bws[0])


def _reorder_rcm(
    mat: CSRMatrix,
    *,
    method: str = "serial",
    start: Union[int, str] = "min-valence",
    n_workers: int = 4,
    config: Optional[BatchConfig] = None,
    symmetrize: bool = False,
    seed: int = 0,
    transform: Optional[str] = None,
) -> "ReorderResult":
    """RCM pipeline implementation (no deprecation warning; see
    :func:`repro.reorder` for the public facade and parameter docs).

    ``n_workers`` is validated at the facade boundary
    (:func:`repro.facade.reorder`); this layer trusts it.
    """
    check_choice("method", method, backends.method_choices())
    check_start(start, mat.n)
    check_transform(transform)
    if transform is not None and isinstance(start, (int, np.integer)):
        raise ValidationError(
            "explicit start node cannot be combined with transform="
            f"{transform!r}: the transformation relabels the pattern, so "
            "node ids no longer mean what the caller intended; use a start "
            "strategy or transform=None"
        )
    tel = telemetry.get()
    phase_ns: Dict[str, int] = {p: 0 for p in PHASES}

    t_phase = time.perf_counter_ns()
    with tel.span("validate", category="api", n=mat.n, nnz=mat.nnz):
        mat, init_bw = _validated(mat, symmetrize)
    phase_ns["validate"] = time.perf_counter_ns() - t_phase

    # transform phase: resolve the power-law pass and, when it applies,
    # reorder the hub-first *relabeled* pattern instead — the relabeling
    # is composed back into the final permutation at assembly
    plan = None
    work = mat
    t_phase = time.perf_counter_ns()
    with tel.span(
        "transform", category="api", requested=transform or "none"
    ) as sp:
        if transform is not None:
            if resolve_transform(transform, mat) == "powerlaw":
                plan = plan_powerlaw(mat)
            if plan is not None:
                work = mat.permute_symmetric(plan.relabel)
        sp.set(
            applied=plan.kind if plan is not None else "none",
            n_hubs=plan.n_hubs if plan is not None else 0,
        )
    phase_ns["transform"] = time.perf_counter_ns() - t_phase

    t_phase = time.perf_counter_ns()
    with tel.span("components", category="api") as sp:
        comps = _components_by_min_node(work)
        sp.set(n_components=len(comps))
    phase_ns["components"] = time.perf_counter_ns() - t_phase
    if isinstance(start, (int, np.integer)):
        if len(comps) != 1:
            raise ValidationError(
                "explicit start node requires a connected matrix; "
                f"found {len(comps)} components"
            )

    # auto-resolution sits after component discovery so the cost models see
    # the real (n, nnz, n_components) shape — including the largest
    # component, which bounds how much a pool dispatch can actually win
    auto_estimates: Optional[Dict[str, float]] = None
    max_component = max((int(c.size) for c in comps), default=0)
    if method == "auto":
        auto_estimates = backends.auto_estimates(
            work.n, work.nnz, len(comps),
            max_component=max_component or None,
        )
        method = min(auto_estimates, key=auto_estimates.__getitem__)
    backend = backends.get(method)

    starts: List[int] = []
    sizes: List[int] = []
    t_phase = time.perf_counter_ns()
    with tel.span("start-selection", category="api"):
        for members in comps:
            if isinstance(start, (int, np.integer)):
                starts.append(int(start))
            else:
                starts.append(
                    _pick_start(
                        work, members, start, prefer_hub=plan is not None
                    )
                )
            sizes.append(int(members.size))
    phase_ns["start-selection"] = time.perf_counter_ns() - t_phase

    perm_parts: List[np.ndarray] = []
    stats: List[RunStats] = []

    if backend.run_matrix is not None:
        t_phase = time.perf_counter_ns()
        with tel.span(
            "ordering", category="api", method=method, size=sum(sizes)
        ):
            perm_parts = list(backend.run_matrix(
                work, starts, sizes=sizes, n_workers=n_workers,
                config=config, seed=seed,
            ))
        phase_ns["ordering"] = time.perf_counter_ns() - t_phase
    else:
        for s, total in zip(starts, sizes):
            t_phase = time.perf_counter_ns()
            with tel.span("ordering", category="api", method=method, size=total):
                part, comp_stats = backend.run_component(
                    work, s, total=total, n_workers=n_workers,
                    config=config, seed=seed,
                )
            phase_ns["ordering"] += time.perf_counter_ns() - t_phase
            perm_parts.append(part)
            if comp_stats is not None:
                stats.append(comp_stats)

    if auto_estimates is not None and flight.get_recorder() is not None:
        # close the cost-model loop: what auto predicted vs. what it cost.
        # The scenario family is classified here — only when a recorder is
        # live — so the hot path never pays for classification.
        from repro.matrices.scenarios import classify

        flight.record_auto(
            n=mat.n, nnz=mat.nnz, n_components=len(comps),
            estimates=auto_estimates, chosen=method,
            actual_wall_ms=phase_ns["ordering"] / 1e6,
            max_component=max_component or None,
            scenario=classify(mat),
            transform_ms=phase_ns["transform"] / 1e6,
        )

    t_phase = time.perf_counter_ns()
    with tel.span("assembly", category="api"):
        perm = (
            np.concatenate(perm_parts) if perm_parts
            else np.zeros(0, dtype=np.int64)
        )
        if plan is not None:
            # compose the hub-first relabeling back: the permutation the
            # caller receives indexes the original matrix
            perm = plan.relabel[perm]
        reord_bw = bandwidth_after(mat, perm)
        if tel.enabled:
            # per-request quality deltas: how much this request actually
            # bought (longitudinal signal for the history store / SLOs)
            if init_bw > 0:
                tel.histogram(
                    "request.bandwidth_reduction", buckets=_REDUCTION_BUCKETS
                ).observe(1.0 - reord_bw / init_bw)
            init_env = envelope_size(mat)
            if init_env > 0:
                tel.histogram(
                    "request.envelope_reduction", buckets=_REDUCTION_BUCKETS
                ).observe(1.0 - envelope_after(mat, perm) / init_env)
    phase_ns["assembly"] = time.perf_counter_ns() - t_phase

    return ReorderResult(
        permutation=perm,
        method=method,
        start_nodes=starts,
        component_sizes=sizes,
        initial_bandwidth=init_bw,
        reordered_bandwidth=reord_bw,
        stats=stats,
        phase_ns=phase_ns,
        transform=plan.kind if plan is not None else None,
    )


def reverse_cuthill_mckee(*args, **kwargs):
    """Removed pre-facade entry point — use :func:`repro.reorder`.

    Deprecated in 1.1 (with a working shim), removed in 1.2.  The facade
    call with identical semantics is
    ``repro.reorder(mat, algorithm="rcm", method="serial", ...)`` — note
    the facade's ``method`` defaults to ``"auto"`` where this entry point
    defaulted to ``"serial"``.

    .. deprecated:: 1.1
    .. versionremoved:: 1.2
       raises :class:`repro.errors.RemovedAPIError`.
    """
    from repro.errors import RemovedAPIError

    raise RemovedAPIError(
        "reverse_cuthill_mckee() was removed in 1.2; call "
        "repro.reorder(mat, algorithm='rcm', method='serial', ...) instead "
        "(method='auto' for the cost-model selector)"
    )
