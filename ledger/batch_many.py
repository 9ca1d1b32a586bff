"""``batch-many``: one closed-loop caller of ``repro.reorder_many``.

Each call reorders a batch of 32 distinct mid-size patterns with
``n_workers=nproc``.  Kernels are cheap at this size, so the time goes to
per-call overhead: the batch-aware auto grouping, shared-memory publishing
and pool dispatch.  A traced run adds in-process calls
(``n_workers=1``) on the same batches, paired with pooled ones: the
baseline the pool has to beat, and the only path that runs the batch
validator.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack
from typing import Callable, Dict, List

import repro
import repro.core.api as pipeline
import repro.parallel as parallel
from repro.parallel import shm

from ledger import inputs, stats
from ledger.common import (
    CALL_TIMEOUT_S,
    Computed,
    Window,
    check_all,
    kernel_rates,
    ms_since,
    phase_metrics,
    serial_golden,
)
from ledger.tracer import Tracer

BATCH = 32
N_BATCHES = 4


def _batch_attrs(mats, **kw) -> dict:
    cfg = kw.get("config")
    return {
        "n": len(mats),
        "nnz": sum(m.nnz for m in mats),
        "workers": cfg.n_workers if cfg is not None else None,
    }


class BatchMany:
    name = "batch-many"

    def __init__(self, seed: int, nproc: int, workdir=None) -> None:
        self.nproc = nproc
        mats = inputs.small_patterns(seed, "batch", BATCH * N_BATCHES)
        goldens = [serial_golden(m, nproc) for m in mats]
        self.batches = [
            (mats[i:i + BATCH], goldens[i:i + BATCH])
            for i in range(0, len(mats), BATCH)
        ]
        self.failures: List[str] = []
        self.checked = 0
        self.computed: List[Computed] = []
        # warm the pool: the first dispatch forks and warms its workers
        mats, goldens = self.batches[0]
        self.checked += len(mats)
        self.failures += self._check(
            goldens, repro.reorder_many(mats, n_workers=nproc)
        )

    @staticmethod
    def _check(goldens, results) -> List[str]:
        return check_all("batch", goldens, [r.permutation for r in results])

    def steps(self) -> List[Callable]:
        """A pass: one ``reorder_many`` call per batch."""
        return [functools.partial(self._call, batch) for batch in self.batches]

    def _call(self, batch, w: Window, tracer, n_workers: int = None) -> None:
        mats, goldens = batch
        n_workers = n_workers or self.nproc
        w.attempted += len(mats)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results = repro.reorder_many(mats, n_workers=n_workers)
            else:
                with tracer.span(
                    "reorder_many", n=len(mats), workers=n_workers,
                    nnz=sum(m.nnz for m in mats),
                ):
                    results = repro.reorder_many(mats, n_workers=n_workers)
        except Exception as exc:  # any error fails the whole batch
            w.fail(f"reorder_many: {type(exc).__name__}: {exc}", len(mats))
            return
        lat = ms_since(t0)
        failures = self._check(goldens, results)
        if lat > CALL_TIMEOUT_S * 1e3:
            failures.append(f"reorder_many took {lat:.0f} ms")
        for f in failures:
            w.fail(f)
        if not failures:
            w.latencies_ms.append(lat)
            w.nnz += sum(m.nnz for m in mats)
        if tracer is not None and n_workers == self.nproc:
            self.computed += [
                Computed(m.nnz, r.method, dict(r.phase_ns))
                for m, r in zip(mats, results)
            ]

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def traced(self, tracer: Tracer) -> ExitStack:
        stack = ExitStack()
        stack.enter_context(tracer.patch(
            parallel, "map_matrices", "map_matrices", _batch_attrs))
        stack.enter_context(tracer.patch(
            shm.ShmBatch, "publish_many", "shm.publish_many",
            lambda self, mats: {"nnz": sum(m.nnz for m in mats)},
        ))
        stack.enter_context(tracer.patch(
            pipeline, "check_batch", "check_batch",
            lambda mats: {"nnz": sum(m.nnz for m in mats)},
        ))
        stack.enter_context(tracer.backends(["serial", "vectorized"]))
        return stack

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        # the in-process baseline (a single worker), paired call by call
        # with pooled calls so host drift cancels out of their ratio
        paired = Window()
        for batch in self.batches:
            self._call(batch, paired, tracer, n_workers=1)
            self._call(batch, paired, tracer)
        self.checked += paired.attempted
        self.failures += paired.failures

        out = phase_metrics(self.computed)
        maps = tracer.named("map_matrices")
        pooled = [s for s in maps if s.attrs["workers"] == self.nproc]
        inproc = [s for s in maps if s.attrs["workers"] == 1]

        def ms_per_matrix(spans) -> float:
            n = sum(s.attrs["n"] for s in spans)
            return sum(s.ns for s in spans) / 1e6 / n if n else 0.0

        def ms_per_mnnz(name: str) -> float:
            spans = tracer.named(name)
            nnz = sum(s.attrs["nnz"] for s in spans)
            return sum(s.ns for s in spans) / 1e6 / (nnz / 1e6) if nnz else 0.0

        map_ms, inproc_ms = ms_per_matrix(pooled), ms_per_matrix(inproc)
        calls = [
            s for s in tracer.named("reorder_many")
            if s.attrs["workers"] == self.nproc
        ]
        out.update({
            "facade.self_ms": stats.median([s.self_ns / 1e6 for s in calls]),
            "validate.batch_ms_per_mnnz": ms_per_mnnz("check_batch"),
            "parallel.map_ms_per_matrix": map_ms,
            "parallel.inprocess_ms_per_matrix": inproc_ms,
            "parallel.pool_gain": inproc_ms / map_ms if map_ms else 0.0,
            "shm.publish_ms_per_mnnz": ms_per_mnnz("shm.publish_many"),
        })
        out.update(kernel_rates(tracer, ["map_matrices"]))
        return out

    def finish(self):
        return self.checked, self.failures

    def close(self) -> None:
        pass
