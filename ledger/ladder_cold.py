"""``ladder-cold``: one closed-loop caller of ``repro.reorder(mat)``.

Eight relabeled inputs from small to large, each computed from cold with
the default ``method="auto"`` and no cache.  Time goes to the validate,
components and auto layers and to the kernel only; no cache, service or
pool is on the path.  A traced run adds a probe that times every auto
candidate's run callable on each input, so auto's regret is measured
against the candidates it did not pick.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack
from typing import Callable, Dict, List

import numpy as np

import repro
import repro.core.api as pipeline
from repro import backends

from ledger import inputs, stats
from ledger.common import (
    CALL_TIMEOUT_S,
    Computed,
    Window,
    facade_checks,
    kernel_rates,
    ms_since,
    phase_metrics,
    same_permutation,
    serial_golden,
)
from ledger.tracer import Tracer

#: regret is reported per input for these two, and as the max over all
REGRET_INPUTS = ("bcspwr10", "great-britain_osm")
PROBE_REPEATS = 3


class LadderCold:
    name = "ladder-cold"

    def __init__(self, seed: int, nproc: int, workdir=None) -> None:
        self.nproc = nproc
        self.inputs = inputs.ladder(seed)
        self.goldens = [serial_golden(m, nproc) for _, m in self.inputs]
        self.computed: List[Computed] = []
        self.last: Dict[str, repro.ReorderResult] = {}
        self.failures: List[str] = []
        #: outputs checked outside the measured windows
        self.checked = 0

    def steps(self) -> List[Callable]:
        """A pass: one call per ladder input, in ladder order."""
        return [
            functools.partial(self._call, name, mat, golden)
            for (name, mat), golden in zip(self.inputs, self.goldens)
        ]

    def _call(self, name, mat, golden, w: Window, tracer) -> None:
        w.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = repro.reorder(mat, n_workers=self.nproc)
                outer = None
            else:
                with tracer.span("repro.reorder", nnz=mat.nnz) as outer:
                    res = repro.reorder(mat, n_workers=self.nproc)
        except Exception as exc:  # any error is a failed request
            w.fail(f"{name}: {type(exc).__name__}: {exc}")
            return
        lat = ms_since(t0)
        if lat > CALL_TIMEOUT_S * 1e3:
            w.fail(f"{name}: took {lat:.0f} ms")
        elif not same_permutation(golden, res.permutation):
            w.fail(f"{name}: permutation differs from the serial golden")
        else:
            w.latencies_ms.append(lat)
            w.nnz += mat.nnz
        if tracer is not None:
            self.computed.append(
                Computed(mat.nnz, res.method, dict(res.phase_ns), outer)
            )
            self.last[name] = res

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def traced(self, tracer: Tracer) -> ExitStack:
        """Patches that put spans around the layers this workload crosses."""
        stack = ExitStack()
        stack.enter_context(tracer.patch(
            pipeline, "validate_csr", "validate_csr",
            lambda m, **kw: {"nnz": m.nnz},
        ))
        stack.enter_context(tracer.patch(
            pipeline, "is_structurally_symmetric",
            "is_structurally_symmetric", lambda m: {"nnz": m.nnz},
        ))
        stack.enter_context(tracer.backends(self._candidates()))
        return stack

    @staticmethod
    def _candidates() -> List[str]:
        return [b.name for b in backends.backends() if b.auto_candidate]

    def probe(self, tracer: Tracer) -> Dict[str, float]:
        """Time each auto candidate's run callable on every input (median of
        :data:`PROBE_REPEATS`), check its output, and return auto's regret:
        the chosen candidate's time over the fastest candidate's."""
        regret: Dict[str, float] = {}
        for (name, mat), golden in zip(self.inputs, self.goldens):
            res = self.last.get(name)
            if res is None:
                continue
            walls = {}
            for cand in self._candidates():
                samples = []
                for _ in range(PROBE_REPEATS):
                    with tracer.span(
                        "probe", nnz=mat.nnz, candidate=cand, input=name
                    ) as sp:
                        perm = self._run_candidate(cand, mat, res)
                    samples.append(sp.ns)
                    self.checked += 1
                    if not same_permutation(golden, perm):
                        self.failures.append(
                            f"{name}: candidate {cand} differs from golden"
                        )
                walls[cand] = stats.median(samples)
            regret[name] = walls[res.method] / min(walls.values())
        out = {
            f"backends.auto_regret.{n}": regret[n]
            for n in REGRET_INPUTS if n in regret
        }
        if regret:
            out["backends.auto_regret.max"] = max(regret.values())
        return out

    def _run_candidate(self, cand: str, mat, res) -> np.ndarray:
        """The ordering phase of ``method=cand``: the backend's run
        callable on the components and starts the auto call used."""
        b = backends.get(cand)
        opts = dict(n_workers=self.nproc, config=None, seed=0)
        if b.run_matrix is not None:
            parts = b.run_matrix(
                mat, res.start_nodes, sizes=res.component_sizes, **opts
            )
        else:
            parts = [
                b.run_component(mat, s, total=t, **opts)[0]
                for s, t in zip(res.start_nodes, res.component_sizes)
            ]
        return np.concatenate(parts)

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        out = phase_metrics(self.computed)
        facade, problems = facade_checks(self.computed, tracer)
        out.update(facade)
        self.checked += len(self.computed)
        self.failures += problems
        out.update(self.probe(tracer))
        out.update(kernel_rates(tracer, ["probe"]))
        return out

    def finish(self):
        """(outputs checked outside the windows, failures among them)"""
        return self.checked, self.failures

    def close(self) -> None:
        pass
