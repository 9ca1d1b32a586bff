"""``paper-sim``: sweeps of the simulated machine behind the paper's figures.

One sweep runs ``run_batch_rcm`` (CPU model) at 1, 4, 12 and 24 simulated
workers plus ``run_batch_rcm_gpu`` on every matrix of Table I's quick set.
The inputs are the paper's fixed matrices; the seed only orders the calls.
Every call's makespan and executed-batch count must equal the goldens in
``ledger/goldens/paper_sim.json`` and its permutation the serial RCM of
the same component.  Regenerate the goldens (only when the simulator's
answers are meant to change) with::

    PYTHONPATH=src python3 -m ledger.paper_sim
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from repro import CPUCostModel, rcm_serial, run_batch_rcm, run_batch_rcm_gpu
from repro.bench.table1 import QUICK_SET
from repro.machine.stats import Stage
from repro.matrices import get_matrix

from ledger import inputs
from ledger.common import Window, ms_since
from ledger.tracer import Tracer

GOLDENS = Path(__file__).resolve().parent / "goldens" / "paper_sim.json"
CPU_WORKERS = (1, 4, 12, 24)


def largest_component_start(mat) -> Tuple[int, int]:
    """(start, size): the minimum-valence node of the largest component,
    ties between components going to the one with the smallest node."""
    _, labels = connected_components(mat.to_scipy(), directed=False)
    sizes = np.bincount(labels)
    first = np.full(sizes.size, mat.n)
    np.minimum.at(first, labels, np.arange(mat.n))
    best = min(range(sizes.size), key=lambda c: (-sizes[c], first[c]))
    members = np.flatnonzero(labels == best)
    valence = np.diff(mat.indptr)
    return int(members[np.argmin(valence[members])]), int(members.size)


def config_names() -> List[str]:
    return [f"cpu_w{w}" for w in CPU_WORKERS] + ["gpu"]


def simulate(mat, start: int, total: int, config: str):
    if config == "gpu":
        return run_batch_rcm_gpu(mat, start, total=total)
    workers = int(config[len("cpu_w"):])
    return run_batch_rcm(
        mat, start, model=CPUCostModel(), n_workers=workers, total=total
    )


class PaperSim:
    name = "paper-sim"

    def __init__(self, seed: int, nproc: int, workdir=None) -> None:
        self.goldens = json.loads(GOLDENS.read_text())
        self.mats = {}
        for name in QUICK_SET:
            mat = get_matrix(name, cache=False)
            start, total = largest_component_start(mat)
            self.mats[name] = (mat, start, total, rcm_serial(mat, start))
        calls = [(n, c) for n in QUICK_SET for c in config_names()]
        order = inputs.rng(seed, "paper-sim").permutation(len(calls))
        self.calls = [calls[i] for i in order]
        self.failures: List[str] = []

    def steps(self) -> List[Callable]:
        """A pass (one sweep): every (matrix, machine) call once."""
        return [
            functools.partial(self._call, name, config)
            for name, config in self.calls
        ]

    def _call(self, name: str, config: str, w: Window, tracer) -> None:
        mat, start, total, golden = self.mats[name]
        w.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = simulate(mat, start, total, config)
            else:
                with tracer.span(
                    "run_batch_rcm_gpu" if config == "gpu" else "run_batch_rcm",
                    config=config, input=name,
                ) as sp:
                    res = simulate(mat, start, total, config)
        except Exception as exc:  # any error is a failed call
            w.fail(f"{name} {config}: {type(exc).__name__}: {exc}")
            return
        lat = ms_since(t0)
        want = self.goldens[name][config]
        got = {
            "makespan": res.stats.makespan,
            "batches_executed": res.stats.batches_executed,
        }
        if got != want:
            w.fail(f"{name} {config}: {got} != golden {want}")
        elif not np.array_equal(res.permutation, golden):
            w.fail(f"{name} {config}: permutation differs from serial RCM")
        else:
            w.latencies_ms.append(lat)
            w.nnz += mat.nnz
        if tracer is not None:
            agg = res.stats.aggregate()
            sp.attrs.update(
                batches=res.stats.batches_executed,
                stall=agg.cycles.get(Stage.STALL, 0.0),
                cycles=agg.total(),
            )

    def traced(self, tracer: Tracer) -> ExitStack:
        return ExitStack()

    def layers(self, tracer: Tracer) -> Dict[str, float]:
        spans = tracer.named("run_batch_rcm") + tracer.named("run_batch_rcm_gpu")
        out: Dict[str, float] = {}
        for config in ("cpu_w1", "cpu_w24", "gpu"):
            mine = [s for s in spans if s.attrs["config"] == config]
            batches = sum(s.attrs["batches"] for s in mine)
            out[f"machine.wall_us_per_batch.{config}"] = (
                sum(s.ns for s in mine) / 1e3 / batches if batches else 0.0
            )
        # exact sentinels: one sweep's worth, from the first sweep traced
        first = {}
        for s in spans:
            first.setdefault((s.attrs["input"], s.attrs["config"]), s)
        out["machine.batches_executed"] = sum(
            s.attrs["batches"] for s in first.values()
        )
        out["machine.stall_share"] = sum(
            s.attrs["stall"] for s in first.values()
        ) / sum(s.attrs["cycles"] for s in first.values())
        return out

    def finish(self):
        return 0, self.failures

    def close(self) -> None:
        pass


def write_goldens() -> None:
    """Record every call's makespan and executed-batch count."""
    out: Dict[str, Dict[str, dict]] = {}
    for name in QUICK_SET:
        mat = get_matrix(name)
        start, total = largest_component_start(mat)
        out[name] = {}
        for config in config_names():
            res = simulate(mat, start, total, config)
            out[name][config] = {
                "makespan": res.stats.makespan,
                "batches_executed": res.stats.batches_executed,
            }
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    write_goldens()
