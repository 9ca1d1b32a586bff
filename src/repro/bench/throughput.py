"""Multi-matrix throughput: chunked process-pool vs in-process execution.

The service-shaped workload: a stream of matrices reordered back to back.
:func:`repro.parallel.map_matrices` ships chunks of whole pipelines to
worker processes; this driver measures matrices/second against the same
loop run in-process, verifying the permutations are identical.

On a single-core host (or when ``fork`` is unavailable) the pool degrades
gracefully and the two modes converge — the artifact records the worker
count actually used, so regressions are judged in context.

Run: ``python -m repro.bench.throughput [--quick]``
     (or ``repro bench throughput``)
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import List, Optional, Sequence

from repro.bench.report import render_table, write_csv
from repro.telemetry.events import SCHEMA, git_sha, host_info

__all__ = ["build_workload", "measure", "main"]


def build_workload(count: int, *, size: int = 40) -> list:
    """A mixed batch of generator matrices (grids, meshes, strips)."""
    from repro.matrices import generators as g

    mats = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            mats.append(g.grid2d(size, size))
        elif kind == 1:
            mats.append(g.delaunay_mesh(size * size // 2, seed=i))
        else:
            mats.append(g.random_geometric(size * size, k=4, seed=i))
    return mats


def measure(
    mats: Sequence, *, n_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[dict]:
    """Wall time of the in-process loop vs the chunked process pool."""
    import numpy as np

    from repro.core.api import _reorder_rcm
    from repro.parallel import ParallelConfig, map_matrices, resolve_workers

    cfg = ParallelConfig(
        n_workers=n_workers, chunk_size=chunk_size, force_processes=True
    )
    t0 = time.perf_counter()
    seq = [_reorder_rcm(m, method="vectorized") for m in mats]
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = map_matrices(mats, method="vectorized", config=cfg)
    par_s = time.perf_counter() - t0
    if len(par) != len(mats):
        raise AssertionError(
            f"process pool returned {len(par)} results for {len(mats)} "
            "matrices"
        )
    for a, b in zip(seq, par):
        if not np.array_equal(a.permutation, b.permutation):
            raise AssertionError("process-pool result diverged from in-process")
    return [
        {"mode": "in-process", "workers": 1, "seconds": seq_s,
         "matrices_per_s": len(mats) / seq_s},
        {"mode": "process-pool", "workers": resolve_workers(n_workers),
         "seconds": par_s, "matrices_per_s": len(mats) / par_s},
    ]


def main(argv: Optional[Sequence[str]] = None) -> List[dict]:
    """CLI entry point: print the throughput table, optionally save JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=24,
                        help="number of matrices in the batch")
    parser.add_argument("--size", type=int, default=40,
                        help="matrix scale knob (n ~ size^2)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: cpu count)")
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--csv", default=None)
    parser.add_argument("--json", default=None,
                        help="write a BENCH-style JSON artifact here")
    args = parser.parse_args(argv)

    count = 8 if args.quick else args.count
    size = 24 if args.quick else args.size
    mats = build_workload(count, size=size)
    rows = measure(mats, n_workers=args.workers, chunk_size=args.chunk_size)

    headers = ["mode", "workers", "seconds", "matrices/s"]
    table = [
        [r["mode"], r["workers"], round(r["seconds"], 3),
         round(r["matrices_per_s"], 2)]
        for r in rows
    ]
    print(render_table(
        headers, table,
        title=f"multi-matrix throughput ({count} matrices, "
              f"cpu_count={os.cpu_count()})",
    ))
    if args.csv:
        write_csv(args.csv, headers, table)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "bench": "rcm_throughput",
            "n_matrices": count,
            "modes": rows,
            "wall_ms": rows[0]["seconds"] * 1e3,
            "host": host_info(),
            "git_sha": git_sha(),
            "unix_time": time.time(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return rows


if __name__ == "__main__":
    main()
