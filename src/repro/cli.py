"""Command-line interface.

::

    python -m repro info matrix.mtx            # stats + spy plot
    python -m repro reorder matrix.mtx -o out.mtx --method batch-cpu
    python -m repro generate ecology1 -o eco.npz
    python -m repro trace --matrix gupta3 --workers 8 -o trace.json
    python -m repro profile --matrix gupta3 --method threads -o prof
    python -m repro bench table1 --quick       # any experiment driver

Files: MatrixMarket (``.mtx``, ``.mtx.gz``) and the library's ``.npz``.

``trace`` visualizes the *simulated* machine; ``profile`` (and the
``--telemetry run.jsonl`` flag on ``reorder``/``bench``) records *real*
wall-clock telemetry — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

# the one eager repro import: every --method choices list below comes from
# the backend registry, resolved at module import (single source of truth)
from repro.backends import capability_rows, capability_table, method_choices

__all__ = ["main"]


def _load(path: str):
    from repro.sparse.io import read_matrix_market, load_npz
    from repro.sparse.hb import read_harwell_boeing

    p = Path(path)
    if p.suffix == ".npz":
        return load_npz(p)
    if p.suffix in (".rb", ".hb", ".rua", ".rsa", ".psa", ".pua"):
        return read_harwell_boeing(p)
    return read_matrix_market(p)


def _save(mat, path: str) -> None:
    from repro.sparse.io import write_matrix_market, save_npz

    p = Path(path)
    if p.suffix == ".npz":
        save_npz(mat, p)
    else:
        write_matrix_market(mat, p)


def _get_input(args):
    """Matrix from a file argument or a named test-set analogue."""
    if getattr(args, "matrix_file", None):
        return _load(args.matrix_file)
    from repro.matrices import get_matrix

    return get_matrix(args.matrix)


def cmd_info(args) -> int:
    """``info``: print matrix statistics and a spy plot."""
    from repro.sparse.bandwidth import bandwidth, envelope_size
    from repro.sparse.graph import connected_components, front_statistics
    from repro.sparse.validate import is_structurally_symmetric
    from repro.sparse.spy import spy

    mat = _get_input(args)
    sym = is_structurally_symmetric(mat)
    print(f"n={mat.n}  nnz={mat.nnz}  symmetric={sym}")
    print(f"bandwidth={bandwidth(mat)}  envelope={envelope_size(mat)}")
    degs = mat.degrees()
    if mat.n:
        print(f"valence: min={degs.min()} max={degs.max()} avg={degs.mean():.1f}")
    count, _ = connected_components(mat if sym else mat.symmetrize())
    print(f"components={count}")
    if sym and mat.n:
        fs = front_statistics(mat, 0)
        print(f"BFS front (from node 0): avg={fs.avg_front:.1f} "
              f"max={fs.max_front} depth={fs.depth}")
    if not args.no_spy:
        print(spy(mat, size=min(48, max(mat.n, 4))))
    return 0


def cmd_reorder(args) -> int:
    """``reorder``: compute an ordering, apply it, optionally write outputs."""
    import json

    from repro import reorder, telemetry
    from repro.sparse.spy import side_by_side

    if getattr(args, "telemetry", None):
        telemetry.enable()
    mat = _get_input(args)
    start = args.start if args.start is not None else "min-valence"
    if args.peripheral:
        start = "peripheral"
    res = reorder(
        mat,
        algorithm=args.algorithm,
        method=args.method,
        start=start,
        n_workers=args.workers,
        symmetrize=args.symmetrize,
        transform=getattr(args, "transform", None),
    )
    reordered = (mat.symmetrize() if args.symmetrize else mat).permute_symmetric(
        res.permutation
    )
    # with --json, stdout carries only the JSON document (pipeable to jq);
    # status lines move to stderr
    status = sys.stderr if args.json else sys.stdout
    if args.json:
        # machine-readable: bandwidths, phase wall times and, for the
        # simulated methods, every RunStats counter (Fig. 3/6 semantics)
        print(json.dumps(res.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"method={res.method}  components={res.n_components}")
        if res.transform is not None:
            print(f"transform={res.transform}")
        print(f"bandwidth {res.initial_bandwidth} -> {res.reordered_bandwidth}")
    if args.spy:
        print(side_by_side(mat, reordered, size=32), file=status)
    if args.output:
        _save(reordered, args.output)
        print(f"wrote {args.output}", file=status)
    if args.perm_output:
        np.savetxt(args.perm_output, res.permutation, fmt="%d")
        print(f"wrote permutation to {args.perm_output}", file=status)
    if getattr(args, "telemetry", None):
        n = telemetry.get().write_jsonl(
            args.telemetry, meta={"command": "reorder", "method": args.method}
        )
        print(f"wrote {n} telemetry events to {args.telemetry}", file=status)
    return 0


def cmd_generate(args) -> int:
    """``generate``: write a named test-set analogue to a file."""
    from repro.matrices import get_matrix, matrix_names

    if args.list:
        for n in matrix_names():
            print(n)
        return 0
    mat = get_matrix(args.matrix)
    _save(mat, args.output)
    print(f"wrote {args.matrix}: n={mat.n} nnz={mat.nnz} -> {args.output}")
    return 0


def cmd_trace(args) -> int:
    """``trace``: run batch RCM with tracing; print Gantt, export JSON."""
    from repro.machine.costmodel import CPUCostModel
    from repro.machine.tracing import ascii_gantt, to_chrome_tracing
    from repro.bench.runner import pick_start
    from repro.core.state import make_state
    from repro.machine.engine import Engine
    from repro.core.batch import worker_loop
    from repro.core.batches import BatchConfig

    mat = _get_input(args)
    start, total = pick_start(mat)
    model = CPUCostModel()
    state = make_state(mat, start, n_workers=args.workers, total=total)
    engine = Engine(args.workers, state.stats, trace=True)
    cfg = BatchConfig()
    engine.run([worker_loop(state, cfg, model, engine) for _ in range(args.workers)])
    state.sync_queue_stats()
    print(ascii_gantt(engine.trace, width=args.width, n_workers=args.workers))
    print(f"\nmakespan: {engine.stats.makespan:.0f} cycles "
          f"({engine.stats.milliseconds(model.clock_ghz):.3f} simulated ms)")
    if args.output:
        to_chrome_tracing(engine.trace, args.output, clock_ghz=model.clock_ghz)
        print(f"wrote {args.output} (load in chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    """``profile``: run RCM with full telemetry; export JSONL + Chrome trace.

    Unlike ``trace`` (which renders the *simulated* machine), this records
    real wall-clock spans and counters: API phase breakdown, per-worker
    stage spans of the OS-thread backend, and speculation/queue counters
    with the same semantics as the simulator's ``RunStats``.
    """
    from repro import reorder, telemetry
    from repro.telemetry import profiler as profmod

    tel = telemetry.get()
    tel.reset()
    telemetry.enable()
    mat = _get_input(args)
    start = "peripheral" if args.peripheral else "min-valence"
    prof = profmod.start_profiler(hz=args.hz)
    try:
        res = reorder(
            mat, method=args.method, start=start, n_workers=args.workers
        )
    finally:
        profmod.stop_profiler()

    print(f"method={res.method}  n={mat.n}  nnz={mat.nnz}  "
          f"components={res.n_components}")
    print(f"bandwidth {res.initial_bandwidth} -> {res.reordered_bandwidth}")
    print("\nphase breakdown (wall):")
    for phase, ns in res.phase_ns.items():
        print(f"  {phase:<16s} {ns / 1e6:10.3f} ms")
    print(f"  {'total':<16s} {res.wall_ms:10.3f} ms")

    snap = tel.snapshot()
    if snap["counters"]:
        print("\ncounters:")
        for name, value in snap["counters"].items():
            print(f"  {name:<40s} {value}")

    records = tel.tracer.records()
    worker_spans = [r for r in records if r.worker is not None]
    if worker_spans:
        print()
        print(telemetry.spans_gantt(worker_spans, width=args.width))

    jsonl_path = f"{args.output}.jsonl"
    trace_path = f"{args.output}.trace.json"
    meta = {
        "command": "profile",
        "method": args.method,
        "matrix": args.matrix or args.matrix_file,
        "n": mat.n,
        "nnz": mat.nnz,
        "workers": args.workers,
        "phase_ns": res.phase_ns,
    }
    n = tel.write_jsonl(jsonl_path, meta=meta)
    tel.write_chrome_trace(trace_path)
    print(f"\nwrote {n} events to {jsonl_path}")
    print(f"wrote {trace_path} (load in Perfetto / chrome://tracing)")

    stats = prof.stats()
    print(f"\nprofiler: {stats['samples']} stack samples at "
          f"{prof.hz:g} Hz (self-overhead {stats['overhead_pct']:.2f}%)")
    report = telemetry.critical_path(records)
    if report is not None:
        print()
        print(telemetry.format_report(report))
    if args.flame:
        Path(args.flame).write_text(
            telemetry.profile_to_collapsed(prof.folded()))
        print(f"\nwrote collapsed stacks to {args.flame} "
              f"(flamegraph.pl / inferno ready)")
    if args.speedscope:
        import json

        Path(args.speedscope).write_text(json.dumps(
            telemetry.profile_to_speedscope(
                prof.folded(),
                name=f"repro profile {args.matrix or args.matrix_file}",
            )))
        print(f"wrote speedscope profile to {args.speedscope} "
              f"(open at https://www.speedscope.app)")
    return 0


def cmd_compare(args) -> int:
    """Compare ordering heuristics on one matrix."""
    import time

    from repro import reorder
    from repro.orderings.api import quality
    from repro.bench.report import render_table

    mat = _get_input(args)
    # (label, algorithm, extra facade kwargs)
    runs = [
        ("RCM", "rcm",
         {"start": "peripheral", "method": "batch-cpu",
          "n_workers": args.workers}),
        ("Sloan", "sloan", {}),
        ("GPS", "gps", {}),
        ("King", "king", {}),
        ("spectral", "spectral", {}),
    ]
    if args.mindeg:
        runs.append(("min-degree", "minimum-degree", {}))
    rows = []
    for label, algorithm, kwargs in runs:
        t0 = time.perf_counter()
        res = reorder(mat, algorithm=algorithm, **kwargs)
        dt = time.perf_counter() - t0
        # metrics only: the permutation is already computed, don't pay twice
        q = quality(mat, algorithm, permutation=res.permutation)
        rows.append([
            label, q.bandwidth, q.envelope,
            round(q.rms_wavefront, 1), round(dt, 3),
        ])
    print(render_table(
        ["heuristic", "bandwidth", "envelope", "rms wavefront", "seconds"],
        rows, title=f"ordering comparison (n={mat.n}, nnz={mat.nnz})",
    ))
    return 0


def _load_spec(spec: str):
    """A workload line: an existing matrix file path, else an analogue name."""
    if Path(spec).exists():
        return _load(spec)
    from repro.matrices import get_matrix

    return get_matrix(spec)


def cmd_serve(args) -> int:
    """``serve``: run a batch-file workload through the reordering service.

    The workload is a text file with one matrix spec per line (a matrix
    file path or a named test-set analogue; blank lines and ``#`` comments
    ignored), optionally cycled ``--repeat`` times — repeated patterns are
    served from the content-hash cache and concurrent duplicates coalesce
    onto one computation.  Prints per-request outcomes and the service
    counters; see ``docs/service.md``.

    SIGTERM/SIGINT trigger a graceful shutdown: the ``/statusz`` state
    flips to ``shutting-down``, result gathering stops, final telemetry is
    flushed, and the process exits ``128 + signum``.
    """
    import json
    import signal
    import threading
    import time

    from repro import telemetry
    from repro.service import ReorderService, ServiceConfig

    if getattr(args, "telemetry", None):
        telemetry.enable()
    if getattr(args, "listen", None) is not None:
        # a live endpoint implies recording: counters must move to scrape
        telemetry.enable()
    prof = None
    if getattr(args, "profile", False):
        # continuous sampling profiler: telemetry must record so samples
        # get span/phase attribution; /debug/flame picks the
        # profiler up automatically when --listen is also given
        from repro.telemetry import profiler as profmod

        telemetry.enable()
        prof = profmod.start_profiler()
    if getattr(args, "flight", None):
        from repro.telemetry import flight

        flight.configure(args.flight)

    specs: List[str] = []
    if args.workload:
        for line in Path(args.workload).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                specs.append(line)
    specs.extend(args.matrix or [])
    if not specs:
        print("serve: empty workload (no matrix specs)", file=sys.stderr)
        return 2
    specs = specs * max(args.repeat, 1)

    cfg = ServiceConfig(
        n_workers=args.workers,
        max_pending=args.max_pending,
        cache_capacity=args.capacity,
        disk_dir=args.cache_dir,
        request_timeout=args.timeout,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
    )
    rows = []
    server = None
    # graceful-shutdown plumbing: a signal flips the event (and the
    # /statusz state), the gather/linger loops observe it and unwind
    stop_event = threading.Event()
    caught: dict = {}

    def _on_signal(signum, frame):
        caught["signum"] = signum
        if server is not None:
            server.mark_shutdown()
        stop_event.set()

    old_handlers = {}
    if threading.current_thread() is threading.main_thread():
        # signal.signal only works from the main thread; in-process callers
        # (tests driving main() from a worker thread) just skip the hooks
        for s in (signal.SIGTERM, signal.SIGINT):
            old_handlers[s] = signal.signal(s, _on_signal)

    t_total = time.perf_counter()
    try:
        with ReorderService(cfg) as svc:
            if getattr(args, "listen", None) is not None:
                from repro.telemetry.prometheus import MetricsServer

                calibration_fn = None
                if getattr(args, "flight", None):
                    from repro.telemetry import flight as _flight

                    def calibration_fn(path=args.flight):
                        records = _flight.read_records(path)
                        return _flight.calibrate(records) if records else None

                server = MetricsServer(
                    telemetry.get().metrics, port=args.listen,
                    status_fn=svc.stats, calibration_fn=calibration_fn,
                ).start()
                print(f"metrics endpoint listening on {server.url}",
                      file=sys.stderr)
            # submit everything up front so identical in-flight specs
            # coalesce, then gather in order
            loaded = [(spec, _load_spec(spec)) for spec in specs]
            futures = [
                (spec, mat, svc.submit(
                    mat, algorithm=args.algorithm, method=args.method,
                ))
                for spec, mat in loaded
            ]
            for spec, mat, fut in futures:
                if stop_event.is_set():
                    break
                t0 = time.perf_counter()
                res = fut.result(args.timeout)
                ms = (time.perf_counter() - t0) * 1e3
                rows.append({
                    "matrix": spec,
                    "n": mat.n,
                    "nnz": mat.nnz,
                    "method": res.method,
                    "initial_bandwidth": res.initial_bandwidth,
                    "reordered_bandwidth": res.reordered_bandwidth,
                    "wait_ms": ms,
                })
            total_s = time.perf_counter() - t_total
            if (server is not None and getattr(args, "linger", 0) > 0
                    and not stop_event.is_set()):
                # keep the endpoint scrapeable after the workload drains
                # (CI smoke tests, manual curl sessions); a signal cuts
                # the linger short
                stop_event.wait(args.linger)
            stats = svc.stats()
    finally:
        if prof is not None:
            from repro.telemetry import profiler as profmod

            profmod.stop_profiler()
        if server is not None:
            server.stop()
        for s, h in old_handlers.items():
            signal.signal(s, h)

    if args.json:
        print(json.dumps(
            {"requests": rows, "stats": stats,
             "total_s": total_s,
             "requests_per_s": len(rows) / total_s if total_s else 0.0},
            indent=2, sort_keys=True,
        ))
    else:
        for row in rows:
            print(f"{row['matrix']:<28s} n={row['n']:<8d} "
                  f"bw {row['initial_bandwidth']} -> "
                  f"{row['reordered_bandwidth']}  "
                  f"({row['wait_ms']:.2f} ms wait)")
        cache = stats["cache"]
        print(f"\n{len(rows)} requests in {total_s:.3f}s "
              f"({len(rows) / total_s:.1f} req/s)")
        print(f"computed={stats['service.computed']}  "
              f"cache hits={cache['hits']} misses={cache['misses']} "
              f"evictions={cache['evictions']}  "
              f"coalesced={stats['service.coalesced']}")
        if prof is not None:
            print(f"profiler: {prof.sample_count} stack samples at "
                  f"{prof.hz:g} Hz (self-overhead "
                  f"{prof.overhead_pct:.2f}%)")
    if getattr(args, "telemetry", None):
        # the final flush runs on every exit path, signal-driven included
        n = telemetry.get().write_jsonl(
            args.telemetry, meta={"command": "serve", "requests": len(rows)}
        )
        print(f"wrote {n} telemetry events to {args.telemetry}",
              file=sys.stderr if args.json else sys.stdout)
    if caught:
        signum = caught["signum"]
        print(f"serve: shut down on {signal.Signals(signum).name} "
              f"after {len(rows)}/{len(specs)} requests", file=sys.stderr)
        return 128 + signum
    return 0


def cmd_telemetry(args) -> int:
    """``telemetry``: trajectory, flight-recorder and inventory analysis.

    ``ingest`` appends one provenance-stamped run record (every
    ``BENCH_*.json`` + the flight calibration summary) to the history
    store; ``trend`` renders noise-aware per-benchmark verdicts over the
    rolling history window (``--check`` exits non-zero on a statistical
    FAIL); ``calibrate FLIGHT.jsonl`` aggregates recorded ``method="auto"``
    resolutions into a predicted-vs-actual report with a per-backend
    mispick rate; ``critpath EVENTS.jsonl`` computes the critical path
    over a recorded span log with Amdahl-style what-if estimates;
    ``inventory`` prints the generated Prometheus metric table embedded
    in ``docs/observability.md``.  ``calibrate`` and ``critpath`` treat
    an absent/empty log as clean no-data (exit 0), not an error.
    """
    import json

    if args.telemetry_command == "inventory":
        from repro.telemetry.prometheus import metric_inventory_table

        print(metric_inventory_table())
        return 0

    if args.telemetry_command == "ingest":
        from repro.telemetry import history

        results_dir = Path(args.results_dir)
        if not results_dir.is_dir():
            print(f"ingest: no results directory at {results_dir}",
                  file=sys.stderr)
            return 2
        record = history.build_run_record(
            results_dir, flight_path=args.flight
        )
        if not record["benches"]:
            print(f"ingest: no BENCH_*.json artifacts in {results_dir}",
                  file=sys.stderr)
            return 2
        store = history.HistoryStore(args.history)
        store.append(record)
        print(
            f"appended run {record['git_sha'][:12]} "
            f"({len(record['benches'])} benches, "
            f"calibration={'yes' if record['calibration'] else 'no'}) "
            f"to {store.path} ({len(store)} runs)"
        )
        return 0

    if args.telemetry_command == "trend":
        from repro.telemetry import history

        path = Path(args.history)
        runs = history.read_history(path) if path.exists() else []
        if args.since:
            runs = history.runs_since(runs, args.since)
        if not runs:
            print(f"trend: no history runs in {path}", file=sys.stderr)
            return 0 if args.warn_only else 2
        verdicts = history.evaluate_trends(
            runs, window=args.window, min_samples=args.min_samples,
        )
        doc = history.verdict_document(verdicts, history_path=path)
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"{len(runs)} runs in {path} "
                  f"(window {args.window}, min samples {args.min_samples})")
            print(history.render_trends(verdicts))
            summary = ", ".join(
                f"{n} {s}" for s, n in sorted(doc["by_status"].items())
            )
            print(f"\nverdicts: {summary}")
        if args.verdict_out:
            Path(args.verdict_out).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote verdict document to {args.verdict_out}",
                  file=sys.stderr if args.json else sys.stdout)
        if args.check and doc["failed"]:
            print(
                f"trend: statistical regression in {doc['failed']}",
                file=sys.stderr,
            )
            return 0 if args.warn_only else 1
        return 0

    if args.telemetry_command == "critpath":
        from repro.telemetry import events as tev
        from repro.telemetry.critical_path import (
            critical_path, format_report,
        )
        from repro.telemetry.spans import SpanRecord

        path = Path(args.events)
        recs = []
        if path.exists():
            recs = [
                SpanRecord.from_event(e) for e in tev.read_jsonl(path)
                if e.get("type") == "span"
            ]
        report = (
            critical_path(
                recs, trace_id=args.trace,
                what_if_factor=args.what_if_factor,
            )
            if recs else None
        )
        if report is None:
            # absent file, empty log, span-free log: clean no-data exit
            print(f"critpath: no span data at {path} "
                  f"(nothing recorded yet)")
            return 0
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report))
        return 0

    # calibrate
    from repro.telemetry import flight

    path = Path(args.flight)
    records = flight.read_records(path) if path.exists() else []
    if not records:
        # absent or empty flight log is a clean no-data case, not an
        # error: CI calls this unconditionally after serve smoke runs
        print(f"calibrate: no flight data at {path} "
              f"(nothing recorded yet)")
        return 0
    report = flight.calibrate(records, tie_epsilon=args.tie_epsilon)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(flight.format_report(report))
    if (
        args.max_mispick_rate is not None
        and report["records"]
        and report["mispick_rate"] > args.max_mispick_rate
    ):
        print(
            f"calibrate: mispick rate {report['mispick_rate']:.1%} exceeds "
            f"threshold {args.max_mispick_rate:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_inspect(args) -> int:
    """``inspect``: per-request speculation/quality report for one matrix.

    Runs one fully-instrumented reorder and prints what the run *did*:
    the level-structure shape (the parallelism ceiling of any
    level-synchronous execution), the speculation economy (discovered vs
    dropped work, rediscovery passes, net efficiency), per-worker busy-time
    load imbalance, and the quality deltas the request actually bought.
    """
    import json

    from repro import reorder, telemetry
    from repro.sparse.bandwidth import envelope_after, envelope_size
    from repro.sparse.graph import bfs_levels

    tel = telemetry.get()
    tel.reset()
    telemetry.enable()
    mat = _get_input(args)
    start = "peripheral" if args.peripheral else "min-valence"
    res = reorder(
        mat, method=args.method, start=start, n_workers=args.workers
    )

    # level structure from the first component's chosen start: its width
    # profile bounds the exploitable parallelism of this request
    seed = res.start_nodes[0] if res.start_nodes else 0
    levels = bfs_levels(mat, seed)
    reached = levels >= 0
    widths = (
        np.bincount(levels[reached])
        if bool(reached.any()) else np.zeros(1, dtype=np.int64)
    )

    snap = tel.snapshot()
    counters = snap["counters"]
    disc = int(counters.get("threads.speculation.discovered", 0))
    drop = int(counters.get("threads.speculation.dropped", 0))
    redisc = int(counters.get("threads.speculation.rediscovery_passes", 0))
    efficiency = snap["gauges"].get("threads.speculation.efficiency")
    if efficiency is None and disc > 0:
        efficiency = (disc - drop) / disc

    # per-worker busy nanoseconds over non-Stall spans; max/mean is the
    # headroom a better steal/assignment policy could still recover
    busy: dict = {}
    for r in tel.tracer.records():
        if r.worker is not None and r.name != "Stall":
            busy[r.worker] = busy.get(r.worker, 0) + r.duration_ns
    imbalance = None
    if busy:
        mean_ns = sum(busy.values()) / len(busy)
        imbalance = max(busy.values()) / mean_ns if mean_ns else None

    init_env = envelope_size(mat)
    reord_env = int(envelope_after(mat, res.permutation))
    report = {
        "matrix": args.matrix or args.matrix_file,
        "n": mat.n,
        "nnz": mat.nnz,
        "method": res.method,
        "workers": args.workers,
        "wall_ms": res.wall_ms,
        "levels": {
            "depth": int(widths.size),
            "max_width": int(widths.max()) if widths.size else 0,
            "avg_width": float(widths.mean()) if widths.size else 0.0,
        },
        "speculation": {
            "discovered": disc,
            "dropped": drop,
            "rediscovery_passes": redisc,
            "efficiency": efficiency,
        },
        "workers_busy_ms": {
            str(w): ns / 1e6 for w, ns in sorted(busy.items())
        },
        "load_imbalance": imbalance,
        "quality": {
            "bandwidth_before": res.initial_bandwidth,
            "bandwidth_after": res.reordered_bandwidth,
            "bandwidth_reduction": (
                1.0 - res.reordered_bandwidth / res.initial_bandwidth
                if res.initial_bandwidth else None
            ),
            "envelope_before": init_env,
            "envelope_after": reord_env,
            "envelope_reduction": (
                1.0 - reord_env / init_env if init_env else None
            ),
        },
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    print(f"matrix={report['matrix']}  n={mat.n}  nnz={mat.nnz}  "
          f"method={res.method}  workers={args.workers}  "
          f"wall={res.wall_ms:.3f} ms")
    lv = report["levels"]
    print(f"level structure: depth={lv['depth']}  "
          f"max width={lv['max_width']}  avg width={lv['avg_width']:.1f}")
    if disc > 0:
        drop_pct = drop / disc * 100.0
        print(f"speculation: discovered={disc}  dropped={drop} "
              f"({drop_pct:.1f}%)  rediscovery passes={redisc}  "
              f"efficiency={efficiency:.3f}")
    else:
        print(f"speculation: none recorded (method={res.method} is not "
              f"speculative or the run was trivial)")
    if busy:
        per_worker = "  ".join(
            f"w{w}={ms:.2f}ms" for w, ms in
            ((w, ns / 1e6) for w, ns in sorted(busy.items()))
        )
        print(f"worker busy time: {per_worker}")
        print(f"load imbalance (max/mean busy): {imbalance:.2f}")
    q = report["quality"]
    bw_red = q["bandwidth_reduction"]
    env_red = q["envelope_reduction"]
    print(f"bandwidth: {q['bandwidth_before']} -> {q['bandwidth_after']}"
          + (f"  ({bw_red:.1%} reduction)" if bw_red is not None else ""))
    print(f"envelope:  {q['envelope_before']} -> {q['envelope_after']}"
          + (f"  ({env_red:.1%} reduction)" if env_red is not None else ""))
    return 0


def cmd_cache(args) -> int:
    """``cache``: inspect or invalidate a disk-tier permutation cache."""
    import json
    import time

    from repro.service import PermutationCache

    cache_dir = Path(args.cache_dir)
    if args.invalidate:
        # the listing truncates digests to 16 chars, so accept any
        # unambiguous prefix of a stored digest
        digest = args.invalidate
        matches = [
            p.stem for p in cache_dir.glob("*.npz")
            if p.stem.startswith(digest)
        ] if cache_dir.exists() else []
        if len(matches) > 1:
            print(f"ambiguous digest prefix {digest} "
                  f"({len(matches)} matches)", file=sys.stderr)
            return 1
        if matches:
            digest = matches[0]
        if not PermutationCache(disk_dir=cache_dir).invalidate(digest):
            print(f"no entry for {digest}")
            return 1
        print(f"removed {digest}")
        return 0

    if args.clear:
        n_before = (
            len(PermutationCache.disk_entries(cache_dir))
            if cache_dir.exists() else 0
        )
        PermutationCache(disk_dir=cache_dir).clear(purge_disk=True)
        print(f"cleared {n_before} entries from {cache_dir}")
        return 0

    if not cache_dir.exists():
        print(f"no cache directory at {cache_dir}", file=sys.stderr)
        return 1
    entries = PermutationCache.disk_entries(cache_dir)
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"{cache_dir}: empty")
        return 0
    now = time.time()
    print(f"{'digest':<16s} {'alg':<10s} {'method':<12s} "
          f"{'n':>8s} {'nnz':>10s} {'bytes':>10s}  age")
    for e in entries:
        if "error" in e:
            print(f"{e['digest'][:16]:<16s} <unreadable>")
            continue
        age = now - (e.get("created") or now)
        print(f"{e['digest'][:16]:<16s} "
              f"{e.get('algorithm', '?'):<10s} "
              f"{e.get('method', '?'):<12s} {e.get('n', 0):>8d} "
              f"{e.get('nnz', 0):>10d} {e.get('perm_bytes', 0):>10d}  "
              f"{age:7.1f}s")
    print(f"{len(entries)} entries in {cache_dir}")
    return 0


def cmd_bench(args) -> int:
    """``bench``: forward to one of the experiment drivers."""
    import importlib

    from repro import telemetry

    if getattr(args, "telemetry", None):
        telemetry.enable()
    mod = importlib.import_module(f"repro.bench.{args.experiment}")
    mod.main(args.rest)
    if getattr(args, "telemetry", None):
        n = telemetry.get().write_jsonl(
            args.telemetry,
            meta={"command": "bench", "experiment": args.experiment},
        )
        print(f"wrote {n} telemetry events to {args.telemetry}")
    return 0


def cmd_backends(args) -> int:
    """``backends``: the registered execution backends and what each honors.

    The default output is the exact Markdown capability table embedded in
    ``docs/api.md`` (regenerate the doc section from here).
    """
    if args.json:
        import json

        print(json.dumps(capability_rows(), indent=2))
    else:
        print(capability_table())
    return 0


def _add_input(parser, required: bool = True) -> None:
    grp = parser.add_mutually_exclusive_group(required=required)
    grp.add_argument("matrix_file", nargs="?", default=None,
                     help="matrix file (.mtx, .mtx.gz, .npz)")
    grp.add_argument("--matrix", default=None,
                     help="named test-set analogue (see 'generate --list')")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    from repro.facade import ALGORITHMS

    methods = list(method_choices())
    parser = argparse.ArgumentParser(
        prog="repro", description="Speculative parallel RCM reordering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="matrix statistics and spy plot")
    _add_input(p)
    p.add_argument("--no-spy", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("reorder", help="compute and apply an ordering")
    _add_input(p)
    p.add_argument("-o", "--output", default=None, help="write reordered matrix")
    p.add_argument("--perm-output", default=None, help="write the permutation")
    p.add_argument("--algorithm", default="rcm", choices=list(ALGORITHMS),
                   help="ordering heuristic (default: rcm)")
    p.add_argument("--method", default="auto", choices=methods,
                   help="RCM execution strategy (default: auto — cheapest "
                        "backend by cost model; see 'repro backends')")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--peripheral", action="store_true",
                   help="pseudo-peripheral start node")
    p.add_argument("--transform", default=None, choices=["auto", "powerlaw"],
                   help="power-law pre-pass (hub extraction + relabeling); "
                        "'auto' applies it only on heavy-tailed patterns")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--spy", action="store_true", help="before/after spy plots")
    p.add_argument("--json", action="store_true",
                   help="machine-readable result (bandwidths, phases, stats)")
    p.add_argument("--telemetry", default=None, metavar="PATH.jsonl",
                   help="record wall-clock telemetry to a JSONL event log")
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("generate", help="write a test-set analogue to a file")
    p.add_argument("matrix", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--list", action="store_true", help="list available names")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trace", help="Gantt / Chrome trace of a simulated run")
    _add_input(p)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("-o", "--output", default=None, help="Chrome-tracing JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile", help="wall-clock telemetry profile (JSONL + Chrome trace)"
    )
    _add_input(p)
    p.add_argument("--method", default="threads", choices=methods)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--peripheral", action="store_true",
                   help="pseudo-peripheral start node")
    p.add_argument("--width", type=int, default=100,
                   help="ASCII Gantt width (columns)")
    p.add_argument("-o", "--output", default="profile",
                   help="output prefix: <prefix>.jsonl + <prefix>.trace.json")
    p.add_argument("--hz", type=float, default=None,
                   help="sampling-profiler rate (default: ~67 Hz)")
    p.add_argument("--flame", default=None, metavar="PATH.folded",
                   help="write folded stacks (collapsed format) for "
                        "flamegraph.pl / inferno / speedscope")
    p.add_argument("--speedscope", default=None, metavar="PATH.json",
                   help="write a speedscope sampled-profile JSON "
                        "(browse at https://www.speedscope.app)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="compare ordering heuristics")
    _add_input(p)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--mindeg", action="store_true",
                   help="include minimum degree (slow/fill-heavy on hubs)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "serve", help="run a batch workload through the reordering service"
    )
    p.add_argument("workload", nargs="?", default=None,
                   help="text file: one matrix spec (path or analogue name) "
                        "per line; '#' comments allowed")
    p.add_argument("--matrix", action="append", default=None,
                   help="add a named analogue to the workload (repeatable)")
    p.add_argument("--algorithm", default="rcm", choices=list(ALGORITHMS))
    p.add_argument("--method", default="auto", choices=methods)
    p.add_argument("--workers", type=int, default=2,
                   help="service worker threads (default: 2)")
    p.add_argument("--repeat", type=int, default=1,
                   help="cycle the workload N times (exercises the cache)")
    p.add_argument("--capacity", type=int, default=128,
                   help="in-memory cache entries (LRU bound)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="bounded submission queue size")
    p.add_argument("--batch-window-ms", type=float, default=0.0,
                   metavar="MS",
                   help="batched admission: hold requests up to MS "
                        "milliseconds and dispatch them as one group "
                        "(0 = per-request dispatch, the default)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max requests per admission batch (default 16)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request timeout in seconds")
    p.add_argument("--cache-dir", default=None,
                   help="disk cache tier directory (persists across runs)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable requests + service stats")
    p.add_argument("--telemetry", default=None, metavar="PATH.jsonl",
                   help="record wall-clock telemetry to a JSONL event log")
    p.add_argument("--listen", type=int, default=None, metavar="PORT",
                   help="serve /metrics, /healthz and /statusz on "
                        "127.0.0.1:PORT while the workload runs "
                        "(0 = OS-assigned; implies telemetry)")
    p.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                   help="keep the --listen endpoint up this long after the "
                        "workload drains (scrape window for smoke tests)")
    p.add_argument("--flight", default=None, metavar="PATH.jsonl",
                   help="record method=auto cost-model resolutions to a "
                        "flight-recorder ring file")
    p.add_argument("--profile", action="store_true",
                   help="run the continuous sampling profiler for the "
                        "workload (implies telemetry; with --listen also "
                        "surfaces /debug/flame + /debug/critpath, a "
                        "profiler: line in /statusz and "
                        "telemetry.profiler.* gauges)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "telemetry",
        help="run history, trends, flight calibration, critical path, "
             "inventory",
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    tp = tsub.add_parser(
        "ingest",
        help="append one provenance-stamped run record to the history store",
    )
    tp.add_argument("--results-dir", default="benchmarks/results",
                    help="directory holding BENCH_*.json artifacts "
                         "(default: benchmarks/results)")
    tp.add_argument("--history", default="benchmarks/results/history.jsonl",
                    help="history store path (append-only JSONL)")
    tp.add_argument("--flight", default=None, metavar="PATH.jsonl",
                    help="fold this flight-recorder file's calibration "
                         "summary into the run record")
    tp.set_defaults(func=cmd_telemetry)
    tp = tsub.add_parser(
        "trend",
        help="noise-aware per-benchmark trend verdicts over the history",
    )
    tp.add_argument("--history", default="benchmarks/results/history.jsonl",
                    help="history store path (append-only JSONL)")
    tp.add_argument("--check", action="store_true",
                    help="exit 1 when any benchmark's verdict is FAIL")
    tp.add_argument("--since", default=None, metavar="SHA",
                    help="only consider runs at or after this git sha prefix")
    tp.add_argument("--window", type=int, default=20,
                    help="rolling window of prior runs per verdict "
                         "(default: 20)")
    tp.add_argument("--min-samples", type=int, default=5,
                    help="prior samples required before verdicts are "
                         "statistical; fewer yields SKIP (default: 5)")
    tp.add_argument("--warn-only", action="store_true",
                    help="report FAILs but always exit 0 (PR-CI mode)")
    tp.add_argument("--json", action="store_true",
                    help="print the machine-readable verdict document")
    tp.add_argument("--verdict-out", default=None, metavar="PATH.json",
                    help="also write the verdict document to a file")
    tp.set_defaults(func=cmd_telemetry)
    tp = tsub.add_parser(
        "calibrate",
        help="predicted-vs-actual report over a flight-recorder file",
    )
    tp.add_argument("flight", help="flight-recorder JSONL file")
    tp.add_argument("--tie-epsilon", type=float, default=0.05,
                    help="relative margin below which competing predictions "
                         "count as a tie, not a mispick (default: 0.05)")
    tp.add_argument("--max-mispick-rate", type=float, default=None,
                    help="exit non-zero when the overall mispick rate "
                         "exceeds this fraction")
    tp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    tp.set_defaults(func=cmd_telemetry)
    tp = tsub.add_parser(
        "critpath",
        help="critical-path + what-if report over a telemetry span log",
    )
    tp.add_argument("events", help="telemetry JSONL event log (the "
                                   "profile/serve --telemetry output)")
    tp.add_argument("--trace", default=None, metavar="TRACE_ID",
                    help="restrict the analysis to one request's trace id")
    tp.add_argument("--what-if-factor", type=float, default=2.0,
                    metavar="X",
                    help="hypothetical per-phase speedup for the what-if "
                         "estimates (default: 2.0)")
    tp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    tp.set_defaults(func=cmd_telemetry)
    tp = tsub.add_parser(
        "inventory",
        help="print the generated Prometheus metric inventory table",
    )
    tp.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "inspect",
        help="per-request speculation/quality report for one matrix",
    )
    _add_input(p)
    p.add_argument("--method", default="threads", choices=methods,
                   help="RCM execution strategy (default: threads — the "
                        "speculative backend the report is about)")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--peripheral", action="store_true",
                   help="pseudo-peripheral start node")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "cache", help="inspect or invalidate a disk permutation cache"
    )
    p.add_argument("cache_dir", help="disk cache tier directory")
    p.add_argument("--invalidate", metavar="DIGEST", default=None,
                   help="remove one entry by its content-hash digest "
                        "(any unambiguous prefix)")
    p.add_argument("--clear", action="store_true",
                   help="remove every entry")
    p.add_argument("--json", action="store_true",
                   help="machine-readable entry listing")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "backends", help="list registered execution backends + capabilities"
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable capability rows")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser("bench", help="run an experiment driver")
    p.add_argument("experiment",
                   choices=["table1", "fig1", "fig2", "fig3", "fig4", "fig5",
                            "fig6", "ablation", "paper", "speedup",
                            "throughput"])
    p.add_argument("--telemetry", default=None, metavar="PATH.jsonl",
                   help="record wall-clock telemetry to a JSONL event log")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to the driver")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and not args.list:
        if not args.matrix or not args.output:
            parser.error("generate requires a matrix name and -o OUTPUT")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
