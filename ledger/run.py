"""Run one ledger workload and print its metrics.

    python3 ledger/run.py --workload ladder-cold --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workload's set-up (inputs, serial goldens, warm pool or cache) runs
``SETUP_REPEATS`` times and ``setup_s`` is the median.  With ``--trace 0``
the whole window is measured untraced and every end-to-end metric listed in
``BENCHMARK.json`` is reported; with ``--trace 1`` untraced passes and
passes under the ledger's spans take turns, and every per-layer metric is
reported (0 where the workload does not cross that layer).
Every output is checked against a golden; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: how long a child may take to end on its own before it is killed
CHILD_GRACE_S = 20.0


def _import_library() -> None:
    """Put ``src/`` and the repository root on the path and import repro
    from there, with its telemetry and flight recorder off."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no library sources under {src}")
    # the ledger measures the default transport and records no flights
    os.environ.pop("REPRO_NO_SHM", None)
    os.environ.pop("REPRO_FLIGHT_PATH", None)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro
    from repro.telemetry import flight

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"ledger: imported repro from {repro.__file__}")
    repro.telemetry.disable()
    flight.disable_recording()


def host_stamp() -> dict:
    import numpy
    import scipy

    sha = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
        capture_output=True, text=True, check=False,
    ).stdout.strip() if shutil.which("git") else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": sha or "unknown",
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def _children() -> list:
    """The live child processes of this process."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:  # the thread ended, or no children file
            pass
    return pids


def _processes() -> list:
    """This process and its live children (the pool's workers)."""
    return [os.getpid()] + _children()


def _reap(pid: int, deadline: float) -> None:
    """Wait for child ``pid`` to end; past ``deadline``, kill it and wait."""
    while time.monotonic() < deadline:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # already reaped
            return
        if done:
            return
        time.sleep(0.02)
    print(f"ledger: child {pid} did not end; killing it", file=sys.stderr)
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def stop_children() -> None:
    """End every process this run started, and wait until each has ended.

    The pools are shut down before this.  What is left is the
    multiprocessing resource tracker, which the shared-memory transport
    starts and which would otherwise outlive this process by however long
    it takes to notice the exit.  Segments still owned are unlinked first
    (the library's own exit sweep would restart the tracker to unregister
    them); then the tracker's pipe is closed, which ends it.  Any other
    child is terminated.
    """
    from multiprocessing import resource_tracker

    from repro.parallel import shm

    shm.sweep_leaked()
    deadline = time.monotonic() + CHILD_GRACE_S
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is not None:
        _reap(pid, deadline)
    for child in _children():
        try:
            os.kill(child, signal.SIGTERM)
        except ProcessLookupError:
            continue
        _reap(child, deadline)


def reset_peak_rss() -> None:
    """Restart the resident-set high-water mark of every process of the
    run, so the next :func:`peak_rss_mb` covers only what follows."""
    for pid in _processes():
        try:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        except OSError as exc:
            print(
                f"ledger: cannot reset the peak RSS of {pid} ({exc}); "
                f"peak_rss_mb covers its whole life",
                file=sys.stderr,
            )


def peak_rss_mb() -> float:
    """Summed resident-set high-water marks of this process and its live
    children, in MiB (pages a forked worker shares with this process count
    in both)."""
    kb = 0
    for pid in _processes():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:  # the child exited
            continue
        kb += next(
            int(line.split()[1]) for line in status.splitlines()
            if line.startswith("VmHWM:")
        )
    return kb / 1024.0


def end_to_end(window, setup_s, rss_mb) -> dict:
    from ledger import stats

    return {
        "setup_s": stats.median(setup_s),
        "requests_per_s": window.requests_per_s,
        "mnnz_per_s": window.nnz / 1e6 / window.seconds,
        # a pass holds a fixed mix of inputs, so a pooled percentile sits
        # on the edge between two inputs' latencies and jumps with the
        # number of passes: take each pass's percentile and report the
        # median over passes
        "latency_p50_ms": stats.median(window.pass_p50_ms or [0.0]),
        "latency_p95_ms": stats.median(window.pass_p95_ms or [0.0]),
        "peak_rss_mb": rss_mb,
        "sweep_s": stats.median(window.passes_s or [0.0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    from repro.parallel import reset_pools

    from ledger import speed, stats
    from ledger.common import measure, measure_traced
    from ledger.tracer import Tracer
    from ledger.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    stamp = host_stamp()
    print(f"ledger: {args.workload} seed={args.seed} {stamp}", file=sys.stderr)

    work_root = ROOT / ".ledger_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    )
    wl = None
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            if wl is not None:
                # one workload alive at a time
                wl.close()
                wl = None
                reset_pools()
                gc.collect()
            before = speed.probe()
            t0 = time.perf_counter()
            wl = make(args.seed, nproc, workdir / f"setup-{i}")
            wall = time.perf_counter() - t0
            setup_s.append(wall * speed.scale(before, speed.probe()))

        if args.trace == 0:
            gc.collect()
            reset_peak_rss()
            window = measure(wl.steps(), args.seconds)
            values = end_to_end(window, setup_s, peak_rss_mb())
            declared = spec["end_to_end"]
        else:
            tracer = Tracer()
            window, overhead = measure_traced(
                wl.steps(), args.seconds, tracer, lambda: wl.traced(tracer)
            )
            with wl.traced(tracer):
                values = wl.layers(tracer)
            values["trace.overhead_pct"] = overhead
            declared = spec["per_layer"]
        checked, failures = wl.finish()
    finally:
        if wl is not None:
            wl.close()
        reset_pools()
        gc.collect()
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = window.failed + len(failures)
    attempted = window.attempted + checked
    print(
        f"ledger: {window.raw_seconds:.1f} s measured, host-speed scale "
        f"median {stats.median(window.scales):.3f} "
        f"(min {min(window.scales):.3f}, max {max(window.scales):.3f})",
        file=sys.stderr,
    )
    lat = window.latencies_ms
    if lat:
        t = stats.tail(lat, 95.0)
        print(
            f"ledger: {len(lat)} latency samples in {len(window.pass_p95_ms)}"
            f" passes; pooled, {t.beyond} lie above p95 "
            f"({'meets' if t.supported else 'below'} the >= "
            f"{stats.MIN_BEYOND} rule, which needs "
            f"{stats.samples_needed(95.0)}); latency_p95_ms is the median "
            f"of the per-pass p95",
            file=sys.stderr,
        )
    for f in (window.failures + failures)[:20]:
        print(f"ledger: FAILED {f}", file=sys.stderr)

    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise SystemExit(f"ledger: undeclared metrics {unknown}")
    off_path = [n for n in names if n not in values]
    if off_path:
        print(
            f"ledger: reported as 0, not on this workload's path: "
            f"{', '.join(off_path)}",
            file=sys.stderr,
        )
    metrics = {}
    for m in declared:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<42} {value:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
