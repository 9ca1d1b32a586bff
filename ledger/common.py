"""Plumbing shared by the workloads: measured windows, output checks and
the per-layer arithmetic over results and spans."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro

from ledger import speed, stats
from ledger.tracer import Span, Tracer

#: a single call slower than this counts as failed (timed out)
CALL_TIMEOUT_S = 60.0

#: pipeline phases read from ``ReorderResult.phase_ns`` (the components,
#: start-selection and assembly phases have no public entry point)
PHASES = ("validate", "components", "start-selection", "ordering", "assembly")


@dataclass
class Window:
    """What one step, one pass, or a measured window of passes, saw.

    A pass is a fixed list of steps (one call each, or one service sweep).
    Timings are scaled to the host's nominal speed step by step (see
    :mod:`ledger.speed`); ``raw_seconds`` keeps the unscaled time.
    """

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    nnz: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: time of each pass
    passes_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    raw_seconds: float = 0.0
    scales: List[float] = field(default_factory=list)
    #: median and 95th-percentile latency of each pass
    pass_p50_ms: List[float] = field(default_factory=list)
    pass_p95_ms: List[float] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)

    def merge(self, other: "Window") -> None:
        """Absorb the counts, samples, timings and failures of ``other``."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.nnz += other.nnz
        self.latencies_ms += other.latencies_ms
        self.failures += other.failures
        self.seconds += other.seconds
        self.raw_seconds += other.raw_seconds
        self.scales += other.scales
        self.passes_s += other.passes_s
        self.pass_p50_ms += other.pass_p50_ms
        self.pass_p95_ms += other.pass_p95_ms

    def scaled(self, scale: float) -> "Window":
        """This step with its timings multiplied by ``scale``."""
        return Window(
            seconds=self.seconds * scale,
            attempted=self.attempted,
            failed=self.failed,
            nnz=self.nnz,
            latencies_ms=[lat * scale for lat in self.latencies_ms],
            failures=self.failures,
            raw_seconds=self.seconds,
            scales=[scale],
        )

    @property
    def requests_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds


#: a window stops after this many times its length of wall time even when
#: its scaled time falls short (a host far below nominal speed)
WALL_CAP = 1.5


def run_pass(steps, tracer, before: float) -> Tuple[Window, float]:
    """One pass: every step of ``steps`` in turn, each timed between two
    host-speed probes and scaled by them.  ``before`` is the probe taken
    before the first step; returns the pass and the probe after the last.

    A step is a callable ``step(window, tracer)`` that records what it
    answered into ``window``.  Probing step by step follows the host's
    drift more closely than probing around whole passes.
    """
    p = Window()
    for step in steps:
        w = Window()
        t0 = time.perf_counter()
        step(w, tracer)
        w.seconds = time.perf_counter() - t0
        after = speed.probe()
        p.merge(w.scaled(speed.scale(before, after)))
        before = after
    if p.latencies_ms:
        p.pass_p50_ms = [stats.median(p.latencies_ms)]
        p.pass_p95_ms = [stats.tail(p.latencies_ms, 95.0).value]
    p.passes_s = [p.seconds]
    return p, before


def measure(steps, seconds: float) -> Window:
    """Whole untraced passes over ``steps`` until their scaled time reaches
    ``seconds``.

    Counting scaled time keeps the number of passes, and with it which
    samples the percentiles land on, independent of the host's drift.
    """
    total = Window()
    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    before = speed.probe()
    while total.seconds < seconds and time.perf_counter() < wall_deadline:
        p, before = run_pass(steps, None, before)
        total.merge(p)
    return total


def measure_traced(steps, seconds: float, tracer: Tracer,
                   patches) -> Tuple[Window, float]:
    """Untraced and traced passes in turn until their scaled time reaches
    ``seconds``; ``patches()`` opens the spans of a traced pass.

    Returns the window of all passes and the tracer's overhead: the median
    over adjacent (untraced, traced) pairs of untraced over traced
    throughput, minus 1, in percent.  Pairing cancels the host's drift,
    and the pair order alternates so neither kind always runs second.
    """
    total = Window()
    ratios: List[float] = []
    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    before = speed.probe()
    while total.seconds < seconds and time.perf_counter() < wall_deadline:
        rate = {}
        for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            if traced:
                with patches():
                    p, before = run_pass(steps, tracer, before)
            else:
                p, before = run_pass(steps, None, before)
            total.merge(p)
            rate[traced] = p.attempted / p.seconds
        ratios.append(rate[False] / rate[True])
    return total, (stats.median(ratios) - 1.0) * 100.0


def check_all(what: str, goldens: Sequence[np.ndarray],
              perms: Sequence) -> List[str]:
    """One failure per output that differs from its golden, and one when
    there are not exactly as many outputs as goldens."""
    failures = []
    if len(perms) != len(goldens):
        failures.append(
            f"{what}: {len(perms)} outputs for {len(goldens)} goldens"
        )
    for i, (g, p) in enumerate(zip(goldens, perms)):
        if not same_permutation(g, p):
            failures.append(f"{what}: entry {i} differs from its golden")
    return failures


def serial_golden(mat, nproc: int) -> np.ndarray:
    """The reference answer: the pure-Python serial RCM, one call."""
    return repro.reorder(mat, method="serial", n_workers=nproc).permutation


def same_permutation(golden: np.ndarray, perm) -> bool:
    """Byte-identical: same dtype, same length, same entries."""
    perm = np.asarray(perm)
    return perm.dtype == golden.dtype and np.array_equal(perm, golden)


def ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


# ----------------------------------------------------------------------
# per-layer arithmetic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Computed:
    """One computed (not cached) result: its input size, its phase times
    and, when traced, the facade span around it."""

    nnz: int
    method: str
    phase_ns: Dict[str, int]
    outer: Optional[Span] = None


def phase_metrics(rows: Sequence[Computed]) -> Dict[str, float]:
    """Per-phase cost (ms per million input nonzeros, share of the summed
    phase time) plus median start-selection time and auto's pick shares."""
    if not rows:
        return {}
    mnnz = sum(r.nnz for r in rows) / 1e6
    total = {p: sum(r.phase_ns.get(p, 0) for r in rows) / 1e6 for p in PHASES}
    pipeline = sum(sum(r.phase_ns.values()) for r in rows) / 1e6
    out = {
        f"{p.replace('-', '_')}.ms_per_mnnz": total[p] / mnnz
        for p in ("validate", "components", "ordering", "assembly")
    }
    for p in ("validate", "components", "ordering"):
        out[f"{p}.share"] = total[p] / pipeline
    out["start_selection.ms"] = stats.median(
        [r.phase_ns.get("start-selection", 0) / 1e6 for r in rows]
    )
    for m in ("serial", "vectorized", "parallel"):
        out[f"backends.picks.{m}"] = sum(r.method == m for r in rows) / len(rows)
    return out


def facade_checks(rows: Sequence[Computed], tracer: Tracer
                  ) -> Tuple[Dict[str, float], List[str]]:
    """``facade.self_ms`` (outer span minus the summed phases) and the
    consistency of the phases with the spans traced inside them.

    A phase may never exceed the outer span, and the traced calls inside
    the validate and ordering phases must fit inside those phases.
    """
    kids = tracer.children()
    selfs, problems = [], []
    slack_ns = 50_000
    for r in rows:
        if r.outer is None:
            continue
        phases = sum(r.phase_ns.values())
        selfs.append((r.outer.ns - phases) / 1e6)
        if phases > r.outer.ns:
            problems.append(
                f"phases sum to {phases} ns inside a {r.outer.ns} ns call"
            )
        inside = {"validate": 0, "ordering": 0}
        for k in kids.get(r.outer.sid, ()):
            if k.name.startswith("backend."):
                inside["ordering"] += k.ns
            elif k.name in ("validate_csr", "is_structurally_symmetric"):
                inside["validate"] += k.ns
        for phase, ns in inside.items():
            if ns > r.phase_ns.get(phase, 0) + slack_ns:
                problems.append(
                    f"traced {phase} calls take {ns} ns, phase says "
                    f"{r.phase_ns.get(phase, 0)} ns"
                )
    out = {"facade.self_ms": stats.median(selfs)} if selfs else {}
    return out, problems


def kernel_rates(tracer: Tracer, parents: Iterable[str]) -> Dict[str, float]:
    """ms per million nonzeros of each traced backend run callable, over
    the spans named in ``parents`` (whose ``nnz`` attribute sizes them)."""
    kids = tracer.children()
    ns: Dict[str, int] = {}
    nnz: Dict[str, int] = {}
    names = set(parents)
    for p in tracer.spans:
        if p.name not in names:
            continue
        seen = set()
        for k in kids.get(p.sid, ()):
            if k.name.startswith("backend."):
                m = k.name[len("backend."):]
                ns[m] = ns.get(m, 0) + k.ns
                seen.add(m)
        for m in seen:
            nnz[m] = nnz.get(m, 0) + p.attrs["nnz"]
    return {
        f"kernel.{m}.ms_per_mnnz": ns[m] / 1e6 / (nnz[m] / 1e6)
        for m in ("serial", "vectorized") if m in ns
    }
