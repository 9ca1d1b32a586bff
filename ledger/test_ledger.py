"""Tests of the ledger's own helpers.

    PYTHONPATH=src python3 -m pytest ledger/test_ledger.py -q
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from ledger import inputs, stats  # noqa: E402
from ledger.common import check_all, measure_traced  # noqa: E402
from ledger.common import same_permutation  # noqa: E402
from ledger.tracer import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule and quartiles
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond():
    need = stats.samples_needed(95.0)
    assert stats.tail(list(range(need)), 95.0).beyond >= stats.MIN_BEYOND
    assert stats.tail(list(range(need)), 95.0).supported
    short = stats.tail(list(range(need - 1)), 95.0)
    assert short.beyond < stats.MIN_BEYOND
    assert not short.supported


def test_tail_value_and_count():
    xs = [float(x) for x in range(1, 201)]
    t = stats.tail(xs, 95.0)
    assert t.value == pytest.approx(np.percentile(xs, 95.0))
    assert t.n == 200
    assert t.beyond == sum(x > t.value for x in xs) == 10


def test_quartiles_match_statistics_module():
    xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    q1, q2, q3 = stats.quartiles(list(range(1, 11)))
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)


# ----------------------------------------------------------------------
# deterministic inputs
# ----------------------------------------------------------------------
def test_request_plan_is_deterministic_per_seed():
    a = inputs.RequestPlan.build(7, 128)
    b = inputs.RequestPlan.build(7, 128)
    c = inputs.RequestPlan.build(8, 128)
    for field in ("items", "fresh_base", "fresh_seed"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.items, c.items)


def test_request_plan_mix():
    plan = inputs.RequestPlan.build(3, 128)
    fresh = plan.items < 0
    assert abs(fresh.mean() - inputs.FRESH_SHARE) < 0.01
    # fresh ids are handed out once each, in order
    assert np.array_equal(-plan.items[fresh] - 1, np.arange(fresh.sum()))
    counts = np.bincount(plan.items[~fresh], minlength=128)
    # Zipf(1.1): the hottest pattern draws far more than the median one
    assert counts.max() > 20 * np.median(counts)


def test_fresh_patterns_are_new_and_reproducible():
    pool = inputs.small_patterns(5, "t", 4)
    plan = inputs.RequestPlan.build(5, len(pool))
    f0 = plan.fresh_pattern(pool, 0)
    again = plan.fresh_pattern(pool, 0)
    assert np.array_equal(f0.indices, again.indices)
    base = pool[int(plan.fresh_base[0])]
    assert f0.nnz == base.nnz
    assert not np.array_equal(f0.indices, base.indices)


def test_small_patterns_are_deterministic_per_seed():
    a = inputs.small_patterns(1, "t", 8)
    b = inputs.small_patterns(1, "t", 8)
    c = inputs.small_patterns(2, "t", 8)
    assert all(
        np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
        for x, y in zip(a, b)
    )
    assert all(x.n == y.n for x, y in zip(a, c))
    assert all(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))
    lo, hi = inputs.SMALL_NODES
    assert all(lo // 2 <= m.n <= hi for m in a)


def test_ladder_is_shuffled_deterministically():
    a = inputs.ladder(4)
    b = inputs.ladder(4)
    c = inputs.ladder(5)
    assert [n for n, _ in a] == list(inputs.LADDER) + [inputs.BLOCKDIAG]
    for (_, x), (_, y), (_, z) in zip(a, b, c):
        assert np.array_equal(x.indices, y.indices)
        assert x.nnz == z.nnz
        assert not np.array_equal(x.indices, z.indices)


def test_block_diagonal():
    from repro.matrices import grid2d

    g = grid2d(5, 4)
    bd = inputs.block_diagonal([g, g, g])
    assert (bd.n, bd.nnz) == (3 * g.n, 3 * g.nnz)
    assert np.array_equal(bd.indices[g.nnz:2 * g.nnz], g.indices + g.n)


# ----------------------------------------------------------------------
# golden check
# ----------------------------------------------------------------------
def test_golden_check_fails_on_one_flipped_entry():
    golden = np.random.default_rng(0).permutation(1000).astype(np.int64)
    assert same_permutation(golden, golden.copy())
    flipped = golden.copy()
    flipped[[10, 11]] = flipped[[11, 10]]
    assert not same_permutation(golden, flipped)
    assert not same_permutation(golden, golden.astype(np.int32))
    assert not same_permutation(golden, golden[:-1])

    goldens = [golden, golden[::-1].copy(), golden + 0]
    assert check_all("t", goldens, [g.copy() for g in goldens]) == []
    assert len(check_all("t", goldens, [goldens[0], flipped, goldens[2]])) == 1
    # a list one output short fails even though every output present matches
    assert len(check_all("t", goldens, goldens[:-1])) == 1
    assert len(check_all("t", goldens[:-1], goldens)) == 1


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class _Owner:
    @staticmethod
    def work(x):
        time.sleep(0.002)
        return x + 1


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    original = _Owner.__dict__["work"]
    with tracer.patch(_Owner, "work", "work"):
        with tracer.span("outer"):
            assert _Owner.work(1) == 2
    assert _Owner.__dict__["work"] is original
    (outer,) = tracer.named("outer")
    (inner,) = tracer.named("work")
    assert inner.parent is outer
    assert outer.self_ns == outer.ns - inner.ns
    assert tracer.children()[outer.sid] == [inner]


def test_traced_overhead_pairs_alternating_passes():
    order = []

    def step(w, tracer):
        order.append(tracer is not None)
        time.sleep(0.02 if tracer is not None else 0.01)
        w.attempted += 4

    tracer = Tracer()
    window, overhead = measure_traced(
        [step], 0.2, tracer, lambda: tracer.span("patched")
    )
    assert order[:4] == [False, True, True, False]
    assert order.count(True) == order.count(False) == len(tracer.spans)
    assert window.attempted == 4 * len(order)
    # traced passes take twice as long: half the throughput
    assert 60.0 < overhead < 140.0


# ----------------------------------------------------------------------
# process clean-up
# ----------------------------------------------------------------------
def test_stop_children_ends_the_tracker_and_other_children():
    """Run in a fresh interpreter: the resource tracker and a stray child
    are both gone, and reaped, once ``stop_children`` returns, well before
    the grace period that would have them killed."""
    import os
    import subprocess

    root = Path(__file__).resolve().parent.parent
    script = (
        "import subprocess, sys, time\n"
        "from multiprocessing import resource_tracker\n"
        "from ledger import run\n"
        "resource_tracker.ensure_running()\n"
        "stray = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        "assert len(run._children()) == 2, run._children()\n"
        "t0 = time.monotonic()\n"
        "run.stop_children()\n"
        "fast = time.monotonic() - t0 < run.CHILD_GRACE_S / 2\n"
        "print(run._children(), stray.poll() is not None, fast)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": f"{_SRC}{os.pathsep}{root}"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "True", "True"]
