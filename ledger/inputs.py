"""Deterministic workload inputs: everything here is a function of the seed.

The library only ever sees the matrices built here.  The seed picks the
random instances, the relabelings and the service request plan; input
sizes are fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.sparse import CSRMatrix
from repro.matrices import (
    banded,
    delaunay_mesh,
    get_matrix,
    grid2d,
    road_network,
    shuffled,
)

#: suite matrices of the cold ladder, smallest to largest front
LADDER = (
    "bcspwr10",
    "bodyy4",
    "great-britain_osm",
    "hugebubbles-00020",
    "coPapersDBLP",
    "mycielskian18",
    "nlpkkt240",
)
#: the ladder's many-component input: 8 disjoint 120x120 grids
BLOCKDIAG = "blockdiag-8x-grid2d-120"

#: generator families of the small patterns, used round-robin
SMALL_FAMILIES = ("mesh", "grid", "road", "banded")
SMALL_NODES = (400, 2500)

#: the service request plan: Zipf exponent of the pool patterns'
#: popularity, share of requests for a fresh pattern, and the plan's
#: length (far more requests than any run sends)
ZIPF_S = 1.1
FRESH_SHARE = 0.1
PLAN_LENGTH = 200_000


def rng(seed: int, tag: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _draw_seed(r: np.random.Generator) -> int:
    return int(r.integers(2**31))


def block_diagonal(mats: List[CSRMatrix]) -> CSRMatrix:
    """The disjoint union of ``mats`` (one component per block)."""
    node_off = np.cumsum([0] + [m.n for m in mats])
    nnz_off = np.cumsum([0] + [m.nnz for m in mats])
    indptr = np.concatenate(
        [[0]] + [m.indptr[1:] + nnz_off[i] for i, m in enumerate(mats)]
    )
    indices = np.concatenate(
        [m.indices + node_off[i] for i, m in enumerate(mats)]
    )
    return CSRMatrix(indptr, indices)


def ladder(seed: int) -> List[Tuple[str, CSRMatrix]]:
    """The eight cold-ladder inputs, each under a seeded relabeling."""
    r = rng(seed, "ladder")
    mats = [(name, get_matrix(name, cache=False)) for name in LADDER]
    mats.append((BLOCKDIAG, block_diagonal([grid2d(120, 120)] * 8)))
    return [(name, shuffled(m, seed=_draw_seed(r))) for name, m in mats]


def slot_size(slot: int, count: int) -> int:
    """Node count of small-pattern slot ``slot`` out of ``count``.

    Sizes are fixed per slot and spread evenly over :data:`SMALL_NODES`,
    interleaved (stride 53) so that neighbouring slots, which sit next to
    each other in Zipf popularity, differ in size.  Every seed therefore
    asks for the same amount of work; the seed picks the instances.
    """
    lo, hi = SMALL_NODES
    k = (slot * 53) % count
    return lo + (hi - lo) * k // max(count - 1, 1)


def small_pattern(family: str, n: int, r: np.random.Generator) -> CSRMatrix:
    """One ``n``-node pattern of ``family``, relabeled at random."""
    if family == "mesh":
        m = delaunay_mesh(n, seed=_draw_seed(r))
    elif family == "grid":
        nx = 16 + n % 35
        m = grid2d(nx, max(n // nx, 8))
    elif family == "road":
        m = road_network(n, seed=_draw_seed(r))
    elif family == "banded":
        m = banded(n, 2 + n % 7, density=0.7, seed=_draw_seed(r))
    else:
        raise ValueError(f"unknown family {family!r}")
    return shuffled(m, seed=_draw_seed(r))


def small_patterns(seed: int, tag: str, count: int) -> List[CSRMatrix]:
    """``count`` distinct small patterns, families round-robin."""
    r = rng(seed, tag)
    return [
        small_pattern(
            SMALL_FAMILIES[i % len(SMALL_FAMILIES)], slot_size(i, count), r
        )
        for i in range(count)
    ]


@dataclass(frozen=True)
class RequestPlan:
    """The service workload's request sequence.

    ``items[i] >= 0`` asks for pool pattern ``items[i]``; ``items[i] < 0``
    asks for fresh pattern ``k = -items[i] - 1``: pool pattern
    ``k % n_pool`` under a relabeling no earlier request used, so its
    content hash is new.  Pool pattern ``i`` has Zipf(:data:`ZIPF_S`)
    popularity rank ``i + 1``, a request is fresh with probability
    :data:`FRESH_SHARE`, and the plan holds :data:`PLAN_LENGTH` requests.
    """

    items: np.ndarray
    fresh_base: np.ndarray
    fresh_seed: np.ndarray

    @classmethod
    def build(cls, seed: int, n_pool: int) -> "RequestPlan":
        r = rng(seed, "plan")
        weights = np.arange(1, n_pool + 1, dtype=np.float64) ** -ZIPF_S
        cdf = np.cumsum(weights) / weights.sum()
        ranks = np.minimum(
            np.searchsorted(cdf, r.random(PLAN_LENGTH)), n_pool - 1
        )
        items = ranks.astype(np.int64)
        fresh = r.random(PLAN_LENGTH) < FRESH_SHARE
        n_fresh = int(fresh.sum())
        items[fresh] = -1 - np.arange(n_fresh)
        return cls(
            items=items,
            fresh_base=np.arange(n_fresh) % n_pool,
            fresh_seed=r.integers(2**31, size=n_fresh),
        )

    def fresh_pattern(self, pool: List[CSRMatrix], k: int) -> CSRMatrix:
        return shuffled(
            pool[int(self.fresh_base[k])], seed=int(self.fresh_seed[k])
        )
