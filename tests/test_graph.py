"""Unit tests for the graph-view helpers (BFS, components, fronts)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sparse.csr import CSRMatrix
from repro.sparse.graph import (
    bfs_levels,
    bfs_order,
    level_structure,
    connected_components,
    component_of,
    front_statistics,
    eccentricity_lower_bound,
)
from repro.matrices import generators as g
from repro.core.api import _components_by_min_node


class TestBfsLevels:
    def test_path_levels(self, path5):
        assert list(bfs_levels(path5, 0)) == [0, 1, 2, 3, 4]
        assert list(bfs_levels(path5, 2)) == [2, 1, 0, 1, 2]

    def test_star_levels(self, star):
        levels = bfs_levels(star, 0)
        assert levels[0] == 0
        assert all(levels[1:] == 1)

    def test_unreachable_marked(self, two_triangles):
        levels = bfs_levels(two_triangles, 0)
        assert all(levels[3:] == -1)
        assert all(levels[:3] >= 0)

    def test_matches_networkx(self, small_mesh):
        nx = pytest.importorskip("networkx")
        gx = nx.Graph()
        gx.add_nodes_from(range(small_mesh.n))
        for i in range(small_mesh.n):
            for j in small_mesh.row(i):
                gx.add_edge(i, int(j))
        dist = nx.single_source_shortest_path_length(gx, 0)
        ours = bfs_levels(small_mesh, 0)
        for node, d in dist.items():
            assert ours[node] == d

    def test_start_out_of_range(self, path5):
        with pytest.raises(ValueError):
            bfs_levels(path5, 99)


class TestBfsOrder:
    def test_starts_at_start(self, small_grid):
        order = bfs_order(small_grid, 5)
        assert order[0] == 5

    def test_visits_component_exactly_once(self, two_triangles):
        order = bfs_order(two_triangles, 0)
        assert sorted(order) == [0, 1, 2]

    def test_levels_nondecreasing_along_order(self, small_mesh):
        levels = bfs_levels(small_mesh, 0)
        order = bfs_order(small_mesh, 0)
        seq = levels[order]
        assert np.all(np.diff(seq) >= 0)


class TestLevelStructure:
    def test_partition(self, small_grid):
        ls = level_structure(small_grid, 0)
        allnodes = np.concatenate(ls)
        assert sorted(allnodes) == list(range(small_grid.n))

    def test_level_sets_match_levels(self, path5):
        ls = level_structure(path5, 0)
        assert [list(l) for l in ls] == [[0], [1], [2], [3], [4]]


class TestComponents:
    def test_connected(self, small_grid):
        count, labels = connected_components(small_grid)
        assert count == 1
        assert all(labels == 0)

    def test_two_components(self, two_triangles):
        count, labels = connected_components(two_triangles)
        assert count == 2
        assert list(labels) == [0, 0, 0, 1, 1, 1]

    def test_isolated_nodes(self):
        m = CSRMatrix.from_edges(4, [(0, 1)])
        count, labels = connected_components(m)
        assert count == 3

    def test_component_of(self, two_triangles):
        assert list(component_of(two_triangles, 4)) == [3, 4, 5]


def _bfs_components(mat):
    """The reference: one BFS flood per component, seeded at the smallest
    unseen node — what both components routines replaced."""
    seen = np.zeros(mat.n, dtype=bool)
    comps, labels = [], np.full(mat.n, -1, dtype=np.int64)
    for seed in range(mat.n):
        if seen[seed]:
            continue
        members = np.flatnonzero(bfs_levels(mat, seed) >= 0).astype(np.int64)
        seen[members] = True
        labels[members] = len(comps)
        comps.append(members)
    return comps, labels


@st.composite
def multi_component_graphs(draw):
    """A disjoint union of random connected-ish blocks under a random
    relabeling, plus isolated nodes."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    n = sum(sizes) + draw(st.integers(0, 4))
    relabel = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    edges, base = [], 0
    for size in sizes:
        for i in range(1, size):
            edges.append((base + draw(st.integers(0, i - 1)), base + i))
        extra = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        edges += [(base + a, base + b) for a, b in draw(st.lists(extra, max_size=size))]
        base += size
    edges = [(int(relabel[a]), int(relabel[b])) for a, b in edges]
    return CSRMatrix.from_edges(n, edges)


class TestComponentsMatchBfs:
    """The scipy-backed routines equal the per-component BFS exactly."""

    @given(mat=multi_component_graphs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equal_to_bfs(self, mat):
        want_comps, want_labels = _bfs_components(mat)
        count, labels = connected_components(mat)
        assert count == len(want_comps)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want_labels)
        comps = _components_by_min_node(mat)
        assert len(comps) == len(want_comps)
        for got, want in zip(comps, want_comps):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_empty_matrix(self):
        mat = CSRMatrix(indptr=[0], indices=[], n=0)
        assert _components_by_min_node(mat) == []
        count, labels = connected_components(mat)
        assert count == 0 and labels.size == 0


class TestFrontStatistics:
    def test_path_front(self, path5):
        fs = front_statistics(path5, 0)
        assert fs.depth == 4
        assert fs.max_front == 1
        assert fs.avg_front == pytest.approx(1.0)
        assert fs.reached == 5

    def test_star_front(self, star):
        fs = front_statistics(star, 0)
        assert fs.depth == 1
        assert fs.max_front == 5
        assert fs.reached == 6

    def test_reached_counts_component_only(self, two_triangles):
        fs = front_statistics(two_triangles, 0)
        assert fs.reached == 3

    def test_grid_front_scales_with_side(self):
        fs = front_statistics(g.grid2d(16, 16), 0)
        # corner BFS front is the anti-diagonal, max width = side length
        assert fs.max_front == 16


class TestEccentricity:
    def test_path_end_is_eccentric(self, path5):
        assert eccentricity_lower_bound(path5, 0) == 4
        assert eccentricity_lower_bound(path5, 2) == 2
