"""Association gating, connected components, and the largest isolated clustering.

Oracles: a breadth-first-search connected-components implementation written
here, plus hand-worked gate tables.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfuse.clustering import (
    Cluster,
    compute_lic,
    connected_components,
)
from mbfuse.errors import ConfigError

INF = np.inf


def bfs_components(n, edges):
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, parts = set(), []
    for v in range(n):
        if v in seen:
            continue
        part, queue = set(), deque([v])
        while queue:
            u = queue.popleft()
            if u in part:
                continue
            part.add(u)
            queue.extend(adj[u] - part)
        seen |= part
        parts.append(part)
    return sorted(parts, key=min)


class TestGate:
    def test_boundary_is_inside(self):
        # [TRIVIAL] d == gamma is not a bad pair.
        D = np.array([[4.0, 4.0 + 1e-12]])
        assert compute_lic(D, 4.0) == (
            Cluster(frozenset({0}), frozenset({0})),
            Cluster(frozenset(), frozenset({1})),
        )

    def test_infinite_distance_excluded(self):
        D = np.array([[1.0, INF], [INF, 2.0]])
        assert compute_lic(D, 4.0) == (
            Cluster(frozenset({0}), frozenset({0})),
            Cluster(frozenset({1}), frozenset({1})),
        )


class TestDisjointSet:
    def test_components_vs_bfs_oracle(self):
        # [DERIVED] 1000 random graphs vs an independent BFS implementation.
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(0, 2 * n))
            edges = set()
            for _ in range(m):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            assert connected_components(n, edges) == bfs_components(n, edges)


class TestLic:
    def test_hand_example_all_cluster_kinds(self):
        # 3x3: row 0 gates col 0; row 1 gates nothing; row 2 gates col 1;
        # col 2 is gated by nobody.
        D = np.array(
            [
                [1.0, INF, INF],
                [INF, INF, INF],
                [INF, 2.0, INF],
            ]
        )
        lic = compute_lic(D, 4.0)
        assert [set(np.flatnonzero(row)) for row in D <= 4.0] == [{0}, set(), {1}]
        assert lic == (
            Cluster((0,), (0,)),
            Cluster((1,), ()),
            Cluster((2,), (1,)),
            Cluster((), (2,)),
        )
        assert len([c for c in lic if c.l1 and c.l2]) == 2

    def test_chain_merges_into_one_cluster(self):
        # Row 0 - col 0 - row 1 - col 1 - row 2: one connected cluster.
        D = np.array(
            [
                [1.0, INF],
                [1.0, 1.0],
                [INF, 1.0],
            ]
        )
        assert compute_lic(D, 4.0) == (Cluster((0, 1, 2), (0, 1)),)

    def test_isolation_and_partition_properties(self):
        # [DERIVED] on random instances the LIC must (a) partition both index
        # sets and (b) have every cross-cluster pair outside the gate.
        rng = np.random.default_rng(99)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            D = np.where(rng.random((n1, n2)) < 0.25, rng.uniform(0, 4, (n1, n2)), INF)
            lic = compute_lic(D, 4.0)
            seen1, seen2 = set(), set()
            for c in lic:
                assert not (seen1.intersection(c.l1) or seen2.intersection(c.l2))
                seen1.update(c.l1)
                seen2.update(c.l2)
            assert seen1 == set(range(n1)) and seen2 == set(range(n2))
            for i, a in enumerate(lic):
                for j, b in enumerate(lic):
                    if i == j:
                        continue
                    for l in a.l1:
                        for lp in b.l2:
                            assert D[l, lp] > 4.0

    def test_finest_partition(self):
        # [DERIVED] no two distinct clusters could be split further: every
        # cluster's sensor-1 side is connected through shared gated columns.
        rng = np.random.default_rng(17)
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            D = np.where(rng.random((n1, n2)) < 0.3, 1.0, INF)
            gated = D <= 4.0
            for c in compute_lic(D, 4.0):
                if len(c.l1) < 2:
                    continue
                relabel = {l: i for i, l in enumerate(sorted(c.l1))}
                edges = {
                    (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                    for a in c.l1
                    for b in c.l1
                    if a != b and np.any(gated[a] & gated[b])
                }
                assert len(bfs_components(len(c.l1), edges)) == 1

    def test_empty_matrix(self):
        lic = compute_lic(np.zeros((0, 3)), 4.0)
        assert all(not c.l1 and c.l2 for c in lic)
        assert len(lic) == 3
        lic = compute_lic(np.zeros((2, 0)), 4.0)
        assert all(c.l1 and not c.l2 for c in lic)

    def test_cluster_sides_are_sorted_int_tuples(self):
        # Any iterable of integers, frozensets and numpy arrays included,
        # is stored once as a sorted tuple of Python ints.
        c = Cluster(frozenset({3, 1}), np.array([2, 0]))
        assert c == Cluster((1, 3), (0, 2))
        assert all(type(v) is int for v in c.l1 + c.l2)
        assert compute_lic(np.array([[1.0, 1.0], [INF, 1.0]]), 4.0) == (Cluster((0, 1), (0, 1)),)


@st.composite
def gate_matrix(draw):
    """A 0-30 x 0-30 distance matrix: a sparse share of entries in the gate
    [0, 4] (the boundary 4.0 included), the rest NaN, inf, just above 4 or 5."""
    n1, n2 = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    share = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = np.where(rng.random((n1, n2)) < 0.1, 4.0, rng.uniform(0.0, 4.0, (n1, n2)))
    outside = rng.choice([np.nan, INF, np.nextafter(4.0, INF), 5.0], size=(n1, n2))
    return np.where(rng.random((n1, n2)) < share, inside, outside)


class TestLicProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gate_matrix())
    def test_clusters_match_bfs_on_bipartite_graph(self, D):
        # [DERIVED] the clusters, in order, are the BFS components of the
        # graph on sensor-1 vertices 0..n1-1 and sensor-2 vertices n1..n1+n2-1
        # whose edges are the gated pairs. A NaN entry raises; as inf, it is
        # outside the gate.
        n1, n2 = D.shape
        edges = [(l, n1 + lp) for l in range(n1) for lp in range(n2) if D[l, lp] <= 4.0]
        want = tuple(
            Cluster(frozenset(v for v in part if v < n1), frozenset(v - n1 for v in part if v >= n1))
            for part in bfs_components(n1 + n2, edges)
        )
        if np.isnan(D).any():
            with pytest.raises(ConfigError):
                compute_lic(D, 4.0)
        assert compute_lic(np.where(np.isnan(D), INF, D), 4.0) == want
