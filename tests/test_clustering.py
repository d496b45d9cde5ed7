"""Association gating, the disjoint-set, and the largest isolated clustering.

Oracles: a breadth-first-search connected-components implementation written
here, plus hand-worked gate tables.
"""

from collections import deque

import numpy as np
import pytest

from mbfuse.clustering import (
    Cluster,
    ClusterKind,
    DisjointSet,
    build_graph,
    compute_lic,
    connected_components,
    form_lic,
    gate,
)

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
        assert gate(D, 4.0) == [{0}]

    def test_infinite_distance_excluded(self):
        D = np.array([[1.0, INF], [INF, 2.0]])
        assert gate(D, 4.0) == [{0}, {1}]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            gate(np.zeros((1, 1)), 0.0)

    def test_nan_threshold_rejected(self):
        # A NaN gamma fails every d <= gamma test, so it would silently
        # drop every pair and fuse to an empty density.
        with pytest.raises(ValueError):
            gate(np.zeros((1, 1)), float("nan"))


class TestGraph:
    def test_shared_column_makes_edge(self):
        # Rows 0 and 1 both gate column 0; row 2 is isolated.
        table = [{0}, {0, 1}, {2}]
        assert build_graph(table) == {(0, 1)}

    def test_no_shared_columns_no_edges(self):
        assert build_graph([{0}, {1}, {2}]) == set()


class TestDisjointSet:
    def test_union_find(self):
        ds = DisjointSet(5)
        ds.union(0, 1)
        ds.union(3, 4)
        assert ds.find(0) == ds.find(1)
        assert ds.find(3) == ds.find(4)
        assert ds.find(0) != ds.find(3)
        ds.union(1, 3)
        assert ds.find(0) == ds.find(4)

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
        lic, table = compute_lic(D, 4.0)
        assert table == [{0}, set(), {1}]
        assert lic.clusters == (
            Cluster(frozenset({0}), frozenset({0})),
            Cluster(frozenset({1}), frozenset()),
            Cluster(frozenset({2}), frozenset({1})),
            Cluster(frozenset(), frozenset({2})),
        )
        kinds = [c.kind for c in lic.clusters]
        assert kinds == [
            ClusterKind.BOTH,
            ClusterKind.SENSOR1_ONLY,
            ClusterKind.BOTH,
            ClusterKind.SENSOR2_ONLY,
        ]
        assert len(lic.fused_clusters) == 2

    def test_chain_merges_into_one_cluster(self):
        # Row 0 - col 0 - row 1 - col 1 - row 2: one connected cluster.
        D = np.array(
            [
                [1.0, INF],
                [1.0, 1.0],
                [INF, 1.0],
            ]
        )
        lic, _ = compute_lic(D, 4.0)
        assert lic.clusters == (
            Cluster(frozenset({0, 1, 2}), frozenset({0, 1})),
        )

    def test_isolation_and_partition_properties(self):
        # [DERIVED] on random instances the LIC must (a) partition both index
        # sets and (b) have every cross-cluster pair outside the gate.
        rng = np.random.default_rng(99)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            D = np.where(rng.random((n1, n2)) < 0.25, rng.uniform(0, 4, (n1, n2)), INF)
            lic, _ = compute_lic(D, 4.0)
            seen1, seen2 = set(), set()
            for c in lic.clusters:
                assert not (c.l1 & seen1) and not (c.l2 & seen2)
                seen1 |= c.l1
                seen2 |= c.l2
            assert seen1 == set(range(n1)) and seen2 == set(range(n2))
            for i, a in enumerate(lic.clusters):
                for j, b in enumerate(lic.clusters):
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
            lic, table = compute_lic(D, 4.0)
            for c in lic.clusters:
                if len(c.l1) < 2:
                    continue
                relabel = {l: i for i, l in enumerate(sorted(c.l1))}
                edges = {
                    (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                    for a in c.l1
                    for b in c.l1
                    if a != b and table[a] & table[b]
                }
                assert len(bfs_components(len(c.l1), edges)) == 1

    def test_empty_matrix(self):
        lic, _ = compute_lic(np.zeros((0, 3)), 4.0)
        assert all(c.kind == ClusterKind.SENSOR2_ONLY for c in lic.clusters)
        assert len(lic.clusters) == 3
        lic, _ = compute_lic(np.zeros((2, 0)), 4.0)
        assert all(c.kind == ClusterKind.SENSOR1_ONLY for c in lic.clusters)
