"""Association-graph clustering of Bernoulli components across two sensors.

Pairs whose GCI divergence exceeds the gate threshold are treated as
incompatible; the remaining gate relation induces an undirected graph on
sensor-1 components, whose connected components (found with a disjoint
set) yield the finest partition in which every cross-cluster pair is
incompatible (the largest isolated clustering).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ClusterKind(Enum):
    BOTH = "both"            # nonempty on both sensors
    SENSOR1_ONLY = "s1"      # lone sensor-1 component with empty gate
    SENSOR2_ONLY = "s2"      # sensor-2 component gated by nobody


@dataclass(frozen=True)
class Cluster:
    l1: frozenset[int]
    l2: frozenset[int]

    @property
    def kind(self) -> ClusterKind:
        if self.l1 and self.l2:
            return ClusterKind.BOTH
        return ClusterKind.SENSOR1_ONLY if self.l1 else ClusterKind.SENSOR2_ONLY


@dataclass(frozen=True)
class LargestIsolatedClustering:
    clusters: tuple[Cluster, ...]

    def of_kind(self, kind: ClusterKind) -> list[Cluster]:
        return [c for c in self.clusters if c.kind == kind]

    @property
    def fused_clusters(self) -> list[Cluster]:
        return self.of_kind(ClusterKind.BOTH)


def gate(distances: np.ndarray, gamma: float) -> list[set[int]]:
    """Per sensor-1 component, the set of sensor-2 components with d <= gamma.

    The boundary d == gamma is inside the gate (the pair is not "bad").
    """
    if not gamma > 0:
        raise ValueError("gate threshold must be positive")
    return [set(np.flatnonzero(row <= gamma).tolist()) for row in distances]


def build_graph(gate_table: list[set[int]]) -> set[tuple[int, int]]:
    """Edges between sensor-1 components sharing a gated sensor-2 component.

    Candidate pairs come from bucketing by shared sensor-2 index, which
    realizes exactly the nonempty-intersection relation.
    """
    buckets: dict[int, list[int]] = {}
    for l, members in enumerate(gate_table):
        for lp in members:
            buckets.setdefault(lp, []).append(l)
    edges = set()
    for group in buckets.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                edges.add((min(a, b), max(a, b)))
    return edges


class DisjointSet:
    """Union-by-rank with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def connected_components(n_vertices: int, edges) -> list[set[int]]:
    """Partition of range(n_vertices) by graph connectivity."""
    ds = DisjointSet(n_vertices)
    for a, b in edges:
        ds.union(a, b)
    parts: dict[int, set[int]] = {}
    for v in range(n_vertices):
        parts.setdefault(ds.find(v), set()).add(v)
    # Canonical order: by smallest member.
    return sorted(parts.values(), key=min)


def form_lic(
    parts: list[set[int]],
    gate_table: list[set[int]],
    n2: int,
) -> LargestIsolatedClustering:
    """Assemble the largest isolated clustering from sensor-1 components.

    Each sensor-1 part takes the union of its members' gates as the
    sensor-2 side; leftover sensor-2 components become singleton clusters
    with an empty sensor-1 side.
    """
    clusters = []
    covered: set[int] = set()
    for part in parts:
        l2 = set()
        for l in part:
            l2 |= gate_table[l]
        covered |= l2
        clusters.append(Cluster(frozenset(part), frozenset(l2)))
    for lp in range(n2):
        if lp not in covered:
            clusters.append(Cluster(frozenset(), frozenset({lp})))
    clusters.sort(key=lambda c: (min(c.l1) if c.l1 else len(gate_table) + min(c.l2),))
    return LargestIsolatedClustering(tuple(clusters))


def compute_lic(distances: np.ndarray, gamma: float) -> tuple[LargestIsolatedClustering, list[set[int]]]:
    """Gate the distance matrix and return (LIC, gate table)."""
    n1, n2 = distances.shape
    gt = gate(distances, gamma)
    edges = build_graph(gt)
    parts = connected_components(n1, edges)
    if n1 == 0:
        parts = []
    return form_lic(parts, gt, n2), gt
