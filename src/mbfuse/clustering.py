"""Association-graph clustering of Bernoulli components across two sensors.

Pairs whose GCI divergence exceeds the gate threshold are treated as
incompatible. The gated pairs are the edges of a bipartite graph whose
vertices are the components of both sensors: sensor-1 component ``l`` is
vertex ``l`` and sensor-2 component ``l'`` is vertex ``n1 + l'``. Its
connected components are the finest partition in which every cross-cluster
pair is incompatible (the largest isolated clustering).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError


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

    @property
    def fused_clusters(self) -> list[Cluster]:
        return [c for c in self.clusters if c.kind == ClusterKind.BOTH]


def connected_components(n_vertices: int, edges) -> list[set[int]]:
    """Partition of range(n_vertices) by graph connectivity, ordered by
    smallest member."""
    parent = list(range(n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    parts: dict[int, set[int]] = {}
    for v in range(n_vertices):
        parts.setdefault(find(v), set()).add(v)
    # Scanning upward, each part enters the dict at its smallest member.
    return list(parts.values())


def compute_lic(distances: np.ndarray, gamma: float) -> LargestIsolatedClustering:
    """The largest isolated clustering of the pairs with distance <= gamma.

    The boundary d == gamma is inside the gate. Clusters come in order of
    their smallest vertex: by smallest sensor-1 member, and clusters with
    only a sensor-2 component after all others.
    """
    if not gamma > 0:
        raise ConfigError("gate threshold must be positive")
    if np.ndim(distances) != 2 or np.isnan(distances).any():
        raise ConfigError("gate distances must be a 2-D matrix without NaN")
    n1, n2 = distances.shape
    rows, cols = np.nonzero(distances <= gamma)
    parts = connected_components(n1 + n2, zip(rows.tolist(), (cols + n1).tolist()))
    return LargestIsolatedClustering(tuple(
        Cluster(frozenset(v for v in part if v < n1), frozenset(v - n1 for v in part if v >= n1))
        for part in parts
    ))
