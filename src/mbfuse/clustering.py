"""Association-graph clustering of Bernoulli components across two sensors.

Pairs whose GCI divergence exceeds the gate threshold are treated as
incompatible. The gated pairs are the edges of a bipartite graph whose
vertices are the components of both sensors: sensor-1 component ``l`` is
vertex ``l`` and sensor-2 component ``l'`` is vertex ``n1 + l'``. Its
connected components are the finest partition in which every cross-cluster
pair is incompatible (the largest isolated clustering). ``compute_lic``
returns it as a tuple of Clusters, each its two sorted index tuples; a
cluster with an empty side holds no pair to fuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gm import _check_gate, _check_indices


@dataclass(frozen=True)
class Cluster:
    """The sensor-1 and sensor-2 components of one cluster, each side a
    sorted tuple of distinct indices, built from any iterable of indices
    that passes gm._check_indices with no upper end (else ConfigError)."""

    l1: tuple[int, ...]
    l2: tuple[int, ...]

    def __post_init__(self):
        l1 = _check_indices(self.l1, np.inf, "cluster side l1", distinct=True)
        l2 = _check_indices(self.l2, np.inf, "cluster side l2", distinct=True)
        object.__setattr__(self, "l1", tuple(sorted(map(int, l1))))
        object.__setattr__(self, "l2", tuple(sorted(map(int, l2))))


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


def compute_lic(distances: np.ndarray, gamma: float) -> tuple[Cluster, ...]:
    """The largest isolated clustering of the pairs with distance <= gamma.

    The boundary d == gamma is inside the gate. Clusters come in order of
    their smallest vertex: by smallest sensor-1 member, and clusters with
    only a sensor-2 component after all others.
    """
    _check_gate(gamma, "gate threshold")
    if np.ndim(distances) != 2 or np.isnan(distances).any():
        raise ConfigError("gate distances must be a 2-D matrix without NaN")
    n1, n2 = distances.shape
    rows, cols = np.nonzero(distances <= gamma)
    parts = connected_components(n1 + n2, zip(rows.tolist(), (cols + n1).tolist()))
    return tuple(
        Cluster([v for v in part if v < n1], [v - n1 for v in part if v >= n1]) for part in parts
    )
