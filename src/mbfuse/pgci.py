"""Clustered, parallelizable GCI-MB fusion and its diagnostics.

Pipeline: oriented pairwise divergences, evaluated only where the gate
can reach (gci._oriented, which the exhaustive oracle shares) -> gate ->
largest isolated clustering (a tuple of Clusters, each two sorted index
tuples) -> independent exact fusion inside each cluster with both sides
nonempty (association marginals by a subset DP, no hypothesis
enumeration) -> fused components concatenated in canonical cluster order.
The 1x1 clusters are fused together in one batch and each larger cluster
through fuse_cluster; the gci module docstring describes both paths.
Each part is one stacked density; one stable gather by cluster position
puts them in canonical order. pgci_fuse reports the hypothesis counts of
the clustering it gated; l1_error_bound gates the exhaustive oracle's own
matrix at the gamma its bound decays by, so it bounds only what that gate
discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Cluster, compute_lic
from .errors import ConfigError
from .gci import (
    FusionWeights,
    GmbDensity,
    _dp_steps,
    _fuse_isolated_pairs,
    _logsumexp,
    _moment_match,
    _oriented,
    cluster_pair_marginals,
    count_hypotheses_distinct,
    count_hypotheses_nominal,
    pairwise_distances,
)
from .gm import GmReduceConfig, _check_gate, _check_type
from .mb import (
    BernoulliComponent,
    MbReduceConfig,
    MultiBernoulliDensity,
    _concat,
    _take,
    mb_reduce,
)

@dataclass
class ClusterFusionResult:
    density: MultiBernoulliDensity
    log_eta: float
    hypothesis_count: int

    @property
    def components(self) -> tuple[BernoulliComponent, ...]:
        return self.density.components


@dataclass
class FusionDiagnostics:
    n_h: int                 # bookkeeping count over the full index sets
    n_h_distinct: int        # distinct (subset, map) pairs over the full sets
    n_h_truncated: int       # product of per-cluster counts (post truncation)
    n_h_clustered: int       # sum of per-cluster counts
    cluster_sizes: list[tuple[int, int]]
    far_cells: int           # cells the gate's bound cleared, no Gaussian pair evaluated
    refilled_cells: int      # cleared cells recomputed exactly for a cluster's DP
    dp_steps: int            # largest n_l * n_s * 2^n_s of a DP run, 0 if none ran


def fuse_cluster(
    cluster: Cluster,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    distances: np.ndarray,
    gm_config=None,
) -> ClusterFusionResult:
    """Exact GCI-MB fusion restricted to one two-sided cluster.

    Q factors use cluster-local index sets; the global factors of other
    clusters cancel in the per-cluster normalization. The association
    marginals and eta come from a subset DP whose steps ``DP_STEP_CAP`` bounds.
    Fused components are moment-matched onto the cluster's sensor-1 side;
    eta does not depend on which side that is, and ``pgci_fuse`` fixes one
    orientation for every cluster. The density's ids are positions in cluster.l1.
    An index outside its density raises ConfigError (see cluster_pair_marginals).
    """
    if not (cluster.l1 and cluster.l2):
        raise ConfigError("fuse_cluster only applies to two-sided clusters")
    marginal, log_eta = cluster_pair_marginals(mb1, mb2, w, distances, cluster.l1, cluster.l2)
    return ClusterFusionResult(
        density=_moment_match(marginal, cluster.l1, cluster.l2, mb1, mb2, w, gm_config),
        log_eta=log_eta,
        hypothesis_count=count_hypotheses_distinct(len(cluster.l1), len(cluster.l2)),
    )


def pgci_fuse(
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    gamma: float,
    gm_config=None,
) -> tuple[MultiBernoulliDensity, FusionDiagnostics]:
    """Gate, cluster, fuse each two-sided cluster, concatenate the results.

    One-sided clusters contribute no fused components. Component ids are
    fresh, assigned in canonical cluster order, so the output is
    independent of any concurrency in per-cluster fusion. The inputs are
    oriented once, globally, by gci._oriented, the entry the exhaustive
    path shares: both see the same distances and moment-match onto the
    same side. The divergences are gated at gamma: a cell the bound clears
    reads inf, unless a cluster's DP reads it, and then it is refilled
    exactly (see the gci module docstring). Only the type of gm_config is
    checked here, and that of w and gamma in pairwise_distances: an invalid
    density raises InvalidDensityError when it is built (see
    MultiBernoulliDensity). The diagnostics count the hypotheses of the
    clustering gated here, in the oriented roles, where len(mb1) <=
    len(mb2), the cells cleared before any refill, the cells refilled, and
    the largest DP that a cluster's fusion ran, in the steps that
    gci.DP_STEP_CAP bounds.
    """
    _check_type(gm_config, GmReduceConfig, "gm_config", optional=True)
    mb1, mb2, w, distances = _oriented(mb1, mb2, w, gamma)
    clusters = [c for c in compute_lic(distances, gamma) if c.l1 and c.l2]
    far_cells = int(np.isinf(distances).sum())

    # 1x1 clusters are fused in one batch; the rest one cluster at a time.
    # Each part is tagged with its clusters' positions, and one stable
    # gather puts the parts in cluster order.
    isolated = np.array([len(c.l1) == len(c.l2) == 1 for c in clusters], dtype=bool)
    batch = _fuse_isolated_pairs(
        [(c.l1[0], c.l2[0]) for c, one in zip(clusters, isolated) if one],
        mb1, mb2, w, distances, gm_config,
    )
    parts, tags = [batch], [np.flatnonzero(isolated)[batch.stack.ids]]
    refilled_cells = dp_steps = 0
    for g in np.flatnonzero(~isolated).tolist():
        c = clusters[g]
        dp_steps = max(dp_steps, _dp_steps(len(c.l1), len(c.l2)))
        block = np.ix_(c.l1, c.l2)
        cleared = int(np.isinf(distances[block]).sum())
        refilled_cells += cleared
        if cleared:
            # The DP reads every cell of the block: the cells the bound
            # cleared are computed exactly, as the full matrix holds them.
            distances[block] = pairwise_distances(
                _take(mb1, np.array(c.l1), mb1.rs), _take(mb2, np.array(c.l2), mb2.rs), w
            )
        parts.append(fuse_cluster(c, mb1, mb2, w, distances, gm_config=gm_config).density)
        tags.append(np.full(len(parts[-1]), g))
    fused = _concat(*parts)
    if len(parts) > 1:
        fused = _take(fused, np.argsort(np.concatenate(tags), kind="stable"), fused.rs)
    fused = MultiBernoulliDensity._from_stack(np.arange(len(fused)), *fused.stack[1:])
    per_cluster = [count_hypotheses_distinct(len(c.l1), len(c.l2)) for c in clusters]
    return fused, FusionDiagnostics(
        n_h=count_hypotheses_nominal(len(mb1), len(mb2)),
        n_h_distinct=count_hypotheses_distinct(len(mb1), len(mb2)),
        n_h_truncated=math.prod(per_cluster),
        n_h_clustered=sum(per_cluster),
        cluster_sizes=[(len(c.l1), len(c.l2)) for c in clusters],
        far_cells=far_cells,
        refilled_cells=refilled_cells,
        dp_steps=dp_steps,
    )


def l1_error_bound(gmb_full: GmbDensity, gamma: float) -> tuple[float, float]:
    """Measured truncated mass 2 sum_D w and its analytic bound A * exp(-gamma).

    D holds the hypotheses with a pair (l, l') that no cluster of
    compute_lic(gmb_full.distances, gamma) holds, the clustering of the
    matrix that weighed them. One gamma both cuts and decays: every pair D
    discards has a divergence above the gamma in the exponent, which is
    what makes A * exp(-gamma) a bound. Both sums run over D in hypothesis
    order: the mass adds w left to right, and A sums the discarded Q-factor
    parts over eta. Both are 0.0 when D is empty, as at gamma = inf; a gamma
    that fails gm._check_gate raises ConfigError in compute_lic.
    """
    n1, n2 = gmb_full.distances.shape
    within = np.zeros((n1, n2 + 1), dtype=bool)
    within[:, n2] = True  # the column that the target -1 of an unassigned l reads
    for c in compute_lic(gmb_full.distances, gamma):
        within[np.ix_(c.l1, c.l2)] = True
    discarded = ~within[np.arange(n1), gmb_full.targets].all(axis=1)
    exact_mass = 2.0 * sum(gmb_full.w[discarded].tolist())
    log_a = _logsumexp(gmb_full.log_k[discarded]) + np.log(2.0) - gmb_full.log_eta
    return exact_mass, float(np.exp(log_a - gamma))


def multi_sensor_fuse(
    posteriors,
    weights,
    gamma: float,
    reduce_config: MbReduceConfig | None = None,
    return_diagnostics: bool = False,
):
    """Sequential pairwise fusion of several posteriors by pgci_fuse.

    The running result carries the accumulated weight mass; each pairwise
    step renormalizes (w_acc, w_i) so the final geometric-mean exponents
    equal the prescribed per-sensor weights, and reduces the fused density
    when reduce_config is set. gamma must pass gm._check_gate, even with one
    posterior; at inf it gates nothing, so each step is exact GCI-MB fusion.
    With ``return_diagnostics``, also returns the per-pair FusionDiagnostics list.
    """
    _check_gate(gamma, "gate gamma")
    _check_type(reduce_config, MbReduceConfig, "reduce_config", optional=True)
    gm_config = reduce_config.gm if reduce_config is not None else None
    posteriors = list(posteriors)
    weights = [float(v) for v in weights]
    if len(posteriors) < 1:
        raise ConfigError("multi_sensor_fuse needs at least one posterior")
    if len(posteriors) != len(weights):
        raise ConfigError("posteriors and weights must have equal length")
    if not all(v > 0 for v in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
        raise ConfigError("weights must be positive and sum to 1")

    acc, w_acc = posteriors[0], weights[0]
    diagnostics = []
    for mb_next, w_next in zip(posteriors[1:], weights[1:]):
        pair_w = FusionWeights(w_acc / (w_acc + w_next), w_next / (w_acc + w_next))
        acc, diag = pgci_fuse(acc, mb_next, pair_w, gamma, gm_config=gm_config)
        diagnostics.append(diag)
        if reduce_config is not None:
            acc = mb_reduce(acc, reduce_config)
        w_acc += w_next
    return (acc, diagnostics) if return_diagnostics else acc
