"""GCI fusion mathematics for multi-Bernoulli densities.

Covers the divergence used as the association distance, the full
hypothesis space (subset + injective association map), hypothesis
weights, exact association marginals by a subset DP over partial
matchings, the moment-matched MB approximation of the fused
generalized-MB density, and the exhaustive two-step fusion that serves
as the correctness oracle for the clustered pipeline. Its hypotheses are
one (H, n1) integer array: each l's target in L2, or -1 if unassigned.
Both fusers orient their inputs in _oriented: the divergences are
computed in the given order and the roles swapped when |L1| > |L2|, so
the oracle weighs its hypotheses with the matrix that clustered fusion gates.

pairwise_distances evaluates only the cells its gate can reach. With no
factorization of S1 + S2, a Gaussian pair's Mahalanobis term is at least
|m1 - m2|^2 / (tr S1 + tr S2), and log det(S1 + S2) at least the larger of
log det S1 and log det S2, which _power_parts returns; a cell's divergence
is then at least the smallest bound over its Gaussian pairs less
log(n_l n_l'). A cell whose bound, with the Mahalanobis term halved,
exceeds the gate plus BOUND_MARGIN reads inf: the halving covers the
solve's rounding on ill-conditioned sums, the margin that of the log
terms. The other cells' Gaussian pairs are gathered in row-major order, so
each cell adds its pairs in the order of the full matrix, to the same
bits. pgci_fuse gates at gamma. The DP of a cluster with 2 or more
components on a side reads every cell of its block, so pgci_fuse refills
a cleared cell there from pairwise_distances on the cluster's own
components, which gives the full matrix's bits. The oracle, the CLI and
l1_error_bound keep the default gate, inf, which clears nothing.

Fused pairs and moment matching run on one flat stack from the pair
product to the fused density. The 1x1 clusters, nearly all in tracking,
are fused in one batch (_fuse_isolated_pairs): a lone pair's marginal is
g / (1 + g), one _pair_product_parts call multiplies only the batch's
Gaussian pairs, and one pass reduces its fused pdfs, to the bits that
fuse_cluster gives each alone. A larger cluster's marginals come from a
subset DP, and fused_pair_density multiplies the Gaussians that
_pair_blocks gathers. Both paths share _pair_blocks: the Gaussian-pair
index of each pair's block, the block masses with their underflow check,
and the normalization. Two calls of the larger-cluster path stay only
for the benchmark's span hooks and its fuse-dense oracle check: one
gm_pair_product of the cluster's stacked sides in full, and one gm_reduce
per fused component. Once the hooks move, two swaps put every cluster on
the batch's path: gather only the kept Gaussian pairs through
_pair_product_parts, and reduce all fused components in one _reduce_stack
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import ConfigError, IncompatiblePairError, IntractableFusionError
from .gm import (
    LOG_2PI,
    FusionWeights,
    GaussianMixture,
    GmReduceConfig,
    _check_gate,
    _check_indices,
    _check_type,
    _is_cap,
    _pair_log_mass,
    _pair_product_parts,
    _power_parts,
    _segment_rows,
    _segment_sums,
    gm_pair_product,
    gm_reduce,
)
from .mb import MultiBernoulliDensity, R_MAX, _check_dimension, _reduced_density, _take

@dataclass
class GmbDensity:
    """Fused generalized-MB density: hypothesis k's targets (row k of
    enumerate_hypotheses), normalized weight and log Q-factor part (weight
    without the distances), log eta, and the oriented divergences that weighed them."""

    targets: np.ndarray
    w: np.ndarray
    log_k: np.ndarray
    log_eta: float
    distances: np.ndarray


# A cell is cleared only when its bound, with the Mahalanobis term halved,
# exceeds the gate by this much more, so that rounding in the exact
# divergence cannot bring a cleared cell inside the gate.
BOUND_MARGIN = 1.0


def pairwise_distances(
    mb1: MultiBernoulliDensity, mb2: MultiBernoulliDensity, w: FusionWeights,
    gate: float = math.inf,
) -> np.ndarray:
    """Full |L1| x |L2| matrix of GCI divergences, vectorized over all Gaussians.

    A cell whose lower bound (see the module docstring) exceeds gate plus
    BOUND_MARGIN reads inf, and none of its Gaussian pairs is evaluated;
    every other cell is exact. The default gate clears no cell. A gate that
    gm._check_gate refuses raises ConfigError: NaN or <= 0 clears every cell.
    Densities of different dimensions raise DimensionMismatchError, empty
    ones too; a density built from no components has no dimension.
    """
    _check_type(w, FusionWeights, "fusion weights")
    _check_gate(gate, "distance gate")
    _, _, sizes1, a1, m1, p1 = mb1.stack
    _, _, sizes2, a2, m2, p2 = mb2.stack
    if m1.shape != (0, 0):
        _check_dimension(mb2, m1.shape[1], "sensor-2 density")
    n1, n2 = len(mb1), len(mb2)
    if n1 == 0 or n2 == 0:
        return np.zeros((n1, n2))

    o1 = np.repeat(np.arange(n1), sizes1)
    o2 = np.repeat(np.arange(n2), sizes2)
    lw1, s1, logdet1 = _power_parts(a1, p1, w.w1)
    lw2, s2, logdet2 = _power_parts(a2, p2, w.w2)
    # Each Gaussian pair's -log_alpha, bounded below with no factorization.
    maha = (np.square(m1[:, None] - m2[None]).sum(axis=-1)
            / (np.trace(s1, axis1=1, axis2=2)[:, None] + np.trace(s2, axis1=1, axis2=2)[None]))
    logdet = np.maximum(logdet1[:, None], logdet2[None])
    pair_bound = 0.5 * (m1.shape[1] * LOG_2PI + logdet + 0.5 * maha) - lw1[:, None] - lw2[None]
    bound = np.minimum.reduceat(np.minimum.reduceat(pair_bound, np.cumsum(sizes1) - sizes1),
                                np.cumsum(sizes2) - sizes2, axis=1)
    near = ~(bound - np.log(np.outer(sizes1, sizes2)) > gate + BOUND_MARGIN)

    # The near cells' Gaussian pairs in row-major order, so that each cell
    # adds its pairs in the order of the full matrix.
    g1, g2 = np.nonzero(near[o1][:, o2])
    log_alpha, _, _ = _pair_log_mass(lw1[g1], s1[g1], m1[g1], lw2[g2], s2[g2], m2[g2])

    # Group-wise logsumexp over the Gaussian pairs of each (l, l') cell.
    rows, cols = o1[g1], o2[g2]
    shift = np.full((n1, n2), -np.inf)
    np.maximum.at(shift, (rows, cols), log_alpha)
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    vals = np.exp(log_alpha - safe_shift[rows, cols])
    mass = np.zeros((n1, n2))
    np.add.at(mass, (rows, cols), vals)
    with np.errstate(divide="ignore"):
        dist = -(np.log(mass) + safe_shift)
    return np.where(np.isfinite(shift), dist, np.inf)


def enumerate_hypotheses(n1: int, n2: int) -> np.ndarray:
    """Every distinct hypothesis, a subset of range(n1) with an injective map
    into range(n2), as one row of an (H, n1) int32 array: row k holds
    hypothesis k's target of each l, or -1 where l is unassigned. Row 0 is
    the empty hypothesis; then come subset sizes 1 to min(n1, n2), each
    size's subsets in lexicographic order, each subset's maps likewise."""
    blocks = [np.full((1, n1), -1, dtype=np.int32)]
    for n in range(1, min(n1, n2) + 1):
        subsets = np.array(list(combinations(range(n1), n)))
        maps = np.array(list(permutations(range(n2), n)), dtype=np.int32)
        block = np.full((len(subsets), len(maps), n1), -1, dtype=np.int32)
        block[np.arange(len(subsets))[:, None], :, subsets] = maps.T
        blocks.append(block.reshape(-1, n1))
    return np.concatenate(blocks)


def _check_counts(n1, n2) -> None:
    """The rule for the set sizes of a hypothesis count: integers >= 0."""
    if not (_is_cap(n1, least=0) and _is_cap(n2, least=0)):
        raise ConfigError(f"counts must be integers >= 0, got {n1} and {n2}")


def count_hypotheses_distinct(n1: int, n2: int) -> int:
    """Number of distinct (subset, injective-map) pairs: sum_n C(n1,n) A(n2,n)."""
    _check_counts(n1, n2)
    return sum(math.comb(n1, n) * math.perm(n2, n) for n in range(min(n1, n2) + 1))


def count_hypotheses_nominal(n1: int, n2: int) -> int:
    """Bookkeeping count 2^n1 * A(n2, n1), which tallies full-domain maps."""
    _check_counts(n1, n2)
    if n1 > n2:
        raise ConfigError(f"count requires n1 <= n2, got {n1} and {n2}")
    return 2**n1 * math.perm(n2, n1)


def _pair_blocks(l1, l2, mb1, mb2, product):
    """The normalized fused pdf and the mass Z of each pair (l1[k], l2[k]).

    Pair k's block pairs each Gaussian of l1[k] with every Gaussian of
    l2[k] in turn; product(i1, i2) returns the weights, means and covs of
    the products of the Gaussian pairs (i1[j], i2[j]), rows of mb1's and
    mb2's stacks. Returns (sizes, weights, means, covs, mass), the blocks
    as consecutive segments. An underflowed mass raises
    IncompatiblePairError, which names the first such pair.
    """
    sizes1, sizes2 = mb1.stack.sizes, mb2.stack.sizes
    n1, n2 = sizes1[l1], sizes2[l2]
    across = np.repeat(n2, n1)
    i1 = np.repeat(_segment_rows(np.cumsum(sizes1)[l1] - n1, n1), across)
    i2 = _segment_rows(np.repeat(np.cumsum(sizes2)[l2] - n2, n1), across)
    weights, means, covs = product(i1, i2)
    sizes = n1 * n2
    mass = _segment_sums(weights, sizes)
    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise IncompatiblePairError(
            f"fused mass underflow for pair ({l1[k]}, {l2[k]}); pair should have been gated"
        )
    return sizes, weights / np.repeat(mass, sizes), means, covs, mass


def fused_pair_density(pairs, mb1: MultiBernoulliDensity, mb2: MultiBernoulliDensity,
                       w: FusionWeights):
    """Normalized GCI fusion of each listed pair (l, l') plus its mass Z = exp(-d).

    The distinct Gaussian rows that _pair_blocks gathers on each side, in
    stack order, are multiplied in one gm_pair_product call; each pair's
    block of the product is then gathered into one stack. Returns (sizes,
    weights, means, covs, mass): the pdf of each pair, in the order of
    pairs, as consecutive segments of the given sizes, and each pair's Z.
    An index that fails gm._check_indices on its density raises ConfigError.
    """
    _check_type(w, FusionWeights, "fusion weights")
    pairs = (pairs if isinstance(pairs, np.ndarray) else np.array(pairs, object)).reshape(-1, 2)
    l1 = _check_indices(pairs[:, 0], len(mb1), "sensor-1 pair indices")
    l2 = _check_indices(pairs[:, 1], len(mb2), "sensor-2 pair indices")

    def product(i1, i2):
        rows1, k1 = np.unique(i1, return_inverse=True)
        rows2, k2 = np.unique(i2, return_inverse=True)
        p1 = GaussianMixture(*(a[rows1] for a in mb1.stack[3:]))
        p2 = GaussianMixture(*(a[rows2] for a in mb2.stack[3:]))
        # With no pairs there is no product to take, and no call to count.
        prod = gm_pair_product(p1, p2, w) if i1.size else p1
        k = k1 * rows2.size + k2
        return prod.weights[k], prod.means[k], prod.covs[k]

    return _pair_blocks(l1, l2, mb1, mb2, product)


def _matching_sums(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Sums over the partial matchings of a bipartite graph with edge weights g.

    g is (n_s, n_l) with n_s <= n_l. A matching's weight is the product of
    its edge weights, and the empty matching weighs 1. Returns (Z, M): Z
    sums every matching, M[s, k] the matchings that hold edge (s, k).
    Forward and backward passes over the n_l large-side nodes keep one
    entry per subset of the small side: O(n_s * n_l * 2^n_s).
    """
    n_s, n_l = g.shape
    masks = np.arange(1 << n_s)
    bits = 1 << np.arange(n_s)
    has = (masks[None, :] & bits[:, None]) != 0  # has[s, mask]: s is in mask
    flip = masks[None, :] ^ bits[:, None]        # flip[s, mask]: mask with s toggled

    # fwd[k, mask]: matchings of large-side nodes < k that use exactly mask.
    fwd = np.zeros((n_l + 1, 1 << n_s))
    fwd[0, 0] = 1.0
    for k in range(n_l):
        fwd[k + 1] = fwd[k] + np.where(has, g[:, k, None] * fwd[k][flip], 0.0).sum(axis=0)

    # bwd[mask]: matchings of large-side nodes >= k + 1 that avoid mask.
    bwd = np.ones(1 << n_s)
    pair = np.empty((n_s, n_l))
    for k in reversed(range(n_l)):
        pair[:, k] = g[:, k] * np.where(has, 0.0, fwd[k] * bwd[flip]).sum(axis=1)
        bwd = bwd + np.where(has, 0.0, g[:, k, None] * bwd[flip]).sum(axis=0)
    return float(bwd[0]), pair


def _existence_gains(rs, omega):
    """(log(1 - r), omega * logit r) of existence probabilities clamped below
    R_MAX; an r of 0 has gain -inf."""
    r = np.minimum(rs, R_MAX)
    log_1mr = np.log1p(-r)
    with np.errstate(divide="ignore"):
        return log_1mr, omega * (np.log(r) - log_1mr)


# Largest subset-DP step count, n_l * n_s * 2^n_s, that cluster fusion runs.
DP_STEP_CAP = 10**6


def _dp_steps(n1: int, n2: int) -> int:
    """The subset DP's step count n_l * n_s * 2^n_s for an n1 x n2 cluster."""
    n_s, n_l = sorted((n1, n2))
    return n_l * n_s * 2**n_s


def cluster_pair_marginals(mb1, mb2, w, distances, l1_idx, l2_idx):
    """Exact pair marginals and log eta over the index sets l1_idx x l2_idx.

    The Q factors use the index sets as the universe. A hypothesis weighs
    exp(base) times prod over its pairs of g[l, l'] = exp(w1 logit r_l +
    w2 logit r_l' - d[l, l']), where exp(base) is the empty hypothesis'
    weight, so eta and the pair marginals are sums over the partial
    matchings of g; ``_matching_sums`` computes them over subsets of the
    smaller side instead of enumerating hypotheses. Returns (marginal,
    log eta), where marginal[i, j] is the pair marginal of l1_idx[i] and
    l2_idx[j]. A bad or repeated index (gm._check_indices), distances not of
    shape (len(mb1), len(mb2)), or NaN in the cluster's block raise ConfigError.
    """
    l1_idx = _check_indices(l1_idx, len(mb1), "sensor-1 cluster indices", distinct=True)
    l2_idx = _check_indices(l2_idx, len(mb2), "sensor-2 cluster indices", distinct=True)
    if np.shape(distances) != (len(mb1), len(mb2)):
        raise ConfigError(f"distances must be {len(mb1)} x {len(mb2)}, got {np.shape(distances)}")
    steps = _dp_steps(len(l1_idx), len(l2_idx))
    if steps > DP_STEP_CAP:
        raise IntractableFusionError(
            f"fusing components {list(l1_idx)} with {list(l2_idx)} needs "
            f"{steps} DP steps (cap {DP_STEP_CAP})",
            count=steps,
            cap=DP_STEP_CAP,
        )
    log_1mr1, gain1 = _existence_gains(np.take(mb1.rs, l1_idx), w.w1)
    log_1mr2, gain2 = _existence_gains(np.take(mb2.rs, l2_idx), w.w2)
    base = w.w1 * log_1mr1.sum() + w.w2 * log_1mr2.sum()
    block = distances[np.ix_(l1_idx, l2_idx)]
    if np.isnan(block).any():
        raise ConfigError("cluster distances must not be NaN")
    g = np.exp(gain1[:, None] + gain2[None, :] - block)

    if g.shape[0] <= g.shape[1]:
        z, pair = _matching_sums(g)
    else:
        z, pair = _matching_sums(g.T)
        pair = pair.T
    return pair / z, float(base + np.log(z))


# Pair marginals at or below this can pair with densities whose product mass
# already underflowed to zero; fusion drops them instead of dividing by zero.
MARGINAL_FLOOR = 1e-300


def _moment_match(marginal, l1_idx, l2_idx, mb1, mb2, w, gm_config):
    """First-order moment matching of the fused GMB density onto l1_idx.

    marginal[i, j] is the normalized weight of the hypotheses that associate
    l1_idx[i] with l2_idx[j]. Returns the density of the fused components:
    row i's has id i, r = min(sum of its kept marginals m, R_MAX), and the
    mixture of its kept pairs' pdfs scaled by m / r, reduced with gm_config
    (unless None) and normalized. A row with no kept pair is dropped.
    """
    kept = marginal > MARGINAL_FLOOR
    row, col = np.nonzero(kept)
    pairs = np.stack([np.take(l1_idx, row), np.take(l2_idx, col)], axis=1)
    sizes, weights, means, covs, _ = fused_pair_density(pairs, mb1, mb2, w)
    # Python's sum adds left to right; ndarray.sum pairs terms from 8 up.
    r = np.array([sum(ms[k]) for ms, k in zip(marginal, kept)], dtype=float)
    weights = weights * np.repeat(marginal[kept] / r[row], sizes)
    # The pairs come row by row, so each row's pdfs are one segment.
    fused, first = np.unique(row, return_index=True)
    sizes = np.add.reduceat(sizes, first)
    if gm_config is not None and fused.size:
        pdfs = [
            gm_reduce(GaussianMixture(weights[e - n:e], means[e - n:e], covs[e - n:e]), gm_config)
            for n, e in zip(sizes.tolist(), np.cumsum(sizes).tolist())
        ]
        sizes = np.array([pdf.n_components for pdf in pdfs], dtype=np.int64)
        weights = np.concatenate([pdf.weights for pdf in pdfs])
        means = np.concatenate([pdf.means for pdf in pdfs])
        covs = np.concatenate([pdf.covs for pdf in pdfs])
    return _reduced_density(fused, r[fused], sizes, weights, means, covs, None)


def _fuse_isolated_pairs(pairs, mb1, mb2, w, distances, gm_config):
    """Fusion of many 1x1 clusters at once: each (l, l') in pairs is a
    cluster of its own.

    A lone pair's marginal is g / (1 + g) with g as in
    cluster_pair_marginals; the subset DP computes it as g*1 over 1 + g*1,
    which is the same float. Pairs whose marginal is above MARGINAL_FLOOR,
    as in _moment_match, are fused (see the module docstring). A single
    pair's mixture needs no reweighting, since _moment_match scales it by
    m / m = 1. Returns the density of the fused components, one per kept
    pair in the order of pairs, each with r = min(marginal, R_MAX) and the
    pair's position in pairs as its id; with no kept pair it is empty in
    mb1's dimension.
    """
    l1, l2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    _, gain1 = _existence_gains(mb1.rs[l1], w.w1)
    _, gain2 = _existence_gains(mb2.rs[l2], w.w2)
    g = np.exp(gain1 + gain2 - distances[l1, l2])
    marginal = g / (1.0 + g)
    kept = np.flatnonzero(marginal > MARGINAL_FLOOR)
    if not kept.size:
        return _take(mb1, kept, mb1.rs)
    stack1, stack2 = mb1.stack[3:], mb2.stack[3:]

    def product(i1, i2):
        log_alpha, means, covs = _pair_product_parts(stack1, stack2, w, i1, i2)
        return np.exp(log_alpha), means, covs

    sizes, weights, means, covs, _ = _pair_blocks(l1[kept], l2[kept], mb1, mb2, product)
    return _reduced_density(kept, marginal[kept], sizes, weights, means, covs, gm_config)


def _logsumexp(values) -> float:
    """log(sum(exp(values))) over a 1-D sequence; -inf when it is empty.

    Follows scipy 1.17's ``logsumexp`` (no weights) operation for operation,
    so the two agree bit for bit: every entry equal to the maximum is taken
    out of the sum of shifted exponentials, which is divided by their count,
    and a non-finite result falls back to the direct log of the sum.
    """
    a = np.asarray(values, dtype=float).reshape(-1)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        count = float(np.count_nonzero(at_max))
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / count
        out = np.log1p(s) + np.log(count) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _oriented(mb1, mb2, w, gate=math.inf):
    """The inputs of a fusion in the orientation both fusers use, and their
    divergences.

    Computes pairwise_distances(mb1, mb2, w, gate) in the given order; when
    |L1| > |L2| it swaps the roles and transposes the matrix, so the subset
    side is never the larger one. Returns (mb1, mb2, w, distances),
    distances of shape (|L1|, |L2|) in the returned roles. The densities
    were checked when they were built, so nothing is checked here.
    """
    distances = pairwise_distances(mb1, mb2, w, gate)
    if len(mb1) > len(mb2):
        return mb2, mb1, w.swapped(), distances.T
    return mb1, mb2, w, distances


# Largest hypothesis count that exhaustive fusion enumerates.
ENUM_CAP = 10**7


def naive_gci_mb_fuse(
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    gm_config=None,
) -> tuple[MultiBernoulliDensity, GmbDensity]:
    """Exhaustive two-step GCI-MB fusion over the full index sets (the oracle).

    Every hypothesis is enumerated, and the pair marginals that moment
    matching needs are summed over them. The inputs are oriented by
    _oriented, as in pgci_fuse, so both fusers see the same distances and
    moment-match onto the same side; fused components carry fresh ids.
    The GmbDensity holds the hypotheses as arrays and the oriented
    distances, which l1_error_bound gates into its own clustering. As in
    pgci_fuse, the densities were checked when they were built.
    """
    _check_type(gm_config, GmReduceConfig, "gm_config", optional=True)
    mb1, mb2, w, distances = _oriented(mb1, mb2, w)
    n1, n2 = len(mb1), len(mb2)
    count = count_hypotheses_distinct(n1, n2)
    if count > ENUM_CAP:
        raise IntractableFusionError(
            f"fusing components {list(range(n1))} with {list(range(n2))} needs "
            f"{count} hypotheses (cap {ENUM_CAP})",
            count=count,
            cap=ENUM_CAP,
        )
    # The Q factors use the full index sets as the universe.
    log_1mr1, gain1 = _existence_gains(mb1.rs, w.w1)
    log_1mr2, gain2 = _existence_gains(mb2.rs, w.w2)
    base = w.w1 * sum(log_1mr1) + w.w2 * sum(log_1mr2)
    # Each hypothesis adds its pairs in ascending l, one column at a time,
    # and each marginal its hypotheses' weights in hypothesis order.
    targets = enumerate_hypotheses(n1, n2)
    log_k, d_sum = np.full(len(targets), base), np.zeros(len(targets))
    for l, t in enumerate(targets.T):
        on = t >= 0
        log_k[on] += gain1[l] + gain2[t[on]]
        d_sum[on] += distances[l, t[on]]
    log_eta = _logsumexp(log_k - d_sum)
    norm_ws = np.exp(log_k - d_sum - log_eta)

    marginal = np.reshape([np.bincount(t[t >= 0], norm_ws[t >= 0], n2) for t in targets.T],
                          (n1, n2))
    fused_mb = _moment_match(marginal, range(n1), range(n2), mb1, mb2, w, gm_config)
    return fused_mb, GmbDensity(targets, norm_ws, log_k, log_eta, distances)
