"""GCI fusion mathematics for multi-Bernoulli densities.

Covers the divergence used as the association distance, the full
hypothesis space (subset + injective association map), hypothesis
weights, exact association marginals by a subset DP over partial
matchings, the moment-matched MB approximation of the fused
generalized-MB density, and the exhaustive two-step fusion that serves
as the correctness oracle for the clustered pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompatiblePairError,
    IntractableFusionError,
    NumericalError,
)
from .gm import (
    GaussianMixture,
    _batch_cholesky,
    _log_normal,
    _pair_product_parts,
    _power_parts,
    _segment_rows,
    _segment_sums,
    gm_pair_product,
)
from .mb import (
    BernoulliComponent,
    MultiBernoulliDensity,
    R_MAX,
    _reduce_pdf,
    _reduce_stack,
    _take,
    check_density,
)

@dataclass(frozen=True)
class FusionWeights:
    w1: float
    w2: float

    def __post_init__(self):
        if not (0.0 < self.w1 < 1.0 and 0.0 < self.w2 < 1.0):
            raise ValueError("fusion weights must lie in (0, 1)")
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ValueError("fusion weights must sum to 1")

    def swapped(self) -> "FusionWeights":
        return FusionWeights(self.w2, self.w1)


@dataclass(frozen=True)
class FusionHypothesis:
    """A subset of sensor-1 indices with an injective association into sensor 2."""

    i1: tuple[int, ...]
    theta: dict[int, int]
    w: float = 0.0
    log_k: float = 0.0  # log of the Q-factor part (weight with distances removed)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((l, self.theta[l]) for l in self.i1)


@dataclass
class GmbDensity:
    """Fused generalized-MB density: its normalized hypotheses and eta."""

    hypotheses: list[FusionHypothesis]
    eta: float
    log_eta: float
    n1: int
    n2: int
    swapped: bool = False


def pairwise_distances(
    mb1: MultiBernoulliDensity, mb2: MultiBernoulliDensity, w: FusionWeights
) -> np.ndarray:
    """Full |L1| x |L2| matrix of GCI divergences, vectorized over all Gaussians."""
    n1, n2 = len(mb1), len(mb2)
    if n1 == 0 or n2 == 0:
        return np.zeros((n1, n2))

    _, _, sizes1, a1, m1, p1 = mb1.stack
    _, _, sizes2, a2, m2, p2 = mb2.stack
    o1 = np.repeat(np.arange(n1), sizes1)
    o2 = np.repeat(np.arange(n2), sizes2)
    lw1, s1 = _power_parts(a1, p1, w.w1)
    lw2, s2 = _power_parts(a2, p2, w.w2)
    if m1.shape[1] != m2.shape[1]:
        raise DimensionMismatchError("state dimensions differ between densities")

    sig = s1[:, None] + s2[None, :]
    diff = m1[:, None, :] - m2[None, :, :]
    log_alpha = lw1[:, None] + lw2[None, :] + _log_normal(diff, _batch_cholesky(sig))

    # Group-wise logsumexp over the Gaussian pairs of each (l, l') cell.
    rows = np.broadcast_to(o1[:, None], log_alpha.shape)
    cols = np.broadcast_to(o2[None, :], log_alpha.shape)
    shift = np.full((n1, n2), -np.inf)
    np.maximum.at(shift, (rows, cols), log_alpha)
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    vals = np.exp(log_alpha - safe_shift[rows, cols])
    mass = np.zeros((n1, n2))
    np.add.at(mass, (rows, cols), vals)
    with np.errstate(divide="ignore"):
        dist = -(np.log(mass) + safe_shift)
    return np.where(np.isfinite(shift), dist, np.inf)


def enumerate_hypotheses(l1, l2):
    """Yield every distinct (I1, theta) pair: subset of l1 plus injective map into l2.

    Includes the empty hypothesis. Subset sizes above min(|l1|, |l2|) have
    no injective maps and contribute nothing.
    """
    l1 = list(l1)
    l2 = list(l2)
    yield (), {}
    for n in range(1, min(len(l1), len(l2)) + 1):
        for i1 in combinations(l1, n):
            for targets in permutations(l2, n):
                yield i1, dict(zip(i1, targets))


def count_hypotheses_distinct(n1: int, n2: int) -> int:
    """Number of distinct (subset, injective-map) pairs: sum_n C(n1,n) A(n2,n)."""
    total = 0
    for n in range(0, min(n1, n2) + 1):
        total += math.comb(n1, n) * math.perm(n2, n)
    return total


def count_hypotheses_nominal(n1: int, n2: int) -> int:
    """Bookkeeping count 2^n1 * A(n2, n1), which tallies full-domain maps."""
    if n1 > n2:
        raise ValueError("count requires n1 <= n2")
    return 2**n1 * math.perm(n2, n1)


def fused_pair_density(
    pairs,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
) -> list[tuple[GaussianMixture, float]]:
    """Normalized GCI fusion of each listed pair (l, l') plus its mass Z = exp(-d).

    The listed components' Gaussians are stacked on each side and multiplied
    in one gm_pair_product call; each pair's block is then sliced out and
    normalized. Returns [(pdf, Z), ...] in the order of pairs.
    """
    pairs = list(pairs)
    if not pairs:
        return []

    def stack(mb, idx):
        # One mixture of the Gaussians of components idx, and each one's rows in it.
        _, _, n, *gaussians = _take(mb, idx, mb.rs).stack
        ends = np.cumsum(n)
        spans = zip((ends - n).tolist(), ends.tolist())
        return GaussianMixture(*gaussians), dict(zip(idx, spans))

    p1, spans1 = stack(mb1, sorted({l for l, _ in pairs}))
    p2, spans2 = stack(mb2, sorted({lp for _, lp in pairs}))
    prod = gm_pair_product(p1, w.w1, p2, w.w2)
    j1, j2, d = p1.n_components, p2.n_components, p1.d
    weights = prod.weights.reshape(j1, j2)
    means = prod.means.reshape(j1, j2, d)
    covs = prod.covs.reshape(j1, j2, d, d)

    out = []
    for l, lp in pairs:
        a, b = spans1[l]
        c, e = spans2[lp]
        block_weights = weights[a:b, c:e].reshape(-1)
        mass = float(block_weights.sum())
        if mass <= 0.0 or not np.isfinite(mass):
            raise IncompatiblePairError(
                f"fused mass underflow for pair ({l}, {lp}); pair should have been gated"
            )
        pdf = GaussianMixture(
            block_weights / mass, means[a:b, c:e].reshape(-1, d), covs[a:b, c:e].reshape(-1, d, d)
        )
        out.append((pdf, mass))
    return out


def _log_hypothesis_weights(mb1, mb2, w, distances, l1_idx, l2_idx):
    """Enumerate hypotheses over the given index sets with log-space weights.

    The Q factors use the supplied index sets as the universe. Returns
    (hypotheses, log weights, log Q parts).
    """
    r1 = np.minimum(mb1.rs, R_MAX)
    r2 = np.minimum(mb2.rs, R_MAX)
    log_r1 = np.log(r1)
    log_1mr1 = np.log1p(-r1)
    log_r2 = np.log(r2)
    log_1mr2 = np.log1p(-r2)

    base = w.w1 * sum(log_1mr1[l] for l in l1_idx) + w.w2 * sum(log_1mr2[l] for l in l2_idx)
    gain1 = {l: w.w1 * (log_r1[l] - log_1mr1[l]) for l in l1_idx}
    gain2 = {l: w.w2 * (log_r2[l] - log_1mr2[l]) for l in l2_idx}

    hyps = []
    log_ws = []
    log_ks = []
    for i1, theta in enumerate_hypotheses(l1_idx, l2_idx):
        log_k = base
        d_sum = 0.0
        for l in i1:
            lp = theta[l]
            log_k += gain1[l] + gain2[lp]
            d_sum += distances[l, lp]
        hyps.append((i1, theta))
        log_ws.append(log_k - d_sum)
        log_ks.append(log_k)
    return hyps, np.array(log_ws), np.array(log_ks)


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


def cluster_pair_marginals(mb1, mb2, w, distances, l1_idx, l2_idx):
    """Exact pair marginals and log eta over the index sets l1_idx x l2_idx.

    The Q factors use the index sets as the universe. A hypothesis weighs
    exp(base) times prod over its pairs of g[l, l'] = exp(w1 logit r_l +
    w2 logit r_l' - d[l, l']), where exp(base) is the empty hypothesis'
    weight, so eta and the pair marginals are sums over the partial
    matchings of g; ``_matching_sums`` computes them over subsets of the
    smaller side instead of enumerating hypotheses. Returns (marginal,
    log eta), where marginal[i, j] is the pair marginal of l1_idx[i] and
    l2_idx[j].
    """
    n_s, n_l = sorted((len(l1_idx), len(l2_idx)))
    steps = n_l * n_s * 2**n_s
    if steps > DP_STEP_CAP:
        raise IntractableFusionError(
            f"fusing components {list(l1_idx)} with {list(l2_idx)} needs "
            f"{steps} DP steps (cap {DP_STEP_CAP})",
            count=steps,
            cap=DP_STEP_CAP,
        )
    log_1mr1, gain1 = _existence_gains(mb1.rs[l1_idx], w.w1)
    log_1mr2, gain2 = _existence_gains(mb2.rs[l2_idx], w.w2)
    base = w.w1 * log_1mr1.sum() + w.w2 * log_1mr2.sum()
    g = np.exp(gain1[:, None] + gain2[None, :] - distances[np.ix_(l1_idx, l2_idx)])

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
    l1_idx[i] with l2_idx[j]. Returns the fused components; they take ids 0,
    1, ... by position in l1_idx, and one that no pair carries weight to is
    dropped.
    """
    kept = marginal > MARGINAL_FLOOR
    pairs = [(l1_idx[i], l2_idx[j]) for i, j in zip(*np.nonzero(kept))]
    fused = iter(fused_pair_density(pairs, mb1, mb2, w))

    components = []
    for i, row in enumerate(marginal):
        ms = row[kept[i]]
        if not ms.size:
            continue
        # Python's sum adds left to right; ndarray.sum pairs terms from 8 up.
        r = sum(ms)
        pdfs = [next(fused)[0] for _ in ms]
        mixture = GaussianMixture(
            np.concatenate([m / r * pdf.weights for m, pdf in zip(ms, pdfs)]),
            np.concatenate([pdf.means for pdf in pdfs]),
            np.concatenate([pdf.covs for pdf in pdfs]),
        )
        pdf = _reduce_pdf(mixture, gm_config)
        components.append(BernoulliComponent(r=min(r, R_MAX), pdf=pdf, id=i))

    return tuple(components)


def _fuse_isolated_pairs(pairs, mb1, mb2, w, distances, gm_config):
    """Fusion of many 1x1 clusters at once: each (l, l') in pairs is a
    cluster of its own.

    A lone pair's marginal is g / (1 + g) with g as in
    cluster_pair_marginals; the subset DP computes it as g*1 over 1 + g*1,
    which is the same float. Pairs whose marginal is above MARGINAL_FLOOR,
    as in _moment_match, are fused from one flat stack per density: the
    kernel multiplies only the Gaussian pairs of the kept pairs, each
    pair's block in row-major order as fused_pair_density slices it, and
    the fused pdfs are reduced in one pass. A single pair's mixture needs
    no reweighting, since _moment_match scales it by m / m = 1. Returns
    the density of the fused components, one per kept pair in the order of
    pairs, each with r = min(marginal, R_MAX) and the pair's position in
    pairs as its id.
    """
    l1, l2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    _, gain1 = _existence_gains(mb1.rs[l1], w.w1)
    _, gain2 = _existence_gains(mb2.rs[l2], w.w2)
    g = np.exp(gain1 + gain2 - distances[l1, l2])
    marginal = g / (1.0 + g)
    kept = np.flatnonzero(marginal > MARGINAL_FLOOR)
    if not kept.size:
        return MultiBernoulliDensity(())
    _, _, sizes1, *stack1 = mb1.stack
    _, _, sizes2, *stack2 = mb2.stack
    l1, l2 = l1[kept], l2[kept]
    n1, n2 = sizes1[l1], sizes2[l2]
    # Each Gaussian of l pairs with every Gaussian of l' in turn.
    across = np.repeat(n2, n1)
    i1 = np.repeat(_segment_rows(np.cumsum(sizes1)[l1] - n1, n1), across)
    i2 = _segment_rows(np.repeat(np.cumsum(sizes2)[l2] - n2, n1), across)
    log_alpha, means, covs = _pair_product_parts(stack1, w.w1, stack2, w.w2, i1, i2)
    sizes = n1 * n2
    weights = np.exp(log_alpha)
    mass = _segment_sums(weights, sizes)
    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise IncompatiblePairError(
            f"fused mass underflow for pair ({l1[k]}, {l2[k]}); pair should have been gated"
        )
    sizes, weights, means, covs = _reduce_stack(
        sizes, weights / np.repeat(mass, sizes), means, covs, gm_config
    )
    if not sizes.all():
        raise NumericalError("a fused pdf has no weight at or above the prune threshold")
    return MultiBernoulliDensity._from_stack(
        kept, np.minimum(marginal[kept], R_MAX), sizes, weights, means, covs
    )


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


# Largest hypothesis count that exhaustive fusion enumerates.
ENUM_CAP = 10**7


def naive_gci_mb_fuse(
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    distances: np.ndarray | None = None,
    gm_config=None,
) -> tuple[MultiBernoulliDensity, GmbDensity]:
    """Exhaustive two-step GCI-MB fusion over the full index sets (the oracle).

    Every hypothesis is enumerated, and the pair marginals that moment
    matching needs are summed over them. Roles are swapped when
    |L1| > |L2| so the association-map definition stays valid; fused
    components carry fresh ids either way.
    """
    check_density(mb1)
    check_density(mb2)
    swapped = False
    if len(mb1) > len(mb2):
        mb1, mb2, w = mb2, mb1, w.swapped()
        if distances is not None:
            distances = distances.T
        swapped = True

    if distances is None:
        distances = pairwise_distances(mb1, mb2, w)

    n1, n2 = len(mb1), len(mb2)
    count = count_hypotheses_distinct(n1, n2)
    if count > ENUM_CAP:
        raise IntractableFusionError(
            f"fusing components {list(range(n1))} with {list(range(n2))} needs "
            f"{count} hypotheses (cap {ENUM_CAP})",
            count=count,
            cap=ENUM_CAP,
        )
    l1_idx, l2_idx = list(range(n1)), list(range(n2))
    hyps, log_ws, log_ks = _log_hypothesis_weights(mb1, mb2, w, distances, l1_idx, l2_idx)
    log_eta = _logsumexp(log_ws)
    norm_ws = np.exp(log_ws - log_eta)

    marginal = np.zeros((n1, n2))
    for (i1, theta), wn in zip(hyps, norm_ws):
        for l in i1:
            marginal[l, theta[l]] += wn

    fused_mb = MultiBernoulliDensity(
        _moment_match(marginal, l1_idx, l2_idx, mb1, mb2, w, gm_config)
    )
    gmb = GmbDensity(
        hypotheses=[
            FusionHypothesis(i1=i1, theta=theta, w=float(wn), log_k=float(lk))
            for (i1, theta), wn, lk in zip(hyps, norm_ws, log_ks)
        ],
        eta=float(np.exp(log_eta)),
        log_eta=log_eta,
        n1=n1,
        n2=n2,
        swapped=swapped,
    )
    return fused_mb, gmb
