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
from scipy.special import logsumexp

from .errors import (
    DimensionMismatchError,
    IncompatiblePairError,
    IntractableFusionError,
)
from .gm import (
    GaussianMixture,
    _batch_cholesky,
    _log_normal,
    _power_parts,
    gm_pair_log_mass,
    gm_pair_product,
)
from .mb import (
    BernoulliComponent,
    MultiBernoulliDensity,
    R_MAX,
    _reduce_pdf,
    _stack_gaussians,
    check_density,
)

DEFAULT_ENUM_CAP = 10**7

_LOG_EPS = -745.0  # below this, exp underflows to 0 in float64


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


def gci_divergence(p1: GaussianMixture, p2: GaussianMixture, w: FusionWeights) -> float:
    """-log integral of p1^w1 * p2^w2, evaluated in log space.

    Large separations give large finite values (e.g. ~1250 for unit
    Gaussians 100 apart); +inf only when the mass is exactly zero.
    """
    log_mass = gm_pair_log_mass(p1, w.w1, p2, w.w2)
    if log_mass == -np.inf:
        return np.inf
    return -log_mass


def pairwise_distances(
    mb1: MultiBernoulliDensity, mb2: MultiBernoulliDensity, w: FusionWeights
) -> np.ndarray:
    """Full |L1| x |L2| matrix of GCI divergences, vectorized over all Gaussians."""
    n1, n2 = len(mb1), len(mb2)
    if n1 == 0 or n2 == 0:
        return np.zeros((n1, n2))

    o1, a1, m1, p1 = _stack_gaussians(mb1.components)
    o2, a2, m2, p2 = _stack_gaussians(mb2.components)
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


def log_q_factor(rs: np.ndarray, members) -> float:
    """log of Q^I = prod_{l in I} r_l * prod_{l not in I} (1 - r_l)."""
    rs = np.minimum(np.asarray(rs, dtype=float), R_MAX)
    members = set(members)
    total = 0.0
    for i, r in enumerate(rs):
        total += math.log(r) if i in members else math.log1p(-r)
    return total


def hypothesis_weight(
    hyp,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    distances: np.ndarray,
) -> float:
    """Unnormalized weight (Q1^I1)^w1 (Q2^theta(I1))^w2 prod exp(-d)."""
    i1, theta = hyp
    log_w = w.w1 * log_q_factor(mb1.rs, i1)
    log_w += w.w2 * log_q_factor(mb2.rs, [theta[l] for l in i1])
    for l in i1:
        log_w -= distances[l, theta[l]]
    return math.exp(log_w) if log_w > _LOG_EPS else 0.0


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
        owner, weights, means, covs = _stack_gaussians([mb.components[l] for l in idx])
        pos = np.arange(len(idx))
        starts = np.searchsorted(owner, pos)
        ends = np.searchsorted(owner, pos, side="right")
        return GaussianMixture(weights, means, covs), dict(zip(idx, zip(starts, ends)))

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


def cluster_pair_marginals(mb1, mb2, w, distances, l1_idx, l2_idx, cap):
    """Exact pair marginals and log eta over the index sets l1_idx x l2_idx.

    The Q factors use the index sets as the universe. A hypothesis weighs
    exp(base) times prod over its pairs of g[l, l'] = exp(w1 logit r_l +
    w2 logit r_l' - d[l, l']), where exp(base) is the empty hypothesis'
    weight, so eta and the pair marginals are sums over the partial
    matchings of g; ``_matching_sums`` computes them over subsets of the
    smaller side instead of enumerating hypotheses. Returns
    ({(l, l'): marginal}, log eta).
    """
    n_s, n_l = sorted((len(l1_idx), len(l2_idx)))
    steps = n_l * n_s * 2**n_s
    if steps > cap:
        raise IntractableFusionError(
            f"fusing components {list(l1_idx)} with {list(l2_idx)} needs "
            f"{steps} DP steps (cap {cap})",
            count=steps,
            cap=cap,
        )
    r1 = np.minimum([mb1.components[l].r for l in l1_idx], R_MAX)
    r2 = np.minimum([mb2.components[l].r for l in l2_idx], R_MAX)
    log_1mr1 = np.log1p(-r1)
    log_1mr2 = np.log1p(-r2)
    base = w.w1 * log_1mr1.sum() + w.w2 * log_1mr2.sum()
    with np.errstate(divide="ignore"):
        gain1 = w.w1 * (np.log(r1) - log_1mr1)
        gain2 = w.w2 * (np.log(r2) - log_1mr2)
    g = np.exp(gain1[:, None] + gain2[None, :] - distances[np.ix_(l1_idx, l2_idx)])

    if g.shape[0] <= g.shape[1]:
        z, pair = _matching_sums(g)
    else:
        z, pair = _matching_sums(g.T)
        pair = pair.T
    marginal = pair / z
    marginals = {
        (l, lp): marginal[i, j] for i, l in enumerate(l1_idx) for j, lp in enumerate(l2_idx)
    }
    return marginals, float(base + np.log(z))


def _moment_match(marginals, l1_idx, mb1, mb2, w, gm_config):
    """First-order moment matching of the fused GMB density onto l1_idx.

    marginals maps (l, l') to the normalized weight of the hypotheses that
    associate l with l'. Fused components take ids 0, 1, ... by position
    in l1_idx; one that no pair carries weight to is dropped.
    """
    # Marginals below ~1e-300 can pair with densities whose product mass
    # already underflowed to zero; drop them instead of dividing by zero.
    kept = {key: m for key, m in marginals.items() if m > 1e-300}
    fused = fused_pair_density(list(kept), mb1, mb2, w)
    pdfs = {key: pdf for key, (pdf, _) in zip(kept, fused)}

    by_row: dict[int, list[tuple[int, float]]] = {}
    for (l, lp), m in kept.items():
        by_row.setdefault(l, []).append((lp, m))

    components = []
    for new_id, l in enumerate(l1_idx):
        pairs = by_row.get(l, [])
        r = sum(m for _, m in pairs)
        if r <= 0.0:
            continue
        weights, means, covs = [], [], []
        for lp, m in sorted(pairs):
            pdf = pdfs[(l, lp)]
            weights.append(m / r * pdf.weights)
            means.append(pdf.means)
            covs.append(pdf.covs)
        mixture = GaussianMixture(
            np.concatenate(weights), np.concatenate(means), np.concatenate(covs)
        )
        pdf = _reduce_pdf(mixture, gm_config)
        components.append(BernoulliComponent(r=min(r, R_MAX), pdf=pdf, id=new_id))

    return MultiBernoulliDensity(tuple(components))


def naive_gci_mb_fuse(
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    cap: int = DEFAULT_ENUM_CAP,
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
    if count > cap:
        raise IntractableFusionError(
            f"fusing components {list(range(n1))} with {list(range(n2))} needs "
            f"{count} hypotheses (cap {cap})",
            count=count,
            cap=cap,
        )
    l1_idx, l2_idx = list(range(n1)), list(range(n2))
    hyps, log_ws, log_ks = _log_hypothesis_weights(mb1, mb2, w, distances, l1_idx, l2_idx)
    log_eta = float(logsumexp(log_ws))
    norm_ws = np.exp(log_ws - log_eta)

    marginals: dict[tuple[int, int], float] = {}
    for (i1, theta), wn in zip(hyps, norm_ws):
        for l in i1:
            key = (l, theta[l])
            marginals[key] = marginals.get(key, 0.0) + wn

    fused_mb = _moment_match(marginals, l1_idx, mb1, mb2, w, gm_config)
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
