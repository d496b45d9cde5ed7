"""GCI fusion mathematics for multi-Bernoulli densities.

Covers the divergence used as the association distance, the full
hypothesis space (subset + injective association map), hypothesis
weights, the generalized-MB fused density, its moment-matched MB
approximation, and the exhaustive two-step fusion that serves as the
correctness oracle for the clustered pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    gm_normalize,
    gm_pair_log_mass,
    gm_pair_product,
    gm_reduce,
    log_power_mass,
)
from .mb import BernoulliComponent, MultiBernoulliDensity, R_MAX, _stack_gaussians

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
    """Fused generalized-MB density: normalized hypotheses + fused pair pdfs."""

    hypotheses: list[FusionHypothesis]
    fused_pdfs: dict[tuple[int, int], GaussianMixture]
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

    def powered_stack(mb, omega):
        # Flat stack of mb's Gaussians raised to omega, weights kept in log space.
        owner, weights, means, covs = _stack_gaussians(mb)
        with np.errstate(divide="ignore"):
            log_w = omega * np.log(weights) + log_power_mass(covs, omega)
        return owner, log_w, means, covs / omega

    o1, lw1, m1, s1 = powered_stack(mb1, w.w1)
    o2, lw2, m2, s2 = powered_stack(mb2, w.w2)
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
    l1: int,
    l2: int,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
) -> tuple[GaussianMixture, float]:
    """Normalized GCI fusion of one component pair plus its mass Z = exp(-d)."""
    prod = gm_pair_product(mb1.components[l1].pdf, w.w1, mb2.components[l2].pdf, w.w2)
    mass = prod.total_weight
    if mass <= 0.0 or not np.isfinite(mass):
        raise IncompatiblePairError(
            f"fused mass underflow for pair ({l1}, {l2}); pair should have been gated"
        )
    normalized, z = gm_normalize(prod)
    return normalized, z


def _log_hypothesis_weights(mb1, mb2, w, distances, l1_idx, l2_idx):
    """Enumerate hypotheses over the given index sets with log-space weights.

    The Q factors use the supplied index sets as the universe (global for
    the oracle, cluster-local for the clustered pipeline).
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


def _moment_match(hyps, log_ws, pdf_provider, l1_idx, gm_config):
    """First-order moment matching of the normalized hypothesis mixture.

    pdf_provider(l, lp) returns the normalized fused pair density; it is
    only called for pairs carrying non-negligible marginal weight. Returns
    (fused MB, normalized hypothesis weights, log eta).
    """
    log_eta = float(logsumexp(log_ws))
    if log_eta == -np.inf:
        return MultiBernoulliDensity(()), np.zeros(0), log_eta
    norm_ws = np.exp(log_ws - log_eta)

    pair_marginal: dict[tuple[int, int], float] = {}
    for (i1, theta), wn in zip(hyps, norm_ws):
        for l in i1:
            key = (l, theta[l])
            pair_marginal[key] = pair_marginal.get(key, 0.0) + wn

    by_row: dict[int, list[tuple[int, float]]] = {}
    for (l, lp), m in pair_marginal.items():
        by_row.setdefault(l, []).append((lp, m))

    components = []
    for new_id, l in enumerate(l1_idx):
        # Marginals below ~1e-300 can pair with densities whose product mass
        # already underflowed to zero; drop them instead of dividing by zero.
        pairs = [(lp, m) for lp, m in by_row.get(l, []) if m > 1e-300]
        r = sum(m for _, m in pairs)
        if r <= 0.0:
            continue
        weights, means, covs = [], [], []
        for lp, m in sorted(pairs):
            pdf = pdf_provider(l, lp)
            weights.append(m / r * pdf.weights)
            means.append(pdf.means)
            covs.append(pdf.covs)
        mixture = GaussianMixture(
            np.concatenate(weights), np.concatenate(means), np.concatenate(covs)
        )
        if gm_config is not None:
            mixture = gm_reduce(
                mixture,
                gm_config.prune_threshold,
                gm_config.merge_threshold,
                gm_config.max_components,
            )
        pdf, _ = gm_normalize(mixture)
        components.append(BernoulliComponent(r=min(r, R_MAX), pdf=pdf, id=new_id))

    return MultiBernoulliDensity(tuple(components)), norm_ws, log_eta


def _fuse_index_sets(mb1, mb2, w, distances, l1_idx, l2_idx, cap, gm_config):
    """Exhaustive GCI-MB fusion of components l1_idx of mb1 with l2_idx of mb2.

    Every hypothesis over the two index sets is enumerated (the Q factors
    use them as the universe), each fused pair pdf is computed once, and
    the normalized hypothesis mixture is moment-matched onto l1_idx, whose
    fused components take ids 0, 1, ... in order. Returns (fused MB,
    log eta, hypotheses, normalized weights, log Q parts, fused pair pdfs).
    """
    count = count_hypotheses_distinct(len(l1_idx), len(l2_idx))
    if count > cap:
        raise IntractableFusionError(
            f"fusing components {list(l1_idx)} with {list(l2_idx)} needs "
            f"{count} hypotheses (cap {cap})",
            count=count,
            cap=cap,
        )

    hyps, log_ws, log_ks = _log_hypothesis_weights(mb1, mb2, w, distances, l1_idx, l2_idx)

    fused_pdfs: dict[tuple[int, int], GaussianMixture] = {}

    def provider(l, lp):
        if (l, lp) not in fused_pdfs:
            fused_pdfs[(l, lp)], _ = fused_pair_density(l, lp, mb1, mb2, w)
        return fused_pdfs[(l, lp)]

    fused_mb, norm_ws, log_eta = _moment_match(hyps, log_ws, provider, l1_idx, gm_config)
    return fused_mb, log_eta, hyps, norm_ws, log_ks, fused_pdfs


def naive_gci_mb_fuse(
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
    cap: int = DEFAULT_ENUM_CAP,
    distances: np.ndarray | None = None,
    gm_config=None,
) -> tuple[MultiBernoulliDensity, GmbDensity]:
    """Exhaustive two-step GCI-MB fusion over the full index sets (the oracle).

    Roles are swapped when |L1| > |L2| so the association-map definition
    stays valid; fused components carry fresh ids either way.
    """
    swapped = False
    if len(mb1) > len(mb2):
        mb1, mb2, w = mb2, mb1, w.swapped()
        if distances is not None:
            distances = distances.T
        swapped = True

    if distances is None:
        distances = pairwise_distances(mb1, mb2, w)

    n1, n2 = len(mb1), len(mb2)
    fused_mb, log_eta, hyps, norm_ws, log_ks, fused_pdfs = _fuse_index_sets(
        mb1, mb2, w, distances, list(range(n1)), list(range(n2)), cap, gm_config
    )
    gmb = GmbDensity(
        hypotheses=[
            FusionHypothesis(i1=i1, theta=theta, w=float(wn), log_k=float(lk))
            for (i1, theta), wn, lk in zip(hyps, norm_ws, log_ks)
        ],
        fused_pdfs=fused_pdfs,
        eta=float(np.exp(log_eta)),
        log_eta=log_eta,
        n1=n1,
        n2=n2,
        swapped=swapped,
    )
    return fused_mb, gmb
