"""Gaussian mixture representation and the exponentiation/product algebra.

Mixtures are stored in stacked-array form (weights, means, covariances)
so that pair products and mass evaluations vectorize over components.
Fractional powers of a mixture are realized componentwise: each weighted
Gaussian is raised to the exponent on its own, which is accurate when
components are well separated relative to their covariances (reduction is
run upstream before every fusion to enforce that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianMixture:
    """Stacked Gaussian mixture: weights (J,), means (J, d), covs (J, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "covs", np.asarray(self.covs, dtype=float))
        if self.weights.ndim != 1 or self.means.ndim != 2 or self.covs.ndim != 3:
            raise DimensionMismatchError("weights/means/covs must be 1-D/2-D/3-D")
        j, d = self.means.shape
        if self.weights.shape != (j,) or self.covs.shape != (j, d, d):
            raise DimensionMismatchError(
                f"inconsistent mixture shapes: {self.weights.shape}, "
                f"{self.means.shape}, {self.covs.shape}"
            )

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def empty(cls, d: int) -> "GaussianMixture":
        return cls(np.zeros(0), np.zeros((0, d)), np.zeros((0, d, d)))

    @classmethod
    def single(cls, mean, cov, weight: float = 1.0) -> "GaussianMixture":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        return cls(np.array([weight]), mean[None, :], cov[None, :, :])


def _batch_cholesky(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance factorization failed") from exc


def _batch_logdet(covs: np.ndarray) -> np.ndarray:
    L = _batch_cholesky(covs)
    return 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)


def _log_normal(diff: np.ndarray, L: np.ndarray) -> np.ndarray:
    """log N(diff; 0, L L^T) for Cholesky factors L that broadcast against diff.

    diff has shape (..., d) and L shape (..., d, d); the leading axes
    broadcast, so one factor can serve many difference vectors.
    """
    sol = np.linalg.solve(L, diff[..., None])[..., 0]
    maha = np.sum(sol**2, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (diff.shape[-1] * LOG_2PI + logdet + maha)


def log_power_mass(covs: np.ndarray, omega: float) -> np.ndarray:
    """log rho(P, w) = log sqrt(det(2 pi P / w) * det(2 pi P)^(-w)) per component."""
    d = covs.shape[-1]
    logdet = _batch_logdet(covs)
    return 0.5 * ((d * (LOG_2PI - math.log(omega)) + logdet) - omega * (d * LOG_2PI + logdet))


def _power_parts(weights: np.ndarray, covs: np.ndarray, omega: float):
    """(log(a^w rho(P, w)), P / w) of each Gaussian a N(m, P) raised to omega;
    the means are unchanged."""
    with np.errstate(divide="ignore"):
        log_w = omega * np.log(weights) + log_power_mass(covs, omega)
    return log_w, covs / omega


def _pair_product_parts(stack1, w1: float, stack2, w2: float, i1, i2):
    """Log-weights, means and covariances of the exponent-weighted products
    of the Gaussian pairs (i1[k], i2[k]).

    stack1 and stack2 are flat (weights, means, covs) stacks. Each
    Gaussian is raised to its exponent once; the pairs then gather their
    parts by index. Returns (log_alpha (K,), means (K, d), covs (K, d, d)).
    """
    a1, m1, P1 = stack1
    a2, m2, P2 = stack2
    if m1.shape[1] != m2.shape[1]:
        raise DimensionMismatchError(f"mixture dimensions differ: {m1.shape[1]} vs {m2.shape[1]}")
    if abs((w1 + w2) - 1.0) > 1e-12:
        raise ValueError(f"fusion weights must sum to 1, got {w1} + {w2}")
    lw1, S1 = _power_parts(a1, P1, w1)
    lw2, S2 = _power_parts(a2, P2, w2)
    S1 = S1[i1]
    sig = S1 + S2[i2]
    diff = m1[i1] - m2[i2]
    log_alpha = lw1[i1] + lw2[i2] + _log_normal(diff, _batch_cholesky(sig))

    # Information-form fusion of the omega-scaled covariances:
    # P12 = S1 - S1 (S1 + S2)^-1 S1, m12 = m1 + S1 (S1 + S2)^-1 (m2 - m1).
    gain = np.linalg.solve(np.swapaxes(sig, -1, -2), np.swapaxes(S1, -1, -2))
    gain = np.swapaxes(gain, -1, -2)
    means = m1[i1] + np.einsum("...ij,...j->...i", gain, -diff)
    covs = S1 - np.einsum("...ij,...jk->...ik", gain, S1)
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return log_alpha, means, covs


def gm_pair_product(
    p1: GaussianMixture, w1: float, p2: GaussianMixture, w2: float
) -> GaussianMixture:
    """Double-sum mixture for p1^w1 * p2^w2 (unnormalized, J1*J2 components,
    p1's index major)."""
    if p1.n_components == 0 or p2.n_components == 0:
        return GaussianMixture.empty(p1.d)
    j1, j2 = p1.n_components, p2.n_components
    log_alpha, means, covs = _pair_product_parts(
        (p1.weights, p1.means, p1.covs), w1, (p2.weights, p2.means, p2.covs), w2,
        np.repeat(np.arange(j1), j2), np.tile(np.arange(j2), j1),
    )
    return GaussianMixture(np.exp(log_alpha), means, covs)


def gm_normalize(mix: GaussianMixture) -> tuple[GaussianMixture, float]:
    """Scale weights to sum 1; returns (normalized mixture, original mass)."""
    mass = mix.total_weight
    if not np.isfinite(mass) or mass <= 0.0:
        raise NumericalError(f"cannot normalize mixture with total weight {mass}")
    return GaussianMixture(mix.weights / mass, mix.means, mix.covs), mass


def _leader_groups(order, within) -> list[np.ndarray]:
    """Greedy leader clustering, the merge rule of every reduction.

    Indices are visited in ``order``; each one not yet grouped leads a
    group of itself and every ungrouped j with ``within[lead, j]``. Groups
    are returned in the order their leaders were visited, each as an
    ascending index array, so with an ascending ``order`` the leader is
    each group's first element.
    """
    free = np.ones(within.shape[0], dtype=bool)
    groups = []
    for lead in order:
        if free[lead]:
            grab = free & within[lead]
            grab[lead] = True
            free &= ~grab
            groups.append(np.flatnonzero(grab))
    return groups


def gm_merge_moments(weights, means, covs):
    """Moment-preserving merge of a set of components into one.

    Leading axes, if any, index independent sets that are merged at once.
    """
    w = weights.sum(axis=-1)
    m = np.einsum("...j,...jd->...d", weights, means) / w[..., None]
    spread = means - m[..., None, :]
    P = (
        np.einsum("...j,...jde->...de", weights, covs)
        + np.einsum("...j,...jd,...je->...de", weights, spread, spread)
    ) / w[..., None, None]
    return w, m, 0.5 * (P + np.swapaxes(P, -1, -2))


def _segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """ndarray.sum of each consecutive segment of values, bit for bit.

    Segments of equal length are summed as the rows of one block: a row
    sum takes the same pairwise path as a 1-D sum. np.add.reduceat adds a
    segment's entries one after another instead, which differs in the last
    bits from three entries up.
    """
    sums = np.zeros(sizes.shape[0])
    starts = np.cumsum(sizes) - sizes
    for n in set(sizes.tolist()) - {0}:
        seg = sizes == n
        sums[seg] = values[starts[seg, None] + np.arange(n)].sum(axis=1)
    return sums


def _segment_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows starts[k], ..., starts[k] + sizes[k] - 1 of every segment k,
    concatenated in order."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _segment_argmax(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Index into values of the first maximum of each consecutive segment, as
    np.argmax picks it within the segment; no segment may be empty."""
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    heaviest = np.maximum.reduceat(values, np.cumsum(sizes) - sizes)
    top = np.flatnonzero(values == heaviest[owner])
    return top[np.searchsorted(owner[top], np.arange(sizes.shape[0]))]


def _reduce_segments(sizes, weights, means, covs, prune_threshold, merge_threshold,
                     max_components):
    """Reduce every segment of a flat stack on its own, in one pass, by
    gm_reduce's rule: prune, merge, cap.

    The stack holds consecutive segments of the given sizes. Returns the
    reduced stack as (sizes, weights, means, covs), unnormalized; a segment
    with no weight at or above prune_threshold reduces to size 0. Every
    kept covariance is factorized, so a non-positive-definite one raises
    NumericalError; a threshold or cap that is negative, below 1 or NaN
    raises ValueError.
    """
    if not (prune_threshold >= 0 and merge_threshold >= 0 and max_components >= 1):
        raise ValueError("invalid reduction parameters")
    keep = weights >= prune_threshold
    w, kept_sizes = weights, sizes
    if not keep.all():
        owner = np.repeat(np.arange(sizes.shape[0]), sizes)[keep]
        kept_sizes = np.bincount(owner, minlength=sizes.shape[0])
        w, means, covs = weights[keep], means[keep], covs[keep]
        # A segment that lost Gaussians to pruning is rescaled to its own total.
        cut = (kept_sizes < sizes) & (kept_sizes > 0)
        scale = np.ones(sizes.shape[0])
        scale[cut] = _segment_sums(weights, sizes)[cut] / _segment_sums(w, kept_sizes)[cut]
        w = w * scale[owner]
    chol = _batch_cholesky(covs)
    starts = np.cumsum(kept_sizes) - kept_sizes

    # Leader groups of every segment that keeps two or more Gaussians, as
    # indices into the kept stack, cut to the segment's cap.
    grouped = {}
    for n in set(kept_sizes.tolist()) - {0, 1}:
        seg = np.flatnonzero(kept_sizes == n)
        rows = starts[seg, None] + np.arange(n)
        m = means[rows]
        # dist_sq[s, j, i]: squared Mahalanobis distance of mean i under
        # covariance j of segment s.
        diff = np.swapaxes(m[:, None, :, :] - m[:, :, None, :], -1, -2)
        dist_sq = np.sum(np.linalg.solve(chol[rows], diff) ** 2, axis=2)
        for s, r, within in zip(seg, rows, dist_sq <= merge_threshold):
            groups = [r[g] for g in _leader_groups(np.argsort(-w[r], kind="stable"), within)]
            if len(groups) > max_components:
                group_w = np.array([w[g].sum() for g in groups])
                top = np.sort(np.argsort(-group_w, kind="stable")[:max_components])
                groups = [groups[i] for i in top]
            grouped[s] = groups

    out_sizes = np.minimum(kept_sizes, 1)
    for s, groups in grouped.items():
        out_sizes[s] = len(groups)
    out_starts = np.cumsum(out_sizes) - out_sizes
    # Each output Gaussian merges one group; groups of equal size, across
    # segments, are merged in one batched call. A segment that keeps one
    # Gaussian is one group of one.
    one = kept_sizes == 1
    by_size = {1: ([out_starts[one]], [starts[one, None]])} if one.any() else {}
    for s, groups in grouped.items():
        for at, g in enumerate(groups, start=out_starts[s]):
            ats, rows = by_size.setdefault(g.shape[0], ([], []))
            ats.append([at])
            rows.append(g[None])
    n_out, d = int(out_sizes.sum()), means.shape[1]
    out_w, out_m, out_p = np.empty(n_out), np.empty((n_out, d)), np.empty((n_out, d, d))
    for ats, rows in by_size.values():
        at, j = np.concatenate(ats), np.concatenate(rows)
        out_w[at], out_m[at], out_p[at] = gm_merge_moments(w[j], means[j], covs[j])
    return out_sizes, out_w, out_m, out_p


def gm_reduce(
    mix: GaussianMixture,
    prune_threshold: float,
    merge_threshold: float,
    max_components: int,
) -> GaussianMixture:
    """Prune light components, merge nearby ones, cap the component count.

    Pruned mass is redistributed proportionally so the total weight is
    preserved up to the final cap. Merging repeatedly takes the heaviest
    remaining component (ties to the lower index) and absorbs every remaining
    component within squared Mahalanobis distance merge_threshold of it
    (moment-preserving). The cap keeps the heaviest merged components (ties
    to the lower index) in merge order.
    """
    _, w, m, p = _reduce_segments(
        np.array([mix.n_components]), mix.weights, mix.means, mix.covs,
        prune_threshold, merge_threshold, max_components,
    )
    return GaussianMixture(w, m, p)
