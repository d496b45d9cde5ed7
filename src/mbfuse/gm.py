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
from scipy.special import logsumexp

from .errors import DimensionMismatchError, NumericalError

LOG_2PI = math.log(2.0 * math.pi)

SYM_TOL = 1e-9


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


def check_spd(P: np.ndarray) -> None:
    """Raise NumericalError unless P is symmetric (abs tol 1e-9) and PD."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {P.shape}")
    if np.max(np.abs(P - P.T)) > SYM_TOL:
        raise NumericalError("covariance is not symmetric within 1e-9")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite") from exc


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


def gm_eval(mix: GaussianMixture, x) -> float:
    """Evaluate the mixture density at a single state vector."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (mix.d,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({mix.d},)")
    if mix.n_components == 0:
        return 0.0
    vals = np.exp(_log_normal(x[None, :] - mix.means, _batch_cholesky(mix.covs)))
    return float(np.dot(mix.weights, vals))


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


def gm_power(mix: GaussianMixture, omega: float) -> GaussianMixture:
    """Componentwise fractional power; output is unnormalized.

    Each term [a N(m, P)]^w becomes a^w * rho(P, w) * N(m, P / w).
    """
    if not (0.0 < omega <= 1.0):
        raise ValueError(f"omega must be in (0, 1], got {omega}")
    if mix.n_components == 0:
        raise ValueError("gm_power requires a nonempty mixture")
    log_w, covs = _power_parts(mix.weights, mix.covs, omega)
    return GaussianMixture(np.exp(log_w), mix.means.copy(), covs)


def _pair_product_parts(p1: GaussianMixture, w1: float, p2: GaussianMixture, w2: float):
    """Log-weights, means and covariances of the exponent-weighted pair product.

    Returns (log_alpha (J1, J2), means (J1, J2, d), covs (J1, J2, d, d)).
    """
    if p1.d != p2.d:
        raise DimensionMismatchError(f"mixture dimensions differ: {p1.d} vs {p2.d}")
    if abs((w1 + w2) - 1.0) > 1e-12:
        raise ValueError(f"fusion weights must sum to 1, got {w1} + {w2}")
    lw1, S1 = _power_parts(p1.weights, p1.covs, w1)
    lw2, S2 = _power_parts(p2.weights, p2.covs, w2)
    sig = S1[:, None] + S2[None, :]
    diff = p1.means[:, None, :] - p2.means[None, :, :]
    log_alpha = lw1[:, None] + lw2[None, :] + _log_normal(diff, _batch_cholesky(sig))

    # Information-form fusion of the omega-scaled covariances:
    # P12 = S1 - S1 (S1 + S2)^-1 S1, m12 = m1 + S1 (S1 + S2)^-1 (m2 - m1).
    gain = np.linalg.solve(np.swapaxes(sig, -1, -2), np.swapaxes(S1[:, None], -1, -2))
    gain = np.swapaxes(gain, -1, -2)
    means = p1.means[:, None, :] + np.einsum("...ij,...j->...i", gain, -diff)
    covs = S1[:, None] - np.einsum("...ij,...jk->...ik", gain, S1[:, None] * np.ones_like(sig))
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return log_alpha, means, covs


def gm_pair_log_mass(p1: GaussianMixture, w1: float, p2: GaussianMixture, w2: float) -> float:
    """log of the total mass of gm_pair_product, computed without underflow."""
    if p1.n_components == 0 or p2.n_components == 0:
        return -np.inf
    log_alpha, _, _ = _pair_product_parts(p1, w1, p2, w2)
    return float(logsumexp(log_alpha))


def gm_pair_product(
    p1: GaussianMixture, w1: float, p2: GaussianMixture, w2: float
) -> GaussianMixture:
    """Double-sum mixture for p1^w1 * p2^w2 (unnormalized, J1*J2 components)."""
    if p1.n_components == 0 or p2.n_components == 0:
        return GaussianMixture.empty(p1.d)
    log_alpha, means, covs = _pair_product_parts(p1, w1, p2, w2)
    j1, j2 = log_alpha.shape
    d = p1.d
    return GaussianMixture(
        np.exp(log_alpha).reshape(j1 * j2),
        means.reshape(j1 * j2, d),
        covs.reshape(j1 * j2, d, d),
    )


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
    """Moment-preserving merge of a set of components into one."""
    w = weights.sum()
    m = np.einsum("j,jd->d", weights, means) / w
    spread = means - m[None, :]
    P = (
        np.einsum("j,jde->de", weights, covs)
        + np.einsum("j,jd,je->de", weights, spread, spread)
    ) / w
    return w, m, 0.5 * (P + P.T)


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
    (moment-preserving).
    """
    if prune_threshold < 0 or merge_threshold < 0 or max_components < 1:
        raise ValueError("invalid reduction parameters")
    if mix.n_components == 0:
        return mix

    keep = mix.weights >= prune_threshold
    if not np.any(keep):
        return GaussianMixture.empty(mix.d)
    total = mix.total_weight
    w = mix.weights[keep]
    w = w * (total / w.sum())
    means = mix.means[keep]
    covs = mix.covs[keep]

    # dist_sq[j, i]: squared Mahalanobis distance of mean i under covariance j.
    diff = np.swapaxes(means[None, :, :] - means[:, None, :], -1, -2)
    dist_sq = np.sum(np.linalg.solve(_batch_cholesky(covs), diff) ** 2, axis=1)
    groups = _leader_groups(np.argsort(-w, kind="stable"), dist_sq <= merge_threshold)
    merged = [gm_merge_moments(w[g], means[g], covs[g]) for g in groups]
    out_w, out_m, out_p = map(np.array, zip(*merged))
    if out_w.shape[0] > max_components:
        top = np.argsort(out_w)[::-1][:max_components]
        top = np.sort(top)
        out_w, out_m, out_p = out_w[top], out_m[top], out_p[top]
    return GaussianMixture(out_w, out_m, out_p)
