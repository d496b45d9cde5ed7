"""Reference math that the package's vectorized code is checked against.

These are direct formulas kept for the tests only; the package itself
never calls them.
"""

import math

import numpy as np
from scipy.special import logsumexp

from mbfuse.clustering import Cluster, ClusterKind
from mbfuse.errors import DimensionMismatchError, NumericalError
from mbfuse.gci import FusionWeights
from mbfuse.gm import (
    GaussianMixture,
    _batch_cholesky,
    _log_normal,
    _pair_product_parts,
    _power_parts,
)
from mbfuse.mb import R_MAX, MultiBernoulliDensity

_LOG_EPS = -745.0  # below this, exp underflows to 0 in float64


def check_spd(P: np.ndarray) -> None:
    """Raise NumericalError unless P is symmetric (abs tol 1e-9) and PD."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {P.shape}")
    if np.max(np.abs(P - P.T)) > 1e-9:
        raise NumericalError("covariance is not symmetric within 1e-9")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite") from exc


def gm_eval(mix: GaussianMixture, x) -> float:
    """Evaluate the mixture density at a single state vector."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (mix.d,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({mix.d},)")
    if mix.n_components == 0:
        return 0.0
    vals = np.exp(_log_normal(x[None, :] - mix.means, _batch_cholesky(mix.covs)))
    return float(np.dot(mix.weights, vals))


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


def gm_pair_log_mass(p1: GaussianMixture, w1: float, p2: GaussianMixture, w2: float) -> float:
    """log of the total mass of gm_pair_product, computed without underflow."""
    if p1.n_components == 0 or p2.n_components == 0:
        return -np.inf
    j1, j2 = p1.n_components, p2.n_components
    log_alpha, _, _ = _pair_product_parts(
        (p1.weights, p1.means, p1.covs), w1, (p2.weights, p2.means, p2.covs), w2,
        np.repeat(np.arange(j1), j2), np.tile(np.arange(j2), j1),
    )
    return float(logsumexp(log_alpha))


def gci_divergence(p1: GaussianMixture, p2: GaussianMixture, w: FusionWeights) -> float:
    """-log integral of p1^w1 * p2^w2, evaluated in log space.

    Large separations give large finite values (e.g. ~1250 for unit
    Gaussians 100 apart); +inf only when the mass is exactly zero.
    """
    log_mass = gm_pair_log_mass(p1, w.w1, p2, w.w2)
    if log_mass == -np.inf:
        return np.inf
    return -log_mass


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


def cluster_log_eta(
    cluster: Cluster,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
) -> float:
    """log eta_g for any cluster type; one-sided clusters only carry the
    empty hypothesis, whose weight is the (1 - r)^omega product."""
    if cluster.kind == ClusterKind.SENSOR1_ONLY:
        return w.w1 * sum(math.log1p(-min(mb1.components[l].r, R_MAX)) for l in cluster.l1)
    if cluster.kind == ClusterKind.SENSOR2_ONLY:
        return w.w2 * sum(math.log1p(-min(mb2.components[l].r, R_MAX)) for l in cluster.l2)
    raise ValueError("two-sided clusters need the full fusion path")
