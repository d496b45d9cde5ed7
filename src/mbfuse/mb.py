"""Multi-Bernoulli posterior model and the local GM cardinality-balanced filter.

Each sensor node runs this filter independently: predict with a nearly
constant velocity model, update against the scan with constant detection
probability and uniform clutter intensity, then truncate. The update is
vectorized over all (Bernoulli component, Gaussian component) pairs and
all measurements of a scan at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDensityError, NumericalError
from .gm import (
    GaussianMixture, SYM_TOL, _batch_cholesky, _leader_groups, _log_normal, gm_normalize, gm_reduce
)

# Existence probabilities are clamped below 1 so the Q^I ratios used by the
# fusion hypothesis weights stay finite.
R_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class BernoulliComponent:
    """Hypothetic object: existence probability r and normalized location pdf."""

    r: float
    pdf: GaussianMixture
    id: int


@dataclass(frozen=True)
class MultiBernoulliDensity:
    components: tuple[BernoulliComponent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValueError("component ids must be unique within a density")

    def __len__(self) -> int:
        return len(self.components)

    @property
    def rs(self) -> np.ndarray:
        return np.array([c.r for c in self.components], dtype=float)

    @property
    def expected_cardinality(self) -> float:
        return float(self.rs.sum()) if self.components else 0.0

    def next_id(self) -> int:
        return 1 + max((c.id for c in self.components), default=-1)


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, xy) -> bool:
        x, y = float(xy[0]), float(xy[1])
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = np.array([self.xmin, self.ymin])
        hi = np.array([self.xmax, self.ymax])
        return rng.uniform(lo, hi, size=(n, 2))


@dataclass(frozen=True)
class MotionModel:
    """Linear Gaussian dynamics x' = F x + v, v ~ N(0, Q), with survival P_S."""

    F: np.ndarray
    Q: np.ndarray
    p_survival: float
    dt: float = 1.0

    @classmethod
    def ncv(cls, dt: float, sigma_v: float, p_survival: float) -> "MotionModel":
        """Nearly constant velocity model on [px, py, vx, vy]."""
        i2 = np.eye(2)
        F = np.block([[i2, dt * i2], [np.zeros((2, 2)), i2]])
        Q = sigma_v**2 * np.block(
            [
                [dt**4 / 4.0 * i2, dt**3 / 2.0 * i2],
                [dt**3 / 2.0 * i2, dt**2 * i2],
            ]
        )
        return cls(F=F, Q=Q, p_survival=p_survival, dt=dt)


@dataclass(frozen=True)
class SensorModel:
    """Linear Gaussian detections plus uniform Poisson clutter over the region."""

    H: np.ndarray
    R: np.ndarray
    p_detect: float
    clutter_rate: float
    region: Rectangle

    @classmethod
    def position_sensor(
        cls, sigma_eps: float, p_detect: float, clutter_rate: float, region: Rectangle
    ) -> "SensorModel":
        H = np.hstack([np.eye(2), np.zeros((2, 2))])
        return cls(H=H, R=sigma_eps**2 * np.eye(2), p_detect=p_detect,
                   clutter_rate=clutter_rate, region=region)

    @property
    def clutter_density(self) -> float:
        return self.clutter_rate / self.region.area


@dataclass(frozen=True)
class BirthConfig:
    r_max: float = 0.03
    rate: float = 0.1
    sigma_pos: float = 10.0
    sigma_vel: float = 10.0


@dataclass(frozen=True)
class GmReduceConfig:
    prune_threshold: float = 1e-5
    merge_threshold: float = 4.0
    max_components: int = 5


@dataclass(frozen=True)
class MbReduceConfig:
    trunc_threshold: float = 1e-4
    max_components: int = 100
    gm: GmReduceConfig = field(default_factory=GmReduceConfig)


def _clamp_r(r: float) -> float:
    return min(max(float(r), 0.0), R_MAX)


def mb_predict(
    prior: MultiBernoulliDensity,
    motion: MotionModel,
    births=(),
) -> MultiBernoulliDensity:
    """Survival-scaled existence, linear-Gaussian pdf propagation, births appended."""
    out = []
    for comp in prior.components:
        pdf = comp.pdf
        means = pdf.means @ motion.F.T
        covs = motion.F @ pdf.covs @ motion.F.T + motion.Q[None, :, :]
        out.append(
            BernoulliComponent(
                r=_clamp_r(motion.p_survival * comp.r),
                pdf=GaussianMixture(pdf.weights.copy(), means, covs),
                id=comp.id,
            )
        )
    out.extend(births)
    return MultiBernoulliDensity(tuple(out))


def adaptive_birth(
    prev_scan: np.ndarray,
    params: BirthConfig,
    start_id: int = 0,
) -> tuple[BernoulliComponent, ...]:
    """One birth component per previous-scan measurement, zero-velocity prior."""
    prev_scan = np.asarray(prev_scan, dtype=float).reshape(-1, 2)
    n = prev_scan.shape[0]
    if n == 0:
        return ()
    r_b = min(params.r_max, params.rate / max(1, n))
    cov = np.diag(
        [params.sigma_pos**2, params.sigma_pos**2, params.sigma_vel**2, params.sigma_vel**2]
    )
    births = []
    for i, z in enumerate(prev_scan):
        mean = np.array([z[0], z[1], 0.0, 0.0])
        births.append(
            BernoulliComponent(r=r_b, pdf=GaussianMixture.single(mean, cov), id=start_id + i)
        )
    return tuple(births)


def _stack_gaussians(components):
    """Stack every Gaussian of every component; returns (owner, alpha, means, covs).

    owner[j] is the position in components of the component that Gaussian
    j belongs to. There must be at least one component.
    """
    owner, alpha, means, covs = [], [], [], []
    for i, comp in enumerate(components):
        pdf = comp.pdf
        owner.append(np.full(pdf.n_components, i))
        alpha.append(pdf.weights)
        means.append(pdf.means)
        covs.append(pdf.covs)
    return (
        np.concatenate(owner),
        np.concatenate(alpha),
        np.concatenate(means),
        np.concatenate(covs),
    )


def check_density(density: MultiBernoulliDensity) -> None:
    """Raise InvalidDensityError unless every r lies in [0, 1], every
    Gaussian weight, mean and covariance entry is finite, and every
    covariance is symmetric within SYM_TOL times its largest entry."""
    if not density.components:
        return
    rs = density.rs
    if not np.all((rs >= 0.0) & (rs <= 1.0)):
        raise InvalidDensityError(f"existence probabilities {rs} not all in [0, 1]")
    _, weights, means, covs = _stack_gaussians(density.components)
    if not (np.isfinite(weights).all() and np.isfinite(means).all() and np.isfinite(covs).all()):
        raise InvalidDensityError("density holds a non-finite weight, mean or covariance")
    scale = np.abs(covs).max(axis=(1, 2), keepdims=True)
    if np.any(np.abs(covs - np.swapaxes(covs, 1, 2)) > SYM_TOL * scale):
        raise InvalidDensityError("density holds an asymmetric covariance")


def mb_update(
    predicted: MultiBernoulliDensity,
    scan: np.ndarray,
    sensor: SensorModel,
) -> MultiBernoulliDensity:
    """Cardinality-balanced MB update: legacy tracks plus one track per measurement."""
    scan = np.asarray(scan, dtype=float).reshape(-1, sensor.H.shape[0])
    if not np.isfinite(scan).all():
        raise NumericalError("scan holds a non-finite measurement")
    p_d = sensor.p_detect
    kappa = sensor.clutter_density

    # Clamped like the fusion Q factors: r = 1 with p_d = 1 would divide 0 by 0.
    rs = np.minimum(predicted.rs, R_MAX)
    legacy = []
    for comp, r in zip(predicted.components, rs):
        r_l = _clamp_r(r * (1.0 - p_d) / (1.0 - r * p_d))
        legacy.append(BernoulliComponent(r=r_l, pdf=comp.pdf, id=comp.id))

    n_meas = scan.shape[0]
    if n_meas == 0 or len(predicted) == 0 or p_d == 0.0:
        return MultiBernoulliDensity(tuple(legacy))

    owner, alpha, means, covs = _stack_gaussians(predicted.components)
    H, R = sensor.H, sensor.R

    z_pred = means @ H.T                                   # (N, dz)
    S = H @ covs @ H.T + R[None, :, :]                     # (N, dz, dz)
    L = _batch_cholesky(S)
    K = np.linalg.solve(np.swapaxes(S, -1, -2), (covs @ H.T).swapaxes(-1, -2))
    K = np.swapaxes(K, -1, -2)                             # (N, dx, dz)
    covs_upd = covs - K @ H @ covs
    covs_upd = 0.5 * (covs_upd + np.swapaxes(covs_upd, -1, -2))

    innov = scan[None, :, :] - z_pred[:, None, :]          # (N, M, dz)
    log_q = _log_normal(innov, L[:, None])                 # (N, M)
    q_gauss = alpha[:, None] * np.exp(log_q)               # per-Gaussian likelihoods

    n_comp = len(predicted)
    q_comp = np.zeros((n_comp, n_meas))
    np.add.at(q_comp, owner, q_gauss)

    denom_leg = 1.0 - rs * p_d
    num_terms = rs * (1.0 - rs) * p_d / denom_leg**2       # (n_comp,)
    den_terms = rs * p_d / denom_leg

    means_upd = means[:, None, :] + np.einsum("nij,nmj->nmi", K, innov)  # (N, M, dx)
    gauss_scale = (rs / denom_leg)[owner] * p_d            # (N,)

    next_id = predicted.next_id()
    updated = []
    for m in range(n_meas):
        num = float(np.dot(num_terms, q_comp[:, m]))
        den = kappa + float(np.dot(den_terms, q_comp[:, m]))
        r_u = _clamp_r(num / den) if den > 0 else 0.0
        w = gauss_scale * q_gauss[:, m]
        if r_u <= 0.0 or w.sum() <= 0.0 or not np.isfinite(w.sum()):
            continue
        pdf, _ = gm_normalize(GaussianMixture(w, means_upd[:, m, :], covs_upd))
        updated.append(BernoulliComponent(r=r_u, pdf=pdf, id=next_id))
        next_id += 1

    return MultiBernoulliDensity(tuple(legacy) + tuple(updated))


def _reduce_pdf(pdf: GaussianMixture, config: GmReduceConfig | None) -> GaussianMixture:
    """pdf reduced with config (skipped when config is None), then normalized."""
    if config is not None:
        pdf = gm_reduce(pdf, config.prune_threshold, config.merge_threshold, config.max_components)
    return gm_normalize(pdf)[0]


def _keep_strongest(components, max_components: int) -> list[BernoulliComponent]:
    """The max_components components of highest r (ties to the lower id), in id
    order; a sequence within the cap is returned in its own order."""
    if len(components) <= max_components:
        return list(components)
    top = sorted(components, key=lambda c: (-c.r, c.id))[:max_components]
    return sorted(top, key=lambda c: c.id)


def mb_reduce(
    density: MultiBernoulliDensity,
    config: MbReduceConfig,
) -> MultiBernoulliDensity:
    """Drop low-existence components, cap the count, reduce each pdf."""
    if not (0.0 <= config.trunc_threshold < 1.0):
        raise ValueError("truncation threshold must be in [0, 1)")
    kept = _keep_strongest(
        [c for c in density.components if c.r >= config.trunc_threshold], config.max_components
    )
    return MultiBernoulliDensity(
        tuple(
            BernoulliComponent(r=c.r, pdf=_reduce_pdf(c.pdf, config.gm), id=c.id)
            for c in kept
            # A pdf with no weight above the prune threshold reduces to nothing.
            if np.any(c.pdf.weights >= config.gm.prune_threshold)
        )
    )


def mb_merge_components(
    density: MultiBernoulliDensity,
    gate: float = 4.0,
    gm_config: GmReduceConfig | None = None,
) -> MultiBernoulliDensity:
    """Merge co-located Bernoulli components, preserving the first moment.

    A filter recursion spreads one object's existence over a dominant
    component plus decaying missed-detection companions at the same
    location. Merging gathers every component whose dominant Gaussian lies
    within the squared-Mahalanobis gate of a stronger component's (ties in
    r go to the lower id), summing r (clamped below 1) and mixing pdfs with
    r-proportional weights, so the intensity (PHD) of the density is
    unchanged up to the clamp.
    """
    if gate <= 0:
        raise ValueError("merge gate must be positive")
    comps = sorted(density.components, key=lambda c: (-c.r, c.id))
    if not comps:
        return MultiBernoulliDensity(())
    dominant = [int(np.argmax(c.pdf.weights)) for c in comps]
    dom_mean = np.array([c.pdf.means[j] for c, j in zip(comps, dominant)])
    dom_cov = np.array([c.pdf.covs[j] for c, j in zip(comps, dominant)])
    # maha[h, i] = diff^T (P_h + P_i)^-1 diff with diff = m_i - m_h.
    diff = dom_mean[None, :, :] - dom_mean[:, None, :]
    sol = np.linalg.solve(dom_cov[:, None] + dom_cov[None, :], diff[..., None])
    maha = (diff[..., None, :] @ sol)[..., 0, 0]

    merged = []
    for group in _leader_groups(range(len(comps)), maha <= gate):
        absorbed = [comps[i] for i in group]
        r_sum = sum(c.r for c in absorbed)
        weights = np.concatenate([c.r / r_sum * c.pdf.weights for c in absorbed])
        means = np.concatenate([c.pdf.means for c in absorbed])
        covs = np.concatenate([c.pdf.covs for c in absorbed])
        pdf = _reduce_pdf(GaussianMixture(weights, means, covs), gm_config)
        merged.append(BernoulliComponent(r=_clamp_r(r_sum), pdf=pdf, id=absorbed[0].id))
    merged.sort(key=lambda c: c.id)
    return MultiBernoulliDensity(tuple(merged))


def extract_estimates(density: MultiBernoulliDensity, r_threshold: float = 0.5) -> np.ndarray:
    """Means of the highest-weight Gaussian of every component with r above threshold.

    Ties in Gaussian weights resolve to the lowest component index.
    """
    if not (0.0 < r_threshold < 1.0):
        raise ValueError("r_threshold must be in (0, 1)")
    states = []
    for comp in density.components:
        if comp.r > r_threshold and comp.pdf.n_components > 0:
            j = int(np.argmax(comp.pdf.weights))
            states.append(comp.pdf.means[j])
    if not states:
        d = 4
        for comp in density.components:
            d = comp.pdf.d
            break
        return np.zeros((0, d))
    return np.array(states)
