"""Multi-Bernoulli posterior model and the local GM cardinality-balanced filter.

A density is one flat stack: the ids, existence probabilities r and pdf
sizes of its components, and the weights, means and covariances of all
their Gaussians, each component's Gaussians stored consecutively. The
stack's arrays are read-only, so densities share them freely.
``.components`` is a view of the stack, built the first time something
reads it and cached.

Each sensor node runs this filter independently: predict with a nearly
constant velocity model, update against the scan with constant detection
probability and uniform clutter intensity, then truncate. Predict and
update are batched over the whole stack: one F P F^T for every Gaussian,
and one update of all (Gaussian, measurement) pairs of a scan, whose
measurement components join the stack as one block. Given the prune
threshold of the reduction that follows, the update builds only the
measurement-track Gaussians that the reduction keeps (see mb_update).
Births are built as a stack of one-Gaussian components and appended as
one block. Truncation, the component caps and the reductions work on the
stack as well, so the filter builds no component object.

Every operation that returns no component returns it in its input's state
dimension: its stack's means are (0, d). Only a density built from no
components, such as ``MultiBernoulliDensity(())``, has no dimension, and
its means are (0, 0).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidDensityError, NumericalError
from .gm import (
    GaussianMixture, GmReduceConfig, _batch_cholesky, _check_gate, _check_gaussians, _check_type,
    _is_cap, _is_integer, _leader_groups, _log_normal, _reduce_segments, _segment_argmax,
    _segment_rows, _segment_sums,
)

# Existence probabilities are clamped below 1 so the Q^I ratios used by the
# fusion hypothesis weights stay finite.
R_MAX = 1.0 - 1e-9

# Relative tolerance of the covariance symmetry checks.
SYM_TOL = 1e-9

# extract_estimates reports the components whose existence exceeds this.
ESTIMATE_R = 0.5

# Adaptive births: each measurement of a scan of n seeds a component of
# existence min(BIRTH_R_MAX, BIRTH_RATE / n) at zero velocity, with a
# standard deviation of 10 in every coordinate.
BIRTH_R_MAX = 0.03
BIRTH_RATE = 0.1
BIRTH_COV = np.diag([100.0, 100.0, 100.0, 100.0])


@dataclass(frozen=True)
class BernoulliComponent:
    """Hypothetic object: existence probability r and normalized location pdf."""

    r: float
    pdf: GaussianMixture
    id: int


class _Stack(NamedTuple):
    ids: np.ndarray      # (n,) int
    rs: np.ndarray       # (n,)
    sizes: np.ndarray    # (n,) int, Gaussians per component
    weights: np.ndarray  # (J,), J = sizes.sum()
    means: np.ndarray    # (J, d)
    covs: np.ndarray     # (J, d, d)


class MultiBernoulliDensity:
    """Multi-Bernoulli density held as one flat stack (see the module docstring).

    The constructor stacks the given components once; ``.components``
    returns them as views into the stack. It is the one place where a
    density is checked: it raises InvalidDensityError for an id that is not
    an integer by gm._is_integer or repeats, an r outside [0, 1] or NaN, a
    pdf that holds no Gaussian or no positive weight, a negative Gaussian
    weight, a NaN or infinite Gaussian weight, mean or covariance entry, or
    a covariance that is not _symmetric. A pdf need not be normalized. The
    package's own operations build densities from valid ones and check
    nothing again.
    """

    __slots__ = ("stack", "_components")

    def __init__(self, components=()):
        components = tuple(components)
        ids = [c.id for c in components]
        if not all(map(_is_integer, ids)) or len(set(ids)) < len(ids):
            raise InvalidDensityError(f"component ids must be unique integers, got {ids}")
        pdfs = [c.pdf for c in components]
        if len({pdf.d for pdf in pdfs}) > 1:
            raise DimensionMismatchError("component pdfs differ in dimension")
        d = pdfs[0].d if pdfs else 0
        stack = _Stack(
            np.array(ids, dtype=np.int64),
            np.array([c.r for c in components], dtype=float),
            np.array([pdf.n_components for pdf in pdfs], dtype=np.int64),
            np.concatenate([pdf.weights for pdf in pdfs] or [np.zeros(0)]),
            np.concatenate([pdf.means for pdf in pdfs] or [np.zeros((0, d))]),
            np.concatenate([pdf.covs for pdf in pdfs] or [np.zeros((0, d, d))]),
        )
        _, rs, sizes, weights, means, covs = stack
        # A NaN r fails both comparisons.
        if not np.all((rs >= 0.0) & (rs <= 1.0)):
            raise InvalidDensityError(f"existence probabilities {rs} not all in [0, 1]")
        if not sizes.all():
            raise InvalidDensityError("a component's pdf holds no Gaussian")
        _check_gaussians(weights, means, covs)
        # Every weight is finite and >= 0 here, so a pdf's weights have a
        # positive sum exactly when the largest is positive.
        if not np.all(np.maximum.reduceat(weights, np.cumsum(sizes) - sizes) > 0.0):
            raise InvalidDensityError("a component's pdf has no positive weight")
        if not _symmetric(covs):
            raise InvalidDensityError("density holds an asymmetric covariance")
        self._adopt(stack)

    @classmethod
    def _from_stack(cls, ids, rs, sizes, weights, means, covs) -> "MultiBernoulliDensity":
        """The density of a stack, taken as it is, without checks.

        Package operations call it only to build a valid density from valid
        ones (or from a checked scan), so every density passes the
        constructor's rule.
        """
        self = object.__new__(cls)
        self._adopt(_Stack(ids, rs, sizes, weights, means, covs))
        return self

    def _adopt(self, stack: _Stack) -> None:
        for a in stack:
            a.setflags(write=False)
        self.stack = stack
        self._components = None

    @property
    def components(self) -> tuple[BernoulliComponent, ...]:
        if self._components is None:
            ids, rs, sizes, weights, means, covs = self.stack
            ends = np.cumsum(sizes).tolist()
            self._components = tuple(
                BernoulliComponent(
                    r=r, pdf=GaussianMixture(weights[e - n:e], means[e - n:e], covs[e - n:e]), id=i,
                )
                for i, r, n, e in zip(ids.tolist(), rs.tolist(), sizes.tolist(), ends)
            )
        return self._components

    def __len__(self) -> int:
        return self.stack.ids.shape[0]

    def __repr__(self) -> str:
        return f"MultiBernoulliDensity({self.components!r})"

    @property
    def rs(self) -> np.ndarray:
        return self.stack.rs

    def next_id(self) -> int:
        return int(self.stack.ids.max()) + 1 if len(self) else 0


def _check_dimension(density: MultiBernoulliDensity, d: int, what: str) -> None:
    """Raise DimensionMismatchError unless density's Gaussians have d
    dimensions; a density built from no components has none and passes."""
    means = density.stack.means
    if means.shape[1] != d and means.shape != (0, 0):
        raise DimensionMismatchError(f"{what} has dimension {means.shape[1]}, expected {d}")


def _check_unique_ids(ids: np.ndarray) -> None:
    if np.unique(ids).size != ids.size:
        raise InvalidDensityError("component ids must be unique within a density")


def _symmetric(a: np.ndarray) -> bool:
    """Whether every matrix of a (..., d, d) is symmetric within SYM_TOL
    times its largest entry."""
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True, initial=0.0)
    return not np.any(np.abs(a - np.swapaxes(a, -1, -2)) > SYM_TOL * scale)


def _take(density: MultiBernoulliDensity, idx, rs) -> MultiBernoulliDensity:
    """The components idx of density, in that order, with existence rs[idx]."""
    ids, _, sizes, weights, means, covs = density.stack
    rows = _segment_rows((np.cumsum(sizes) - sizes)[idx], sizes[idx])
    return MultiBernoulliDensity._from_stack(
        ids[idx], rs[idx], sizes[idx], weights[rows], means[rows], covs[rows]
    )


def _concat(first: MultiBernoulliDensity, *rest: MultiBernoulliDensity) -> MultiBernoulliDensity:
    """The densities' components stacked one after another."""
    full = [d for d in (first, *rest) if len(d)]
    if len(full) <= 1:
        return full[0] if full else first
    return MultiBernoulliDensity._from_stack(
        *(np.concatenate(parts) for parts in zip(*(d.stack for d in full)))
    )


def _rows(a, width: int, error: type[Exception]) -> np.ndarray:
    """a as an (n, width) float array, (0, width) if it is empty; error if
    it is a non-empty array of another shape."""
    a = np.asarray(a, dtype=float)
    if a.size and (a.ndim != 2 or a.shape[1] != width):
        raise error(f"expected an array of shape (n, {width}), got {a.shape}")
    return a.reshape(-1, width)


def _single_gaussians(ids, r, means, cov) -> MultiBernoulliDensity:
    """The density whose component ids[i] has existence r and pdf N(means[i], cov)."""
    n = means.shape[0]
    return MultiBernoulliDensity._from_stack(
        np.asarray(ids, dtype=np.int64), np.full(n, r), np.ones(n, dtype=np.int64),
        np.ones(n), means, np.repeat(cov[None], n, axis=0),
    )


def _strongest(ids, rs, idx, cap):
    """The cap positions of idx with the highest r (ties to the lower id), in
    id order; idx itself if it holds at most cap."""
    if idx.size <= cap:
        return idx
    top = idx[np.lexsort((ids[idx], -rs[idx]))[:cap]]
    return top[np.argsort(ids[top])]


def _check_matrix(a, shape, what: str, covariance: bool = False) -> np.ndarray:
    """a as a float array, which must be finite and of its shape; a covariance
    must also be _symmetric and positive semi-definite within SYM_TOL times its
    largest entry, so the singular NCV process noise passes."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ConfigError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ConfigError(f"{what} must be finite")
    tol = SYM_TOL * np.abs(a).max(initial=0.0)
    if covariance and not (_symmetric(a) and np.linalg.eigvalsh(a).min(initial=0.0) >= -tol):
        raise ConfigError(f"{what} must be symmetric positive semi-definite")
    return a


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        # A NaN bound fails every comparison; an infinite one gives an infinite area.
        if not (self.xmin < self.xmax and self.ymin < self.ymax and self.area < np.inf):
            raise ConfigError(f"region {self} must be finite with xmin < xmax and ymin < ymax")

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

    def __post_init__(self):
        n = np.shape(self.F)[0] if np.ndim(self.F) else 0
        # The checked float arrays are stored, so list-valued matrices work too.
        object.__setattr__(self, "F", _check_matrix(self.F, (n, n), "motion F"))
        object.__setattr__(self, "Q", _check_matrix(self.Q, (n, n), "motion Q", covariance=True))
        # Each check also rejects NaN, which fails every comparison.
        if not 0 <= self.p_survival <= 1:
            raise ConfigError("survival probability must be in [0, 1]")

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
        return cls(F=F, Q=Q, p_survival=p_survival)


@dataclass(frozen=True)
class SensorModel:
    """Linear Gaussian detections plus uniform Poisson clutter over the region."""

    H: np.ndarray
    R: np.ndarray
    p_detect: float
    clutter_rate: float
    region: Rectangle

    def __post_init__(self):
        m, n = np.shape(self.H) if np.ndim(self.H) == 2 else (0, 0)
        object.__setattr__(self, "H", _check_matrix(self.H, (m, n), "sensor H"))
        object.__setattr__(self, "R", _check_matrix(self.R, (m, m), "sensor R", covariance=True))
        if not 0 <= self.p_detect <= 1:
            raise ConfigError("detection probability must be in [0, 1]")
        if not 0 <= self.clutter_rate < np.inf:
            raise ConfigError("clutter rate must be finite and >= 0")

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
class MbReduceConfig:
    """mb_reduce's parameters: truncation in [0, 1), an integer cap >= 1, a GmReduceConfig gm."""

    trunc_threshold: float = 1e-4
    max_components: int = 100
    gm: GmReduceConfig = field(default_factory=GmReduceConfig)

    def __post_init__(self):
        _check_type(self.gm, GmReduceConfig, "gm")
        if not (0.0 <= self.trunc_threshold < 1.0 and _is_cap(self.max_components)):
            raise ConfigError(f"invalid multi-Bernoulli reduction parameters: {self}")


def mb_predict(
    prior: MultiBernoulliDensity,
    motion: MotionModel,
    births: MultiBernoulliDensity | None = None,
) -> MultiBernoulliDensity:
    """Survival-scaled existence, linear-Gaussian pdf propagation, births appended.

    A prior or births whose dimension is not that of motion.F raise
    DimensionMismatchError.
    """
    d = motion.F.shape[0]
    _check_dimension(prior, d, "prior")
    if births is not None:
        _check_dimension(births, d, "births")
    ids, rs, sizes, weights, means, covs = prior.stack
    if len(ids):
        rs = np.clip(motion.p_survival * rs, 0.0, R_MAX)
        means = means @ motion.F.T
        covs = motion.F @ covs @ motion.F.T + motion.Q[None, :, :]
    predicted = MultiBernoulliDensity._from_stack(ids, rs, sizes, weights, means, covs)
    if births is None or not len(births):
        return predicted
    predicted = _concat(predicted, births)
    _check_unique_ids(predicted.stack.ids)
    return predicted


def adaptive_birth(prev_scan: np.ndarray, start_id: int = 0) -> MultiBernoulliDensity:
    """One birth component per previous-scan measurement, zero-velocity prior,
    with ids from start_id on, an integer and not a bool (else ConfigError);
    a non-finite measurement raises NumericalError."""
    if not _is_integer(start_id):
        raise ConfigError(f"start_id must be an integer, got {start_id!r}")
    prev_scan = _rows(prev_scan, 2, DimensionMismatchError)
    if not np.isfinite(prev_scan).all():
        raise NumericalError("previous scan holds a non-finite measurement")
    n = prev_scan.shape[0]
    return _single_gaussians(
        start_id + np.arange(n), min(BIRTH_R_MAX, BIRTH_RATE / max(1, n)),
        np.hstack([prev_scan, np.zeros((n, 2))]), BIRTH_COV,
    )


def mb_update(
    predicted: MultiBernoulliDensity,
    scan: np.ndarray,
    sensor: SensorModel,
    prune_threshold: float = 0.0,
) -> MultiBernoulliDensity:
    """Cardinality-balanced MB update: legacy tracks plus one track per measurement.

    The measurement tracks follow the legacy ones, in scan order, each
    with a pdf of one updated Gaussian per predicted Gaussian, in stack
    order. A non-empty scan is an (m, dz) array, and the density's
    dimension is that of sensor.H's columns; either mismatch raises
    DimensionMismatchError.

    With prune_threshold above 0, each measurement track keeps only the
    Gaussians whose normalized weight is at or above it, and only those
    are built. A track that lost Gaussians is rescaled as gm_reduce
    rescales a pruned mixture: its kept weights are multiplied by its
    total over all its Gaussians divided by its total over the kept ones.
    mb_reduce with that prune threshold then gives, bit for bit, what it
    gives after an update that pruned nothing. A track is left whole if
    it keeps no Gaussian, or if rounding in the rescale takes a kept
    weight below the threshold: mb_reduce would prune it again. The
    threshold must be a finite real >= 0 and not a bool, else ConfigError.
    """
    if not (isinstance(prune_threshold, numbers.Real) and not isinstance(prune_threshold, bool)
            and 0.0 <= prune_threshold < np.inf):
        raise ConfigError(f"prune threshold must be finite and >= 0, got {prune_threshold!r}")
    _check_dimension(predicted, sensor.H.shape[1], "predicted density")
    scan = _rows(scan, sensor.H.shape[0], DimensionMismatchError)
    if not np.isfinite(scan).all():
        raise NumericalError("scan holds a non-finite measurement")
    p_d = sensor.p_detect
    kappa = sensor.clutter_density

    ids, rs, sizes, alpha, means, covs = predicted.stack
    # Clamped like the fusion Q factors: r = 1 with p_d = 1 would divide 0 by 0.
    rs = np.minimum(rs, R_MAX)
    legacy = MultiBernoulliDensity._from_stack(
        ids, np.clip(rs * (1.0 - p_d) / (1.0 - rs * p_d), 0.0, R_MAX), sizes, alpha, means, covs,
    )
    n_meas = scan.shape[0]
    if n_meas == 0 or len(ids) == 0 or p_d == 0.0:
        return legacy

    owner = np.repeat(np.arange(len(ids)), sizes)
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

    q_comp = np.zeros((len(ids), n_meas))
    np.add.at(q_comp, owner, q_gauss)

    denom_leg = 1.0 - rs * p_d
    num_terms = rs * (1.0 - rs) * p_d / denom_leg**2       # (n_comp,)
    den_terms = rs * p_d / denom_leg
    # One dot per measurement column: a single matrix product sums in
    # another order.
    num = np.array([np.dot(num_terms, q) for q in q_comp.T])
    den = kappa + np.array([np.dot(den_terms, q) for q in q_comp.T])
    with np.errstate(divide="ignore", invalid="ignore"):
        r_u = np.where(den > 0, np.clip(num / den, 0.0, R_MAX), 0.0)

    # Row m holds measurement m's weights; a C-contiguous row sums as its
    # own 1-D array would.
    w = np.ascontiguousarray((((rs / denom_leg)[owner] * p_d)[:, None] * q_gauss).T)
    mass = w.sum(axis=1)
    kept = np.flatnonzero(~(r_u <= 0.0) & np.isfinite(mass) & (mass > 0.0))
    if not kept.size:
        return legacy

    # The (track, Gaussian) pairs that survive the prune, row-major, so each
    # track keeps stack order.
    track, g, weights = _prune_tracks(w[kept] / mass[kept, None], prune_threshold)
    # K innov of each pair, summed term by term: for a 2-D measurement that
    # is np.einsum("nij,nj->ni") bit for bit, at a fraction of its cost.
    innov = innov[g, kept[track]][:, None, :]
    K = K[g]
    shift = K[:, :, 0] * innov[..., 0]
    for j in range(1, K.shape[2]):
        shift = shift + K[:, :, j] * innov[..., j]
    updated = MultiBernoulliDensity._from_stack(
        predicted.next_id() + np.arange(kept.size),
        r_u[kept],
        np.bincount(track, minlength=kept.size),
        weights,
        means[g] + shift,
        covs_upd[g],
    )
    return _concat(legacy, updated)


def _prune_tracks(w: np.ndarray, threshold: float):
    """The Gaussians that each row of normalized weights keeps at threshold,
    as (track, Gaussian, weight) arrays in row-major order.

    A row that loses Gaussians is rescaled as _reduce_segments rescales a
    pruned segment, both totals summed as _segment_sums sums them. A row
    is kept whole if no weight reaches the threshold, or if the rescale
    takes a kept weight below it. A row's largest weight is at least 1 / N,
    so below N = 1 / threshold every row keeps a Gaussian.
    """
    keep = w >= threshold
    n_keep = keep.sum(axis=1)
    scale = np.ones(w.shape[0])
    cut = np.flatnonzero((n_keep > 0) & (n_keep < w.shape[1]))
    if cut.size:
        # A C-contiguous row sums as _segment_sums sums it as a segment.
        scale[cut] = w[cut].sum(axis=1) / _segment_sums(w[cut][keep[cut]], n_keep[cut])
    whole = n_keep == 0
    # A rescale below 1 can only come from rounding, when the pruned mass
    # is below the sums' rounding error.
    low = np.flatnonzero(scale < 1.0)
    whole[low] |= ((w[low] * scale[low, None] < threshold) & keep[low]).any(axis=1)
    keep[whole] = True
    scale[whole] = 1.0
    track, g = np.nonzero(keep)
    return track, g, w[track, g] * scale[track]


def _reduce_stack(sizes, weights, means, covs, config: GmReduceConfig | None):
    """Every pdf of a flat stack reduced with config (skipped when it is
    None), then normalized, in one pass.

    The stack holds the pdfs as consecutive segments of the given sizes.
    Returns the stack (sizes, weights, means, covs) of the normalized
    reduced pdfs; a segment that reduction leaves empty has size 0.
    """
    if config is not None:
        sizes, weights, means, covs = _reduce_segments(sizes, weights, means, covs, config)
    mass = _segment_sums(weights, sizes)[sizes > 0]
    if not np.all(np.isfinite(mass) & (mass > 0.0)):
        raise NumericalError(f"cannot normalize mixtures with total weights {mass}")
    return sizes, weights / np.repeat(mass, sizes[sizes > 0]), means, covs


def _reduced_density(ids, rs, sizes, weights, means, covs, config: GmReduceConfig | None):
    """The density of a flat stack of pdfs, each reduced with config and
    normalized by _reduce_stack, with every r clipped to [0, R_MAX].

    Raises NumericalError if reduction leaves a pdf with no Gaussian.
    """
    sizes, weights, means, covs = _reduce_stack(sizes, weights, means, covs, config)
    if not sizes.all():
        raise NumericalError("a fused or merged pdf has no weight at or above the prune threshold")
    return MultiBernoulliDensity._from_stack(
        ids, np.clip(rs, 0.0, R_MAX), sizes, weights, means, covs
    )


def mb_reduce(
    density: MultiBernoulliDensity,
    config: MbReduceConfig,
) -> MultiBernoulliDensity:
    """Drop low-existence components, cap the count, reduce each pdf.

    A component whose pdf has no weight at or above the prune threshold
    is dropped. The config's parameters were checked when it was built.
    """
    _check_type(config, MbReduceConfig, "config")
    ids, rs = density.stack[:2]
    kept = _strongest(ids, rs, np.flatnonzero(rs >= config.trunc_threshold),
                      config.max_components)
    ids, rs, *stack = _take(density, kept, rs).stack
    sizes, weights, means, covs = _reduce_stack(*stack, config.gm)
    # A pdf with no weight at or above the prune threshold reduces to nothing.
    alive = sizes > 0
    return MultiBernoulliDensity._from_stack(
        ids[alive], rs[alive], sizes[alive], weights, means, covs
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
    unchanged up to the clamp. A group whose r sum is 0 keeps r = 0 and
    mixes its members' pdfs with equal shares; its PHD is 0 either way. A
    merged pdf that reduction empties raises NumericalError (see
    _reduced_density). An empty density is returned as it is.
    """
    _check_gate(gate, "merge gate")
    _check_type(gm_config, GmReduceConfig, "gm_config", optional=True)
    ids, rs, sizes, weights, means, covs = density.stack
    if not len(ids):
        return density
    # Components strongest first, ties in r to the lower id; the dominant
    # Gaussian of each is the first of its heaviest.
    order = np.lexsort((ids, -rs))
    dominant = _segment_argmax(weights, sizes)[order]
    dom_mean, dom_cov = means[dominant], covs[dominant]
    # within[h, i], for h < i in that order: diff^T (P_h + P_i)^-1 diff <=
    # gate with diff = m_i - m_h. The leader loop reads h's row only past h,
    # as every earlier component is already grouped, so no other entry is
    # set. The form is at least |diff|^2 / tr(P_h + P_i), as the largest
    # eigenvalue of a positive-definite matrix is at most its trace, so only
    # the pairs with |diff|^2 <= 2 gate tr(P_h + P_i) are solved (the 2 is a
    # margin for rounding). No other pair can lie in the gate.
    h, i = np.triu_indices(len(ids), 1)
    diff = dom_mean[i] - dom_mean[h]
    trace = np.trace(dom_cov, axis1=1, axis2=2)
    near = 0.5 * np.einsum("kd,kd->k", diff, diff) / (trace[h] + trace[i]) <= gate
    h, i, diff = h[near], i[near], diff[near]
    sol = np.linalg.solve(dom_cov[h] + dom_cov[i], diff[:, :, None])
    within = np.zeros((len(ids), len(ids)), dtype=bool)
    within[h, i] = (diff[:, None, :] @ sol)[:, 0, 0] <= gate

    # Groups as positions in the density, in the id order of their leaders.
    groups = sorted((order[g] for g in _leader_groups(range(len(ids)), within.__getitem__)),
                    key=lambda g: ids[g[0]])
    # One flat stack of every group's pdfs, group after group, gathered from
    # the density's stack, each pdf's weights scaled by its share of the
    # group's summed r, or by 1 / members where that sum is 0. The sums add
    # left to right, as a loop over the group would.
    r_list = rs.tolist()
    r_sums = np.array([sum(r_list[i] for i in g.tolist()) for g in groups])
    members = np.array([len(g) for g in groups])
    absorbed = np.concatenate(groups)
    n = sizes[absorbed]
    rows = _segment_rows((np.cumsum(sizes) - sizes)[absorbed], n)
    zero = r_sums == 0.0
    share = (np.where(np.repeat(zero, members), 1.0, rs[absorbed])
             / np.repeat(np.where(zero, members, r_sums), members))
    return _reduced_density(
        ids[[g[0] for g in groups]], r_sums, np.add.reduceat(n, np.cumsum(members) - members),
        weights[rows] * np.repeat(share, n), means[rows], covs[rows], gm_config,
    )


def extract_estimates(density: MultiBernoulliDensity) -> np.ndarray:
    """Means of the highest-weight Gaussian of every component with r above
    ESTIMATE_R, as an (n, d) array in the density's dimension d.

    Ties in Gaussian weights resolve to the lowest component index; every
    pdf holds a Gaussian, as the constructor requires. With no such
    component the result is (0, d), and (0, 0) for a density built from no
    components.
    """
    _, rs, sizes, weights, means, _ = density.stack
    sel = np.flatnonzero(rs > ESTIMATE_R)
    rows = _segment_rows((np.cumsum(sizes) - sizes)[sel], sizes[sel])
    return means[rows[_segment_argmax(weights[rows], sizes[sel])]]
