"""Gaussian mixture representation and the exponentiation/product algebra.

Mixtures are stored in stacked-array form (weights, means, covariances)
so that pair products and mass evaluations vectorize over components.
Fractional powers of a mixture are realized componentwise: each weighted
Gaussian is raised to the exponent on its own, which is accurate when
components are well separated relative to their covariances (reduction is
run upstream before every fusion to enforce that).

Reduction (_reduce_segments, under gm_reduce, mb_reduce, condensation and
fusion) reduces many mixtures at once with no Python per mixture or per
merged group, and gives each one bit for bit as reducing it alone would:
every kept covariance is still factorized, so a non-positive-definite one
raises NumericalError though only the leaders' factors are used; leader
distance rows are solved with many columns, never one, as a single-column
solve differs in the last bits; and every weight total is summed as
_segment_sums sums, as zero-weight padding leaves the merge's contractions
unchanged but not a row sum of padded weights from 8 entries up.

_leader_groups is the one greedy leader loop, for mb_merge_components and a
lone segment's sweep. _check_gaussians is the one Gaussian validity check,
for the MultiBernoulliDensity constructor, gm_reduce and gm_pair_product.
GmReduceConfig and FusionWeights hold the one rule of their parameters and
raise ConfigError when built; gm_reduce and gm_pair_product take them built
and check only their type, and the kernels check nothing. _pair_log_mass is
the one body of the exponent-weighted Gaussian pair mass, for divergences
and products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidDensityError, NumericalError

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

    @classmethod
    def empty(cls, d: int) -> "GaussianMixture":
        return cls(np.zeros(0), np.zeros((0, d)), np.zeros((0, d, d)))

    @classmethod
    def single(cls, mean, cov) -> "GaussianMixture":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        return cls(np.ones(1), mean[None, :], cov[None, :, :])


def _is_cap(n, least: int = 1) -> bool:
    """The rule for every component cap and count: an integer >= least, as it slices."""
    return isinstance(n, (int, np.integer)) and n >= least


def _check_type(value, kind: type, what: str, optional: bool = False) -> None:
    """The rule for every config object and weight pair a public entry takes:
    an instance of kind, or None where optional; anything else is a ConfigError."""
    if not (isinstance(value, kind) or (optional and value is None)):
        raise ConfigError(f"{what} must be {kind.__name__}{' or None' * optional}, "
                          f"got {type(value).__name__}")


@dataclass(frozen=True)
class GmReduceConfig:
    """gm_reduce's parameters: thresholds >= 0 and an integer cap >= 1, checked when built."""

    prune_threshold: float = 1e-5
    merge_threshold: float = 4.0
    max_components: int = 5

    def __post_init__(self):
        if not (self.prune_threshold >= 0 and self.merge_threshold >= 0 and
                _is_cap(self.max_components)):
            raise ConfigError(f"invalid reduction parameters: {self}")


@dataclass(frozen=True)
class FusionWeights:
    """GCI exponents, each in (0, 1), summing to 1 within 1e-12; checked when built."""

    w1: float
    w2: float

    def __post_init__(self):
        if not (0.0 < self.w1 < 1.0 and 0.0 < self.w2 < 1.0):
            raise ConfigError(f"fusion weights must lie in (0, 1), got {self}")
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ConfigError(f"fusion weights must sum to 1, got {self}")

    def swapped(self) -> "FusionWeights":
        return FusionWeights(self.w2, self.w1)


def _check_gaussians(weights, means, covs) -> None:
    """Raise InvalidDensityError unless every weight, mean and covariance
    entry is finite."""
    if not (np.isfinite(weights).all() and np.isfinite(means).all() and np.isfinite(covs).all()):
        raise InvalidDensityError("a Gaussian weight, mean or covariance entry is NaN or infinite")


def _batch_cholesky(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance factorization failed") from exc


def _log_normal(diff: np.ndarray, L: np.ndarray) -> np.ndarray:
    """log N(diff; 0, L L^T) for Cholesky factors L that broadcast against diff.

    diff has shape (..., d) and L shape (..., d, d); the leading axes
    broadcast, so one factor can serve many difference vectors.
    """
    sol = np.linalg.solve(L, diff[..., None])[..., 0]
    maha = np.sum(sol**2, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (diff.shape[-1] * LOG_2PI + logdet + maha)


def _power_parts(weights: np.ndarray, covs: np.ndarray, omega: float):
    """(log(a^w rho(P, w)), P / w) of each Gaussian a N(m, P) raised to omega,
    with rho(P, w) = sqrt(det(2 pi P / w) * det(2 pi P)^(-w)); the means are
    unchanged."""
    d = covs.shape[-1]
    logdet = 2.0 * np.sum(np.log(np.diagonal(_batch_cholesky(covs), axis1=-2, axis2=-1)), axis=-1)
    log_rho = 0.5 * ((d * (LOG_2PI - math.log(omega)) + logdet) - omega * (d * LOG_2PI + logdet))
    with np.errstate(divide="ignore"):
        return omega * np.log(weights) + log_rho, covs / omega


def _pair_log_mass(lw1, S1, m1, lw2, S2, m2):
    """(log_alpha, S1 + S2, m1 - m2) of the products of powered Gaussians
    exp(lw1) N(m1, S1) and exp(lw2) N(m2, S2), as _power_parts gives them;
    the operands broadcast against each other. log_alpha is the log mass of
    each product, lw1 + lw2 + log N(m1 - m2; 0, S1 + S2)."""
    if m1.shape[-1] != m2.shape[-1]:
        raise DimensionMismatchError(f"state dimensions differ: {m1.shape[-1]} vs {m2.shape[-1]}")
    sig = S1 + S2
    diff = m1 - m2
    return lw1 + lw2 + _log_normal(diff, _batch_cholesky(sig)), sig, diff


def _pair_product_parts(stack1, stack2, w: FusionWeights, i1, i2):
    """Log-weights, means and covariances of the products stack1^w.w1 *
    stack2^w.w2 of the Gaussian pairs (i1[k], i2[k]).

    stack1 and stack2 are flat (weights, means, covs) stacks. Each
    Gaussian is raised to its exponent once; the pairs then gather their
    parts by index. Returns (log_alpha (K,), means (K, d), covs (K, d, d)).
    """
    a1, m1, P1 = stack1
    a2, m2, P2 = stack2
    lw1, S1 = _power_parts(a1, P1, w.w1)
    lw2, S2 = _power_parts(a2, P2, w.w2)
    S1, m1 = S1[i1], m1[i1]
    log_alpha, sig, diff = _pair_log_mass(lw1[i1], S1, m1, lw2[i2], S2[i2], m2[i2])

    # Information-form fusion of the omega-scaled covariances:
    # P12 = S1 - S1 (S1 + S2)^-1 S1, m12 = m1 + S1 (S1 + S2)^-1 (m2 - m1).
    gain = np.linalg.solve(np.swapaxes(sig, -1, -2), np.swapaxes(S1, -1, -2))
    gain = np.swapaxes(gain, -1, -2)
    means = m1 + np.einsum("...ij,...j->...i", gain, -diff)
    covs = S1 - np.einsum("...ij,...jk->...ik", gain, S1)
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return log_alpha, means, covs


def gm_pair_product(p1: GaussianMixture, p2: GaussianMixture, w: FusionWeights) -> GaussianMixture:
    """Double-sum mixture for p1^w.w1 * p2^w.w2 (unnormalized, J1*J2
    components, p1's index major). Weights that are not a FusionWeights
    raise ConfigError, a non-finite mixture entry InvalidDensityError."""
    _check_type(w, FusionWeights, "fusion weights")
    for p in (p1, p2):
        _check_gaussians(p.weights, p.means, p.covs)
    if p1.n_components == 0 or p2.n_components == 0:
        return GaussianMixture.empty(p1.d)
    j1, j2 = p1.n_components, p2.n_components
    log_alpha, means, covs = _pair_product_parts(
        (p1.weights, p1.means, p1.covs), (p2.weights, p2.means, p2.covs), w,
        np.repeat(np.arange(j1), j2), np.tile(np.arange(j2), j1),
    )
    return GaussianMixture(np.exp(log_alpha), means, covs)


def _leader_groups(order, within_row) -> list[np.ndarray]:
    """Greedy leader clustering, the one loop of mb_merge_components and of
    a lone segment's sweep (see _sweep).

    ``order`` visits the indices 0, ..., len(order) - 1; each one not yet
    grouped leads a group of itself and every ungrouped j with
    ``within_row(lead)[j]``. Groups are returned in the order their leaders
    were visited, each as an ascending index array, so with an ascending
    ``order`` the leader is each group's first element.
    """
    free = np.ones(len(order), dtype=bool)
    groups = []
    for lead in order:
        if free[lead]:
            grab = free & within_row(lead)
            grab[lead] = True
            free &= ~grab
            groups.append(grab.nonzero()[0])
    return groups


def _merge_moments(w, weights, means, covs):
    """Moment-preserving merge of each set of Gaussians into one, given the
    sets' total weights w; leading axes index independent sets.

    A set padded with zero-weight entries merges bit for bit as it does
    unpadded when the Gaussians have two or more dimensions; its total
    must not be summed from the padded weights (see _reduce_segments).
    """
    m = np.einsum("...j,...jd->...d", weights, means) / w[..., None]
    spread = means - m[..., None, :]
    P = (
        np.einsum("...j,...jde->...de", weights, covs)
        + np.einsum("...j,...jd,...je->...de", weights, spread, spread)
    ) / w[..., None, None]
    return w, m, 0.5 * (P + np.swapaxes(P, -1, -2))


def _segment_sums(values: np.ndarray, sizes: np.ndarray, starts=None) -> np.ndarray:
    """ndarray.sum of each segment values[starts[k]:starts[k] + sizes[k]]
    of non-negative values, bit for bit; an empty segment sums to 0. The
    segments are consecutive unless starts is given."""
    if starts is None:
        starts = sizes.cumsum() - sizes
    nonempty = sizes > 0
    sums = np.zeros(sizes.shape[0])
    if nonempty.any():
        rows, valid = _segment_table(starts[nonempty], sizes[nonempty])
        sums[nonempty] = _row_sums(np.where(valid, values[rows], 0.0), sizes[nonempty])
    return sums


def _row_sums(table: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """ndarray.sum of the first sizes[k] entries of each row k of a table
    padded with trailing zeros, bit for bit.

    A row sum takes the same path as a 1-D sum. Below 8 entries numpy adds
    a row's entries one after another, so trailing zeros change nothing;
    from 8 entries up its pairwise path depends on the length, so those
    rows are summed one length at a time. np.add.reduceat adds entries in
    another order, which differs in the last bits from three entries up.
    Both paths rest on numpy's summation order, which it does not promise:
    test_segment_sums_match_ndarray_sum pins them on the installed numpy.
    Summing short rows one length at a time too made the reductions of every
    benchmark workload slower.
    """
    if table.shape[1] < 8:
        return table.sum(axis=1)
    width = np.where(sizes < 8, 7, sizes)
    sums = np.empty(sizes.shape[0])
    for n in set(width.tolist()):
        rows = width == n
        sums[rows] = table[rows, :n].sum(axis=1)
    return sums


def _segment_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows starts[k], ..., starts[k] + sizes[k] - 1 of every segment k,
    concatenated in order."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _segment_table(starts: np.ndarray, sizes: np.ndarray):
    """The rows of every segment k as row k of a table as wide as the
    largest segment; returns (rows, valid). A short row is padded with its
    segment's first row, which valid marks False; no segment may be empty."""
    pos = np.arange(sizes.max())
    valid = pos < sizes[:, None]
    return np.where(valid, starts[:, None] + pos, starts[:, None]), valid


def _segment_argmax(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Index into values of the first maximum of each consecutive segment, as
    np.argmax picks it within the segment; no segment may be empty."""
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    heaviest = np.maximum.reduceat(values, np.cumsum(sizes) - sizes)
    top = np.flatnonzero(values == heaviest[owner])
    return top[np.searchsorted(owner[top], np.arange(sizes.shape[0]))]


def _sweep(w, means, chol, starts, sizes, merge_threshold):
    """Greedy leader groups of segments of two or more Gaussians.

    Each segment visits its Gaussians heaviest first (ties to the lower
    index); each one visited while still free leads a group of itself and
    every free Gaussian within merge_threshold of it, found from the
    leader's distance row alone. Returns (rows, valid, label): the segments
    as a padded table of rows (see _segment_table) and each Gaussian's
    group number in its segment.

    Many segments sweep together in rounds, one group per segment a round:
    a round gathers its leaders once and solves all their distance rows in
    one call, and each leader joins its own group by its distance to
    itself, exactly 0, as GmReduceConfig holds merge_threshold >= 0 (a NaN
    mean or covariance makes it NaN; the rounds then raise NumericalError
    rather than loop). A lone segment sweeps in _leader_groups' loop over
    its leaders, which costs less than a round's two-dimensional indexing.
    """
    rows, valid = _segment_table(starts, sizes)
    order = np.where(valid, -w[rows], np.nan).argsort(axis=1, kind="stable")
    m = means[rows]
    label = np.zeros(rows.shape, dtype=np.intp)
    if sizes.shape[0] == 1:
        m, chol, lab = m[0], chol[rows[0]], label[0]
        def within_row(lead):
            dist_sq = (np.linalg.solve(chol[lead], (m - m[lead]).T) ** 2).sum(axis=0)
            return dist_sq <= merge_threshold
        for k, g in enumerate(_leader_groups(order[0].tolist(), within_row)):
            lab[g] = k
        return rows, valid, label
    # rank[s, i]: Gaussian i's place in segment s's visit order, or `last`
    # once it is grouped (padding counts as grouped). Every segment takes
    # part in rounds 0, 1, ... until it has no free Gaussian, so a group's
    # number is the round that formed it.
    last = rows.shape[1]
    rank = np.where(valid, order.argsort(axis=1), last)
    mT = m.swapaxes(1, 2)
    active = np.arange(sizes.shape[0])
    for k in range(last):
        ranks = rank[active]
        lead = rows[active, ranks.argmin(axis=1)]
        diff = mT[active] - means[lead][:, :, None]
        dist_sq = (np.linalg.solve(chol[lead], diff) ** 2).sum(axis=1)
        grab = (ranks < last) & (dist_sq <= merge_threshold)
        s, j = np.nonzero(grab)
        label[active[s], j] = k
        rank[active[s], j] = last
        active = active[(rank[active] < last).any(axis=1)]
        if not active.size:
            return rows, valid, label
    # A segment grouped nothing in some round: a NaN mean or covariance gave
    # its leader a NaN distance to itself.
    raise NumericalError("a Gaussian's distance to itself is not 0")


def _reduce_segments(sizes, weights, means, covs, config: GmReduceConfig):
    """Reduce every segment of a flat stack on its own, in one pass, by
    gm_reduce's rule with config's parameters: prune, merge, cap.

    The stack holds consecutive segments of the given sizes. Returns the
    reduced stack as (sizes, weights, means, covs), unnormalized; a segment
    with no weight at or above the prune threshold reduces to size 0.

    No step runs Python per segment or per group: the greedy sweep runs in
    rounds over all segments (see _sweep), groups are label arrays, the cap
    is one batched stable top-k and all groups merge in one call. Python
    loops only over the distinct lengths of 8 or more among the weight
    sums, and over group sizes when the Gaussians are scalar. Each output
    is still bit-identical to the reduction of its segment alone:
    - every kept covariance is factorized, though only the leaders'
      factors are used, so a non-positive-definite one raises
      NumericalError;
    - a leader's distance row is solved with one column per Gaussian of
      its padded segment: a single-column solve differs in the last bits
      from a multi-column one, while extra columns change no bit;
    - every weight total, of a pruned segment or of a group, is summed
      as _segment_sums sums (see _row_sums): zero-weight padding leaves
      the merge's contractions unchanged bit for bit, but not a row sum of
      padded weights from 8 entries up.
    """
    keep = weights >= config.prune_threshold
    w = weights
    starts = sizes.cumsum() - sizes
    if not keep.all():
        kept_sizes = np.bincount(np.repeat(np.arange(sizes.shape[0]), sizes)[keep],
                                 minlength=sizes.shape[0])
        w, means, covs = weights[keep], means[keep], covs[keep]
        kept_starts = kept_sizes.cumsum() - kept_sizes
        cut = ((kept_sizes < sizes) & (kept_sizes > 0)).nonzero()[0]
        if cut.size:
            # A segment that lost Gaussians to pruning is rescaled to its
            # own total; only those segments are summed.
            n = kept_sizes[cut]
            scale = (_segment_sums(weights, sizes[cut], starts[cut])
                     / _segment_sums(w, n, kept_starts[cut]))
            w[_segment_rows(kept_starts[cut], n)] *= np.repeat(scale, n)
        sizes, starts = kept_sizes, kept_starts
    if not w.shape[0]:
        return sizes, w, means, covs
    chol = _batch_cholesky(covs)

    # Each kept Gaussian's group number in its segment; a segment of one
    # Gaussian is one group.
    label = np.zeros(w.shape[0], dtype=np.intp)
    n_groups = np.minimum(sizes, 1)
    multi = (sizes > 1).nonzero()[0]
    if multi.size:
        rows, valid, seg_label = _sweep(w, means, chol, starts[multi], sizes[multi],
                                        config.merge_threshold)
        label[rows[valid]] = seg_label[valid]
        n_groups[multi] = seg_label.max(axis=1) + 1
    # Groups numbered segment after segment, each segment's in sweep order,
    # as a padded table of their members in ascending order.
    first = n_groups.cumsum() - n_groups
    group = np.repeat(first, sizes) + label
    group_sizes = np.bincount(group)
    members, valid = _segment_table(group_sizes.cumsum() - group_sizes, group_sizes)
    members = group.argsort(kind="stable")[members]
    group_w = np.where(valid, w[members], 0.0)
    totals = _row_sums(group_w, group_sizes)
    over = (n_groups > config.max_components).nonzero()[0]
    if over.size:
        # A segment over the cap keeps its heaviest groups (ties to the
        # lower group number) in group order.
        groups, valid = _segment_table(first[over], n_groups[over])
        top = np.where(valid, -totals[groups], np.nan).argsort(axis=1, kind="stable")
        kept = np.ones(totals.shape[0], dtype=bool)
        kept[groups[valid]] = False
        kept[np.take_along_axis(groups, top[:, :config.max_components], axis=1)] = True
        members, group_w, totals, group_sizes = (
            members[kept], group_w[kept], totals[kept], group_sizes[kept]
        )

    # Each output merges one group, all in one call with the groups padded
    # by zero weights, except for scalar Gaussians: numpy contracts a scalar
    # group in a SIMD loop whose order depends on its length, so padding
    # would change bits, and those groups are merged one size at a time.
    # Merging one size at a time for every d, the benchmark's 4-D Gaussians
    # too, made every benchmark workload's reductions slower.
    if means.shape[1] > 1:
        out = _merge_moments(totals, group_w, means[members], covs[members])
    else:
        n_out = totals.shape[0]
        out = np.empty(n_out), np.empty((n_out, 1)), np.empty((n_out, 1, 1))
        for n in set(group_sizes.tolist()):
            at = group_sizes == n
            j = members[at, :n]
            for o, v in zip(out, _merge_moments(totals[at], w[j], means[j], covs[j])):
                o[at] = v
    return (np.minimum(n_groups, config.max_components), *out)


def gm_reduce(mix: GaussianMixture, config: GmReduceConfig) -> GaussianMixture:
    """Prune light components, merge nearby ones, cap the component count,
    by config's parameters.

    Pruned mass is redistributed proportionally so the total weight is
    preserved up to the final cap. Merging repeatedly takes the heaviest
    remaining component (ties to the lower index) and absorbs every remaining
    component within squared Mahalanobis distance merge_threshold of it
    (moment-preserving). The cap keeps the heaviest merged components (ties
    to the lower index) in merge order. A config that is not a
    GmReduceConfig raises ConfigError, and a NaN or infinite weight, mean or
    covariance entry InvalidDensityError (see _check_gaussians).
    """
    _check_type(config, GmReduceConfig, "config")
    _check_gaussians(mix.weights, mix.means, mix.covs)
    _, w, m, p = _reduce_segments(
        np.array([mix.n_components]), mix.weights, mix.means, mix.covs, config
    )
    return GaussianMixture(w, m, p)
