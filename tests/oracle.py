"""Reference math that the package's vectorized code is checked against.

These are direct formulas kept for the tests only; the package itself
never calls them. The filter, birth, per-cluster moment matching and
fusion-assembly references work one Bernoulli component at a time, on the
component objects, where the package works on a density's flat stack.
The pgci_fuse reference fuses every two-sided cluster, 1x1 ones included,
through the package's fuse_cluster, the per-cluster path that clustered
fusion rests on. The hypothesis references generate and read each
hypothesis as its tuple of (l, l') pairs, one at a time, where the
package keeps all of them in one integer array. The OSPA and log-sum-exp
references call scipy, which the package itself does not import.
"""

import math
from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from mbfuse.clustering import Cluster, compute_lic
from mbfuse.errors import DimensionMismatchError, IncompatiblePairError, NumericalError
from mbfuse.gci import MARGINAL_FLOOR, FusionWeights, _logsumexp, pairwise_distances
from mbfuse.gm import (
    GaussianMixture,
    _batch_cholesky,
    _log_normal,
    _merge_moments,
    _pair_product_parts,
    _power_parts,
    gm_pair_product,
)
from mbfuse.mb import R_MAX, BernoulliComponent, GmReduceConfig, MultiBernoulliDensity, _take
from mbfuse.pgci import fuse_cluster
from mbfuse.sim import (
    CONDENSE_GATE, CONDENSE_R_CAP, CONDENSE_TRUNC, KNOWN_BIRTH_R, KNOWN_BIRTH_VAR, REDUCE_CONFIG,
)

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
    log_w, covs, _ = _power_parts(mix.weights, mix.covs, omega)
    return GaussianMixture(np.exp(log_w), mix.means.copy(), covs)


def gm_pair_log_mass(p1: GaussianMixture, p2: GaussianMixture, w: FusionWeights) -> float:
    """log of the total mass of gm_pair_product, computed without underflow."""
    if p1.n_components == 0 or p2.n_components == 0:
        return -np.inf
    j1, j2 = p1.n_components, p2.n_components
    log_alpha, _, _ = _pair_product_parts(
        (p1.weights, p1.means, p1.covs), (p2.weights, p2.means, p2.covs), w,
        np.repeat(np.arange(j1), j2), np.tile(np.arange(j2), j1),
    )
    return float(logsumexp(log_alpha))


def gci_divergence(p1: GaussianMixture, p2: GaussianMixture, w: FusionWeights) -> float:
    """-log integral of p1^w1 * p2^w2, evaluated in log space.

    Large separations give large finite values (e.g. ~1250 for unit
    Gaussians 100 apart); +inf only when the mass is exactly zero.
    """
    log_mass = gm_pair_log_mass(p1, p2, w)
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
    """Unnormalized weight (Q1^I1)^w1 (Q2^theta(I1))^w2 prod exp(-d) of the
    hypothesis given as its (l, l') pairs."""
    log_w = w.w1 * log_q_factor(mb1.rs, [l for l, _ in hyp])
    log_w += w.w2 * log_q_factor(mb2.rs, [lp for _, lp in hyp])
    for l, lp in hyp:
        log_w -= distances[l, lp]
    return math.exp(log_w) if log_w > _LOG_EPS else 0.0


def cluster_log_eta(
    cluster: Cluster,
    mb1: MultiBernoulliDensity,
    mb2: MultiBernoulliDensity,
    w: FusionWeights,
) -> float:
    """log eta_g of a cluster with an empty side, which carries only the
    empty hypothesis, whose weight is the (1 - r)^omega product."""
    if not cluster.l2:
        return w.w1 * sum(math.log1p(-min(mb1.components[l].r, R_MAX)) for l in cluster.l1)
    if not cluster.l1:
        return w.w2 * sum(math.log1p(-min(mb2.components[l].r, R_MAX)) for l in cluster.l2)
    raise ValueError("two-sided clusters need the full fusion path")


def enumerate_hypotheses(l1, l2):
    """Yield every distinct hypothesis, a subset of l1 with an injective map
    into l2, as its tuple of (l, l') pairs.

    Includes the empty hypothesis. Subset sizes above min(|l1|, |l2|) have
    no injective maps and contribute nothing.
    """
    l1 = list(l1)
    l2 = list(l2)
    yield ()
    for n in range(1, min(len(l1), len(l2)) + 1):
        for i1 in combinations(l1, n):
            for targets in permutations(l2, n):
                yield tuple(zip(i1, targets))


def hypothesis_pairs(targets) -> list:
    """Each row of a targets array (see gci.enumerate_hypotheses) read as
    its tuple of (l, l') pairs."""
    return [tuple((l, int(t)) for l, t in enumerate(row) if t >= 0) for row in targets]


def inter_cluster_hypotheses(gmb_full, clusters) -> set:
    """Pair-tuple keys of every hypothesis containing a pair across the clusters."""
    cluster_of_l1 = {l: g for g, c in enumerate(clusters) for l in c.l1}
    cluster_of_l2 = {lp: g for g, c in enumerate(clusters) for lp in c.l2}
    return {
        pairs for pairs in hypothesis_pairs(gmb_full.targets)
        if any(cluster_of_l1[l] != cluster_of_l2[lp] for l, lp in pairs)
    }


def same_clustering_step(distances, gamma: float) -> float:
    """A step in (0, 1] that keeps gamma + step below the smallest distance
    above gamma: every gate in that range holds the same pairs, so
    compute_lic returns the same clustering and the bound discards the same
    hypotheses."""
    above = distances[distances > gamma]
    return min(1.0, (above.min() - gamma) / 2) if above.size else 1.0


def l1_error_bound(gmb_full, truncated: set, gamma: float) -> tuple[float, float]:
    """Measured truncated mass 2 sum_D w and its bound A * exp(-gamma), for
    the discarded hypotheses given as a set of their pair tuples: the
    package's bound before it found the discarded hypotheses itself."""
    discarded = [
        k for k, pairs in enumerate(hypothesis_pairs(gmb_full.targets)) if pairs in truncated
    ]
    if not discarded:
        return 0.0, 0.0
    exact_mass = 2.0 * sum(float(gmb_full.w[k]) for k in discarded)
    log_a = _logsumexp([gmb_full.log_k[k] for k in discarded]) + np.log(2.0) - gmb_full.log_eta
    bound = float(np.exp(log_a - gamma))
    return exact_mass, bound


def gm_normalize(mix: GaussianMixture) -> tuple[GaussianMixture, float]:
    """Scale weights to sum 1; returns (normalized mixture, original mass)."""
    mass = float(mix.weights.sum())
    if not np.isfinite(mass) or mass <= 0.0:
        raise NumericalError(f"cannot normalize mixture with total weight {mass}")
    return GaussianMixture(mix.weights / mass, mix.means, mix.covs), mass


def gm_merge_moments(weights, means, covs):
    """Moment-preserving merge of a set of components into one.

    Leading axes, if any, index independent sets that are merged at once.
    """
    return _merge_moments(weights.sum(axis=-1), weights, means, covs)


def gm_reduce(mix, prune_threshold, merge_threshold, max_components):
    """gm_reduce as a loop: the heaviest alive component (argmax, so ties go
    to the lower index) absorbs every alive one within merge_threshold,
    with one solve per leader; the cap keeps the heaviest (ties to the
    lower index) in merge order."""
    if mix.n_components == 0:
        return mix
    keep = mix.weights >= prune_threshold
    if not np.any(keep):
        return GaussianMixture.empty(mix.d)
    total = float(mix.weights.sum())
    w = mix.weights[keep]
    w = w * (total / w.sum())
    means = mix.means[keep]
    covs = mix.covs[keep]

    out_w, out_m, out_p = [], [], []
    alive = np.ones(w.shape[0], dtype=bool)
    while np.any(alive):
        idx = np.flatnonzero(alive)
        j = idx[np.argmax(w[idx])]
        diff = means[idx] - means[j][None, :]
        L = np.linalg.cholesky(covs[j])
        sol = np.linalg.solve(L, diff.T).T
        dist_sq = np.sum(sol**2, axis=1)
        grab = idx[dist_sq <= merge_threshold]
        mw, mm, mp = gm_merge_moments(w[grab], means[grab], covs[grab])
        out_w.append(mw)
        out_m.append(mm)
        out_p.append(mp)
        alive[grab] = False

    out_w = np.array(out_w)
    out_m = np.array(out_m)
    out_p = np.array(out_p)
    if out_w.shape[0] > max_components:
        top = np.sort(np.argsort(-out_w, kind="stable")[:max_components])
        out_w, out_m, out_p = out_w[top], out_m[top], out_p[top]
    return GaussianMixture(out_w, out_m, out_p)


def _clamp_r(r: float) -> float:
    return min(max(float(r), 0.0), R_MAX)


def stack_gaussians(components):
    """Stack every Gaussian of every component; returns (owner, alpha, means, covs).

    owner[j] is the position in components of the component that Gaussian
    j belongs to. There must be at least one component.
    """
    pdfs = [comp.pdf for comp in components]
    sizes = [pdf.n_components for pdf in pdfs]
    return (
        np.repeat(np.arange(len(pdfs)), sizes),
        np.concatenate([pdf.weights for pdf in pdfs]),
        np.concatenate([pdf.means for pdf in pdfs]),
        np.concatenate([pdf.covs for pdf in pdfs]),
    )


def keep_strongest(components, max_components):
    """The max_components components of highest r (ties to the lower id), in id
    order; a sequence within the cap is returned in its own order."""
    if len(components) <= max_components:
        return list(components)
    top = sorted(components, key=lambda c: (-c.r, c.id))[:max_components]
    return sorted(top, key=lambda c: c.id)


def mb_predict(prior, motion, births=()):
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


def mb_update(predicted, scan, sensor):
    """Cardinality-balanced MB update: legacy tracks plus one track per measurement."""
    scan = np.asarray(scan, dtype=float).reshape(-1, sensor.H.shape[0])
    p_d = sensor.p_detect
    kappa = sensor.clutter_density

    rs = np.minimum(predicted.rs, R_MAX)
    legacy = []
    for comp, r in zip(predicted.components, rs):
        r_l = _clamp_r(r * (1.0 - p_d) / (1.0 - r * p_d))
        legacy.append(BernoulliComponent(r=r_l, pdf=comp.pdf, id=comp.id))

    n_meas = scan.shape[0]
    if n_meas == 0 or len(predicted) == 0 or p_d == 0.0:
        return MultiBernoulliDensity(tuple(legacy))

    owner, alpha, means, covs = stack_gaussians(predicted.components)
    H, R = sensor.H, sensor.R

    z_pred = means @ H.T
    S = H @ covs @ H.T + R[None, :, :]
    L = _batch_cholesky(S)
    K = np.linalg.solve(np.swapaxes(S, -1, -2), (covs @ H.T).swapaxes(-1, -2))
    K = np.swapaxes(K, -1, -2)
    covs_upd = covs - K @ H @ covs
    covs_upd = 0.5 * (covs_upd + np.swapaxes(covs_upd, -1, -2))

    innov = scan[None, :, :] - z_pred[:, None, :]
    log_q = _log_normal(innov, L[:, None])
    q_gauss = alpha[:, None] * np.exp(log_q)

    q_comp = np.zeros((len(predicted), n_meas))
    np.add.at(q_comp, owner, q_gauss)

    denom_leg = 1.0 - rs * p_d
    num_terms = rs * (1.0 - rs) * p_d / denom_leg**2
    den_terms = rs * p_d / denom_leg

    means_upd = means[:, None, :] + np.einsum("nij,nmj->nmi", K, innov)
    gauss_scale = (rs / denom_leg)[owner] * p_d

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


def _reduced(pdf, gm_config):
    """pdf reduced by the loop above, unnormalized; unchanged when gm_config is None."""
    if gm_config is None:
        return pdf
    return gm_reduce(
        pdf, gm_config.prune_threshold, gm_config.merge_threshold, gm_config.max_components
    )


def mb_reduce(density, config):
    """Drop low-existence components, cap the count, reduce each pdf."""
    kept = keep_strongest(
        [c for c in density.components if c.r >= config.trunc_threshold], config.max_components
    )
    out = []
    for c in kept:
        pdf = _reduced(c.pdf, config.gm)
        # A pdf with no weight at or above the prune threshold reduces to nothing.
        if pdf.n_components:
            out.append(BernoulliComponent(r=c.r, pdf=gm_normalize(pdf)[0], id=c.id))
    return MultiBernoulliDensity(tuple(out))


def mb_merge_components(density, gate, gm_config):
    """mb_merge_components as a loop: the strongest remaining component
    (ties to the lower id) absorbs every remaining one in its gate, with one
    solve per pair. A group of r sum 0 mixes its pdfs with equal shares."""
    remaining = sorted(density.components, key=lambda c: (-c.r, c.id))
    merged = []
    while remaining:
        head = remaining[0]
        j = int(np.argmax(head.pdf.weights))
        mean_h = head.pdf.means[j]
        cov_h = head.pdf.covs[j]
        absorbed, rest = [head], []
        for comp in remaining[1:]:
            i = int(np.argmax(comp.pdf.weights))
            diff = comp.pdf.means[i] - mean_h
            maha = diff @ np.linalg.solve(cov_h + comp.pdf.covs[i], diff)
            (absorbed if maha <= gate else rest).append(comp)
        r_sum = sum(c.r for c in absorbed)
        shares = [c.r / r_sum if r_sum else 1.0 / len(absorbed) for c in absorbed]
        weights = np.concatenate([s * c.pdf.weights for s, c in zip(shares, absorbed)])
        means = np.concatenate([c.pdf.means for c in absorbed])
        covs = np.concatenate([c.pdf.covs for c in absorbed])
        pdf, _ = gm_normalize(_reduced(GaussianMixture(weights, means, covs), gm_config))
        merged.append(BernoulliComponent(r=min(r_sum, R_MAX), pdf=pdf, id=head.id))
        remaining = rest
    merged.sort(key=lambda c: c.id)
    return MultiBernoulliDensity(tuple(merged))


def condense_for_fusion(density, cfg):
    """Condensation of an exchanged density: merge, truncate, cap r, cap the count."""
    merged = mb_merge_components(density, CONDENSE_GATE, REDUCE_CONFIG.gm)
    kept = [
        BernoulliComponent(r=min(c.r, CONDENSE_R_CAP), pdf=c.pdf, id=c.id)
        for c in merged.components
        if c.r >= CONDENSE_TRUNC
    ]
    return MultiBernoulliDensity(tuple(keep_strongest(kept, cfg.fusion_max_components)))


def adaptive_birth(prev_scan, start_id=0):
    """One birth component object per previous-scan measurement, zero-velocity
    prior: existence min(0.03, 0.1 / n) for n measurements, standard
    deviation 10 in position and velocity."""
    prev_scan = np.asarray(prev_scan, dtype=float).reshape(-1, 2)
    n = prev_scan.shape[0]
    if n == 0:
        return ()
    r_b = min(0.03, 0.1 / max(1, n))
    cov = np.diag([10.0**2, 10.0**2, 10.0**2, 10.0**2])
    births = []
    for i, z in enumerate(prev_scan):
        mean = np.array([z[0], z[1], 0.0, 0.0])
        births.append(
            BernoulliComponent(r=r_b, pdf=GaussianMixture.single(mean, cov), id=start_id + i)
        )
    return tuple(births)


def known_birth_components(cfg):
    """One component object per object present at step 0, with the object's
    position in cfg.births as its id."""
    cov = np.diag(KNOWN_BIRTH_VAR)
    births = []
    for i, b in enumerate(cfg.births):
        if b.birth_step == 0:
            births.append(
                BernoulliComponent(
                    r=KNOWN_BIRTH_R,
                    pdf=GaussianMixture.single(np.asarray(b.state, dtype=float), cov),
                    id=i,
                )
            )
    return tuple(births)


def run_local_filter(scans, cfg, sensor):
    """sim.run_local_filter's recursion on the references above (adaptive
    births only)."""
    posterior = MultiBernoulliDensity(())
    prev_scan = None
    out = []
    for scan in scans:
        births = (
            adaptive_birth(prev_scan, start_id=posterior.next_id())
            if prev_scan is not None
            else ()
        )
        predicted = mb_predict(posterior, cfg.motion, births)
        posterior = mb_reduce(mb_update(predicted, scan, sensor), REDUCE_CONFIG)
        out.append(posterior)
        prev_scan = scan
    return out


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
    prod = gm_pair_product(p1, p2, w)
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


def _reduce_pdf(pdf: GaussianMixture, config: GmReduceConfig | None) -> GaussianMixture:
    """pdf reduced with config (skipped when config is None), then normalized."""
    if config is not None:
        pdf = gm_reduce(pdf, config.prune_threshold, config.merge_threshold, config.max_components)
    return gm_normalize(pdf)[0]


def pgci_fuse(mb1, mb2, w, gamma, gm_config=None):
    """pgci_fuse as a loop of fuse_cluster over every two-sided cluster, 1x1
    ones included, its components rebuilt one object at a time with fresh
    ids in cluster order."""
    distances = pairwise_distances(mb1, mb2, w)
    if len(mb1) > len(mb2):
        mb1, mb2, w = mb2, mb1, w.swapped()
        distances = distances.T
    components = []
    for cluster in compute_lic(distances, gamma):
        if not (cluster.l1 and cluster.l2):
            continue
        for comp in fuse_cluster(cluster, mb1, mb2, w, distances, gm_config=gm_config).components:
            components.append(BernoulliComponent(r=comp.r, pdf=comp.pdf, id=len(components)))
    if not components:
        # An empty result keeps its input's dimension.
        return _take(mb1, np.zeros(0, dtype=np.intp), mb1.rs)
    return MultiBernoulliDensity(tuple(components))


def ospa(x, y, c=100.0, p=2.0) -> float:
    """OSPA distance (Schuhmacher et al., IEEE TSP 2008) with scipy's
    assignment solver; position sets are (k, 2) arrays."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    m, n = x.shape[0], y.shape[0]
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(c)
    if m > n:
        x, y, m, n = y, x, n, m
    dists = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    cost = np.minimum(dists, c) ** p
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + c**p * (n - m)
    return float((total / n) ** (1.0 / p))
