"""The greedy merge sweep of the reduction layer against plain per-leader
loops kept as references, and tie-breaking of the component caps."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfuse.gm import GaussianMixture, gm_merge_moments, gm_normalize, gm_reduce
from mbfuse.mb import (
    BernoulliComponent,
    GmReduceConfig,
    MbReduceConfig,
    MultiBernoulliDensity,
    R_MAX,
    mb_merge_components,
    mb_reduce,
)
from mbfuse.sim import _condense_for_fusion, scenario1


def reference_gm_reduce(mix, prune_threshold, merge_threshold, max_components):
    """gm_reduce as a loop: the heaviest alive component (argmax, so ties go
    to the lower index) absorbs every alive one within merge_threshold,
    with one solve per leader."""
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
        top = np.argsort(out_w)[::-1][:max_components]
        top = np.sort(top)
        out_w, out_m, out_p = out_w[top], out_m[top], out_p[top]
    return GaussianMixture(out_w, out_m, out_p)


def reference_mb_merge(density, gate, gm_config):
    """mb_merge_components as a loop: the strongest remaining component
    (ties to the lower id) absorbs every remaining one in its gate, with one
    solve per pair."""
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
        weights = np.concatenate([c.r / r_sum * c.pdf.weights for c in absorbed])
        means = np.concatenate([c.pdf.means for c in absorbed])
        covs = np.concatenate([c.pdf.covs for c in absorbed])
        pdf = GaussianMixture(weights, means, covs)
        if gm_config is not None:
            pdf = reference_gm_reduce(
                pdf,
                gm_config.prune_threshold,
                gm_config.merge_threshold,
                gm_config.max_components,
            )
        pdf, _ = gm_normalize(pdf)
        merged.append(BernoulliComponent(r=min(r_sum, R_MAX), pdf=pdf, id=head.id))
        remaining = rest
    merged.sort(key=lambda c: c.id)
    return MultiBernoulliDensity(tuple(merged))


def assert_mixtures_equal(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covs, b.covs)


@st.composite
def mixture(draw, d, max_n=10):
    """Mixture whose weights, means and covariances come from small pools,
    so tied weights, duplicated means and shared covariances are common."""
    n = draw(st.integers(1, max_n))
    points = [draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)) for _ in range(3)]
    weight = st.sampled_from([0.25, 0.25, 0.1, 0.05, 1e-6]) | st.floats(1e-7, 1.0)
    weights, means, covs = [], [], []
    for _ in range(n):
        weights.append(draw(weight))
        mean = np.array(draw(st.sampled_from(points)))
        if draw(st.booleans()):
            mean = mean + np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        means.append(mean)
        a = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=d * d, max_size=d * d)))
        a = a.reshape(d, d)
        covs.append(a @ a.T + draw(st.sampled_from([0.1, 1.0, 4.0])) * np.eye(d))
    return GaussianMixture(np.array(weights), np.array(means), np.array(covs))


@st.composite
def gm_reduce_case(draw):
    d = draw(st.integers(1, 3))
    return (
        draw(mixture(d)),
        draw(st.sampled_from([0.0, 1e-5, 0.05])),
        draw(st.sampled_from([0.0, 1.0, 4.0, 25.0])),
        draw(st.integers(1, 6)),
    )


@st.composite
def merge_case(draw):
    """A 4-D density with tied r, shuffled ids and co-located components."""
    n = draw(st.integers(1, 9))
    ids = draw(st.permutations(range(20)))[:n]
    r = st.sampled_from([0.3, 0.3, 0.6, 0.05]) | st.floats(0.01, 0.99)
    comps = [
        BernoulliComponent(r=draw(r), pdf=gm_normalize(draw(mixture(4, max_n=3)))[0], id=i)
        for i in ids
    ]
    gm_config = draw(
        st.none() | st.builds(GmReduceConfig, st.just(1e-5), st.just(4.0), st.integers(1, 5))
    )
    return MultiBernoulliDensity(tuple(comps)), draw(st.sampled_from([0.5, 4.0, 50.0])), gm_config


class TestGreedySweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gm_reduce_case())
    def test_gm_reduce_matches_loop(self, case):
        mix, prune, merge, cap = case
        assert_mixtures_equal(gm_reduce(mix, prune, merge, cap),
                              reference_gm_reduce(mix, prune, merge, cap))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(merge_case())
    def test_mb_merge_components_matches_loop(self, case):
        density, gate, gm_config = case
        got = mb_merge_components(density, gate, gm_config)
        want = reference_mb_merge(density, gate, gm_config)
        assert [c.id for c in got.components] == [c.id for c in want.components]
        assert np.array_equal(got.rs, want.rs)
        for a, b in zip(got.components, want.components):
            assert_mixtures_equal(a.pdf, b.pdf)


def track(r, x, comp_id):
    pdf = GaussianMixture.single([x, 0.0, 0.0, 0.0], np.eye(4))
    return BernoulliComponent(r=r, pdf=pdf, id=comp_id)


def test_caps_break_ties_in_r_toward_lower_id():
    # Listed out of id order and far apart, so nothing merges.
    density = MultiBernoulliDensity(
        (track(0.5, 0.0, 5), track(0.5, 100.0, 1), track(0.5, 200.0, 3), track(0.9, 300.0, 7))
    )
    reduced = mb_reduce(density, MbReduceConfig(max_components=3))
    assert [c.id for c in reduced.components] == [1, 3, 7]
    cfg = replace(scenario1(), fusion_max_components=3)
    assert [c.id for c in _condense_for_fusion(density, cfg).components] == [1, 3, 7]
