"""The greedy merge sweep of the reduction layer against plain per-leader
loops kept as references, the one-pass reduction of a whole density or of
a flat stack of mixtures against those loops run pdf by pdf, tie-breaking
of the component caps, and the condensation of exchanged densities before
fusion."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfuse.errors import InvalidDensityError, NumericalError
from mbfuse.gm import GaussianMixture, _reduce_segments, _segment_sums, gm_reduce
from mbfuse.mb import (
    BernoulliComponent,
    GmReduceConfig,
    MbReduceConfig,
    MultiBernoulliDensity,
    mb_merge_components,
    mb_reduce,
)
from mbfuse.sim import _condense_for_fusion, scenario1
from oracle import gm_normalize
from oracle import gm_reduce as reference_gm_reduce
from oracle import mb_merge_components as reference_mb_merge


def assert_mixtures_equal(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covs, b.covs)


@st.composite
def mixture(draw, d, max_n=10, min_n=1):
    """Mixture whose weights, means and covariances come from small pools,
    so tied weights, duplicated means and shared covariances are common."""
    n = draw(st.integers(min_n, max_n))
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
    """A 4-D density with tied r, shuffled ids and co-located components,
    plus up to two pairs of tracks whose covariances are stretched along
    the offset between them, and possibly a crowd of 8 to 12 faint tracks
    at one spot.

    A stretched pair's squared Mahalanobis distance is `ratio` times the
    gate. Its covariance trace is close to its largest eigenvalue, so the
    ratios near 2 straddle the trace bound that mb_merge_components screens
    pairs with before solving, and those near 1 straddle the gate itself.
    A crowd merges into one group whose r sum has 8 or more terms, where
    numpy's unrolled summation adds in another order than a loop.
    """
    n = draw(st.integers(1, 9))
    n_pairs = draw(st.integers(0, 2))
    n_crowd = draw(st.sampled_from([0, 0, 8, 9, 12]))
    ids = draw(st.permutations(range(40)))[:n + 2 * n_pairs + n_crowd]
    gate = draw(st.sampled_from([0.5, 4.0, 50.0]))
    r = st.sampled_from([0.3, 0.3, 0.6, 0.05]) | st.floats(0.01, 0.99)
    comps = [
        BernoulliComponent(r=draw(r), pdf=gm_normalize(draw(mixture(4, max_n=3)))[0], id=i)
        for i in ids[:n]
    ]
    for k in range(n_pairs):
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))) + [1, 0, 0, 0]
        u = u / np.linalg.norm(u)
        a = draw(st.sampled_from([1e-3, 0.1, 1.0]))
        b = draw(st.sampled_from([1.0, 100.0]))
        cov = a * np.eye(4) + b * np.outer(u, u)
        ratio = draw(st.sampled_from([0.5, 0.99, 1.0, 1.01, 1.9, 1.99, 2.01, 2.1, 3.0]))
        # Both tracks share cov, and u is its eigenvector of eigenvalue a + b.
        offset = np.sqrt(ratio * gate * 2.0 * (a + b)) * u
        start = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4)))
        for mean, i in ((start, ids[n + 2 * k]), (start + offset, ids[n + 2 * k + 1])):
            pdf = GaussianMixture.single(mean, cov)
            comps.append(BernoulliComponent(r=draw(r), pdf=pdf, id=i))
    center = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4)))
    for i in ids[n + 2 * n_pairs:]:
        mean = center + np.array(draw(st.lists(st.floats(-1e-3, 1e-3), min_size=4, max_size=4)))
        pdf = GaussianMixture.single(mean, draw(st.sampled_from([1.0, 4.0])) * np.eye(4))
        comps.append(BernoulliComponent(r=draw(st.floats(1e-3, 0.1)), pdf=pdf, id=i))
    gm_config = draw(
        st.none() | st.builds(GmReduceConfig, st.just(1e-5), st.just(4.0), st.integers(1, 5))
    )
    return MultiBernoulliDensity(tuple(comps)), gate, gm_config


def gm_config_case():
    return st.builds(
        GmReduceConfig,
        st.sampled_from([0.0, 1e-5, 0.05]),
        st.sampled_from([0.0, 1.0, 4.0, 25.0]),
        st.integers(1, 6),
    )


@st.composite
def segmented_density(draw, normalized):
    """A 2-D density whose pdfs mix 1-Gaussian, mid-sized and 8-to-16-Gaussian
    segments (from 9 entries up, numpy sums in its unrolled pairwise path),
    some of them, unless normalized, so faint that a nonzero prune threshold
    empties them."""
    comps = []
    for i in draw(st.permutations(range(12)))[: draw(st.integers(1, 8))]:
        n = draw(st.sampled_from([1, 1, 2, 3, 5, 8, 9, 16]))
        pdf = draw(mixture(2, max_n=n, min_n=n))
        if normalized:
            pdf = gm_normalize(pdf)[0]
        elif draw(st.integers(0, 4)) == 0:
            pdf = GaussianMixture(pdf.weights * 1e-6, pdf.means, pdf.covs)
        r = draw(st.sampled_from([0.3, 0.3, 0.6]) | st.floats(0.01, 0.99))
        comps.append(BernoulliComponent(r=r, pdf=pdf, id=i))
    return MultiBernoulliDensity(tuple(comps))


class TestSegmentedReduction:
    """mb_reduce and mb_merge_components reduce all of a density's pdfs in
    one pass; each pdf must come out exactly as the loop reduces it alone."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(segmented_density(normalized=False), gm_config_case())
    def test_mb_reduce_matches_per_pdf_loop(self, density, gm_config):
        got = mb_reduce(density, MbReduceConfig(trunc_threshold=0.0, gm=gm_config))
        want = []
        for c in density.components:
            pdf = reference_gm_reduce(
                c.pdf, gm_config.prune_threshold, gm_config.merge_threshold,
                gm_config.max_components,
            )
            if pdf.n_components:
                want.append((c.id, gm_normalize(pdf)[0]))
        assert [c.id for c in got.components] == [i for i, _ in want]
        for c, (_, pdf) in zip(got.components, want):
            assert_mixtures_equal(c.pdf, pdf)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        segmented_density(normalized=True),
        st.sampled_from([0.5, 4.0, 50.0]),
        st.none() | gm_config_case(),
    )
    def test_mb_merge_components_matches_per_group_loop(self, density, gate, gm_config):
        got = mb_merge_components(density, gate, gm_config)
        want = reference_mb_merge(density, gate, gm_config)
        assert [c.id for c in got.components] == [c.id for c in want.components]
        assert np.array_equal(got.rs, want.rs)
        for a, b in zip(got.components, want.components):
            assert_mixtures_equal(a.pdf, b.pdf)


class TestGreedySweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gm_reduce_case())
    def test_gm_reduce_matches_loop(self, case):
        mix, prune, merge, cap = case
        assert_mixtures_equal(gm_reduce(mix, GmReduceConfig(prune, merge, cap)),
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


SEGMENT_SIZES = [0, 1, 2, 3, 5, 8, 9, 16, 31, 58, 60]


@st.composite
def segment_stack(draw):
    """A flat stack of mixtures of 0 to 60 Gaussians (filter reductions
    reach 58) with its reduction parameters.

    Each segment is one of three kinds: a crowd around a few centres,
    with weights from a small pool so that ties are common, which merges
    into a varying number of groups, so segments need different numbers
    of sweep rounds; a row of far-apart Gaussians of equal weight, each
    its own group, so a cap below its size must break ties between equal
    group weights; or a faint one that a nonzero prune threshold empties.
    """
    d = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from(SEGMENT_SIZES))
        kind = draw(st.sampled_from(["crowd", "crowd", "row", "faint"]))
        a = rng.normal(size=(n, d, d))
        covs = a @ np.swapaxes(a, 1, 2) + rng.choice([0.1, 1.0, 4.0]) * np.eye(d)
        if kind == "row":
            means = 1000.0 * np.arange(n)[:, None] + np.zeros((n, d))
            weights = np.full(n, 0.25)
        else:
            centres = rng.uniform(-20.0, 20.0, size=(rng.integers(1, 6), d))
            means = centres[rng.integers(0, centres.shape[0], size=n)]
            means = means + rng.choice([0.0, 0.5, 3.0]) * rng.normal(size=(n, d))
            weights = rng.choice([0.25, 0.25, 0.1, 0.15, 0.05, 1e-6], size=n)
            if kind == "faint":
                weights = weights * 1e-6
        segments.append(GaussianMixture(weights, means, covs))
    return (
        segments,
        draw(st.sampled_from([0.0, 1e-5, 0.05])),
        draw(st.sampled_from([0.0, 1.0, 4.0, 25.0])),
        draw(st.integers(1, 6)),
    )


def reduce_stack(segments, prune, merge, cap):
    """_reduce_segments of the segments in one call, split into mixtures."""
    sizes, w, m, p = _reduce_segments(
        np.array([s.n_components for s in segments]),
        np.concatenate([s.weights for s in segments]),
        np.concatenate([s.means for s in segments]),
        np.concatenate([s.covs for s in segments]),
        GmReduceConfig(prune, merge, cap),
    )
    cut = np.cumsum(sizes)[:-1]
    return [GaussianMixture(*parts) for parts in zip(*(np.split(a, cut) for a in (w, m, p)))]


class TestStackReduction:
    """One reduction over a flat stack runs the sweep in rounds across its
    segments; a lone segment sweeps in a loop over its leaders. Both must
    give each segment exactly as the reference loop reduces it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(segment_stack())
    def test_stack_matches_reference_per_segment(self, case):
        segments, prune, merge, cap = case
        got = reduce_stack(segments, prune, merge, cap)
        assert len(got) == len(segments)
        for mix, seg in zip(got, segments):
            assert_mixtures_equal(mix, reference_gm_reduce(seg, prune, merge, cap))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(segment_stack())
    def test_stack_matches_each_segment_alone(self, case):
        segments, prune, merge, cap = case
        for mix, seg in zip(reduce_stack(segments, prune, merge, cap), segments):
            assert_mixtures_equal(mix, gm_reduce(seg, GmReduceConfig(prune, merge, cap)))

    def test_cap_breaks_ties_in_group_weight_toward_earlier_groups(self):
        # Five far-apart Gaussians of equal weight in two segments: every
        # group weighs the same, so each segment keeps its first groups in
        # sweep order, which for equal weights is index order.
        seg = GaussianMixture(np.full(5, 0.2), 100.0 * np.arange(5.0)[:, None] * [1, 1],
                              np.tile(np.eye(2), (5, 1, 1)))
        for mix in reduce_stack([seg, seg], 0.0, 4.0, 3):
            assert np.array_equal(mix.means, seg.means[:3])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(SEGMENT_SIZES + [4, 6, 7, 10, 13]), max_size=12),
           st.integers(0, 2**32 - 1))
    def test_segment_sums_match_ndarray_sum(self, sizes, seed):
        # Short segments are summed in one zero-padded block, longer ones
        # one length at a time.
        sizes = np.array(sizes, dtype=np.intp)
        rng = np.random.default_rng(seed)
        values = rng.random(sizes.sum()) * rng.choice([1e-6, 1.0, 1e6], size=sizes.sum())
        want = [part.sum() for part in np.split(values, np.cumsum(sizes)[:-1])] if sizes.size else []
        assert np.array_equal(_segment_sums(values, sizes), np.array(want))


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


def test_condensation_gate_truncation_and_existence_cap():
    # Unit covariances: two tracks d apart along x lie d^2 / 2 apart under
    # the merge gate's form diff^T (P_h + P_i)^-1 diff.
    density = MultiBernoulliDensity((
        track(0.999, 0.0, 0),                   # capped at 0.98
        track(0.09, 100.0, 1),                  # below the truncation: dropped
        track(0.1, 200.0, 2),                   # at the truncation: kept
        track(0.5, 300.0, 3),
        track(0.4, 300.0 + np.sqrt(7.8), 4),    # 3.9 from track 3: merged into it
        track(0.5, 500.0, 5),
        track(0.4, 500.0 + np.sqrt(8.2), 6),    # 4.1 from track 5: kept apart
    ))
    rs = {c.id: c.r for c in _condense_for_fusion(density, scenario1()).components}
    assert sorted(rs) == [0, 2, 3, 5, 6]
    assert rs[0] == 0.98
    assert rs[2] == 0.1
    assert rs[3] == pytest.approx(0.9)


def density_with_covariance(cov, weight, r):
    """Three far-apart tracks; the middle one carries a second Gaussian with
    the given covariance and weight at its own mean."""
    good = np.eye(4)
    mid = GaussianMixture(
        np.array([1.0 - weight, weight]), np.zeros((2, 4)) + [100.0, 0, 0, 0],
        np.stack([good, cov]),
    )
    return MultiBernoulliDensity((
        track(0.9, 0.0, 0),
        BernoulliComponent(r=r, pdf=mid, id=1),
        track(0.8, 200.0, 2),
    ))


NOT_PD = np.diag([1.0, 1.0, 1.0, -1.0])

TWO_GAUSSIANS = GaussianMixture(
    np.array([0.6, 0.4]), np.array([[0.0], [0.5]]), np.array([[[1.0]], [[1.0]]])
)


def mb_reduce_with(**gm):
    return mb_reduce(
        density_with_covariance(np.eye(4), 0.3, 0.7), MbReduceConfig(gm=GmReduceConfig(**gm))
    )


def mb_reduce_capped(max_components):
    return mb_reduce(
        density_with_covariance(np.eye(4), 0.3, 0.7), MbReduceConfig(max_components=max_components)
    )


# Each used to reduce without error: a NaN prune threshold kept nothing, a
# NaN merge threshold merged nothing, and mb_reduce checked none of them.
INVALID_REDUCTIONS = {
    "gm-prune-nan": lambda: gm_reduce(TWO_GAUSSIANS, GmReduceConfig(np.nan, 4.0, 5)),
    "gm-merge-nan": lambda: gm_reduce(TWO_GAUSSIANS, GmReduceConfig(0.0, np.nan, 5)),
    "gm-cap-nan": lambda: gm_reduce(TWO_GAUSSIANS, GmReduceConfig(0.0, 4.0, np.nan)),
    "mb-prune-nan": lambda: mb_reduce_with(prune_threshold=np.nan),
    "mb-prune-negative": lambda: mb_reduce_with(prune_threshold=-1.0),
    "mb-merge-nan": lambda: mb_reduce_with(merge_threshold=np.nan),
    "mb-cap-zero": lambda: mb_reduce_with(max_components=0),
    # A density cap of 0 kept no component, -1 dropped only the weakest one,
    # and NaN failed with a TypeError from the slice.
    "mb-density-cap-zero": lambda: mb_reduce_capped(0),
    "mb-density-cap-negative": lambda: mb_reduce_capped(-1),
    "mb-density-cap-nan": lambda: mb_reduce_capped(np.nan),
}


@pytest.mark.parametrize("case", sorted(INVALID_REDUCTIONS))
def test_invalid_reduction_parameters_raise(case):
    with pytest.raises(ValueError):
        INVALID_REDUCTIONS[case]()


class TestReductionErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gm_reduce_of_a_non_finite_weight_raises(self, bad):
        # Pruning would drop a NaN Gaussian and rescale the rest by the NaN
        # total; an infinite weight would pass through.
        mix = GaussianMixture(
            np.array([bad, 0.5, 0.5]), np.arange(6.0).reshape(3, 2), np.tile(np.eye(2), (3, 1, 1))
        )
        with pytest.raises(InvalidDensityError):
            gm_reduce(mix, GmReduceConfig())

    def test_mb_reduce_of_a_nan_weight_raises(self):
        with pytest.raises(InvalidDensityError):
            mb_reduce(density_with_covariance(np.eye(4), np.nan, 0.7), MbReduceConfig())

    def test_mb_merge_components_of_a_nan_weight_raises(self):
        # It used to fail later, as a plain NumericalError from normalization.
        with pytest.raises(InvalidDensityError):
            mb_merge_components(density_with_covariance(np.eye(4), np.nan, 0.7), 4.0,
                                GmReduceConfig())

    # Each reduction used to return the NaN mean or the infinite covariance
    # unchanged, with no error.
    @pytest.mark.parametrize("entry", ["nan-mean", "inf-cov"])
    @pytest.mark.parametrize("reduction", ["gm_reduce", "mb_reduce", "mb_merge_components"])
    def test_non_finite_mean_or_covariance_raises(self, reduction, entry):
        means = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        covs = np.stack([np.eye(4), np.eye(4)])
        if entry == "nan-mean":
            means[0, 0] = np.nan
        else:
            covs[1, 0, 0] = np.inf
        pdf = GaussianMixture(np.array([0.5, 0.5]), means, covs)
        with pytest.raises(InvalidDensityError):
            if reduction == "gm_reduce":
                gm_reduce(pdf, GmReduceConfig())
            else:
                density = MultiBernoulliDensity((BernoulliComponent(r=0.7, pdf=pdf, id=0),
                                                 track(0.9, 200.0, 1)))
                if reduction == "mb_reduce":
                    mb_reduce(density, MbReduceConfig())
                else:
                    mb_merge_components(density, 4.0, GmReduceConfig())

    def test_non_pd_covariance_in_a_kept_gaussian_raises(self):
        density = density_with_covariance(NOT_PD, 0.3, 0.7)
        with pytest.raises(NumericalError):
            mb_reduce(density, MbReduceConfig())
        with pytest.raises(NumericalError):
            mb_merge_components(density, 4.0, GmReduceConfig())

    def test_non_pd_covariance_dropped_before_reduction_is_never_factorized(self):
        # Its component falls below trunc_threshold.
        reduced = mb_reduce(density_with_covariance(NOT_PD, 0.3, 1e-6), MbReduceConfig())
        assert [c.id for c in reduced.components] == [0, 2]
        # Its Gaussian falls below prune_threshold.
        reduced = mb_reduce(density_with_covariance(NOT_PD, 1e-7, 0.7), MbReduceConfig())
        assert [c.pdf.n_components for c in reduced.components] == [1, 1, 1]
