"""Multi-Bernoulli filter recursion against hand-computed values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfuse import (
    BernoulliComponent,
    ConfigError,
    DimensionMismatchError,
    GaussianMixture,
    GmReduceConfig,
    InvalidDensityError,
    MbReduceConfig,
    MotionModel,
    MultiBernoulliDensity,
    NumericalError,
    Rectangle,
    SensorModel,
    adaptive_birth,
    extract_estimates,
    mb_predict,
    mb_reduce,
    mb_update,
)
from mbfuse.mb import _prune_tracks

REGION = Rectangle(-500.0, 500.0, -500.0, 500.0)


def single_component(r, pos=(0.0, 0.0), vel=(0.0, 0.0), var=100.0, cid=0):
    mean = np.array([pos[0], pos[1], vel[0], vel[1]])
    cov = np.diag([var, var, 25.0, 25.0])
    return BernoulliComponent(r=r, pdf=GaussianMixture.single(mean, cov), id=cid)


def make_sensor(p_detect=0.95, clutter_rate=10.0):
    return SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=p_detect, clutter_rate=clutter_rate, region=REGION
    )


class TestMotionModel:
    def test_ncv_blocks(self):
        m = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
        np.testing.assert_allclose(m.F[:2, 2:], np.eye(2))
        np.testing.assert_allclose(m.F[2:, :2], np.zeros((2, 2)))
        # Q = sigma^2 [[dt^4/4 I, dt^3/2 I], [dt^3/2 I, dt^2 I]]
        np.testing.assert_allclose(m.Q[:2, :2], 25.0 / 4.0 * np.eye(2))
        np.testing.assert_allclose(m.Q[:2, 2:], 25.0 / 2.0 * np.eye(2))
        np.testing.assert_allclose(m.Q[2:, 2:], 25.0 * np.eye(2))
        np.testing.assert_allclose(m.Q, m.Q.T)

    def test_list_valued_models_filter_as_array_valued_ones(self):
        # Lists used to be stored as given, so mb_predict ended in an AttributeError.
        motion = MotionModel.ncv(1.0, 5.0, 0.98)
        sensor = make_sensor()
        as_lists = (
            MotionModel(F=motion.F.tolist(), Q=motion.Q.tolist(), p_survival=0.98),
            SensorModel(H=sensor.H.tolist(), R=sensor.R.tolist(), p_detect=sensor.p_detect,
                        clutter_rate=sensor.clutter_rate, region=REGION),
        )
        prior = MultiBernoulliDensity((single_component(0.6, pos=(5.0, -3.0), vel=(1.0, 2.0)),
                                       single_component(0.3, pos=(-40.0, 20.0), cid=1)))
        scan = np.array([[6.0, -1.0], [-38.0, 22.0], [200.0, 100.0]])
        posteriors = [mb_update(mb_predict(prior, m), scan, s) for m, s in ((motion, sensor), as_lists)]
        for a, b in zip(*(p.stack for p in posteriors)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestModelsRejectBadValues:
    """Each model used to be built without error, and predict or update
    then returned a wrong density with none."""

    def test_detection_probability_above_one(self):
        # mb_update of one r = 0.5 track and a scan on it returned r = [0, 1].
        with pytest.raises(ConfigError, match="detection probability"):
            make_sensor(p_detect=1.5)

    def test_negative_clutter_rate(self):
        # The same update returned r = [0.048, 0.959].
        with pytest.raises(ConfigError, match="clutter rate"):
            make_sensor(clutter_rate=-5.0)

    def test_survival_probability_above_one(self):
        # mb_predict clamped the track's r = 0.5 to R_MAX.
        with pytest.raises(ConfigError, match="survival probability"):
            MotionModel.ncv(1.0, 5.0, p_survival=3.0)

    def test_inverted_rectangle(self):
        # Its area was -10, so the clutter density was negative.
        with pytest.raises(ConfigError, match="xmin < xmax"):
            Rectangle(5.0, -5.0, 0.0, 1.0)


class TestMbPredict:
    def test_survival_scales_existence(self):
        m = MotionModel.ncv(1.0, 5.0, p_survival=0.98)
        prior = MultiBernoulliDensity((single_component(0.5),))
        predicted = mb_predict(prior, m)
        assert predicted.components[0].r == pytest.approx(0.49)

    def test_identity_dynamics_keep_pdf(self):
        m = MotionModel(F=np.eye(4), Q=np.zeros((4, 4)), p_survival=1.0)
        prior = MultiBernoulliDensity((single_component(0.5, pos=(3.0, -2.0)),))
        predicted = mb_predict(prior, m)
        np.testing.assert_allclose(
            predicted.components[0].pdf.means, prior.components[0].pdf.means
        )
        np.testing.assert_allclose(
            predicted.components[0].pdf.covs, prior.components[0].pdf.covs
        )

    def test_births_appended_to_empty_prior(self):
        m = MotionModel.ncv(1.0, 5.0, 0.98)
        births = (single_component(0.03, cid=0), single_component(0.03, cid=1))
        predicted = mb_predict(MultiBernoulliDensity(()), m, MultiBernoulliDensity(births))
        assert len(predicted) == 2

    def test_birth_id_clashing_with_a_prior_id_raises(self):
        m = MotionModel.ncv(1.0, 5.0, 0.98)
        prior = MultiBernoulliDensity((single_component(0.5, cid=0), single_component(0.4, cid=1)))
        births = MultiBernoulliDensity((single_component(0.03, cid=1),))
        with pytest.raises(InvalidDensityError, match="unique"):
            mb_predict(prior, m, births)

    def test_count_is_prior_plus_births(self):
        m = MotionModel.ncv(1.0, 5.0, 0.98)
        prior = MultiBernoulliDensity(
            (single_component(0.5, cid=0), single_component(0.4, cid=1))
        )
        births = (single_component(0.03, cid=2),)
        assert len(mb_predict(prior, m, MultiBernoulliDensity(births))) == 3


class TestMbUpdate:
    def test_empty_scan_legacy_formula(self):
        # r_L = 0.5 * 0.05 / (1 - 0.5 * 0.95) = 1/21
        sensor = make_sensor()
        prior = MultiBernoulliDensity((single_component(0.5),))
        updated = mb_update(prior, np.zeros((0, 2)), sensor)
        assert len(updated) == 1
        assert updated.components[0].r == pytest.approx(0.047619047619, abs=1e-9)

    def test_blind_sensor_keeps_density(self):
        sensor = make_sensor(p_detect=0.0)
        prior = MultiBernoulliDensity((single_component(0.6),))
        updated = mb_update(prior, np.array([[0.0, 0.0]]), sensor)
        rs = sorted(c.r for c in updated.components)
        assert rs[-1] == pytest.approx(0.6)
        assert all(r == pytest.approx(0.6) or r == 0.0 or r < 1e-15 for r in rs)

    def test_perfect_measurement_drives_r_to_one(self):
        # with negligible clutter, r_U -> (1 - r) / (1 - r P_D), near 1 for
        # a tentative prior component
        sensor = SensorModel.position_sensor(
            sigma_eps=10.0, p_detect=0.95, clutter_rate=1e-6, region=REGION
        )
        prior = MultiBernoulliDensity((single_component(0.05),))
        updated = mb_update(prior, np.array([[0.0, 0.0]]), sensor)
        assert max(c.r for c in updated.components) > 0.99

    def test_r_stays_in_unit_interval_randomized(self):
        rng = np.random.default_rng(42)
        sensor = make_sensor()
        for _ in range(300):
            n = rng.integers(1, 5)
            comps = tuple(
                single_component(
                    float(rng.uniform(0.01, 0.999)),
                    pos=rng.uniform(-400, 400, 2),
                    cid=i,
                )
                for i, n_ in zip(range(n), range(n))
            )
            scan = rng.uniform(-450, 450, size=(rng.integers(0, 6), 2))
            updated = mb_update(MultiBernoulliDensity(comps), scan, sensor)
            for c in updated.components:
                assert 0.0 <= c.r < 1.0

    # Reshaped to (-1, 2), a (3, 4) scan became 6 measurement tracks.
    @pytest.mark.parametrize("shape", [(3, 4), (2,), (4,), (3, 1), (3, 2, 1)])
    def test_scan_of_wrong_shape_raises(self, shape):
        prior = MultiBernoulliDensity((single_component(0.5),))
        with pytest.raises(DimensionMismatchError):
            mb_update(prior, np.zeros(shape), make_sensor())

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (0, 4)])
    def test_empty_scan_of_any_shape_is_empty(self, shape):
        prior = MultiBernoulliDensity((single_component(0.5),))
        updated = mb_update(prior, np.zeros(shape), make_sensor())
        assert len(updated) == 1
        assert updated.components[0].r == pytest.approx(1.0 / 21.0)

    def test_certain_object_with_certain_detection(self):
        # r = 1 and p_D = 1 made the legacy update divide 0 by 0.
        sensor = make_sensor(p_detect=1.0)
        prior = MultiBernoulliDensity((single_component(1.0),))
        updated = mb_update(prior, np.array([[0.0, 0.0]]), sensor)
        rs = [c.r for c in updated.components]
        assert rs and all(0.0 <= r <= 1.0 for r in rs)

    def test_non_finite_measurement_raises(self):
        # A NaN row used to be dropped without notice, leaving 2 components.
        prior = MultiBernoulliDensity((single_component(0.5),))
        with pytest.raises(NumericalError):
            mb_update(prior, np.array([[np.nan, 0.0], [1.0, 1.0]]), make_sensor())

    def test_empty_scan_cardinality_identity(self):
        sensor = make_sensor()
        rng = np.random.default_rng(5)
        rs = rng.uniform(0.05, 0.95, size=6)
        comps = tuple(
            single_component(float(r), pos=rng.uniform(-400, 400, 2), cid=i)
            for i, r in enumerate(rs)
        )
        updated = mb_update(MultiBernoulliDensity(comps), np.zeros((0, 2)), sensor)
        expected = np.sum(rs * 0.05 / (1.0 - rs * 0.95))
        assert updated.rs.sum() == pytest.approx(expected, abs=1e-12)


def assert_same_bits(got, want):
    """Every stack array equal in dtype, shape and every bit."""
    for name, a, b in zip(want.stack._fields, got.stack, want.stack):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def reduced_both_ways(predicted, scan, sensor, threshold):
    """mb_reduce after the pruning update and after the full one, at threshold."""
    config = MbReduceConfig(gm=GmReduceConfig(prune_threshold=threshold))
    pruned = mb_update(predicted, scan, sensor, prune_threshold=threshold)
    return mb_reduce(pruned, config), mb_reduce(mb_update(predicted, scan, sensor), config)


@st.composite
def update_case(draw):
    """(predicted density, scan): 1-6 components of 1-5 anisotropic
    Gaussians, and 0-8 measurements, some near a Gaussian, some 2-5 km
    from every one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))):
        a = rng.normal(size=(n, 4, 4))
        covs = a @ np.swapaxes(a, 1, 2) * rng.uniform(1.0, 200.0, size=(n, 1, 1)) + np.eye(4)
        means = rng.uniform(-400.0, 400.0, size=4) + rng.normal(scale=30.0, size=(n, 4))
        comps.append(BernoulliComponent(
            r=float(rng.uniform(0.01, 0.99)),
            pdf=GaussianMixture(rng.dirichlet(np.ones(n)), means, covs), id=i,
        ))
    predicted = MultiBernoulliDensity(comps)
    n_near = draw(st.integers(0, 8))
    n_far = draw(st.integers(0, 8 - n_near))
    near = predicted.stack.means[rng.integers(0, len(predicted.stack.means), n_near), :2]
    far = rng.choice([-1.0, 1.0], size=(n_far, 2)) * rng.uniform(2e3, 5e3, size=(n_far, 2))
    scan = np.vstack([near + rng.normal(scale=15.0, size=near.shape), far])
    return predicted, rng.permutation(scan)


def gaussians(weights, positions, cid=0, r=0.5):
    """A component whose Gaussians sit at the given positions, at rest."""
    n = len(weights)
    means = np.hstack([np.asarray(positions, dtype=float), np.zeros((n, 2))])
    pdf = GaussianMixture(np.asarray(weights, dtype=float), means,
                          np.stack([np.diag([100.0, 100.0, 25.0, 25.0])] * n))
    return BernoulliComponent(r=r, pdf=pdf, id=cid)


class TestMbUpdatePrune:
    """mb_update(..., prune_threshold=t) builds only the measurement-track
    Gaussians that mb_reduce at t keeps, and mb_reduce then gives every bit
    it gives after the full update."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(update_case(), st.sampled_from([1e-5, 1e-3, 0.02, 0.2]))
    def test_reduce_after_pruning_matches_reduce_after_full_update(self, case, threshold):
        predicted, scan = case
        got, want = reduced_both_ways(predicted, scan, make_sensor(), threshold)
        assert_same_bits(got, want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(update_case(), st.sampled_from([1e-5, 0.02, 0.2]))
    def test_each_track_is_pruned_or_whole(self, case, threshold):
        predicted, scan = case
        pruned = mb_update(predicted, scan, make_sensor(), prune_threshold=threshold)
        full = mb_update(predicted, scan, make_sensor())
        n = len(predicted.stack.weights)
        for got, want in zip(pruned.components[len(predicted):], full.components[len(predicted):]):
            assert (got.id, got.r) == (want.id, want.r)
            size = got.pdf.n_components
            assert size == n or (size < n and got.pdf.weights.min() >= threshold)

    def test_nothing_pruned_gives_the_full_update(self):
        # Two Gaussians 10 apart, the measurement between them: both weigh 1/2.
        predicted = MultiBernoulliDensity((gaussians([0.5, 0.5], [[-5.0, 0.0], [5.0, 0.0]]),))
        scan = np.array([[0.0, 0.0]])
        pruned = mb_update(predicted, scan, make_sensor(), prune_threshold=1e-5)
        assert_same_bits(pruned, mb_update(predicted, scan, make_sensor()))

    def test_all_but_one_pruned(self):
        predicted = MultiBernoulliDensity(
            (gaussians([0.4, 0.3, 0.3], [[0.0, 0.0], [300.0, 0.0], [0.0, 300.0]]),)
        )
        scan = np.array([[1.0, -2.0]])
        pruned = mb_update(predicted, scan, make_sensor(), prune_threshold=1e-5)
        track = pruned.components[1].pdf
        assert track.n_components == 1 and track.weights[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(track.covs[0], mb_update(predicted, scan, make_sensor())
                                      .components[1].pdf.covs[0])
        assert_same_bits(*reduced_both_ways(predicted, scan, make_sensor(), 1e-5))

    def test_weight_exactly_at_the_threshold_is_kept(self):
        predicted = MultiBernoulliDensity((gaussians(
            [0.4, 0.3, 0.2, 0.1], [[0.0, 0.0], [20.0, 0.0], [0.0, 25.0], [400.0, 0.0]]
        ),))
        scan = np.array([[2.0, 3.0]])
        full_weights = mb_update(predicted, scan, make_sensor()).components[1].pdf.weights
        # The third Gaussian's own normalized weight, far above the fourth's.
        threshold = float(full_weights[2])
        assert full_weights[3] < threshold < full_weights[1]
        pruned = mb_update(predicted, scan, make_sensor(), prune_threshold=threshold)
        assert pruned.components[1].pdf.n_components == 3
        assert_same_bits(*reduced_both_ways(predicted, scan, make_sensor(), threshold))

    def test_threshold_above_every_weight_leaves_the_track_whole(self):
        # Both weights are 1/2, below a threshold of 0.6: the track keeps
        # both, unscaled, and mb_reduce drops it, as after the full update.
        predicted = MultiBernoulliDensity((gaussians([0.5, 0.5], [[-5.0, 0.0], [5.0, 0.0]]),))
        scan = np.array([[0.0, 0.0]])
        pruned = mb_update(predicted, scan, make_sensor(), prune_threshold=0.6)
        assert_same_bits(pruned, mb_update(predicted, scan, make_sensor()))
        got, want = reduced_both_ways(predicted, scan, make_sensor(), 0.6)
        assert_same_bits(got, want)
        assert len(got) == 0

    def test_rescale_rounded_below_one_leaves_the_track_whole(self):
        # A row whose pruned weights sum to ~4e-18: its sum over all 19
        # Gaussians rounds below its sum over the 15 kept ones, so the
        # rescale would take the lightest kept weight, the threshold, below
        # it, and mb_reduce would prune that one again.
        row = np.array([
            0.003593864505205035, 0.10578708504497612, 5.078723929751264e-19,
            0.12936074904328268, 0.010493079875858501, 0.11726947857942116,
            0.01057675510503456, 0.048814539661478036, 0.06065813800401736,
            0.1344511129953575, 0.07882984894433337, 1.0939445406101356e-19,
            0.03467828389587808, 0.1237155859121394, 9.07953472541453e-19,
            0.018546707049132586, 0.04110428228190881, 0.08212048910197671,
            3.80994003262283e-19,
        ])
        kept = row >= row[0]
        assert row.sum() < row[kept].sum()
        track, g, weights = _prune_tracks(row[None, :], row[0])
        assert g.tolist() == list(range(row.size)) and set(track.tolist()) == {0}
        assert weights.tobytes() == row.tobytes()
        # A threshold just above the pruned weights prunes them and rescales.
        track, g, weights = _prune_tracks(row[None, :], 1e-10)
        assert g.tolist() == np.flatnonzero(kept).tolist()
        assert weights.tobytes() == (row[kept] * (row.sum() / row[kept].sum())).tobytes()

    @pytest.mark.parametrize("threshold", [float("nan"), -1e-5, float("inf"), "1e-5", None, 1j])
    def test_invalid_threshold_raises(self, threshold):
        predicted = MultiBernoulliDensity((single_component(0.5),))
        with pytest.raises(ConfigError):
            mb_update(predicted, np.zeros((1, 2)), make_sensor(), prune_threshold=threshold)


class TestAdaptiveBirth:
    def test_empty_scan_no_births(self):
        assert len(adaptive_birth(np.zeros((0, 2)))) == 0

    def test_single_measurement_r(self):
        births = adaptive_birth(np.array([[10.0, 20.0]])).components
        assert len(births) == 1
        assert births[0].r == pytest.approx(0.03)
        np.testing.assert_allclose(births[0].pdf.means[0], [10.0, 20.0, 0.0, 0.0])

    def test_rate_split_over_measurements(self):
        scan = np.arange(20.0).reshape(10, 2)
        births = adaptive_birth(scan).components
        assert len(births) == 10
        assert all(b.r == pytest.approx(0.01) for b in births)

    def test_non_finite_measurement_raises(self):
        # It used to give a birth whose mean is NaN.
        with pytest.raises(NumericalError):
            adaptive_birth(np.array([[1.0, 2.0], [np.nan, 0.0]]))


# One corrupted entry of an otherwise valid density per case.
CORRUPTIONS = ("r-above-1", "r-below-0", "r-nan", "weight", "negative-weight", "zero-weights",
               "mean", "cov", "asymmetric-cov", "empty-pdf")


@st.composite
def corrupted_density(draw):
    """(valid components, the same with one corrupted entry)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    pdfs = []
    for n in sizes:
        a = rng.normal(size=(n, d, d))
        pdfs.append([rng.dirichlet(np.ones(n)), rng.normal(scale=50.0, size=(n, d)),
                     a @ np.swapaxes(a, 1, 2) + np.eye(d)])
    rs = rng.uniform(0.0, 1.0, size=len(sizes))

    def build(rs, pdfs):
        return [BernoulliComponent(r=float(r), pdf=GaussianMixture(*pdf), id=i)
                for i, (r, pdf) in enumerate(zip(rs, pdfs))]

    valid = build(rs, pdfs)
    kind = draw(st.sampled_from(CORRUPTIONS))
    k = draw(st.integers(0, len(sizes) - 1))
    j = draw(st.integers(0, sizes[k] - 1))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    rs = rs.copy()
    pdfs[k] = [a.copy() for a in pdfs[k]]
    weights, means, covs = pdfs[k]
    if kind == "r-above-1":
        rs[k] = draw(st.floats(1.0, 10.0, exclude_min=True))
    elif kind == "r-below-0":
        rs[k] = draw(st.floats(-10.0, 0.0, exclude_max=True))
    elif kind == "r-nan":
        rs[k] = np.nan
    elif kind == "weight":
        weights[j] = bad
    elif kind == "negative-weight":
        weights[j] = -draw(st.floats(1e-300, 10.0))
    elif kind == "zero-weights":
        weights[:] = 0.0
    elif kind == "mean":
        means[j, draw(st.integers(0, d - 1))] = bad
    elif kind == "cov":
        covs[j, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = bad
    elif kind == "asymmetric-cov":
        covs[j, 0, d - 1] += 1e-6 * np.abs(covs[j]).max()
    else:
        pdfs[k] = [np.zeros(0), np.zeros((0, d)), np.zeros((0, d, d))]
    return valid, build(rs, pdfs)


class TestConstructionChecks:
    """The constructor is the one place where a density is checked; each
    case below used to be built, and predict, update or reduce then returned
    a plausible density without error."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(corrupted_density())
    def test_one_corrupted_entry_raises(self, case):
        valid, corrupted = case
        MultiBernoulliDensity(valid)
        with pytest.raises(InvalidDensityError):
            MultiBernoulliDensity(corrupted)

    def test_repeated_id_raises(self):
        with pytest.raises(InvalidDensityError, match="unique"):
            MultiBernoulliDensity((single_component(0.5, cid=3), single_component(0.4, cid=3)))

    @pytest.mark.parametrize("skew, symmetric", [(0.5e-9, True), (2e-9, False)])
    def test_one_symmetry_tolerance_for_densities_and_models(self, skew, symmetric):
        # A covariance skewed by skew times its largest entry passes the
        # density constructor exactly when it passes as a model covariance.
        cov = np.diag([4.0, 1.0, 1.0, 1.0])
        cov[0, 1] += skew * 4.0
        comp = BernoulliComponent(r=0.5, pdf=GaussianMixture.single(np.zeros(4), cov), id=0)
        if symmetric:
            MultiBernoulliDensity((comp,))
            MotionModel(F=np.eye(4), Q=cov, p_survival=0.9)
            return
        with pytest.raises(InvalidDensityError, match="asymmetric"):
            MultiBernoulliDensity((comp,))
        with pytest.raises(ConfigError, match="symmetric"):
            MotionModel(F=np.eye(4), Q=cov, p_survival=0.9)


class TestMbReduce:
    def test_truncation_threshold(self):
        density = MultiBernoulliDensity(
            (single_component(0.9, cid=0), single_component(5e-5, cid=1))
        )
        reduced = mb_reduce(density, MbReduceConfig(trunc_threshold=1e-4))
        assert len(reduced) == 1
        assert reduced.components[0].r == pytest.approx(0.9)

    def test_cap_keeps_largest_r(self):
        comps = tuple(
            single_component(0.1 + 0.005 * i, pos=(5.0 * i, 0.0), cid=i)
            for i in range(120)
        )
        reduced = mb_reduce(
            MultiBernoulliDensity(comps), MbReduceConfig(max_components=100)
        )
        assert len(reduced) == 100
        assert min(c.r for c in reduced.components) >= 0.1 + 0.005 * 20

    def test_empty_density_passthrough(self):
        reduced = mb_reduce(MultiBernoulliDensity(()), MbReduceConfig())
        assert len(reduced) == 0

    def test_component_without_gaussians_raises(self):
        # It used to be dropped without notice.
        empty = BernoulliComponent(r=0.9, pdf=GaussianMixture.empty(4), id=1)
        with pytest.raises(InvalidDensityError):
            density = MultiBernoulliDensity((single_component(0.9), empty))
            mb_reduce(density, MbReduceConfig())

    def test_pdf_pruned_to_nothing_is_dropped(self):
        faint = GaussianMixture(np.array([1e-6, 1e-6]), np.zeros((2, 4)), np.stack([np.eye(4)] * 2))
        density = MultiBernoulliDensity(
            (single_component(0.9), BernoulliComponent(r=0.9, pdf=faint, id=1))
        )
        assert [c.id for c in mb_reduce(density, MbReduceConfig()).components] == [0]


class TestExtractEstimates:
    def test_threshold_selects_components(self):
        density = MultiBernoulliDensity(
            (single_component(0.9, pos=(1.0, 2.0), cid=0),
             single_component(0.2, pos=(50.0, 50.0), cid=1))
        )
        est = extract_estimates(density)
        assert est.shape == (1, 4)
        np.testing.assert_allclose(est[0, :2], [1.0, 2.0])

    def test_all_below_threshold_gives_empty(self):
        density = MultiBernoulliDensity((single_component(0.3),))
        assert extract_estimates(density).shape[0] == 0

    def test_tie_break_lowest_index(self):
        pdf = GaussianMixture(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0, 0.0, 0.0], [9.0, 9.0, 0.0, 0.0]]),
            np.stack([np.eye(4), np.eye(4)]),
        )
        density = MultiBernoulliDensity(
            (BernoulliComponent(r=0.9, pdf=pdf, id=0),)
        )
        est = extract_estimates(density)
        np.testing.assert_allclose(est[0], [0.0, 0.0, 0.0, 0.0])
