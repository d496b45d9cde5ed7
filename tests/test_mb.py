"""Multi-Bernoulli filter recursion against hand-computed values."""

import numpy as np
import pytest

from mbfuse import (
    BernoulliComponent,
    ConfigError,
    DimensionMismatchError,
    GaussianMixture,
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
        density = MultiBernoulliDensity((single_component(0.9), empty))
        with pytest.raises(InvalidDensityError):
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
