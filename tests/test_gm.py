"""Gaussian-mixture algebra against quadrature and closed-form oracles."""

import numpy as np
import pytest
from scipy import integrate

from mbfuse import FusionWeights, GaussianMixture, GmReduceConfig, gm_pair_product, gm_reduce
from mbfuse.errors import InvalidDensityError, NumericalError
from oracle import check_spd, gm_eval, gm_merge_moments, gm_normalize, gm_pair_log_mass, gm_power


def mix(triples):
    weights, means, covs = zip(*triples)
    return GaussianMixture(np.array(weights), np.array(means), np.array(covs))


def quad_mass_1d(fn, lo=-60.0, hi=60.0):
    val, _ = integrate.quad(fn, lo, hi, limit=400)
    return val


class TestGaussianMixture:
    def test_single_evaluates_to_standard_normal(self):
        g = GaussianMixture.single(np.zeros(1), np.eye(1))
        assert gm_eval(g, [0.0]) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_empty_mixture_mass_zero(self):
        g = GaussianMixture.empty(2)
        assert g.weights.sum() == 0.0
        assert gm_eval(g, [0.0, 0.0]) == 0.0

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(NumericalError):
            check_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NumericalError):
            check_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestGmPower:
    def test_mass_matches_quadrature_1d(self):
        # [0.7 N(1, 4)]^0.4: mass by direct quadrature of the pointwise power
        g = mix([(0.7, [1.0], [[4.0]])])
        powered = gm_power(g, 0.4)
        oracle = quad_mass_1d(lambda x: gm_eval(g, [x]) ** 0.4)
        assert powered.weights.sum() == pytest.approx(oracle, rel=1e-6)

    def test_mass_matches_quadrature_2d(self):
        g = mix([(1.3, [0.5, -1.0], [[3.0, 0.8], [0.8, 2.0]])])
        powered = gm_power(g, 0.6)
        oracle, _ = integrate.dblquad(
            lambda y, x: gm_eval(g, [x, y]) ** 0.6, -30, 30, -30, 30
        )
        assert powered.weights.sum() == pytest.approx(oracle, rel=1e-6)

    def test_standard_normal_half_power_mass(self):
        # closed form: integral of N(0,1)^0.5 = (2 pi)^(1/4) * sqrt(2) = 2.23902...
        g = GaussianMixture.single(np.zeros(1), np.eye(1))
        assert gm_power(g, 0.5).weights.sum() == pytest.approx(2.2390302698404954, abs=1e-12)

    def test_omega_one_is_identity(self):
        g = mix([(0.4, [2.0], [[3.0]])])
        powered = gm_power(g, 1.0)
        assert powered.weights[0] == pytest.approx(0.4, rel=1e-12)
        assert powered.covs[0, 0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_rejects_omega_outside_unit_interval(self):
        g = GaussianMixture.single(np.zeros(1), np.eye(1))
        for omega in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                gm_power(g, omega)


class TestGmPairProduct:
    def test_identical_standard_normals_mass_one(self):
        g = GaussianMixture.single(np.zeros(1), np.eye(1))
        assert gm_pair_log_mass(g, g, FusionWeights(0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_separated_normals_log_mass(self):
        # N(0,1) vs N(2,1) at equal weights: mass exp(-2^2/8) = exp(-1/2)
        g1 = GaussianMixture.single(np.zeros(1), np.eye(1))
        g2 = GaussianMixture.single(np.array([2.0]), np.eye(1))
        assert gm_pair_log_mass(g1, g2, FusionWeights(0.5, 0.5)) == pytest.approx(-0.5, abs=1e-12)

    def test_mass_matches_quadrature(self):
        # the componentwise power approximation needs well-separated components
        g1 = mix([(0.6, [0.0], [[1.0]]), (0.4, [30.0], [[2.0]])])
        g2 = mix([(1.0, [1.0], [[1.5]])])
        prod = gm_pair_product(g1, g2, FusionWeights(0.3, 0.7))
        oracle = quad_mass_1d(
            lambda x: gm_eval(g1, [x]) ** 0.3 * gm_eval(g2, [x]) ** 0.7
        )
        assert prod.weights.sum() == pytest.approx(oracle, rel=1e-3)

    def test_fused_mean_of_equal_covariance_pair(self):
        # equal covariances and weights: fused component sits at the midpoint
        g1 = GaussianMixture.single(np.array([0.0]), np.eye(1))
        g2 = GaussianMixture.single(np.array([2.0]), np.eye(1))
        prod = gm_pair_product(g1, g2, FusionWeights(0.5, 0.5))
        assert prod.n_components == 1
        assert prod.means[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert prod.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_component_count_is_product(self):
        rng = np.random.default_rng(3)
        g1 = mix([(1.0, rng.normal(size=2), np.eye(2)) for _ in range(3)])
        g2 = mix([(1.0, rng.normal(size=2), np.eye(2)) for _ in range(4)])
        assert gm_pair_product(g1, g2, FusionWeights(0.5, 0.5)).n_components == 12

    # It used to pass unchecked and return weight [nan].
    def test_nan_mean_raises(self):
        bad = GaussianMixture.single(np.array([np.nan, 0.0]), np.eye(2))
        good = GaussianMixture.single(np.zeros(2), np.eye(2))
        for p1, p2 in ((bad, good), (good, bad)):
            with pytest.raises(InvalidDensityError):
                gm_pair_product(p1, p2, FusionWeights(0.5, 0.5))


class TestGmNormalize:
    def test_returns_mass_and_unit_total(self):
        g = mix([(2.5, [0.0], [[1.0]])])
        normalized, mass = gm_normalize(g)
        assert mass == pytest.approx(2.5)
        assert normalized.weights.sum() == pytest.approx(1.0)

    def test_zero_mass_raises(self):
        g = GaussianMixture.empty(1)
        with pytest.raises(NumericalError):
            gm_normalize(g)


class TestGmReduce:
    def test_prune_preserves_total_weight(self):
        rng = np.random.default_rng(0)
        g = mix([(w, rng.normal(size=1) * 100, np.eye(1))
                 for w in (0.5, 0.3, 0.15, 4e-6, 1e-7)])
        reduced = gm_reduce(g, GmReduceConfig(prune_threshold=1e-5, merge_threshold=4.0,
                                              max_components=10))
        assert reduced.weights.sum() == pytest.approx(g.weights.sum(), abs=1e-9)
        assert reduced.n_components == 3

    def test_merge_is_moment_preserving(self):
        g = mix([(0.5, [0.0], np.eye(1)), (0.5, [0.5], np.eye(1))])
        reduced = gm_reduce(g, GmReduceConfig(0.0, 4.0, 10))
        assert reduced.n_components == 1
        assert reduced.means[0, 0] == pytest.approx(0.25, abs=1e-12)
        # merged covariance picks up the spread of means
        assert reduced.covs[0, 0, 0] == pytest.approx(1.0 + 0.0625, abs=1e-12)

    def test_cap_keeps_heaviest(self):
        g = mix([(w, [100.0 * i], np.eye(1))
                 for i, w in enumerate([0.4, 0.3, 0.2, 0.1])])
        reduced = gm_reduce(g, GmReduceConfig(0.0, 4.0, 2))
        assert reduced.n_components == 2
        assert set(np.round(reduced.means[:, 0])) == {0.0, 100.0}

    @pytest.mark.parametrize("n", [3, 20])
    def test_cap_breaks_ties_toward_lower_index(self, n):
        g = mix([(1.0, [100.0 * i], np.eye(1)) for i in range(n)])
        reduced = gm_reduce(g, GmReduceConfig(0.0, 4.0, 2))
        assert reduced.means[:, 0].tolist() == [0.0, 100.0]

    def test_merge_moments_oracle(self):
        weights = np.array([0.25, 0.75])
        means = np.array([[0.0, 0.0], [2.0, -2.0]])
        covs = np.stack([np.eye(2), 2 * np.eye(2)])
        w, m, P = gm_merge_moments(weights, means, covs)
        assert w == pytest.approx(1.0)
        np.testing.assert_allclose(m, [1.5, -1.5])
        # P = sum_i w_i (P_i + (m_i - m)(m_i - m)^T)
        expected = 0.25 * (np.eye(2) + np.outer([-1.5, 1.5], [-1.5, 1.5])) + \
            0.75 * (2 * np.eye(2) + np.outer([0.5, -0.5], [0.5, -0.5]))
        np.testing.assert_allclose(P, expected, atol=1e-12)
