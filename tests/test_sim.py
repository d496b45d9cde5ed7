"""Scenario machinery: truth/measurement generation, consensus weights,
the OSPA metric, configuration validation, and Monte-Carlo determinism."""

import dataclasses

import numpy as np
import pytest

from mbfuse.errors import ConfigError
from mbfuse.mb import MbReduceConfig, MotionModel, Rectangle, SensorModel
from mbfuse.sim import (
    MonteCarloResult,
    ObjectBirth,
    ScenarioConfig,
    build_scenario,
    generate_measurements,
    generate_truth,
    known_birth_components,
    metropolis_weights,
    ospa,
    run_montecarlo,
    scenario1,
    scenario2,
)


def tiny_scenario(**overrides) -> ScenarioConfig:
    region = Rectangle(-500.0, 500.0, -500.0, 500.0)
    motion = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
    sensor = SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=0.95, clutter_rate=10.0, region=region
    )
    base = dict(
        name="tiny",
        region=region,
        duration=8,
        births=(
            ObjectBirth(0, 8, np.array([-100.0, 0.0, 5.0, 0.0])),
            ObjectBirth(0, 8, np.array([100.0, 50.0, -5.0, 2.0])),
        ),
        motion=motion,
        sensors=(sensor, sensor),
        adjacency=(frozenset({1}), frozenset({0})),
        fusion_node=0,
        reduce_config=MbReduceConfig(trunc_threshold=1e-4, max_components=100),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTruth:
    def test_noise_free_truth_is_linear(self):
        cfg = tiny_scenario()
        truth = generate_truth(cfg, seed=1)
        F = cfg.motion.F
        x = np.array([-100.0, 0.0, 5.0, 0.0])
        for k in range(cfg.duration):
            assert truth[k].shape == (2, 4)
            assert truth[k][0] == pytest.approx(np.linalg.matrix_power(F, k) @ x)

    def test_birth_and_death_windows(self):
        cfg = tiny_scenario(
            births=(
                ObjectBirth(0, 4, np.array([0.0, 0.0, 1.0, 0.0])),
                ObjectBirth(2, 8, np.array([50.0, 50.0, 0.0, 1.0])),
            )
        )
        truth = generate_truth(cfg, seed=1)
        cards = [len(t) for t in truth]
        assert cards == [1, 1, 2, 2, 1, 1, 1, 1]

    def test_truth_seed_reproducible_with_noise(self):
        cfg = tiny_scenario(truth_process_noise=True)
        t1 = generate_truth(cfg, seed=5)
        t2 = generate_truth(cfg, seed=5)
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)


class TestMeasurements:
    def test_clutter_rate_statistics(self):
        # [DERIVED] with no objects every return is clutter; the empirical
        # mean over 10^4 scans must sit near the Poisson rate of 10.
        cfg = tiny_scenario(births=(), duration=10_000)
        truth = generate_truth(cfg, seed=1)
        scans = generate_measurements(truth, cfg.sensors[0], seed=2)
        counts = np.array([len(s) for s in scans])
        assert counts.mean() == pytest.approx(10.0, abs=0.1)

    def test_detection_rate_statistics(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(0, 2000, np.array([0.0, 0.0, 0.0, 0.0])),),
            duration=2000,
        )
        clutter_free = dataclasses.replace(cfg.sensors[0], clutter_rate=1e-12)
        truth = generate_truth(cfg, seed=1)
        scans = generate_measurements(truth, clutter_free, seed=3)
        rate = np.mean([len(s) for s in scans])
        assert rate == pytest.approx(0.95, abs=0.02)

    def test_measurements_near_truth(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(0, 500, np.array([0.0, 0.0, 0.0, 0.0])),),
            duration=500,
        )
        clutter_free = dataclasses.replace(cfg.sensors[0], clutter_rate=1e-12)
        truth = generate_truth(cfg, seed=1)
        scans = generate_measurements(truth, clutter_free, seed=4)
        zs = np.concatenate([s for s in scans if len(s)])
        assert np.abs(zs.mean(axis=0)) == pytest.approx([0.0, 0.0], abs=2.0)
        assert zs.std(axis=0) == pytest.approx([10.0, 10.0], rel=0.1)


class TestMetropolisWeights:
    def test_two_node_network(self):
        self_w, nbrs = metropolis_weights((frozenset({1}), frozenset({0})), 0)
        assert self_w == pytest.approx(0.5)
        assert nbrs == {1: pytest.approx(0.5)}

    def test_star_center(self):
        # [DERIVED] center degree 3, leaves degree 1: each edge weight
        # 1/(1+3) = 1/4, center keeps 1/4.
        adj = (frozenset({1, 2, 3}), frozenset({0}), frozenset({0}), frozenset({0}))
        self_w, nbrs = metropolis_weights(adj, 0)
        assert nbrs == {1: 0.25, 2: 0.25, 3: 0.25}
        assert self_w == pytest.approx(0.25)
        leaf_self, leaf_nbrs = metropolis_weights(adj, 1)
        assert leaf_nbrs == {0: 0.25}
        assert leaf_self == pytest.approx(0.75)

    def test_bad_node(self):
        with pytest.raises(ConfigError):
            metropolis_weights((frozenset(),), 3)


class TestOspa:
    def test_axioms_and_hand_values(self):
        # [TRIVIAL] both empty; one empty; identity.
        assert ospa(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0
        assert ospa(np.zeros((0, 2)), np.array([[1.0, 2.0]])) == 100.0
        assert ospa(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0

    def test_equal_cardinality_is_matched_distance(self):
        # [DERIVED] single pair 3-4-5 triangle.
        assert ospa(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_cardinality_penalty(self):
        # [DERIVED] one matched at 0, one unmatched at cutoff 100:
        # ((0 + 100^2)/2)^(1/2).
        x = np.array([[0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1e6, 0.0]])
        assert ospa(x, y) == pytest.approx(100.0 / np.sqrt(2.0))

    def test_cutoff_saturates(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[1e9, 0.0]])
        assert ospa(x, y) == pytest.approx(100.0)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        assert ospa(x, y) == pytest.approx(ospa(y, x), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ospa(np.zeros((1, 2)), np.zeros((1, 2)), c=0.0)
        with pytest.raises(ValueError):
            ospa(np.zeros((1, 2)), np.zeros((1, 2)), p=0.5)


class TestConfigValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(adjacency=(frozenset({1}), frozenset())).validate()

    def test_fusion_node_out_of_range(self):
        with pytest.raises(ConfigError):
            tiny_scenario(fusion_node=5).validate()

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(adjacency=(frozenset({0, 1}), frozenset({0}))).validate()

    def test_birth_outside_region_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(
                births=(ObjectBirth(0, 8, np.array([9999.0, 0.0, 0.0, 0.0])),)
            ).validate()

    def test_bad_gamma(self):
        with pytest.raises(ConfigError):
            tiny_scenario(gamma=-1.0).validate()

    def test_nan_gamma_rejected(self):
        with pytest.raises(ConfigError):
            tiny_scenario(gamma=float("nan")).validate()

    def test_builtin_scenarios_valid(self):
        scenario1().validate()
        scenario2("desk").validate()
        scenario2("full").validate()
        with pytest.raises(ConfigError):
            scenario2("bogus")
        with pytest.raises(ConfigError):
            build_scenario("nope")


class TestKnownBirths:
    def test_components_built_from_step0_births(self):
        cfg = tiny_scenario()
        comps = known_birth_components(cfg)
        assert len(comps) == 2
        assert all(c.r == cfg.known_birth_r for c in comps)
        assert comps[0].pdf.means[0] == pytest.approx([-100.0, 0.0, 5.0, 0.0])
        assert comps[0].pdf.covs[0] == pytest.approx(np.diag([100.0, 100.0, 25.0, 25.0]))

    def test_later_births_excluded(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(3, 8, np.array([0.0, 0.0, 1.0, 0.0])),)
        )
        assert known_birth_components(cfg) == ()


class TestMonteCarlo:
    def test_deterministic_repetition(self):
        cfg = tiny_scenario()
        r1 = run_montecarlo(cfg, n_runs=2)
        r2 = run_montecarlo(cfg, n_runs=2)
        assert np.array_equal(r1.ospa_local, r2.ospa_local)
        assert np.array_equal(r1.ospa_fused, r2.ospa_fused)
        assert np.array_equal(r1.card_mean, r2.card_mean)

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_scenario()
        res = run_montecarlo(cfg, n_runs=1)
        out = tmp_path / "results.csv"
        res.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(MonteCarloResult.CSV_COLUMNS)
        assert len(lines) == cfg.duration + 1
        res.to_csv(tmp_path / "again.csv")
        assert out.read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_invalid_run_count(self):
        with pytest.raises(ConfigError):
            run_montecarlo(tiny_scenario(), n_runs=0)

    def test_fused_tracks_truth_cardinality(self):
        cfg = tiny_scenario()
        res = run_montecarlo(cfg, n_runs=3)
        # Two well-separated objects with known births: the fused density
        # should find both almost immediately.
        assert res.card_mean[3:].mean() == pytest.approx(2.0, abs=0.35)
        assert res.ospa_fused[3:].mean() < 30.0
