"""Scenario machinery: truth/measurement generation, consensus weights,
the OSPA metric, configuration validation, and Monte-Carlo determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracle
import mbfuse.pgci as pgci_mod
from mbfuse.errors import ConfigError
from mbfuse.mb import MotionModel, MultiBernoulliDensity, Rectangle, SensorModel
from mbfuse.pgci import multi_sensor_fuse
from mbfuse.sim import (
    KNOWN_BIRTH_R,
    REDUCE_CONFIG,
    MonteCarloResult,
    ObjectBirth,
    ScenarioConfig,
    _assign_columns,
    _fusion_inputs,
    build_scenario,
    generate_measurements,
    generate_truth,
    known_birth_components,
    metropolis_weights,
    ospa,
    run_local_filter,
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
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTruth:
    def test_noise_free_truth_is_linear(self):
        cfg = tiny_scenario()
        truth = generate_truth(cfg)
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
        truth = generate_truth(cfg)
        cards = [len(t) for t in truth]
        assert cards == [1, 1, 2, 2, 1, 1, 1, 1]


class TestMeasurements:
    def test_clutter_rate_statistics(self):
        # [DERIVED] with no objects every return is clutter; the empirical
        # mean over 10^4 scans must sit near the Poisson rate of 10.
        cfg = tiny_scenario(births=(), duration=10_000)
        truth = generate_truth(cfg)
        scans = generate_measurements(truth, cfg.sensors[0], seed=2)
        counts = np.array([len(s) for s in scans])
        assert counts.mean() == pytest.approx(10.0, abs=0.1)

    def test_detection_rate_statistics(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(0, 2000, np.array([0.0, 0.0, 0.0, 0.0])),),
            duration=2000,
        )
        clutter_free = dataclasses.replace(cfg.sensors[0], clutter_rate=1e-12)
        truth = generate_truth(cfg)
        scans = generate_measurements(truth, clutter_free, seed=3)
        rate = np.mean([len(s) for s in scans])
        assert rate == pytest.approx(0.95, abs=0.02)

    def test_measurements_near_truth(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(0, 500, np.array([0.0, 0.0, 0.0, 0.0])),),
            duration=500,
        )
        clutter_free = dataclasses.replace(cfg.sensors[0], clutter_rate=1e-12)
        truth = generate_truth(cfg)
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


@st.composite
def position_pair(draw):
    """(x, y, c, p) for OSPA: sets of up to 12 positions each, drawn on an
    integer lattice (many tied distances), with duplicated points, in
    general position, or with one set wholly beyond the cutoff."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    c = draw(st.sampled_from([1.0, 2.5, 100.0]))
    p = draw(st.sampled_from([1.0, 2.0, 3.0]))
    kind = draw(st.sampled_from(["lattice", "duplicates", "general", "beyond"]))

    def points(k, coord):
        return np.array(draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k)),
                        dtype=float).reshape(k, 2)

    if kind == "lattice":
        lattice = st.integers(-3, 3)
        x, y = points(m, lattice), points(n, lattice)
    elif kind == "duplicates":
        base = points(3, st.integers(-4, 4))
        x = base[draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))].reshape(m, 2)
        y = base[draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))].reshape(n, 2)
    else:
        general = st.floats(-150.0, 150.0, allow_nan=False)
        x, y = points(m, general), points(n, general)
        if kind == "beyond":
            y = y + 10.0 * (c + 300.0)
    return x, y, c, p


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

    # Reshaped to (n, 2), a (3, 4) set read as 6 positions at the origin and
    # gave 0.0 against 6 others there.
    @pytest.mark.parametrize("shape", [(3, 4), (6,), (2,), (3, 1), (3, 2, 1), (1, 3)])
    def test_set_of_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ospa(np.zeros(shape), np.zeros((6, 2)))
        with pytest.raises(ValueError, match="shape"):
            ospa(np.zeros((6, 2)), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (0, 4), (2, 0)])
    def test_empty_set_of_any_shape_is_empty(self, shape):
        assert ospa(np.zeros(shape), np.zeros((0, 2))) == 0.0
        assert ospa(np.zeros(shape), np.ones((1, 2))) == 100.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ospa(np.zeros((1, 2)), np.zeros((1, 2)), c=0.0)
        with pytest.raises(ValueError):
            ospa(np.zeros((1, 2)), np.zeros((1, 2)), p=0.5)
        # NaN must be caught here, not by the assignment solver downstream.
        with pytest.raises(ValueError, match="require c > 0"):
            ospa(np.zeros((1, 2)), np.ones((2, 2)), c=float("nan"))
        with pytest.raises(ValueError, match="require c > 0"):
            ospa(np.zeros((1, 2)), np.ones((2, 2)), p=float("nan"))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_nan_position_raises(self, side):
        sets = {"x": np.zeros((2, 2)), "y": np.ones((3, 2))}
        sets[side][1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ospa(sets["x"], sets["y"])
        # Also when the other set is empty, where nothing is solved.
        with pytest.raises(ValueError, match="NaN"):
            ospa(sets[side], np.zeros((0, 2)))

    def test_infinite_position_counts_cutoff(self):
        x = np.array([[0.0, 0.0], [np.inf, 0.0]])
        y = np.array([[3.0, 4.0], [1.0, -np.inf]])
        assert ospa(x, y) == np.sqrt((25.0 + 100.0**2) / 2)

    def test_positions_at_one_infinity_count_cutoff(self):
        # Their difference is NaN; it used to end in the assignment
        # solver's "invalid numeric entries" ValueError.
        x = np.array([[np.inf, 0.0], [0.0, 0.0]])
        y = np.array([[np.inf, 0.0], [3.0, 4.0]])
        assert ospa(x, y) == np.sqrt((25.0 + 100.0**2) / 2)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(position_pair())
    def test_equals_scipy_reference_bit_for_bit(self, case):
        x, y, c, p = case
        assert ospa(x, y, c, p) == oracle.ospa(x, y, c, p)


@st.composite
def tie_heavy_cost(draw):
    """A rows <= columns matrix of small integers, of tenths (whose sums tie
    only up to rounding, so the order of each addition shows), or of one
    constant."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(m, 12))
    kind = draw(st.sampled_from(["integers", "tenths", "constant"]))
    if kind == "constant":
        return np.full((m, n), float(draw(st.integers(0, 3))))
    top, scale = (2, 1.0) if kind == "integers" else (9, 10.0)
    entries = draw(st.lists(st.integers(0, top), min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=float).reshape(m, n) / scale


class TestAssignColumns:
    """The in-package solver picks scipy's assignment, ties included."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tie_heavy_cost())
    def test_columns_equal_scipy_on_ties(self, cost):
        assert _assign_columns(cost) == linear_sum_assignment(cost)[1].tolist()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 9), (12, 12)])
    def test_constant_matrix_gives_identity_like_scipy(self, shape):
        cost = np.full(shape, 7.0)
        assert _assign_columns(cost) == list(range(shape[0]))
        assert _assign_columns(cost) == linear_sum_assignment(cost)[1].tolist()

    def test_invalid_entries_raise(self):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            _assign_columns(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="infeasible"):
            _assign_columns(np.full((2, 2), np.inf))


class TestConfigValidation:
    def test_disconnected_network_rejected(self):
        with pytest.raises(ConfigError, match="connected"):
            tiny_scenario(adjacency=(frozenset(), frozenset())).validate()

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

    # An out-of-range fusion component cap empties every fused density, and
    # a fractional one cannot slice, so validation rejects both.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("fusion_max_components", 0),
            ("fusion_max_components", float("nan")),
            ("fusion_max_components", 2.5),
        ],
    )
    def test_bad_fusion_setting_rejected(self, field, value):
        with pytest.raises(ConfigError):
            dataclasses.replace(scenario1(), **{field: value}).validate()

    # Unchecked, an out-of-range p_detect or p_survival runs to a plausible
    # but wrong result (p_detect 1.5: fused OSPA 0; p_survival NaN: no
    # track after step 0), and a negative clutter rate fails deep inside
    # measurement generation. The models reject them when they are built.
    @pytest.mark.parametrize(
        "model, field, value",
        [
            ("sensor", "p_detect", 1.5),
            ("sensor", "p_detect", -0.1),
            ("sensor", "p_detect", float("nan")),
            ("sensor", "clutter_rate", -1.0),
            ("sensor", "clutter_rate", float("nan")),
            ("sensor", "clutter_rate", float("inf")),
            ("motion", "p_survival", 1.5),
            ("motion", "p_survival", -0.1),
            ("motion", "p_survival", float("nan")),
        ],
    )
    def test_bad_model_setting_rejected(self, model, field, value):
        cfg = scenario1()
        base = cfg.sensors[1] if model == "sensor" else cfg.motion
        with pytest.raises(ConfigError):
            dataclasses.replace(base, **{field: value})

    # Unchecked, a NaN velocity ends in NumericalError inside the filter, a
    # zero-area sensor region in a ZeroDivisionError from the clutter
    # density, and an inverted one in numpy's "high - low < 0".
    @pytest.mark.parametrize("state", [
        [-250.0, -250.0, float("nan"), 3.0],
        [-250.0, -250.0, 5.0, float("inf")],
        [-250.0, float("nan"), 5.0, 3.0],
    ])
    def test_non_finite_birth_state_rejected(self, state):
        cfg = scenario1()
        births = (dataclasses.replace(cfg.births[0], state=np.array(state)),) + cfg.births[1:]
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, births=births).validate()

    # A 3-element state passes the other checks and ends in numpy's "matmul:
    # ... mismatch in its core dimension" inside generate_truth.
    @pytest.mark.parametrize("state", [[-250.0, -250.0, 5.0], [-250.0, -250.0, 5.0, 3.0, 0.0]])
    def test_birth_state_of_wrong_length_rejected(self, state):
        cfg = scenario1()
        births = (dataclasses.replace(cfg.births[0], state=np.array(state)),) + cfg.births[1:]
        with pytest.raises(ConfigError, match="4 entries"):
            dataclasses.replace(cfg, births=births).validate()

    @staticmethod
    def with_matrix(name, value):
        """scenario1's motion model with F or Q, or its second sensor with H
        or R, replaced."""
        cfg = scenario1()
        return dataclasses.replace(cfg.motion if name in ("F", "Q") else cfg.sensors[1],
                                   **{name: value})

    # Unchecked, Q * nan runs to a fused OSPA of 98.5 (cutoff 100) with no
    # fused track after step 0, and a NaN in R ends in NumericalError.
    @pytest.mark.parametrize("name", ["F", "Q", "H", "R"])
    def test_non_finite_model_matrix_rejected(self, name):
        cfg = scenario1()
        model = cfg.motion if name in ("F", "Q") else cfg.sensors[1]
        value = getattr(model, name).copy()
        value[0, 0] = float("nan")
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            self.with_matrix(name, value)

    # Unchecked, F = I_3 ends in numpy's bare ValueError. F, Q and R of the
    # wrong shape make an inconsistent model, rejected when it is built;
    # H = I_(2x3) makes a consistent sensor of a 3-D state, rejected by
    # validate as the simulator's state has 4 entries.
    @pytest.mark.parametrize("name, value", [
        ("F", np.eye(3)),
        ("F", np.ones(4)),
        ("Q", np.eye(3)),
        ("H", np.eye(2, 3)),
        ("R", np.eye(3)),
    ])
    def test_model_matrix_of_wrong_shape_rejected(self, name, value):
        if name != "H":
            with pytest.raises(ConfigError, match="shape"):
                self.with_matrix(name, value)
            return
        # Only the second sensor is bad: every sensor must be checked.
        cfg = scenario1()
        sensors = (cfg.sensors[0], self.with_matrix(name, value))
        with pytest.raises(ConfigError, match="sensor H has shape"):
            dataclasses.replace(cfg, sensors=sensors).validate()

    # Consistent models of other dimensions used to pass validation: a third
    # measurement row ends in numpy's bare ValueError ("inhomogeneous
    # shape"), a 6-D state in "cannot reshape array of size 18 into shape
    # (4)", both inside run_montecarlo.
    def test_measurement_of_three_rows_rejected(self):
        cfg = scenario1()
        sensors = tuple(
            dataclasses.replace(s, H=np.eye(3, 4), R=100.0 * np.eye(3)) for s in cfg.sensors
        )
        with pytest.raises(ConfigError, match="sensor H has shape"):
            dataclasses.replace(cfg, sensors=sensors).validate()

    def test_six_dimensional_state_rejected(self):
        cfg = scenario1()
        motion = dataclasses.replace(cfg.motion, F=np.eye(6), Q=np.eye(6))
        sensors = tuple(dataclasses.replace(s, H=np.eye(2, 6)) for s in cfg.sensors)
        births = tuple(
            dataclasses.replace(b, state=np.concatenate([b.state, [0.0, 0.0]])) for b in cfg.births
        )
        cfg = dataclasses.replace(cfg, motion=motion, sensors=sensors, births=births)
        with pytest.raises(ConfigError, match="motion F has shape"):
            cfg.validate()

    # Unchecked, R = -I ends in NumericalError (exit 3, not 2).
    @pytest.mark.parametrize("name, value", [
        ("Q", -np.eye(4)),
        ("Q", np.diag([1.0, 1.0, 1.0, -1e-3])),
        ("Q", np.eye(4) + np.triu(np.ones((4, 4)), 1)),
        ("R", -np.eye(2)),
        ("R", np.array([[100.0, 1.0], [0.0, 100.0]])),
    ])
    def test_covariance_not_symmetric_psd_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be symmetric positive semi-definite"):
            self.with_matrix(name, value)

    # Region bounds (xmin, xmax, ymin, ymax); Rectangle rejects each when
    # it is built.
    BAD_RECTANGLES = [
        (0.0, 0.0, -500.0, 500.0),             # zero area
        (-500.0, 500.0, 500.0, 500.0),
        (500.0, -500.0, -500.0, 500.0),        # inverted
        (-500.0, 500.0, 500.0, -500.0),
        (-500.0, float("inf"), -500.0, 500.0),
        (float("-inf"), float("inf"), -500.0, 500.0),
        (-500.0, 500.0, float("nan"), 500.0),
    ]

    @pytest.mark.parametrize("region", BAD_RECTANGLES)
    def test_bad_sensor_region_rejected(self, region):
        with pytest.raises(ConfigError, match="xmin < xmax and ymin < ymax"):
            SensorModel.position_sensor(10.0, 0.95, 10.0, Rectangle(*region))

    @pytest.mark.parametrize("region", BAD_RECTANGLES)
    def test_bad_scenario_region_rejected(self, region):
        with pytest.raises(ConfigError, match="xmin < xmax and ymin < ymax"):
            dataclasses.replace(scenario1(), region=Rectangle(*region))

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
        comps = known_birth_components(cfg).components
        assert len(comps) == 2
        assert all(c.r == KNOWN_BIRTH_R for c in comps)
        assert comps[0].pdf.means[0] == pytest.approx([-100.0, 0.0, 5.0, 0.0])
        assert comps[0].pdf.covs[0] == pytest.approx(np.diag([100.0, 100.0, 25.0, 25.0]))

    def test_later_births_excluded(self):
        cfg = tiny_scenario(
            births=(ObjectBirth(3, 8, np.array([0.0, 0.0, 1.0, 0.0])),)
        )
        assert len(known_birth_components(cfg)) == 0


class TestOutputsPassTheConstructorCheck:
    """Package operations build densities unchecked, from valid ones; every
    density of a run must still pass the constructor's rule."""

    @pytest.mark.parametrize("cfg", [scenario1(seed=601), scenario2("desk", seed=601)],
                             ids=lambda cfg: cfg.name)
    def test_run0_densities_rebuild(self, cfg, monkeypatch):
        fused = []
        fuse = pgci_mod.pgci_fuse

        def recording(*args, **kwargs):
            out = fuse(*args, **kwargs)
            fused.append(out[0])
            return out

        monkeypatch.setattr(pgci_mod, "pgci_fuse", recording)
        truth = generate_truth(cfg)
        posteriors = [
            run_local_filter(generate_measurements(
                truth, sensor, np.random.SeedSequence([cfg.base_seed, 0, s]).entropy
            ), cfg, sensor)
            for s, sensor in enumerate(cfg.sensors)
        ]
        built = [d for p in posteriors for d in p]
        for k in range(cfg.duration):
            densities, weights = _fusion_inputs(cfg, posteriors, k)
            built += densities
            built.append(multi_sensor_fuse(densities, weights, cfg.gamma,
                                           reduce_config=REDUCE_CONFIG))
        built += fused
        assert len(fused) == cfg.duration * (len(densities) - 1)
        for d in built:
            MultiBernoulliDensity(d.components)


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
