"""The flat-stack filter chain and births against the per-component
references in oracle.py, bit for bit; the read-only stack arrays; and a
filter and a 1x1 fusion that build no component object."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mbfuse.gci import FusionWeights
from mbfuse.gm import GaussianMixture
from mbfuse.mb import (
    R_MAX,
    BernoulliComponent,
    GmReduceConfig,
    MbReduceConfig,
    MotionModel,
    MultiBernoulliDensity,
    Rectangle,
    SensorModel,
    adaptive_birth,
    mb_merge_components,
    mb_predict,
    mb_reduce,
    mb_update,
)
from mbfuse.pgci import pgci_fuse
from mbfuse.sim import (
    CONDENSE_R_CAP,
    ObjectBirth,
    _condense_for_fusion,
    generate_measurements,
    generate_truth,
    known_birth_components,
    run_local_filter,
    scenario1,
    scenario2,
)

REGION = Rectangle(-100.0, 100.0, -100.0, 100.0)
MOTION = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
# Repeated values tie; R_MAX and 1.0 sit at the clamp, 0.99 and 0.985 above
# the condensation cap, and 5e-5 below the default truncation.
R_POOL = st.sampled_from([R_MAX, 1.0, 0.99, 0.985, 0.5, 0.5, 0.3, 0.1, 1e-4, 5e-5, 0.0])


def assert_same(got, want):
    assert len(got) == len(want)
    if len(want):
        for name, a, b in zip(want.stack._fields, got.stack, want.stack):
            assert np.array_equal(a, b), name


@st.composite
def xy(draw, spread=80.0):
    return np.array(draw(st.lists(st.floats(-spread, spread), min_size=2, max_size=2)))


@st.composite
def components(draw, ids, r=R_POOL):
    """Components with 1 to 3 Gaussians each around a point of the region."""
    out = []
    for i in ids:
        n = draw(st.integers(1, 3))
        w = np.array(draw(st.lists(
            st.sampled_from([0.5, 0.25, 1e-6]) | st.floats(1e-7, 1.0), min_size=n, max_size=n
        )))
        center = np.concatenate([draw(xy()), draw(xy(spread=5.0))])
        means = center + np.array(draw(st.lists(
            st.sampled_from([0.0, 0.5]) | st.floats(-10.0, 10.0), min_size=4 * n, max_size=4 * n
        ))).reshape(n, 4)
        covs = []
        for _ in range(n):
            a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16)))
            a = a.reshape(4, 4)
            covs.append(a @ a.T + draw(st.sampled_from([1.0, 25.0, 100.0])) * np.eye(4))
        pdf = GaussianMixture(w / w.sum(), means, np.array(covs))
        out.append(BernoulliComponent(r=draw(r), pdf=pdf, id=i))
    return tuple(out)


@st.composite
def filter_step(draw):
    """A prior, births, a scan near the components or anywhere in the region,
    a sensor and a reduction config; the prior, the births and the scan may
    each be empty."""
    n_prior, n_births = draw(st.integers(0, 7)), draw(st.integers(0, 3))
    ids = draw(st.permutations(range(20)))
    prior = MultiBernoulliDensity(draw(components(ids[:n_prior])))
    births = MultiBernoulliDensity(draw(components(ids[n_prior:n_prior + n_births])))
    near = [c.pdf.means[0, :2] for c in prior.components + births.components]
    points = []
    for _ in range(draw(st.integers(0, 6))):
        if near and draw(st.booleans()):
            points.append(draw(st.sampled_from(near)) + draw(xy(spread=20.0)))
        else:
            points.append(draw(xy()))
    scan = np.array(points).reshape(-1, 2)
    sensor = SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=draw(st.sampled_from([0.0, 0.95, 1.0])),
        clutter_rate=draw(st.sampled_from([1e-6, 10.0])), region=REGION,
    )
    config = MbReduceConfig(
        trunc_threshold=draw(st.sampled_from([1e-4, 0.3])),
        max_components=draw(st.sampled_from([1, 2, 3, 100])),
        gm=draw(st.sampled_from([GmReduceConfig(), GmReduceConfig(1e-5, 4.0, 2)])),
    )
    return prior, births, scan, sensor, config


@st.composite
def exchanged_density(draw):
    """A density for merging and condensation, in which several components
    may hold r at or above the condensation cap, and a component cap. No r
    is 0, as in a truncated posterior: a group of r sum 0 has no shares."""
    ids = draw(st.permutations(range(20)))[:draw(st.integers(0, 9))]
    density = MultiBernoulliDensity(draw(components(ids, R_POOL.filter(lambda r: r > 0))))
    return density, draw(st.sampled_from([1, 2, 3, 6]))


class TestAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(filter_step())
    def test_filter_chain(self, case):
        prior, births, scan, sensor, config = case
        predicted = mb_predict(prior, MOTION, births)
        assert_same(predicted, oracle.mb_predict(prior, MOTION, births.components))
        updated = mb_update(predicted, scan, sensor)
        assert_same(updated, oracle.mb_update(predicted, scan, sensor))
        reduced = mb_reduce(updated, config)
        assert_same(reduced, oracle.mb_reduce(updated, config))
        merged = mb_merge_components(reduced, 4.0, config.gm)
        assert_same(merged, oracle.mb_merge_components(reduced, 4.0, config.gm))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(exchanged_density(), st.sampled_from([0.5, 4.0, 50.0]))
    def test_merge_and_condensation(self, case, gate):
        density, cap = case
        for gm in (None, GmReduceConfig()):
            assert_same(mb_merge_components(density, gate, gm),
                        oracle.mb_merge_components(density, gate, gm))
        cfg = replace(scenario1(), fusion_max_components=cap)
        assert_same(_condense_for_fusion(density, cfg), oracle.condense_for_fusion(density, cfg))

    def test_ties_at_the_condensation_cap_go_to_the_lower_id(self):
        # Far apart, so nothing merges; all four read CONDENSE_R_CAP once capped.
        comps = tuple(
            BernoulliComponent(r=r, pdf=GaussianMixture.single([100.0 * i, 0, 0, 0], np.eye(4)),
                               id=i)
            for i, r in zip((6, 2, 9, 4), (0.99, R_MAX, 0.985, CONDENSE_R_CAP))
        )
        cfg = replace(scenario1(), fusion_max_components=2)
        got = _condense_for_fusion(MultiBernoulliDensity(comps), cfg)
        assert got.stack.ids.tolist() == [2, 4]
        assert got.rs.tolist() == [CONDENSE_R_CAP] * 2
        assert_same(got, oracle.condense_for_fusion(MultiBernoulliDensity(comps), cfg))

    def test_empty_density_at_every_step(self):
        sensor = SensorModel.position_sensor(10.0, 0.95, 10.0, REGION)
        empty = MultiBernoulliDensity(())
        predicted = mb_predict(empty, MOTION)
        updated = mb_update(predicted, np.array([[0.0, 0.0], [5.0, 5.0]]), sensor)
        reduced = mb_reduce(updated, MbReduceConfig())
        merged = mb_merge_components(reduced)
        condensed = _condense_for_fusion(merged, scenario1())
        for density in (predicted, updated, reduced, merged, condensed):
            assert len(density) == 0
            assert density.components == ()
            assert density.rs.sum() == 0.0
            assert density.next_id() == 0

    def test_scenario2_desk_local_filter(self):
        cfg = scenario2("desk", seed=601)
        sensor = cfg.sensors[0]
        scans = generate_measurements(
            generate_truth(cfg), sensor, np.random.SeedSequence([cfg.base_seed, 0, 0]).entropy
        )
        got = run_local_filter(scans, cfg, sensor)
        want = oracle.run_local_filter(scans, cfg, sensor)
        assert len(got) == len(want) == cfg.duration
        for g, w in zip(got, want):
            assert_same(g, w)


class TestBirthsAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(xy(spread=2000.0), max_size=40), st.integers(0, 50))
    def test_adaptive_birth(self, points, start_id):
        scan = np.array(points).reshape(-1, 2)
        got = adaptive_birth(scan, start_id=start_id)
        assert_same(got, MultiBernoulliDensity(oracle.adaptive_birth(scan, start_id)))
        assert got.stack.means.shape == (len(points), 4)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 2), xy(), xy(spread=10.0)), max_size=8))
    def test_known_birth_components(self, objects):
        births = tuple(
            ObjectBirth(step, 65, np.concatenate([pos, vel])) for step, pos, vel in objects
        )
        cfg = replace(scenario1(), births=births)
        got = known_birth_components(cfg)
        assert_same(got, MultiBernoulliDensity(oracle.known_birth_components(cfg)))
        assert got.stack.ids.tolist() == [i for i, b in enumerate(births) if b.birth_step == 0]


class TestNoComponentObjects:
    def test_filter_and_all_1x1_fusion(self, monkeypatch):
        # Births, posteriors and the 1x1 batch are built from arrays; any
        # mixture or component object built on the way fails the test.
        cfg = scenario2("desk", seed=601)
        sensor = cfg.sensors[0]
        scans = generate_measurements(
            generate_truth(cfg), sensor, np.random.SeedSequence([cfg.base_seed, 0, 0]).entropy
        )
        mb1, mb2 = (
            MultiBernoulliDensity(tuple(
                BernoulliComponent(r=0.8, pdf=GaussianMixture.single(
                    [1e3 * i + side, 0.0, 0.0, 0.0], np.eye(4)), id=i)
                for i in range(6)
            ))
            for side in (0.0, 1.0)
        )
        built = []
        for cls in (GaussianMixture, BernoulliComponent):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)

        posteriors = run_local_filter(scans, cfg, sensor)
        fused, diag = pgci_fuse(mb1, mb2, FusionWeights(0.5, 0.5), 4.0, GmReduceConfig())
        assert built == []
        assert sum(len(p) for p in posteriors) > 0
        assert diag.cluster_sizes == [(1, 1)] * 6 and len(fused) == 6


class TestReadOnlyStack:
    def density(self):
        pdf = GaussianMixture(np.array([0.4, 0.6]), np.zeros((2, 4)), np.stack([np.eye(4)] * 2))
        return MultiBernoulliDensity((BernoulliComponent(r=0.5, pdf=pdf, id=3),))

    @pytest.mark.parametrize("step", ["constructed", "predicted", "updated", "reduced"])
    def test_in_place_writes_raise(self, step):
        density = self.density()
        if step != "constructed":
            density = mb_predict(density, MOTION)
        if step in ("updated", "reduced"):
            sensor = SensorModel.position_sensor(10.0, 0.95, 10.0, REGION)
            density = mb_update(density, np.array([[1.0, 1.0]]), sensor)
        if step == "reduced":
            density = mb_reduce(density, MbReduceConfig())
        with pytest.raises(ValueError):
            density.rs[0] = 0.1
        with pytest.raises(ValueError):
            density.components[0].pdf.weights[0] = 0.1
        for array in density.stack:
            assert not array.flags.writeable

    def test_constructor_copies_its_input(self):
        pdf = GaussianMixture.single(np.zeros(4), np.eye(4))
        density = MultiBernoulliDensity((BernoulliComponent(r=0.5, pdf=pdf, id=0),))
        pdf.means[0, 0] = 7.0
        assert density.components[0].pdf.means[0, 0] == 0.0
