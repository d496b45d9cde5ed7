"""Every documented invalid input of a numeric export raises an MbFuseError.

One row per invalid input: the call, the error type it must raise, and
whether it raised a ValueError before its error was typed. Such a row must
still raise a ValueError, so ``except ValueError`` callers keep working;
ConfigError and InvalidDensityError derive from both bases. The file needs
numpy, pytest and hypothesis only, so it runs where scipy is not installed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfuse import (
    BernoulliComponent,
    ConfigError,
    DimensionMismatchError,
    FusionWeights,
    GaussianMixture,
    GmReduceConfig,
    IntractableFusionError,
    InvalidDensityError,
    MbFuseError,
    MbReduceConfig,
    MotionModel,
    MultiBernoulliDensity,
    NumericalError,
    Rectangle,
    SensorModel,
    adaptive_birth,
    build_scenario,
    compute_lic,
    count_hypotheses_nominal,
    gm_pair_product,
    gm_reduce,
    l1_error_bound,
    mb_predict,
    mb_reduce,
    mb_update,
    metropolis_weights,
    multi_sensor_fuse,
    naive_gci_mb_fuse,
    ospa,
    pairwise_distances,
    pgci_fuse,
    run_montecarlo,
    scenario1,
    scenario2,
)
from mbfuse.clustering import Cluster
from mbfuse.mb import mb_merge_components
from mbfuse.pgci import fuse_cluster

NAN = float("nan")
REGION = Rectangle(-100.0, 100.0, -100.0, 100.0)
MOTION = MotionModel.ncv(1.0, 5.0, 0.98)
SENSOR = SensorModel.position_sensor(10.0, 0.9, 5.0, REGION)
W = FusionWeights(0.5, 0.5)


def gaussian(mean, cov=None):
    mean = np.asarray(mean, dtype=float)
    return GaussianMixture.single(mean, np.eye(mean.size) if cov is None else cov)


def density(*rs, d=4):
    """Components 0, 1, ... with existence rs, 10 apart."""
    return MultiBernoulliDensity(tuple(
        BernoulliComponent(r=r, pdf=gaussian(np.r_[10.0 * i, np.zeros(d - 1)]), id=i)
        for i, r in enumerate(rs)
    ))


def component(r=0.5, pdf=None, cid=0):
    return BernoulliComponent(r=r, pdf=gaussian(np.zeros(4)) if pdf is None else pdf, id=cid)


ASYMMETRIC = np.eye(4) + np.triu(np.full((4, 4), 1e-3), 1)
MIX = GaussianMixture(np.array([0.6, 0.4]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))

# (call, error type, raised a ValueError before it was typed)
INVALID = {
    # gm
    "mixture-shapes": (lambda: GaussianMixture(np.ones(2), np.zeros((3, 2)), np.zeros((3, 2, 2))),
                       DimensionMismatchError, False),
    "pair-product-nan-mean": (lambda: gm_pair_product(gaussian([NAN, 0.0]), 0.5, MIX, 0.5),
                              InvalidDensityError, False),
    "pair-product-nan-weights": (lambda: gm_pair_product(MIX, NAN, MIX, NAN), ConfigError, False),
    "pair-product-weight-above-1": (lambda: gm_pair_product(MIX, 1.2, MIX, -0.2),
                                    ConfigError, True),
    "pair-product-weight-0": (lambda: gm_pair_product(MIX, 0.0, MIX, 1.0), ConfigError, True),
    "pair-product-sum": (lambda: gm_pair_product(MIX, 0.3, MIX, 0.3), ConfigError, True),
    "pair-product-dimensions": (lambda: gm_pair_product(MIX, 0.5, gaussian(np.zeros(3)), 0.5),
                                DimensionMismatchError, False),
    "gm-reduce-nan-weight": (
        lambda: gm_reduce(GaussianMixture(np.array([NAN, 1.0]), MIX.means, MIX.covs), 0.0, 4.0, 5),
        InvalidDensityError, False),
    "gm-reduce-prune-nan": (lambda: gm_reduce(MIX, NAN, 4.0, 5), ConfigError, True),
    "gm-reduce-merge-negative": (lambda: gm_reduce(MIX, 0.0, -1.0, 5), ConfigError, True),
    "gm-reduce-cap-0": (lambda: gm_reduce(MIX, 0.0, 4.0, 0), ConfigError, True),
    "gm-config-prune-nan": (lambda: GmReduceConfig(prune_threshold=NAN), ConfigError, False),
    "gm-config-prune-negative": (lambda: GmReduceConfig(prune_threshold=-1e-5), ConfigError, False),
    "gm-config-merge-nan": (lambda: GmReduceConfig(merge_threshold=NAN), ConfigError, False),
    "gm-config-cap-0": (lambda: GmReduceConfig(max_components=0), ConfigError, False),
    # A cap slices, so a fractional one used to fail later with a TypeError.
    "gm-config-cap-fraction": (lambda: GmReduceConfig(max_components=2.5), ConfigError, False),
    # mb: configs, models, densities, filter
    "mb-config-cap-0": (lambda: MbReduceConfig(max_components=0), ConfigError, False),
    "mb-config-cap-nan": (lambda: MbReduceConfig(max_components=NAN), ConfigError, False),
    "mb-config-cap-fraction": (lambda: MbReduceConfig(max_components=2.5), ConfigError, False),
    "mb-config-trunc-1": (lambda: MbReduceConfig(trunc_threshold=1.0), ConfigError, False),
    "mb-config-trunc-negative": (lambda: MbReduceConfig(trunc_threshold=-0.1), ConfigError, False),
    "mb-reduce-cap-0": (lambda: mb_reduce(density(0.5), MbReduceConfig(max_components=0)),
                        ConfigError, True),
    "rectangle-inverted": (lambda: Rectangle(1.0, -1.0, 0.0, 1.0), ConfigError, False),
    "motion-survival-nan": (lambda: MotionModel.ncv(1.0, 5.0, NAN), ConfigError, False),
    "motion-q-asymmetric": (lambda: MotionModel(np.eye(4), ASYMMETRIC, 0.9), ConfigError, False),
    "sensor-detection-above-1": (lambda: SensorModel.position_sensor(10.0, 1.5, 5.0, REGION),
                                 ConfigError, False),
    "sensor-clutter-negative": (lambda: SensorModel.position_sensor(10.0, 0.9, -1.0, REGION),
                                ConfigError, False),
    "density-r-above-1": (lambda: MultiBernoulliDensity((component(1.5),)),
                          InvalidDensityError, False),
    "density-r-nan": (lambda: MultiBernoulliDensity((component(NAN),)), InvalidDensityError, False),
    "density-empty-pdf": (lambda: MultiBernoulliDensity((component(pdf=GaussianMixture.empty(4)),)),
                          InvalidDensityError, False),
    "density-nan-mean": (lambda: MultiBernoulliDensity((component(pdf=gaussian([NAN, 0, 0, 0])),)),
                         InvalidDensityError, False),
    "density-asymmetric-cov": (
        lambda: MultiBernoulliDensity((component(pdf=gaussian(np.zeros(4), ASYMMETRIC)),)),
        InvalidDensityError, False),
    "density-repeated-id": (lambda: MultiBernoulliDensity((component(cid=2), component(cid=2))),
                            InvalidDensityError, True),
    "density-dimensions": (
        lambda: MultiBernoulliDensity((component(), component(pdf=gaussian(np.zeros(2)), cid=1))),
        DimensionMismatchError, False),
    "predict-birth-id-clash": (lambda: mb_predict(density(0.5, 0.4), MOTION, density(0.03)),
                               InvalidDensityError, True),
    "birth-nan-scan": (lambda: adaptive_birth(np.array([[NAN, 0.0]])), NumericalError, False),
    "birth-scan-shape": (lambda: adaptive_birth(np.zeros((2, 3))), DimensionMismatchError, False),
    "update-nan-scan": (lambda: mb_update(density(0.5), np.array([[0.0, NAN]]), SENSOR),
                        NumericalError, False),
    "update-scan-shape": (lambda: mb_update(density(0.5), np.zeros((2, 3)), SENSOR),
                          DimensionMismatchError, False),
    "merge-gate-0": (lambda: mb_merge_components(density(0.5), gate=0.0), ConfigError, True),
    "merge-gate-nan": (lambda: mb_merge_components(density(0.5), gate=NAN), ConfigError, True),
    # gci, clustering, pgci
    "fusion-weights-0-1": (lambda: FusionWeights(0.0, 1.0), ConfigError, True),
    "fusion-weights-sum": (lambda: FusionWeights(0.3, 0.3), ConfigError, True),
    "fusion-weights-nan": (lambda: FusionWeights(NAN, NAN), ConfigError, True),
    "nominal-count-n1-above-n2": (lambda: count_hypotheses_nominal(3, 2), ConfigError, True),
    "nominal-count-negative": (lambda: count_hypotheses_nominal(-1, 2), ConfigError, True),
    "distances-dimensions": (lambda: pairwise_distances(density(0.5), density(0.5, d=2), W),
                             DimensionMismatchError, False),
    "oracle-over-cap": (lambda: naive_gci_mb_fuse(density(*[0.5] * 10), density(*[0.5] * 10), W),
                        IntractableFusionError, False),
    "lic-gamma-0": (lambda: compute_lic(np.zeros((1, 1)), 0.0), ConfigError, True),
    "lic-gamma-nan": (lambda: compute_lic(np.zeros((1, 1)), NAN), ConfigError, True),
    "pgci-gamma-nan": (lambda: pgci_fuse(density(0.5), density(0.5), W, NAN), ConfigError, True),
    # The oracle orients a 2x1 fusion as 1x2, so the 2x1 clustering is not of its index sets.
    "bound-unoriented-clustering": (
        lambda: l1_error_bound(naive_gci_mb_fuse(density(0.5, 0.5), density(0.5), W)[1],
                               compute_lic(np.zeros((2, 1)), 4.0), 4.0),
        ConfigError, False),
    "fuse-cluster-one-sided": (
        lambda: fuse_cluster(Cluster(frozenset({0}), frozenset()), density(0.5), density(0.5), W,
                             np.zeros((1, 1))),
        ConfigError, True),
    "multi-fuse-no-posterior": (lambda: multi_sensor_fuse([], [], 4.0), ConfigError, True),
    "multi-fuse-lengths": (lambda: multi_sensor_fuse([density(0.5)] * 2, [1.0], 4.0),
                           ConfigError, True),
    "multi-fuse-weight-sum": (lambda: multi_sensor_fuse([density(0.5)] * 2, [0.7, 0.7], 4.0),
                              ConfigError, True),
    "multi-fuse-weight-nan": (lambda: multi_sensor_fuse([density(0.5)], [NAN], 4.0),
                              ConfigError, True),
    # sim
    "scenario-duration-0": (lambda: dataclasses.replace(scenario1(), duration=0).validate(),
                            ConfigError, False),
    "scenario-gamma-nan": (lambda: dataclasses.replace(scenario1(), gamma=NAN).validate(),
                           ConfigError, False),
    # The fusion cap slices too; a fractional one used to end in mb._strongest's TypeError.
    "scenario-fusion-cap-fraction": (
        lambda: run_montecarlo(dataclasses.replace(scenario1(), fusion_max_components=2.5), 1),
        ConfigError, False),
    "scenario-unknown": (lambda: build_scenario("scenario3"), ConfigError, False),
    "scenario-unknown-scale": (lambda: scenario2("huge"), ConfigError, False),
    "metropolis-node": (lambda: metropolis_weights((frozenset({1}), frozenset({0})), 2),
                        ConfigError, False),
    "montecarlo-runs-0": (lambda: run_montecarlo(scenario1(), 0), ConfigError, False),
    "ospa-cutoff-0": (lambda: ospa(np.zeros((1, 2)), np.zeros((1, 2)), c=0.0), ConfigError, True),
    # An infinite cutoff used to give NaN, or the solver's "infeasible".
    "ospa-cutoff-inf": (lambda: ospa(np.zeros((1, 2)), np.zeros((1, 2)), c=np.inf),
                        ConfigError, False),
    "ospa-order-inf": (lambda: ospa(np.zeros((1, 2)), np.zeros((1, 2)), p=np.inf),
                       ConfigError, False),
    "ospa-order-below-1": (lambda: ospa(np.zeros((1, 2)), np.zeros((1, 2)), p=0.5),
                           ConfigError, True),
    # c**p overflows: an infinite coordinate used to reach the solver's
    # "infeasible", and unequal set sizes a bare OverflowError.
    "ospa-power-overflow-infinite": (
        lambda: ospa(np.array([[np.inf, 0.0]]), np.zeros((1, 2)), c=1e200, p=2.0),
        ConfigError, True),
    "ospa-power-overflow-sizes": (lambda: ospa(np.zeros((1, 2)), np.zeros((2, 2)), c=1e200, p=2.0),
                                  ConfigError, False),
    "ospa-nan": (lambda: ospa(np.array([[NAN, 0.0]]), np.zeros((1, 2))), ConfigError, True),
    "ospa-shape": (lambda: ospa(np.zeros((2, 3)), np.zeros((1, 2))), ConfigError, True),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_input_raises_a_typed_error(case):
    call, error, was_value_error = INVALID[case]
    with pytest.raises(MbFuseError) as info:
        call()
    assert isinstance(info.value, error)
    if was_value_error:
        assert isinstance(info.value, ValueError)


weight = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(-0.5, 1.5))
weight_pair = st.one_of(st.tuples(weight, weight), st.floats(-0.5, 1.5).map(lambda w: (w, 1.0 - w)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weight_pair)
def test_fusion_weights_follow_one_rule(pair):
    """FusionWeights and gm_pair_product accept exactly the same weights."""
    w1, w2 = pair
    valid = 0.0 < w1 < 1.0 and 0.0 < w2 < 1.0 and abs(w1 + w2 - 1.0) <= 1e-12
    if valid:
        FusionWeights(w1, w2)
        gm_pair_product(MIX, w1, MIX, w2)
        return
    with pytest.raises(ConfigError):
        FusionWeights(w1, w2)
    with pytest.raises(ConfigError):
        gm_pair_product(MIX, w1, MIX, w2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(-1.0, 2.0), st.just(NAN)),
       st.one_of(st.floats(-1.0, 10.0), st.just(NAN)),
       st.one_of(st.integers(-2, 4), st.sampled_from([NAN, 2.5, 3.0])))
def test_reduction_parameters_follow_one_rule(prune, merge, cap):
    """gm_reduce accepts exactly the parameters that GmReduceConfig accepts."""
    if prune >= 0 and merge >= 0 and isinstance(cap, int) and cap >= 1:
        GmReduceConfig(prune, merge, cap)
        gm_reduce(MIX, prune, merge, cap)
        return
    with pytest.raises(ConfigError):
        GmReduceConfig(prune, merge, cap)
    with pytest.raises(ConfigError):
        gm_reduce(MIX, prune, merge, cap)
