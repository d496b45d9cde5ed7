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
    ScenarioConfig,
    SensorModel,
    adaptive_birth,
    build_scenario,
    compute_lic,
    count_hypotheses_distinct,
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
from mbfuse.gci import cluster_pair_marginals, fused_pair_density
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


def oracle_gmb():
    """The exhaustive oracle's hypotheses of a 2x1 fusion whose pairs lie 10 apart."""
    return naive_gci_mb_fuse(density(0.5, 0.5), density(0.5), W)[1]

# (call, error type, raised a ValueError before it was typed)
INVALID = {
    # gm
    "mixture-shapes": (lambda: GaussianMixture(np.ones(2), np.zeros((3, 2)), np.zeros((3, 2, 2))),
                       DimensionMismatchError, False),
    "pair-product-nan-mean": (lambda: gm_pair_product(gaussian([NAN, 0.0]), MIX, W),
                              InvalidDensityError, False),
    "pair-product-nan-weights": (lambda: gm_pair_product(MIX, MIX, FusionWeights(NAN, NAN)),
                                 ConfigError, False),
    "pair-product-weight-above-1": (lambda: gm_pair_product(MIX, MIX, FusionWeights(1.2, -0.2)),
                                    ConfigError, True),
    "pair-product-weight-0": (lambda: gm_pair_product(MIX, MIX, FusionWeights(0.0, 1.0)),
                              ConfigError, True),
    "pair-product-sum": (lambda: gm_pair_product(MIX, MIX, FusionWeights(0.3, 0.3)),
                         ConfigError, True),
    "pair-product-dimensions": (lambda: gm_pair_product(MIX, gaussian(np.zeros(3)), W),
                                DimensionMismatchError, False),
    # A bare tuple is not a parameter set, whatever its values.
    "pair-product-weights-tuple": (lambda: gm_pair_product(MIX, MIX, (0.5, 0.5)),
                                   ConfigError, False),
    "gm-reduce-nan-weight": (
        lambda: gm_reduce(GaussianMixture(np.array([NAN, 1.0]), MIX.means, MIX.covs),
                          GmReduceConfig(0.0, 4.0, 5)),
        InvalidDensityError, False),
    "gm-reduce-prune-nan": (lambda: gm_reduce(MIX, GmReduceConfig(NAN, 4.0, 5)), ConfigError, True),
    "gm-reduce-merge-negative": (lambda: gm_reduce(MIX, GmReduceConfig(0.0, -1.0, 5)),
                                 ConfigError, True),
    "gm-reduce-cap-0": (lambda: gm_reduce(MIX, GmReduceConfig(0.0, 4.0, 0)), ConfigError, True),
    "gm-reduce-config-tuple": (lambda: gm_reduce(MIX, (1e-5, 4.0, 5)), ConfigError, False),
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
    # A gm of None used to skip Gaussian reduction; a string or tuple ended
    # in an AttributeError at first use.
    "mb-config-gm-none": (lambda: MbReduceConfig(gm=None), ConfigError, False),
    "mb-config-gm-string": (lambda: MbReduceConfig(gm="default"), ConfigError, False),
    "mb-config-gm-tuple": (lambda: MbReduceConfig(gm=(1e-5, 4.0, 5)), ConfigError, False),
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
    # A config object of the wrong type used to end in a bare AttributeError
    # where it was first read; None stays allowed where it skips a step.
    "mb-reduce-gm-config": (lambda: mb_reduce(density(0.5), GmReduceConfig()), ConfigError, False),
    "mb-reduce-none": (lambda: mb_reduce(density(0.5), None), ConfigError, False),
    "merge-gm-config-tuple": (
        lambda: mb_merge_components(density(0.5), 4.0, gm_config=(1e-5, 4.0, 5)),
        ConfigError, False),
    # gci, clustering, pgci
    "fusion-weights-0-1": (lambda: FusionWeights(0.0, 1.0), ConfigError, True),
    "fusion-weights-sum": (lambda: FusionWeights(0.3, 0.3), ConfigError, True),
    "fusion-weights-nan": (lambda: FusionWeights(NAN, NAN), ConfigError, True),
    "nominal-count-n1-above-n2": (lambda: count_hypotheses_nominal(3, 2), ConfigError, True),
    "nominal-count-negative": (lambda: count_hypotheses_nominal(-1, 2), ConfigError, True),
    # A fractional count used to end in a TypeError, a negative one in a count of 0.
    "nominal-count-fraction": (lambda: count_hypotheses_nominal(2.5, 3), ConfigError, False),
    "distinct-count-negative": (lambda: count_hypotheses_distinct(-1, 3), ConfigError, False),
    "distinct-count-fraction": (lambda: count_hypotheses_distinct(2.5, 3), ConfigError, False),
    "distances-dimensions": (lambda: pairwise_distances(density(0.5), density(0.5, d=2), W),
                             DimensionMismatchError, False),
    "oracle-over-cap": (lambda: naive_gci_mb_fuse(density(*[0.5] * 10), density(*[0.5] * 10), W),
                        IntractableFusionError, False),
    "lic-gamma-0": (lambda: compute_lic(np.zeros((1, 1)), 0.0), ConfigError, True),
    # A NaN gate fails every d <= gamma test, so it would drop every pair.
    "lic-gamma-nan": (lambda: compute_lic(np.zeros((1, 1)), NAN), ConfigError, True),
    # A 1-D or 3-D matrix used to fail to unpack; a NaN entry fell outside the gate.
    "lic-matrix-1d": (lambda: compute_lic(np.zeros(2), 4.0), ConfigError, True),
    "lic-matrix-3d": (lambda: compute_lic(np.zeros((1, 2, 2)), 4.0), ConfigError, True),
    "lic-matrix-nan": (lambda: compute_lic(np.array([[NAN, 1.0]]), 4.0), ConfigError, False),
    "pgci-gamma-nan": (lambda: pgci_fuse(density(0.5), density(0.5), W, NAN), ConfigError, True),
    # As above: a config or weight pair of the wrong type used to end in an AttributeError.
    "pgci-gm-config-mb-config": (
        lambda: pgci_fuse(density(0.5), density(0.5), W, 4.0, gm_config=MbReduceConfig()),
        ConfigError, False),
    "pgci-gm-config-tuple": (
        lambda: pgci_fuse(density(0.5), density(0.5), W, 4.0, gm_config=(1e-5, 4.0, 5)),
        ConfigError, False),
    "pgci-weights-tuple": (lambda: pgci_fuse(density(0.5), density(0.5), (0.5, 0.5), 4.0),
                           ConfigError, False),
    "oracle-gm-config-mb-config": (
        lambda: naive_gci_mb_fuse(density(0.5), density(0.5), W, gm_config=MbReduceConfig()),
        ConfigError, False),
    "oracle-weights-tuple": (lambda: naive_gci_mb_fuse(density(0.5), density(0.5), (0.5, 0.5)),
                             ConfigError, False),
    "distances-weights-tuple": (
        lambda: pairwise_distances(density(0.5), density(0.5), (0.5, 0.5)), ConfigError, False),
    "fused-pair-weights-tuple": (
        lambda: fused_pair_density([(0, 0)], density(0.5), density(0.5), (0.5, 0.5)),
        ConfigError, False),
    # An index outside its density: numpy used to read a negative one from
    # the end, and one past the end ended in a bare IndexError.
    "fused-pair-index-negative": (
        lambda: fused_pair_density([(0, 0), (-1, 0)], density(0.5, 0.5), density(0.5), W),
        ConfigError, False),
    "fused-pair-index-past-end": (
        lambda: fused_pair_density([(0, 1)], density(0.5), density(0.5), W),
        ConfigError, False),
    "cluster-marginals-index-negative": (
        lambda: cluster_pair_marginals(density(0.5), density(0.5, 0.5), W, np.zeros((1, 2)),
                                       (0,), (-1, 0)),
        ConfigError, False),
    "cluster-marginals-index-past-end": (
        lambda: cluster_pair_marginals(density(0.5), density(0.5), W, np.zeros((1, 1)), (1,), (0,)),
        ConfigError, False),
    "fuse-cluster-index-negative": (
        lambda: fuse_cluster(Cluster([-1], [1]), density(0.5, 0.5), density(0.5, 0.5), W,
                             np.zeros((2, 2))),
        ConfigError, False),
    "fuse-cluster-index-past-end": (
        lambda: fuse_cluster(Cluster([0], [2]), density(0.5, 0.5), density(0.5, 0.5), W,
                             np.zeros((2, 2))),
        ConfigError, False),
    "multi-fuse-reduce-config-gm-config": (
        lambda: multi_sensor_fuse([density(0.5)] * 2, [0.5, 0.5], 4.0,
                                  reduce_config=GmReduceConfig()),
        ConfigError, False),
    # The bound gates the oracle's own matrix, so compute_lic checks the gate.
    "bound-gate-nan": (lambda: l1_error_bound(oracle_gmb(), NAN, 4.0), ConfigError, True),
    # A NaN exponent used to give a NaN bound, an infinite one a bound of 0.
    "bound-gamma-nan": (lambda: l1_error_bound(oracle_gmb(), 4.0, NAN), ConfigError, False),
    "bound-gamma-inf": (lambda: l1_error_bound(oracle_gmb(), 4.0, np.inf), ConfigError, False),
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
    # A scenario checks itself when it is built or replaced; these used to
    # build, and failed only when validate() or run_montecarlo ran.
    "scenario-built-duration-0": (lambda: dataclasses.replace(scenario1(), duration=0),
                                  ConfigError, False),
    "scenario-built-gamma-nan": (lambda: dataclasses.replace(scenario1(), gamma=NAN),
                                 ConfigError, False),
    "scenario-built-gamma-0": (lambda: dataclasses.replace(scenario1(), gamma=0.0),
                               ConfigError, False),
    "scenario-built-fusion-node": (lambda: dataclasses.replace(scenario1(), fusion_node=2),
                                   ConfigError, False),
    "scenario-built-asymmetric": (
        lambda: dataclasses.replace(scenario1(), adjacency=(frozenset({1}), frozenset())),
        ConfigError, False),
    "scenario-built-fusion-cap-0": (
        lambda: dataclasses.replace(scenario1(), fusion_max_components=0), ConfigError, False),
    "scenario-built-direct": (
        lambda: ScenarioConfig(**{**vars(scenario1()), "duration": 0}), ConfigError, False),
    # The fusion cap slices too; a fractional one used to end in mb._strongest's TypeError.
    "scenario-fusion-cap-fraction": (
        lambda: run_montecarlo(dataclasses.replace(scenario1(), fusion_max_components=2.5), 1),
        ConfigError, False),
    "scenario-unknown": (lambda: build_scenario("scenario3"), ConfigError, False),
    "scenario-unknown-scale": (lambda: scenario2("huge"), ConfigError, False),
    "metropolis-node": (lambda: metropolis_weights((frozenset({1}), frozenset({0})), 2),
                        ConfigError, False),
    "montecarlo-runs-0": (lambda: run_montecarlo(scenario1(), 0), ConfigError, False),
    "montecarlo-runs-fraction": (lambda: run_montecarlo(scenario1(), 2.5), ConfigError, False),
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
    """FusionWeights alone rules on the weights: gm_pair_product takes every
    pair it builds, and refuses the bare pair, valid or not."""
    w1, w2 = pair
    valid = 0.0 < w1 < 1.0 and 0.0 < w2 < 1.0 and abs(w1 + w2 - 1.0) <= 1e-12
    with pytest.raises(ConfigError):
        gm_pair_product(MIX, MIX, pair)
    if valid:
        gm_pair_product(MIX, MIX, FusionWeights(w1, w2))
        return
    with pytest.raises(ConfigError):
        FusionWeights(w1, w2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(-1.0, 2.0), st.just(NAN)),
       st.one_of(st.floats(-1.0, 10.0), st.just(NAN)),
       st.one_of(st.integers(-2, 4), st.sampled_from([NAN, 2.5, 3.0])))
def test_reduction_parameters_follow_one_rule(prune, merge, cap):
    """GmReduceConfig alone rules on the parameters: gm_reduce takes every
    config it builds, and refuses the bare parameters, valid or not."""
    with pytest.raises(ConfigError):
        gm_reduce(MIX, (prune, merge, cap))
    if prune >= 0 and merge >= 0 and isinstance(cap, int) and cap >= 1:
        gm_reduce(MIX, GmReduceConfig(prune, merge, cap))
        return
    with pytest.raises(ConfigError):
        GmReduceConfig(prune, merge, cap)
