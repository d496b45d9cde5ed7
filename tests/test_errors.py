"""Every documented invalid input of a numeric export raises an MbFuseError.

One row per invalid input: the call, the error type it must raise, and
whether it raised a ValueError before its error was typed. Such a row must
still raise a ValueError, so ``except ValueError`` callers keep working;
ConfigError, InvalidDensityError and DimensionMismatchError derive from
both bases. The file needs numpy, pytest and hypothesis only, so it runs
where scipy is not installed.
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
    ObjectBirth,
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


TOPOLOGY = (frozenset({1}), frozenset({0}))
STATE = np.array([0.0, 0.0, 1.0, 1.0])

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
    # An empty mixture of another dimension used to give an empty product.
    "pair-product-empty-dimensions": (lambda: gm_pair_product(GaussianMixture.empty(3), MIX, W),
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
    # A bool is an int to Python; as a cap or count it used to read as 1 or 0.
    "gm-config-cap-bool": (lambda: GmReduceConfig(max_components=True), ConfigError, False),
    # mb: configs, models, densities, filter
    "mb-config-cap-0": (lambda: MbReduceConfig(max_components=0), ConfigError, False),
    "mb-config-cap-nan": (lambda: MbReduceConfig(max_components=NAN), ConfigError, False),
    "mb-config-cap-fraction": (lambda: MbReduceConfig(max_components=2.5), ConfigError, False),
    "mb-config-cap-bool": (lambda: MbReduceConfig(max_components=True), ConfigError, False),
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
    # An id used to pass through int64: 1.7 and True became 1 and "4" became
    # 4, and ids 1.2 and 1.7 clashed as one repeated id.
    "density-id-fraction": (lambda: MultiBernoulliDensity((component(cid=1.7),)),
                            InvalidDensityError, False),
    "density-id-bool": (lambda: MultiBernoulliDensity((component(cid=True),)),
                        InvalidDensityError, False),
    "density-id-string": (lambda: MultiBernoulliDensity((component(cid="4"),)),
                          InvalidDensityError, False),
    "density-ids-fractions": (
        lambda: MultiBernoulliDensity((component(cid=1.2), component(cid=1.7))),
        InvalidDensityError, True),
    # Accepted, then reduction pruned the -0.5 and rescaled the rest to 1.0,
    # and fusion against a valid track fused nothing.
    "density-negative-weight": (
        lambda: MultiBernoulliDensity((component(pdf=GaussianMixture(
            np.array([1.5, -0.5]), np.zeros((2, 4)), np.stack([np.eye(4)] * 2))),)),
        InvalidDensityError, False),
    # Accepted, then fusion and reduction dropped it and merging raised NumericalError.
    "density-zero-weights": (
        lambda: MultiBernoulliDensity((component(pdf=GaussianMixture(
            np.zeros(2), np.zeros((2, 4)), np.stack([np.eye(4)] * 2))),)),
        InvalidDensityError, False),
    "gm-reduce-negative-weight": (
        lambda: gm_reduce(GaussianMixture(np.array([1.5, -0.5]), MIX.means, MIX.covs),
                          GmReduceConfig()),
        InvalidDensityError, False),
    "pair-product-negative-weight": (
        lambda: gm_pair_product(GaussianMixture(np.array([1.5, -0.5]), MIX.means, MIX.covs),
                                MIX, W),
        InvalidDensityError, False),
    "density-dimensions": (
        lambda: MultiBernoulliDensity((component(), component(pdf=gaussian(np.zeros(2)), cid=1))),
        DimensionMismatchError, False),
    "predict-birth-id-clash": (lambda: mb_predict(density(0.5, 0.4), MOTION, density(0.03)),
                               InvalidDensityError, True),
    # A prior, births or density of another dimension than the model's used
    # to end in numpy's bare ValueError from a matmul or a concatenate.
    "predict-motion-dimensions": (lambda: mb_predict(density(0.5, d=2), MOTION),
                                  DimensionMismatchError, True),
    "predict-births-dimensions": (
        lambda: mb_predict(density(0.5), MOTION,
                           MultiBernoulliDensity((component(pdf=gaussian(np.zeros(2)), cid=1),))),
        DimensionMismatchError, True),
    "update-sensor-dimensions": (lambda: mb_update(density(0.5, d=2), np.zeros((1, 2)), SENSOR),
                                 DimensionMismatchError, True),
    "birth-nan-scan": (lambda: adaptive_birth(np.array([[NAN, 0.0]])), NumericalError, False),
    "birth-scan-shape": (lambda: adaptive_birth(np.zeros((2, 3))), DimensionMismatchError, False),
    # A fractional first id used to give the ids [1, 2].
    "birth-start-id-fraction": (lambda: adaptive_birth(np.zeros((2, 2)), start_id=1.5),
                                ConfigError, False),
    "birth-start-id-bool": (lambda: adaptive_birth(np.zeros((2, 2)), start_id=True),
                            ConfigError, False),
    "update-nan-scan": (lambda: mb_update(density(0.5), np.array([[0.0, NAN]]), SENSOR),
                        NumericalError, False),
    "update-scan-shape": (lambda: mb_update(density(0.5), np.zeros((2, 3)), SENSOR),
                          DimensionMismatchError, False),
    "update-prune-nan": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, NAN),
                         ConfigError, False),
    "update-prune-negative": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, -1e-5),
                              ConfigError, False),
    "update-prune-inf": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, np.inf),
                         ConfigError, False),
    "update-prune-string": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, "1e-5"),
                            ConfigError, False),
    "update-prune-bool": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, True),
                          ConfigError, False),
    "update-prune-complex": (lambda: mb_update(density(0.5), np.zeros((1, 2)), SENSOR, 1e-5j),
                             ConfigError, False),
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
    # True used to count as 1: count_hypotheses_distinct(True, 2) gave 3.
    "distinct-count-bool": (lambda: count_hypotheses_distinct(True, 2), ConfigError, False),
    "nominal-count-bool": (lambda: count_hypotheses_nominal(2, True), ConfigError, False),
    # Each cluster entry used to pass through int(): floats were truncated,
    # bools read as 0 or 1, and a repeated entry was fused twice.
    "cluster-fraction": (lambda: Cluster([0.9, 1.2], [0, 1]), ConfigError, False),
    "cluster-bool": (lambda: Cluster([0], [True]), ConfigError, False),
    "cluster-numpy-bool": (lambda: Cluster(np.array([True, False]), [0, 1]), ConfigError, False),
    "cluster-string": (lambda: Cluster(["0"], [0]), ConfigError, False),
    "cluster-repeat": (lambda: Cluster([0, 0], [0, 1]), ConfigError, False),
    "distances-dimensions": (lambda: pairwise_distances(density(0.5), density(0.5, d=2), W),
                             DimensionMismatchError, False),
    # An empty density of another dimension used to give a (0, 2) result.
    "multi-fuse-empty-dimensions": (
        lambda: multi_sensor_fuse([density(0.5), mb_reduce(density(1e-6, d=2), MbReduceConfig())],
                                  [0.5, 0.5], 4.0),
        DimensionMismatchError, False),
    # A NaN gate fails every bound > gate test, so it would clear every cell.
    "distances-gate-nan": (lambda: pairwise_distances(density(0.5), density(0.5), W, NAN),
                           ConfigError, False),
    # A gate <= 0 clears every cell too, and used to give an all-inf matrix.
    "distances-gate-negative": (lambda: pairwise_distances(density(0.5), density(0.5), W, -5.0),
                                ConfigError, False),
    "distances-gate-negative-inf": (
        lambda: pairwise_distances(density(0.5), density(0.5), W, -np.inf), ConfigError, False),
    "oracle-over-cap": (lambda: naive_gci_mb_fuse(density(*[0.5] * 10), density(*[0.5] * 10), W),
                        IntractableFusionError, False),
    "lic-gamma-0": (lambda: compute_lic(np.zeros((1, 1)), 0.0), ConfigError, True),
    # A NaN gate fails every d <= gamma test, so it would drop every pair.
    "lic-gamma-nan": (lambda: compute_lic(np.zeros((1, 1)), NAN), ConfigError, True),
    # A bool gate used to cluster at 1.0.
    "lic-gamma-bool": (lambda: compute_lic(np.zeros((1, 1)), True), ConfigError, False),
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
    # A pair entry used to pass through int64: (0.7, 1.9) fused pair (0, 1),
    # and (True, False) pair (1, 0).
    "fused-pair-index-fraction": (
        lambda: fused_pair_density([(0.7, 1.9)], density(0.5, 0.5), density(0.5, 0.5), W),
        ConfigError, False),
    "fused-pair-index-bool": (
        lambda: fused_pair_density([(True, False)], density(0.5, 0.5), density(0.5, 0.5), W),
        ConfigError, False),
    # A repeated index used to fuse one Bernoulli twice and a bool to read as
    # index 0 or 1; a fractional index ended in a bare IndexError.
    "cluster-marginals-repeat": (
        lambda: cluster_pair_marginals(density(0.5, 0.5), density(0.5, 0.5), W, np.zeros((2, 2)),
                                       [0, 0], [0, 1]),
        ConfigError, False),
    "cluster-marginals-bool": (
        lambda: cluster_pair_marginals(density(0.5, 0.5), density(0.5, 0.5), W, np.zeros((2, 2)),
                                       [True], [0]),
        ConfigError, False),
    "cluster-marginals-fraction": (
        lambda: cluster_pair_marginals(density(0.5, 0.5), density(0.5, 0.5), W, np.zeros((2, 2)),
                                       [0.5], [0]),
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
    # The bound gates the oracle's own matrix at gamma, so compute_lic checks
    # it. A NaN exponent used to give a NaN bound; a gamma <= 0 in the
    # exponent alone gave a bound, though no gate can cut there.
    "bound-gamma-nan": (lambda: l1_error_bound(oracle_gmb(), NAN), ConfigError, False),
    "bound-gamma-0": (lambda: l1_error_bound(oracle_gmb(), 0.0), ConfigError, False),
    "bound-gamma-negative": (lambda: l1_error_bound(oracle_gmb(), -1.0), ConfigError, False),
    # A matrix of another shape used to end in a bare IndexError; a NaN
    # block gave an empty density.
    "fuse-cluster-distances-1x1": (
        lambda: fuse_cluster(Cluster([0, 1], [0, 1]), density(0.5, 0.5), density(0.5, 0.5), W,
                             np.zeros((1, 1))),
        ConfigError, False),
    "fuse-cluster-distances-1d": (
        lambda: fuse_cluster(Cluster([0, 1], [0, 1]), density(0.5, 0.5), density(0.5, 0.5), W,
                             np.zeros(2)),
        ConfigError, False),
    "fuse-cluster-distances-nan": (
        lambda: fuse_cluster(Cluster([0, 1], [0, 1]), density(0.5, 0.5), density(0.5, 0.5), W,
                             np.full((2, 2), NAN)),
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
    # With one posterior no fusion ran, so nothing read gamma, and a NaN one
    # returned the posterior.
    "multi-fuse-one-gamma-nan": (lambda: multi_sensor_fuse([density(0.5)], [1.0], NAN),
                                 ConfigError, False),
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
    # A negative or fractional seed used to build, then fail in run_montecarlo.
    "scenario-built-seed-negative": (lambda: dataclasses.replace(scenario1(), base_seed=-1),
                                     ConfigError, False),
    "scenario-built-seed-fraction": (lambda: dataclasses.replace(scenario1(), base_seed=1.5),
                                     ConfigError, False),
    "scenario-built-seed-bool": (lambda: dataclasses.replace(scenario1(), base_seed=True),
                                 ConfigError, False),
    "scenario-built-fusion-cap-bool": (
        lambda: dataclasses.replace(scenario1(), fusion_max_components=True), ConfigError, False),
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
    # A bool node used to read as node 0 or 1; a fractional one ended in a
    # bare TypeError.
    "metropolis-node-bool": (lambda: metropolis_weights(TOPOLOGY, True), ConfigError, False),
    "metropolis-node-fraction": (lambda: metropolis_weights(TOPOLOGY, 0.5), ConfigError, False),
    # These used to build: a bool node or neighbour as sensor 0 or 1, and a
    # fractional node, duration or birth step, which run_montecarlo then met
    # with a bare TypeError. A fractional neighbour failed at build with one.
    "scenario-built-fusion-node-bool": (lambda: dataclasses.replace(scenario1(), fusion_node=True),
                                        ConfigError, False),
    "scenario-built-fusion-node-fraction": (
        lambda: dataclasses.replace(scenario1(), fusion_node=0.5), ConfigError, False),
    "scenario-built-adjacency-bool": (
        lambda: dataclasses.replace(scenario1(), adjacency=(frozenset({True}), frozenset({False}))),
        ConfigError, False),
    "scenario-built-adjacency-fraction": (
        lambda: dataclasses.replace(scenario1(), adjacency=(frozenset({1.0}), frozenset({0}))),
        ConfigError, False),
    "scenario-built-duration-fraction": (
        lambda: dataclasses.replace(scenario1(), duration=2.5, births=()), ConfigError, False),
    "scenario-built-birth-fraction": (
        lambda: dataclasses.replace(scenario1(), births=(ObjectBirth(0.5, 3, STATE),)),
        ConfigError, False),
    "montecarlo-runs-0": (lambda: run_montecarlo(scenario1(), 0), ConfigError, False),
    "montecarlo-runs-fraction": (lambda: run_montecarlo(scenario1(), 2.5), ConfigError, False),
    "montecarlo-runs-bool": (lambda: run_montecarlo(scenario1(), True), ConfigError, False),
    "ospa-nan": (lambda: ospa(np.array([[NAN, 0.0]]), np.zeros((1, 2))), ConfigError, True),
    "ospa-shape": (lambda: ospa(np.zeros((2, 3)), np.zeros((1, 2))), ConfigError, True),
}

# Every entry that takes a gate, as a call of the gate alone.
GATE_ENTRIES = {
    "lic": lambda gate: compute_lic(np.array([[0.5, 3.0], [7.0, 1.0]]), gate),
    "distances": lambda gate: pairwise_distances(density(0.5, 0.6), density(0.7, 0.4), W, gate),
    "merge": lambda gate: mb_merge_components(density(0.5, 0.6), gate),
    "scenario": lambda gate: dataclasses.replace(scenario1(), gamma=gate),
    "pgci": lambda gate: pgci_fuse(density(0.5, 0.6), density(0.7, 0.4), W, gate),
    "bound": lambda gate: l1_error_bound(oracle_gmb(), gate),
    "multi-fuse-one": lambda gate: multi_sensor_fuse([density(0.5)], [1.0], gate),
    "multi-fuse-two": lambda gate: multi_sensor_fuse([density(0.5, 0.6), density(0.7, 0.4)],
                                                     [0.5, 0.5], gate),
}
# A string or None gate used to end in a bare TypeError from a comparison;
# with one posterior, multi_sensor_fuse returned it without reading gamma.
INVALID.update({
    f"{entry}-gate-{label}": (lambda call=call, gate=gate: call(gate), ConfigError, False)
    for entry, call in GATE_ENTRIES.items() for label, gate in (("string", "4"), ("none", None))
})


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


def index_entries(lo=-2, hi=4):
    """Index candidates of every kind a caller may pass, from lo to hi, so
    negative and past-the-end ones too: Python and numpy ints, integral and
    fractional floats, Python and numpy bools, and numeric strings."""
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(np.int64), ints.map(np.int32), ints.map(float),
                     st.floats(lo, hi).filter(lambda v: not v.is_integer()),
                     st.booleans(), st.booleans().map(np.bool_), ints.map(str))


def is_index(v, n):
    return type(v) in (int, np.int64, np.int32) and 0 <= v < n


def is_index_set(values, n):
    return all(is_index(v, n) for v in values) and len({int(v) for v in values}) == len(values)


def stack_bytes(result):
    """The bytes of every array of a density, or of a tuple of arrays."""
    arrays = result.stack if isinstance(result, MultiBernoulliDensity) else result
    return [np.asarray(a).tobytes() for a in arrays]


MB1, MB2 = density(0.5, 0.6, 0.7), density(0.7, 0.4, 0.3)
DISTANCES = pairwise_distances(MB1, MB2, W)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(index_entries(), index_entries()), max_size=3), st.booleans())
def test_pair_indices_follow_one_rule(pairs, as_array):
    """fused_pair_density takes a pair of integers in range, listed or as an
    integer array, to the bits of the int64 array of the same pairs, and
    raises ConfigError for any other entry."""
    mb2 = density(0.7, 0.4)
    if not all(is_index(a, 3) and is_index(b, 2) for a, b in pairs):
        with pytest.raises(ConfigError):
            fused_pair_density(pairs, MB1, mb2, W)
        return
    canonical = np.array([(int(a), int(b)) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    given_pairs = canonical.astype(np.int32) if as_array else pairs
    assert (stack_bytes(fused_pair_density(given_pairs, MB1, mb2, W))
            == stack_bytes(fused_pair_density(canonical, MB1, mb2, W)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(index_entries(), min_size=1, max_size=3),
       st.lists(index_entries(), min_size=1, max_size=3))
def test_cluster_indices_follow_one_rule(l1, l2):
    """cluster_pair_marginals, Cluster and fuse_cluster take index sets of
    integers, in range where a density bounds them, and raise ConfigError
    for any other; valid sets give the bits of the same sets of ints."""
    def ints(values):
        return [int(v) for v in values]

    if is_index_set(l1, 3) and is_index_set(l2, 3):
        marginal, log_eta = cluster_pair_marginals(MB1, MB2, W, DISTANCES, l1, l2)
        want = cluster_pair_marginals(MB1, MB2, W, DISTANCES, ints(l1), ints(l2))
        assert marginal.tobytes() == want[0].tobytes() and log_eta == want[1]
    else:
        with pytest.raises(ConfigError):
            cluster_pair_marginals(MB1, MB2, W, DISTANCES, l1, l2)
    if not (is_index_set(l1, np.inf) and is_index_set(l2, np.inf)):
        with pytest.raises(ConfigError):
            Cluster(l1, l2)
        return
    cluster = Cluster(l1, l2)
    assert (cluster.l1, cluster.l2) == (tuple(sorted(ints(l1))), tuple(sorted(ints(l2))))
    assert all(type(v) is int for v in cluster.l1 + cluster.l2)
    if max(cluster.l1 + cluster.l2) >= 3:
        with pytest.raises(ConfigError):
            fuse_cluster(cluster, MB1, MB2, W, DISTANCES)
        return
    got = fuse_cluster(cluster, MB1, MB2, W, DISTANCES)
    want = fuse_cluster(Cluster(ints(l1), ints(l2)), MB1, MB2, W, DISTANCES)
    assert stack_bytes(got.density) == stack_bytes(want.density)
    assert got.log_eta == want.log_eta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_entries(-1, 3), index_entries(-1, 3), index_entries(-1, 3),
       index_entries(-1, 70), index_entries(-1, 70))
def test_network_and_step_indices_follow_one_rule(node, e, f, birth, death):
    """metropolis_weights and every index field of ScenarioConfig (the
    fusion node, a neighbour, a birth's steps and the duration) take
    integers in range alone, and raise ConfigError for any other entry."""
    path = (frozenset({1}), frozenset({0, 2}), frozenset({1}))
    if is_index(node, 3):
        assert metropolis_weights(path, node) == metropolis_weights(path, int(node))
    else:
        with pytest.raises(ConfigError):
            metropolis_weights(path, node)
    base = scenario1()
    steps = is_index(birth, 66) and is_index(death, 66) and birth < death
    changes = (
        ({"fusion_node": node}, is_index(node, 2)),
        ({"adjacency": (frozenset({e}), frozenset({f}))},
         is_index(e, 2) and is_index(f, 2) and (e, f) == (1, 0)),
        ({"births": (ObjectBirth(birth, death, STATE),)}, steps),
        ({"duration": birth, "births": ()}, is_index(birth, np.inf) and birth >= 1),
    )
    for change, valid in changes:
        if valid:
            cfg = dataclasses.replace(base, **change)
            assert all(getattr(cfg, k) is v for k, v in change.items())
        else:
            with pytest.raises(ConfigError):
                dataclasses.replace(base, **change)


floats = st.floats(allow_nan=True, allow_infinity=True)
gates = st.one_of(floats, floats.map(np.float64), st.integers(-3, 6),
                  st.integers(-3, 6).map(np.int64), st.booleans(), st.booleans().map(np.bool_),
                  st.sampled_from(["4", "inf", None]))


def gate_result(entry, gate):
    """An entry's output at gate, as comparable values."""
    result = GATE_ENTRIES[entry](gate)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, MultiBernoulliDensity):
        return stack_bytes(result)
    if entry == "scenario":
        return result.gamma
    if entry == "pgci":
        return stack_bytes(result[0]), result[1]
    return result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gates)
def test_gates_follow_one_rule(gate):
    """Every gate entry takes a real above 0, inf included, and not a bool,
    to the bits it gives at the same value as a Python float; any other gate
    raises ConfigError, NaN included."""
    valid = type(gate) in (float, np.float64, int, np.int64) and gate > 0
    for entry in GATE_ENTRIES:
        if valid:
            assert gate_result(entry, gate) == gate_result(entry, float(gate)), entry
        else:
            with pytest.raises(ConfigError):
                GATE_ENTRIES[entry](gate)
