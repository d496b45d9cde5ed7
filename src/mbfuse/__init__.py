"""Distributed multi-object tracking with clustered multi-Bernoulli fusion.

Layers, bottom to top:

- ``gm``: Gaussian-mixture algebra (powers, pairwise products, reduction).
- ``mb``: multi-Bernoulli density (one flat stack of its Gaussians), motion
  and sensor models, the cardinality-balanced filter recursion batched over
  the stack.
- ``gci``: weighted geometric-mean fusion of two multi-Bernoulli densities:
  exact association marginals by a subset DP, and exhaustive hypothesis
  enumeration (the correctness oracle).
- ``clustering``: divergence gating and the largest isolated clustering,
  the connected components of the bipartite gate graph.
- ``pgci``: per-cluster fusion, exact when no hypotheses cross clusters,
  with its hypothesis counts, plus the truncation error bound.
- ``sim``: scenarios, sensor networks, Monte-Carlo driver, OSPA metric.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    IncompatiblePairError,
    IntractableFusionError,
    InvalidDensityError,
    MbFuseError,
    NumericalError,
)
from .gm import (
    GaussianMixture,
    GmReduceConfig,
    gm_pair_product,
    gm_reduce,
)
from .mb import (
    BernoulliComponent,
    MbReduceConfig,
    MotionModel,
    MultiBernoulliDensity,
    Rectangle,
    SensorModel,
    adaptive_birth,
    extract_estimates,
    mb_predict,
    mb_reduce,
    mb_update,
)
from .gci import (
    FusionWeights,
    GmbDensity,
    count_hypotheses_distinct,
    count_hypotheses_nominal,
    fused_pair_density,
    naive_gci_mb_fuse,
    pairwise_distances,
)
from .clustering import (
    Cluster,
    compute_lic,
)
from .pgci import (
    FusionDiagnostics,
    l1_error_bound,
    multi_sensor_fuse,
    pgci_fuse,
)
from .sim import (
    MonteCarloResult,
    ObjectBirth,
    ScenarioConfig,
    build_scenario,
    generate_measurements,
    generate_truth,
    metropolis_weights,
    ospa,
    run_local_filter,
    run_montecarlo,
    scenario1,
    scenario2,
)

__version__ = "0.1.0"
