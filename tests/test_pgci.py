"""Clustered fusion pipeline: equivalence with the exhaustive oracle,
normalization factorization, hypothesis-count bookkeeping, the truncation
error bound, multi-sensor chaining, and component condensation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbfuse.cli as cli_mod
import mbfuse.gci as gci_mod
import mbfuse.gm as gm_mod
import mbfuse.pgci as pgci_mod
from mbfuse.clustering import Cluster, compute_lic
from mbfuse.errors import (
    IntractableFusionError,
    InvalidDensityError,
    MbFuseError,
    NumericalError,
)
from mbfuse.gci import (
    FusionWeights,
    cluster_pair_marginals,
    count_hypotheses_distinct,
    naive_gci_mb_fuse,
    pairwise_distances,
)
from mbfuse.gm import GaussianMixture
from mbfuse.mb import (
    BernoulliComponent,
    GmReduceConfig,
    MbReduceConfig,
    MultiBernoulliDensity,
    mb_merge_components,
)
from mbfuse.pgci import (
    fuse_cluster,
    l1_error_bound,
    multi_sensor_fuse,
    pgci_fuse,
)
import oracle
from oracle import cluster_log_eta, inter_cluster_hypotheses

W = FusionWeights(0.5, 0.5)


def bern(r, mean, cov=None, comp_id=0, d=2):
    mean = np.asarray(mean, dtype=float)
    cov = np.eye(d) if cov is None else np.asarray(cov, dtype=float)
    pdf = GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])
    return BernoulliComponent(r=r, pdf=pdf, id=comp_id)


def clustered_instance(rng, n_clusters, max_per_side=2, spacing=1000.0, symmetric=False):
    """Random MB pair whose components form well-separated spatial groups.

    With ``symmetric`` both sensors get equally many components per group, so
    the moment-matched side is the same whether roles are swapped globally
    (exhaustive path) or per cluster (clustered path).
    """
    comps1, comps2 = [], []
    for g in range(n_clusters):
        center = np.array([g * spacing, -g * spacing])
        n1 = int(rng.integers(1, max_per_side + 1))
        n2 = n1 if symmetric else int(rng.integers(1, max_per_side + 1))
        for _ in range(n1):
            comps1.append(
                bern(rng.uniform(0.2, 0.9), center + rng.normal(0, 1, 2), comp_id=len(comps1))
            )
        for _ in range(n2):
            comps2.append(
                bern(rng.uniform(0.2, 0.9), center + rng.normal(0, 1, 2), comp_id=len(comps2))
            )
    return MultiBernoulliDensity(tuple(comps1)), MultiBernoulliDensity(tuple(comps2))


def random_mb(rng, n, spread=10.0):
    comps = [
        bern(rng.uniform(0.1, 0.9), rng.uniform(-spread, spread, 2), comp_id=i)
        for i in range(n)
    ]
    return MultiBernoulliDensity(tuple(comps))


class TestOracleEquivalence:
    def test_infinite_gate_matches_exhaustive(self):
        # With every pair gated there is a single cluster and the clustered
        # pipeline enumerates exactly the exhaustive hypothesis set.
        rng = np.random.default_rng(21)
        for _ in range(30):
            mb1 = random_mb(rng, int(rng.integers(1, 5)))
            mb2 = random_mb(rng, int(rng.integers(1, 5)))
            naive, _ = naive_gci_mb_fuse(mb1, mb2, W)
            fused, _ = pgci_fuse(mb1, mb2, W, gamma=1e18)
            assert sorted(c.r for c in fused.components) == pytest.approx(
                sorted(c.r for c in naive.components), rel=1e-9
            )

    def test_separated_clusters_match_exhaustive(self):
        # Cross-cluster weights underflow to exactly zero at this spacing,
        # so truncation removes nothing and the results coincide.
        rng = np.random.default_rng(22)
        for _ in range(20):
            mb1, mb2 = clustered_instance(rng, int(rng.integers(2, 4)), symmetric=True)
            naive, _ = naive_gci_mb_fuse(mb1, mb2, W)
            fused, diag = pgci_fuse(mb1, mb2, W, gamma=4.0)
            assert len(diag.cluster_sizes) >= 2
            assert sorted(c.r for c in fused.components) == pytest.approx(
                sorted(c.r for c in naive.components), rel=1e-9
            )

    def test_fused_pdfs_match_componentwise(self):
        rng = np.random.default_rng(23)
        mb1, mb2 = clustered_instance(rng, 2, symmetric=True)
        naive, _ = naive_gci_mb_fuse(mb1, mb2, W)
        fused, _ = pgci_fuse(mb1, mb2, W, gamma=4.0)
        got = sorted(fused.components, key=lambda c: c.r)
        want = sorted(naive.components, key=lambda c: c.r)
        for a, b in zip(got, want):
            assert a.pdf.means == pytest.approx(b.pdf.means, rel=1e-9, abs=1e-9)
            assert a.pdf.covs == pytest.approx(b.pdf.covs, rel=1e-9)
            assert a.pdf.weights == pytest.approx(b.pdf.weights, rel=1e-9)


class TestEtaFactorization:
    def test_total_eta_is_product_of_cluster_etas(self):
        # [DERIVED] with truly isolated clusters, the exhaustive
        # normalization factorizes over clusters (incl. one-sided ones).
        rng = np.random.default_rng(31)
        for _ in range(20):
            mb1, mb2 = clustered_instance(rng, int(rng.integers(2, 4)))
            _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
            D = pairwise_distances(mb1, mb2, W)
            lic = compute_lic(D, 4.0)
            assert len(lic) >= 2
            from mbfuse.pgci import fuse_cluster

            total = 0.0
            for cluster in lic:
                if cluster.l1 and cluster.l2:
                    total += fuse_cluster(cluster, mb1, mb2, W, D).log_eta
                else:
                    total += cluster_log_eta(cluster, mb1, mb2, W)
            assert total == pytest.approx(gmb.log_eta, rel=1e-9)


@st.composite
def embedded_cluster(draw):
    """A 1x1 to 3x3 two-sided cluster behind one far-away decoy per sensor.

    Returns (mb1, mb2, weights, cluster); the cluster holds every component
    but the decoy at index 0, so its indices are not 0-based.
    """
    r = st.floats(0.05, 0.95)
    coord = st.floats(-5.0, 5.0)
    var = st.floats(0.5, 4.0)

    def side(n, decoy):
        comps = [bern(draw(r), decoy, comp_id=0)]
        for i in range(1, n + 1):
            cov = np.diag([draw(var), draw(var)])
            comps.append(bern(draw(r), [draw(coord), draw(coord)], cov, comp_id=i))
        return MultiBernoulliDensity(tuple(comps))

    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w1 = draw(st.floats(0.1, 0.9))
    cluster = Cluster(frozenset(range(1, n1 + 1)), frozenset(range(1, n2 + 1)))
    return side(n1, [1e3, 1e3]), side(n2, [-1e3, -1e3]), FusionWeights(w1, 1.0 - w1), cluster


class TestClusterFusionProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(embedded_cluster())
    def test_role_swap_and_oracle(self, instance):
        mb1, mb2, w, cluster = instance
        D = pairwise_distances(mb1, mb2, w)
        direct = fuse_cluster(cluster, mb1, mb2, w, D)
        swapped = fuse_cluster(Cluster(cluster.l2, cluster.l1), mb2, mb1, w.swapped(), D.T)
        sub1 = MultiBernoulliDensity(tuple(mb1.components[l] for l in sorted(cluster.l1)))
        sub2 = MultiBernoulliDensity(tuple(mb2.components[l] for l in sorted(cluster.l2)))
        naive, gmb = naive_gci_mb_fuse(sub1, sub2, w)

        # eta >= the empty hypothesis' weight, which r <= 0.95 keeps far from
        # 0, so rel 1e-12 on eta bounds the absolute error of log eta.
        eta = math.exp(direct.log_eta)
        assert math.exp(swapped.log_eta) == pytest.approx(eta, rel=1e-12)
        assert math.exp(gmb.log_eta) == pytest.approx(eta, rel=1e-12)
        # The oracle moment-matches onto the smaller side.
        oriented = direct if len(cluster.l1) <= len(cluster.l2) else swapped
        assert [c.r for c in oriented.components] == pytest.approx(
            [c.r for c in naive.components], rel=1e-12
        )
        for result in (direct, swapped):
            assert all(0.0 <= c.r <= 1.0 for c in result.components)


@st.composite
def dp_cluster(draw):
    """A 1x1 to 5x6 two-sided cluster, in either orientation, behind one
    far-away decoy per sensor (so cluster indices are not 0-based).

    Returns (mb1, mb2, weights, cluster).
    """
    r = st.floats(0.02, 0.98)
    coord = st.floats(-5.0, 5.0)
    var = st.floats(0.5, 4.0)

    def side(n, decoy):
        comps = [bern(draw(r), decoy, comp_id=0)]
        for i in range(1, n + 1):
            cov = np.diag([draw(var), draw(var)])
            comps.append(bern(draw(r), [draw(coord), draw(coord)], cov, comp_id=i))
        return MultiBernoulliDensity(tuple(comps))

    n_s, n_l = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    n1, n2 = (n_l, n_s) if draw(st.booleans()) else (n_s, n_l)
    w1 = draw(st.floats(0.1, 0.9))
    cluster = Cluster(frozenset(range(1, n1 + 1)), frozenset(range(1, n2 + 1)))
    return side(n1, [1e3, 1e3]), side(n2, [-1e3, -1e3]), FusionWeights(w1, 1.0 - w1), cluster


def sub_density(mb, idx):
    return MultiBernoulliDensity(tuple(mb.components[l] for l in idx))


class TestSubsetDp:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dp_cluster())
    def test_dp_matches_enumeration(self, instance):
        mb1, mb2, w, cluster = instance
        D = pairwise_distances(mb1, mb2, w)
        l1, l2 = sorted(cluster.l1), sorted(cluster.l2)
        marginal, log_eta = cluster_pair_marginals(mb1, mb2, w, D, l1, l2)
        naive, gmb = naive_gci_mb_fuse(sub_density(mb1, l1), sub_density(mb2, l2), w)

        enumerated = np.zeros((len(l1), len(l2)))
        for pairs, wn in zip(oracle.hypothesis_pairs(gmb.targets), gmb.w):
            for a, b in pairs:
                enumerated[(b, a) if len(l1) > len(l2) else (a, b)] += wn
        assert marginal.shape == enumerated.shape
        assert marginal == pytest.approx(enumerated, abs=1e-12)
        # The abs term only matters where log eta is ~0 (eta ~1); there it
        # is rel 1e-12 on eta.
        assert log_eta == pytest.approx(gmb.log_eta, rel=1e-12, abs=1e-12)
        if len(l1) <= len(l2):
            # The oracle moment-matches onto the smaller side.
            fused = fuse_cluster(cluster, mb1, mb2, w, D)
            assert [c.r for c in fused.components] == pytest.approx(
                [c.r for c in naive.components], abs=1e-9
            )

    def test_six_by_six_cluster_under_default_cap(self):
        rng = np.random.default_rng(71)
        mb1 = random_mb(rng, 6, spread=3.0)
        mb2 = random_mb(rng, 6, spread=3.0)
        D = pairwise_distances(mb1, mb2, W)
        cluster = Cluster(frozenset(range(6)), frozenset(range(6)))
        result = fuse_cluster(cluster, mb1, mb2, W, D)
        naive, gmb = naive_gci_mb_fuse(mb1, mb2, W)
        assert len(result.components) == len(naive.components) == 6
        assert result.log_eta == pytest.approx(gmb.log_eta, rel=1e-12)
        for a, b in zip(result.components, naive.components):
            assert a.r == pytest.approx(b.r, abs=1e-9)
            assert a.pdf.weights == pytest.approx(b.pdf.weights, rel=1e-9)
            assert a.pdf.means == pytest.approx(b.pdf.means, rel=1e-9, abs=1e-9)
            assert a.pdf.covs == pytest.approx(b.pdf.covs, rel=1e-9)

    def test_cap_bounds_dp_steps(self, monkeypatch):
        rng = np.random.default_rng(72)
        mb1 = random_mb(rng, 3, spread=3.0)
        mb2 = random_mb(rng, 3, spread=3.0)
        D = pairwise_distances(mb1, mb2, W)
        cluster = Cluster(frozenset(range(3)), frozenset(range(3)))
        steps = 3 * 3 * 2**3
        monkeypatch.setattr(gci_mod, "DP_STEP_CAP", steps - 1)
        with pytest.raises(IntractableFusionError) as err:
            fuse_cluster(cluster, mb1, mb2, W, D)
        assert (err.value.count, err.value.cap) == (steps, steps - 1)
        monkeypatch.setattr(gci_mod, "DP_STEP_CAP", steps)
        assert len(fuse_cluster(cluster, mb1, mb2, W, D).components) == 3


# Group shapes (components on side 1, on side 2) of mixed_clusters.
MIXED = [(1, 1), (1, 1), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 0), (0, 1)]
NO_1X1 = [shape for shape in MIXED if shape != (1, 1)]


@st.composite
def mixed_clusters(draw, shapes=MIXED, min_groups=1):
    """Two densities whose components sit in far-apart groups of the given
    shapes, min_groups to 8 of them, each group one cluster. By default
    most clusters are 1x1 and some are larger or one-sided.

    Components hold 1 to 3 Gaussians. Some 1x1 groups get existence
    probabilities of 0 or 1e-300, whose pair marginal falls below the
    1e-300 at which fusion drops a pair. Returns (mb1, mb2, w, gamma,
    gm_config).
    """
    r = st.sampled_from([0.3, 0.6, 0.9, 0.999]) | st.floats(0.02, 0.98)
    tiny = st.sampled_from([0.0, 1e-300])
    var = st.sampled_from([0.5, 1.0, 4.0])
    sides = ([], [])
    for g in range(draw(st.integers(min_groups, 8))):
        center = np.array([1e3 * g, -1e3 * g])
        sizes = draw(st.sampled_from(shapes))
        underflow = sizes == (1, 1) and draw(st.integers(0, 5)) == 0
        for comps, n in zip(sides, sizes):
            for _ in range(n):
                j = draw(st.integers(1, 3))
                means = center + np.array(
                    draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * j, max_size=2 * j))
                ).reshape(j, 2)
                covs = np.array([np.diag([draw(var), draw(var)]) for _ in range(j)])
                weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=j, max_size=j)))
                pdf = GaussianMixture(weights / weights.sum(), means, covs)
                comps.append(BernoulliComponent(
                    r=draw(tiny if underflow else r), pdf=pdf, id=len(comps)
                ))
    w1 = draw(st.floats(0.1, 0.9))
    gm_config = draw(st.none() | st.builds(
        GmReduceConfig, st.sampled_from([0.0, 1e-5, 0.05]), st.sampled_from([0.0, 4.0]),
        st.integers(1, 4),
    ))
    mb1, mb2 = (MultiBernoulliDensity(tuple(c)) for c in sides)
    return mb1, mb2, FusionWeights(w1, 1.0 - w1), draw(st.sampled_from([4.0, 20.0])), gm_config


def assert_identical(got, want):
    """Every stack array equal in dtype, shape and value, empty ones too."""
    for name, a, b in zip(want.stack._fields, got.stack, want.stack):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def check_against_reference(instance):
    """pgci_fuse against oracle.pgci_fuse, which sends every two-sided
    cluster through fuse_cluster and assembles the components one object
    at a time. Returns pgci_fuse's (fused, diagnostics)."""
    mb1, mb2, w, gamma, gm_config = instance
    got, diag = pgci_fuse(mb1, mb2, w, gamma, gm_config=gm_config)
    assert_identical(got, oracle.pgci_fuse(mb1, mb2, w, gamma, gm_config))
    return got, diag


class TestIsolatedPairBatch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_clusters())
    def test_pgci_fuse_matches_per_cluster_loop(self, instance):
        check_against_reference(instance)

    def test_all_1x1_fusion_multiplies_only_its_gaussian_pairs(self, monkeypatch):
        # Far-apart groups of one component per side, each pdf of 1 to 4
        # Gaussians near the group's center, so every cluster is 1x1.
        rng = np.random.default_rng(5)
        sides = ([], [])
        for g in range(6):
            for comps in sides:
                j = int(rng.integers(1, 5))
                means = np.array([1e3 * g, -1e3 * g]) + rng.uniform(-1.0, 1.0, (j, 2))
                pdf = GaussianMixture(np.full(j, 1.0 / j), means, np.tile(np.eye(2), (j, 1, 1)))
                comps.append(BernoulliComponent(r=rng.uniform(0.2, 0.9), pdf=pdf, id=g))
        mb1, mb2 = (MultiBernoulliDensity(tuple(c)) for c in sides)

        def cross_product(*args, **kwargs):
            raise AssertionError("a 1x1 cluster went through the cross-product path")

        monkeypatch.setattr(gm_mod, "gm_pair_product", cross_product)
        monkeypatch.setattr(gci_mod, "gm_pair_product", cross_product)
        monkeypatch.setattr(gci_mod, "fused_pair_density", cross_product)
        pair_counts = []
        kernel = gci_mod._pair_product_parts

        def counting_kernel(stack1, stack2, w, i1, i2):
            pair_counts.append(len(i1))
            return kernel(stack1, stack2, w, i1, i2)

        monkeypatch.setattr(gci_mod, "_pair_product_parts", counting_kernel)
        fused, diag = pgci_fuse(mb1, mb2, W, gamma=4.0)
        assert diag.cluster_sizes == [(1, 1)] * 6
        assert len(fused) == 6
        assert pair_counts == [sum(
            a.pdf.n_components * b.pdf.n_components
            for a, b in zip(mb1.components, mb2.components)
        )]


class TestAssemblyAgainstReference:
    """pgci_fuse, its 1x1 batch and its stable gather, against
    oracle.pgci_fuse on each shape family."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_clusters([(1, 1)]))
    def test_all_1x1(self, instance):
        check_against_reference(instance)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_clusters(NO_1X1))
    def test_no_1x1_cluster(self, instance):
        _, diag = check_against_reference(instance)
        assert (1, 1) not in diag.cluster_sizes

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_clusters())
    def test_mixed(self, instance):
        _, diag = check_against_reference(instance)
        # Every two-sided cluster but a 1x1 runs the subset DP.
        steps = [min(n) * max(n) * 2 ** min(n) for n in diag.cluster_sizes if n != (1, 1)]
        assert diag.dp_steps == max(steps, default=0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(mixed_clusters([(1, 0), (0, 1)], min_groups=0))
    def test_empty_and_one_sided(self, instance):
        got, _ = check_against_reference(instance)
        assert len(got) == 0

    def test_dropped_pairs_leave_gaps_in_the_batch(self):
        # Five 1x1 clusters and one 2x2; the second and fourth pairs carry
        # r = 0 on one side, so the batch keeps pairs 0, 2 and 4 only.
        rs1 = [0.8, 0.0, 0.7, 0.9, 0.6, 0.5, 0.4]
        rs2 = [0.7, 0.8, 0.6, 0.0, 0.9, 0.5, 0.6]
        groups = [0, 1, 2, 3, 4, 5, 5]
        mb1, mb2 = (
            MultiBernoulliDensity(tuple(
                bern(r, [1e3 * g + 0.5 * side * (i % 2), 0.0], comp_id=i)
                for i, (r, g) in enumerate(zip(rs, groups))
            ))
            for side, rs in enumerate((rs1, rs2))
        )
        got, diag = check_against_reference((mb1, mb2, W, 4.0, GmReduceConfig()))
        assert diag.cluster_sizes == [(1, 1)] * 5 + [(2, 2)]
        assert got.stack.ids.tolist() == list(range(5))

    @pytest.mark.parametrize("decoys", [0, 1], ids=["as-given", "swapped"])
    def test_cleared_cell_inside_a_cluster_is_refilled(self, decoys):
        # A 2x2 chain 5.5 apart along x: each link lies 5.5^2 / 8 = 3.8
        # inside the gate, and the corner 16.5 apart (exact 34.0) is cleared
        # by the bound, 7.8 against the gate 4 plus the margin 1. The DP
        # reads the corner, so it must see the exact value. A far decoy on
        # sensor 1 swaps the roles, so the refill writes through the
        # transposed matrix.
        mb1 = MultiBernoulliDensity((bern(0.9, [0.0, 0.0], comp_id=0),
                                     bern(0.7, [11.0, 0.0], comp_id=1))
                                    + (bern(0.5, [1e3, 0.0], comp_id=2),) * decoys)
        mb2 = MultiBernoulliDensity((bern(0.8, [5.5, 0.0], comp_id=0),
                                     bern(0.6, [16.5, 0.0], comp_id=1)))
        gated = pairwise_distances(mb1, mb2, W, 4.0)
        assert np.isinf(gated[0, 1]) and np.isfinite(np.delete(gated[:2].ravel(), 1)).all()
        assert compute_lic(gated, 4.0)[0] == Cluster([0, 1], [0, 1])
        _, diag = check_against_reference((mb1, mb2, W, 4.0, None))
        assert diag.cluster_sizes == [(2, 2)] and diag.far_cells == 1 + 2 * decoys
        # Only the corner is refilled: the decoys' cells lie outside the cluster.
        assert diag.refilled_cells == 1
        assert diag.dp_steps == 2 * 2 * 2**2


@st.composite
def mixture_cluster(draw):
    """A 1x1 to 4x5 two-sided cluster, in either orientation, behind one
    far-away decoy per sensor, whose pdfs hold 1 to 4 Gaussians.

    Returns (mb1, mb2, weights, cluster).
    """
    r = st.floats(0.02, 0.98)
    coord = st.floats(-5.0, 5.0)
    var = st.sampled_from([0.5, 1.0, 4.0])

    def side(n, decoy):
        comps = [bern(draw(r), decoy, comp_id=0)]
        for i in range(1, n + 1):
            j = draw(st.integers(1, 4))
            means = np.array(draw(st.lists(coord, min_size=2 * j, max_size=2 * j))).reshape(j, 2)
            covs = np.array([np.diag([draw(var), draw(var)]) for _ in range(j)])
            weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=j, max_size=j)))
            pdf = GaussianMixture(weights / weights.sum(), means, covs)
            comps.append(BernoulliComponent(r=draw(r), pdf=pdf, id=i))
        return MultiBernoulliDensity(tuple(comps))

    n_s, n_l = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n1, n2 = (n_l, n_s) if draw(st.booleans()) else (n_s, n_l)
    w1 = draw(st.floats(0.1, 0.9))
    cluster = Cluster(frozenset(range(1, n1 + 1)), frozenset(range(1, n2 + 1)))
    return side(n1, [1e3, 1e3]), side(n2, [-1e3, -1e3]), FusionWeights(w1, 1.0 - w1), cluster


class TestClusterFusionStack:
    """fuse_cluster's one stack from pair product to fused density against
    oracle._moment_match, which fuses, mixes and reduces one component
    object at a time."""

    @pytest.mark.parametrize("gm_config", [None, GmReduceConfig()])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixture_cluster())
    def test_density_matches_object_reference(self, gm_config, instance):
        mb1, mb2, w, cluster = instance
        D = pairwise_distances(mb1, mb2, w)
        got = fuse_cluster(cluster, mb1, mb2, w, D, gm_config=gm_config).density
        l1, l2 = sorted(cluster.l1), sorted(cluster.l2)
        marginal, _ = cluster_pair_marginals(mb1, mb2, w, D, l1, l2)
        want = oracle._moment_match(marginal, l1, l2, mb1, mb2, w, gm_config)
        assert_identical(got, MultiBernoulliDensity(want))

    def test_row_with_no_kept_pair_is_dropped(self):
        # r = 0 gives the first sensor-1 component an existence gain of
        # -inf, so each of its pair marginals is 0.
        mb1 = MultiBernoulliDensity((bern(0.0, [0.0, 0.0], comp_id=0),
                                     bern(0.8, [1.0, 0.0], comp_id=1)))
        mb2 = MultiBernoulliDensity((bern(0.7, [0.0, 0.5], comp_id=0),
                                     bern(0.6, [1.0, 0.5], comp_id=1)))
        D = pairwise_distances(mb1, mb2, W)
        cluster = Cluster(frozenset({0, 1}), frozenset({0, 1}))
        result = fuse_cluster(cluster, mb1, mb2, W, D, gm_config=GmReduceConfig())
        assert result.density.stack.ids.tolist() == [1]
        fused, diag = pgci_fuse(mb1, mb2, W, 4.0, gm_config=GmReduceConfig())
        assert diag.cluster_sizes == [(2, 2)]
        assert len(fused) == 1
        assert np.array_equal(fused.rs, result.density.rs)


class TestEmptiedPdf:
    """A prune threshold above every normalized weight leaves each fused or
    merged pdf with no Gaussian; every path raises NumericalError for it."""

    EMPTYING = GmReduceConfig(prune_threshold=2.0)

    def test_isolated_pair(self):
        mb1 = MultiBernoulliDensity((bern(0.8, [0.0, 0.0]),))
        mb2 = MultiBernoulliDensity((bern(0.7, [0.5, 0.0]),))
        with pytest.raises(NumericalError):
            pgci_fuse(mb1, mb2, W, 4.0, gm_config=self.EMPTYING)

    def test_two_by_two_cluster(self):
        mb1 = MultiBernoulliDensity((bern(0.9, [0.0, 0.0], comp_id=0),
                                     bern(0.8, [1.0, 0.0], comp_id=1)))
        mb2 = MultiBernoulliDensity((bern(0.7, [0.0, 0.5], comp_id=0),
                                     bern(0.6, [1.0, 0.5], comp_id=1)))
        assert pgci_fuse(mb1, mb2, W, 4.0)[1].cluster_sizes == [(2, 2)]
        with pytest.raises(NumericalError):
            pgci_fuse(mb1, mb2, W, 4.0, gm_config=self.EMPTYING)

    def test_merged_tracks(self):
        tracks = MultiBernoulliDensity(
            (bern(0.5, [0.0, 0.0], comp_id=0), bern(0.4, [0.1, 0.0], comp_id=1))
        )
        assert len(mb_merge_components(tracks, gate=4.0)) == 1
        with pytest.raises(NumericalError):
            mb_merge_components(tracks, gate=4.0, gm_config=self.EMPTYING)


@st.composite
def fusion_pair(draw):
    """Two densities of 0 to 5 components each, either one the larger, whose
    4-D pdfs hold 1 to 3 Gaussians, and weights 0.5/0.5 or 0.3/0.7.

    Returns (mb1, mb2, weights).
    """
    coord = st.floats(-3.0, 3.0)
    var = st.sampled_from([0.5, 1.0, 4.0])

    def side():
        comps = []
        for i in range(draw(st.integers(0, 5))):
            j = draw(st.integers(1, 3))
            means = np.array(draw(st.lists(coord, min_size=4 * j, max_size=4 * j))).reshape(j, 4)
            covs = np.array([np.diag([draw(var) for _ in range(4)]) for _ in range(j)])
            weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=j, max_size=j)))
            pdf = GaussianMixture(weights / weights.sum(), means, covs)
            comps.append(BernoulliComponent(r=draw(st.floats(0.02, 0.98)), pdf=pdf, id=i))
        return MultiBernoulliDensity(tuple(comps))

    w = draw(st.sampled_from([FusionWeights(0.5, 0.5), FusionWeights(0.3, 0.7)]))
    return side(), side(), w


class TestSharedOrientation:
    """Both fusers orient their inputs in one place, so the oracle weighs its
    hypotheses with the very matrix that pgci_fuse gates, and hands it back."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fusion_pair(), st.sampled_from([2.0, 4.0, 8.0]))
    def test_oracle_hands_back_the_gated_distances(self, instance, gamma):
        mb1, mb2, w = instance
        gated = []

        def recording(distances, gamma):
            gated.append(distances)
            return compute_lic(distances, gamma)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pgci_mod, "compute_lic", recording)
            pgci_fuse(mb1, mb2, w, gamma)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, w)
        assert len(gated) == 1 and np.array_equal(gmb.distances, gated[0])
        n1, n2 = gmb.distances.shape
        assert (n1, n2) == (min(len(mb1), len(mb2)), max(len(mb1), len(mb2)))
        assert gmb.targets.shape[1] == n1
        assert ((gmb.targets >= -1) & (gmb.targets < n2)).all()
        exact, bound = l1_error_bound(gmb, gamma)
        assert exact <= bound * (1 + 1e-12)


# (r, mean, cov) of one invalid Bernoulli component per case.
INVALID_COMPONENTS = {
    "nan-mean": (0.5, [np.nan, 0.0], np.eye(2)),
    "nan-cov": (0.5, [0.0, 0.0], np.diag([np.nan, 1.0])),
    "inf-cov": (0.5, [0.0, 0.0], np.diag([np.inf, 1.0])),
    "r-above-1": (1.5, [0.0, 0.0], np.eye(2)),
    "r-below-0": (-0.2, [0.0, 0.0], np.eye(2)),
    "r-nan": (np.nan, [0.0, 0.0], np.eye(2)),
    "asymmetric-cov": (0.8, [0.0, 0.0], np.array([[1.0, 5.0], [0.0, 1.0]])),
}
FUSERS = {
    "pgci": lambda a, b: pgci_fuse(a, b, W, gamma=4.0),
    "naive": lambda a, b: naive_gci_mb_fuse(a, b, W),
}


class TestInputValidation:
    @pytest.mark.parametrize("fuser", sorted(FUSERS))
    @pytest.mark.parametrize("case", sorted(INVALID_COMPONENTS))
    def test_invalid_component_raises(self, case, fuser):
        # Each used to fuse into an empty density or an r ~ 1 without error.
        r, mean, cov = INVALID_COMPONENTS[case]
        good = MultiBernoulliDensity((bern(0.8, [0.0, 0.0]),))
        with pytest.raises(MbFuseError):
            bad = MultiBernoulliDensity((bern(r, mean, cov),))
            FUSERS[fuser](good, bad)

    @pytest.mark.parametrize("fuser", sorted(FUSERS))
    def test_component_without_gaussians_raises(self, fuser):
        # pgci_fuse used to drop it: its divergence is inf, so it never gates.
        good = MultiBernoulliDensity((bern(0.9, [0.0, 0.0]),))
        empty = BernoulliComponent(r=0.9, pdf=GaussianMixture.empty(2), id=0)
        with pytest.raises(InvalidDensityError):
            FUSERS[fuser](MultiBernoulliDensity((empty,)), good)


class TestHypothesisCounts:
    def test_cluster_count_orientation_free(self):
        c = Cluster(frozenset({0, 1, 2}), frozenset({3, 4}))
        mb1, mb2 = random_mb(np.random.default_rng(5), 3), random_mb(np.random.default_rng(6), 5)
        result = fuse_cluster(c, mb1, mb2, W, pairwise_distances(mb1, mb2, W))
        assert result.hypothesis_count == count_hypotheses_distinct(2, 3)

    def test_clustered_never_exceeds_truncated(self):
        # [DERIVED] sum of per-cluster counts vs their product: every
        # two-sided cluster contributes at least 2 hypotheses, so the sum
        # can exceed the product only never; equality holds exactly for a
        # single cluster or for two 1x1 clusters (2 + 2 = 2 * 2).
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n_clusters = int(rng.integers(1, 5))
            sizes = [
                (int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(n_clusters)
            ]
            counts = [count_hypotheses_distinct(min(a, b), max(a, b)) for a, b in sizes]
            prod = math.prod(counts)
            total = sum(counts)
            assert total <= prod
            all_1x1 = all(s == (1, 1) for s in sizes)
            if total == prod:
                assert n_clusters == 1 or (n_clusters == 2 and all_1x1)

    def test_report_fields(self):
        rng = np.random.default_rng(42)
        mb1, mb2 = clustered_instance(rng, 3, max_per_side=1)
        _, report = pgci_fuse(mb1, mb2, W, 4.0)
        assert report.n_h_clustered == 6  # three 1x1 clusters, 2 each
        assert report.n_h_truncated == 8
        assert report.n_h_distinct == count_hypotheses_distinct(3, 3) == 34
        assert report.n_h == 2**3 * 6 == 48
        assert report.cluster_sizes == [(1, 1)] * 3
        assert report.far_cells == 6  # every cross-cluster cell, 1000 apart
        assert report.refilled_cells == 0 and report.dp_steps == 0  # 1x1 clusters run no DP

    def test_report_fields_of_a_dp_cluster(self):
        # A 2x3 cluster 1 apart, so no cell of it is cleared, beside a 1x1
        # pair 1000 away: only the 2x3 runs the DP, 3 * 2 * 2^2 steps.
        mb1 = MultiBernoulliDensity((bern(0.9, [0.0, 0.0], comp_id=0),
                                     bern(0.8, [1.0, 0.0], comp_id=1),
                                     bern(0.7, [1e3, 0.0], comp_id=2)))
        mb2 = MultiBernoulliDensity((bern(0.9, [0.0, 1.0], comp_id=0),
                                     bern(0.8, [1.0, 1.0], comp_id=1),
                                     bern(0.6, [0.5, 0.5], comp_id=2),
                                     bern(0.7, [1e3, 1.0], comp_id=3)))
        _, report = pgci_fuse(mb1, mb2, W, 4.0)
        assert sorted(report.cluster_sizes) == [(1, 1), (2, 3)]
        assert report.refilled_cells == 0
        assert report.dp_steps == 3 * 2 * 2**2


def one_cluster(gmb):
    """The clustering that puts every component of both sides in one cluster."""
    n1, n2 = gmb.distances.shape
    return (Cluster(range(n1), range(n2)),)


class TestErrorBound:
    def test_truncated_mass_bounded(self):
        # [DERIVED] the discarded-hypothesis L1 mass never exceeds the
        # analytic bound A * exp(-gamma), down to gates that discard much.
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(300):
            mb1 = random_mb(rng, int(rng.integers(2, 4)), spread=6.0)
            mb2 = random_mb(rng, int(rng.integers(2, 4)), spread=6.0)
            gamma = float(rng.uniform(0.5, 8.0))
            _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
            lic = compute_lic(gmb.distances, gamma)
            if not inter_cluster_hypotheses(gmb, lic):
                continue
            checked += 1
            exact, bound = l1_error_bound(gmb, gamma)
            assert exact <= bound * (1 + 1e-12)
        assert checked > 50

    def test_bound_decays_exponentially_in_gamma(self):
        # [DERIVED] A depends only on the discarded set, so raising gamma by
        # a step that crosses no distance, and so keeps the clustering,
        # scales the bound by exactly exp(-step).
        rng = np.random.default_rng(52)
        mb1 = random_mb(rng, 3, spread=6.0)
        mb2 = random_mb(rng, 3, spread=6.0)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
        lic = compute_lic(gmb.distances, 3.0)
        assert inter_cluster_hypotheses(gmb, lic)
        step = oracle.same_clustering_step(gmb.distances, 3.0)
        assert step > 0.1 and compute_lic(gmb.distances, 3.0 + step) == lic
        e1, b1 = l1_error_bound(gmb, 3.0)
        e2, b2 = l1_error_bound(gmb, 3.0 + step)
        assert e2 == e1
        assert b2 / b1 == pytest.approx(math.exp(-step), rel=1e-6)

    def test_empty_truncation_gives_zero(self):
        rng = np.random.default_rng(53)
        mb1, mb2 = clustered_instance(rng, 2, max_per_side=1)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
        # An infinite gamma puts every pair in one cluster, which discards nothing.
        assert l1_error_bound(gmb, math.inf) == (0.0, 0.0)

    def test_square_fusion_reads_its_own_orientation(self):
        # A square fusion used to accept the clustering of the transposed
        # matrix and return (0.113, 0.153) in place of (0.0015, 0.169).
        rng = np.random.default_rng(5)
        for _ in range(4):  # the fourth pair drawn
            mb1 = cli_mod._random_mb(rng, 3, spread=8.0)
            mb2 = cli_mod._random_mb(rng, 3, spread=8.0)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, FusionWeights(0.3, 0.7))
        got = l1_error_bound(gmb, 4.0)
        truncated = inter_cluster_hypotheses(gmb, compute_lic(gmb.distances, 4.0))
        want = oracle.l1_error_bound(gmb, truncated, 4.0)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert got == (pytest.approx(0.0015, abs=5e-5), pytest.approx(0.169, abs=5e-4))
        transposed = inter_cluster_hypotheses(gmb, compute_lic(gmb.distances.T, 4.0))
        assert oracle.l1_error_bound(gmb, transposed, 4.0)[0] == pytest.approx(0.113, abs=5e-4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fusion_pair(), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_bound_matches_the_set_reference(self, instance, gamma):
        # l1_error_bound clusters the oracle's matrix and finds the discarded
        # hypotheses itself; the reference filters them by their set of pair
        # tuples. Both must agree to the bit at gamma, gamma + 1 and inf, in
        # either call order, each gamma clustering on its own; at inf the
        # clustering is one cluster that holds everything.
        mb1, mb2, w = instance
        for a, b, v in ((mb1, mb2, w), (mb2, mb1, w.swapped())):
            _, gmb = naive_gci_mb_fuse(a, b, v)
            for g in (gamma, gamma + 1.0, math.inf):
                lic = one_cluster(gmb) if g == math.inf else compute_lic(gmb.distances, g)
                truncated = inter_cluster_hypotheses(gmb, lic)
                got = l1_error_bound(gmb, g)
                want = oracle.l1_error_bound(gmb, truncated, g)
                assert [x.hex() for x in got] == [x.hex() for x in want]


class TestMultiSensorFuse:
    def test_single_posterior_identity(self):
        rng = np.random.default_rng(62)
        mb = random_mb(rng, 2)
        assert multi_sensor_fuse([mb], [1.0], 4.0) is mb

    def test_three_sensor_chain_runs_and_reports(self):
        rng = np.random.default_rng(63)
        mbs = [random_mb(rng, 3, spread=4.0) for _ in range(3)]
        fused, diags = multi_sensor_fuse(
            mbs,
            [0.25, 0.5, 0.25],
            gamma=1e18,
            reduce_config=MbReduceConfig(1e-4, 100),
            return_diagnostics=True,
        )
        assert len(diags) == 2
        assert all(0 < c.r < 1 for c in fused.components)

    def test_pairwise_weights_match_manual_fold(self):
        # Chained fusion renormalizes (accumulated, next) weights at every
        # step; verify against an explicit left fold.
        rng = np.random.default_rng(64)
        mbs = [random_mb(rng, 2, spread=6.0) for _ in range(3)]
        weights = [0.2, 0.3, 0.5]
        fused = multi_sensor_fuse(mbs, weights, gamma=1e18)
        acc, w_acc = mbs[0], weights[0]
        for nxt, w_nxt in zip(mbs[1:], weights[1:]):
            pair_w = FusionWeights(w_acc / (w_acc + w_nxt), w_nxt / (w_acc + w_nxt))
            acc, _ = pgci_fuse(acc, nxt, pair_w, gamma=1e18)
            w_acc += w_nxt
        got = sorted(c.r for c in fused.components)
        want = sorted(c.r for c in acc.components)
        assert got == pytest.approx(want, rel=1e-12)


class TestComponentMerge:
    def test_colocated_components_merge_preserving_moment(self):
        m = np.array([1.0, 2.0])
        c1 = bern(0.6, m, comp_id=0)
        c2 = bern(0.3, m + 0.1, comp_id=1)
        mb = MultiBernoulliDensity((c1, c2))
        merged = mb_merge_components(mb, gate=4.0)
        assert len(merged) == 1
        comp = merged.components[0]
        assert comp.r == pytest.approx(0.9, rel=1e-12)
        # First moment of the merged pdf is the r-weighted mean.
        mean = np.sum(comp.pdf.weights[:, None] * comp.pdf.means, axis=0)
        want = (0.6 * m + 0.3 * (m + 0.1)) / 0.9
        assert mean == pytest.approx(want, rel=1e-12)

    def test_distant_components_stay_separate(self):
        c1 = bern(0.6, [0.0, 0.0], comp_id=0)
        c2 = bern(0.3, [100.0, 0.0], comp_id=1)
        merged = mb_merge_components(MultiBernoulliDensity((c1, c2)), gate=4.0)
        assert len(merged) == 2
        assert sorted(c.r for c in merged.components) == [0.3, 0.6]

    def test_existence_sum_clamped(self):
        c1 = bern(0.9, [0.0, 0.0], comp_id=0)
        c2 = bern(0.8, [0.0, 0.0], comp_id=1)
        merged = mb_merge_components(MultiBernoulliDensity((c1, c2)), gate=4.0)
        assert len(merged) == 1
        assert merged.components[0].r < 1.0

    def test_gm_reduction_applied(self):
        comps = [bern(0.4, [0.0, 0.0], comp_id=i) for i in range(4)]
        merged = mb_merge_components(
            MultiBernoulliDensity(tuple(comps)),
            gate=4.0,
            gm_config=GmReduceConfig(1e-5, 4.0, 2),
        )
        assert len(merged) == 1
        assert merged.components[0].pdf.n_components <= 2

    @pytest.mark.parametrize("r_empty", [0.3, 0.5])
    def test_component_without_gaussians_raises(self, r_empty):
        # Whether the empty pdf sorts first or last, it has no dominant Gaussian.
        empty = BernoulliComponent(r=r_empty, pdf=GaussianMixture.empty(2), id=1)
        with pytest.raises(MbFuseError):
            mb = MultiBernoulliDensity((bern(0.4, [0.0, 0.0], comp_id=0), empty))
            mb_merge_components(mb)

    def test_invalid_gate(self):
        with pytest.raises(ValueError):
            mb_merge_components(MultiBernoulliDensity(()), gate=0.0)
        # Two co-located tracks that gate=4 merges.
        tracks = MultiBernoulliDensity(
            (bern(0.5, [0.0, 0.0], comp_id=0), bern(0.4, [0.1, 0.0], comp_id=1))
        )
        with pytest.raises(ValueError):
            mb_merge_components(tracks, gate=float("nan"))
