"""Pairwise fusion mathematics: divergences, hypothesis space, exhaustive fusion.

Oracles: closed-form Bhattacharyya distance for single Gaussians, brute-force
hypothesis enumeration with independently computed weights, and hand-worked
one-component examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import mbfuse.gci as gci_mod
from mbfuse.clustering import Cluster
from mbfuse.errors import IncompatiblePairError, IntractableFusionError
from mbfuse.gci import (
    FusionWeights,
    _fuse_isolated_pairs,
    _logsumexp,
    count_hypotheses_distinct,
    count_hypotheses_nominal,
    enumerate_hypotheses,
    fused_pair_density,
    naive_gci_mb_fuse,
    pairwise_distances,
)
from mbfuse.gm import GaussianMixture
from mbfuse.mb import BernoulliComponent, MultiBernoulliDensity
from mbfuse.pgci import fuse_cluster
import oracle
from oracle import gci_divergence, hypothesis_weight, log_q_factor


def bern(r, mean, cov, comp_id=0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    pdf = GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])
    return BernoulliComponent(r=r, pdf=pdf, id=comp_id)


def mbd(*comps):
    return MultiBernoulliDensity(tuple(comps))


def random_mb(rng, n, d=2, spread=20.0):
    comps = []
    for i in range(n):
        mean = rng.uniform(-spread, spread, size=d)
        a = rng.standard_normal((d, d))
        cov = a @ a.T + np.eye(d)
        comps.append(bern(rng.uniform(0.1, 0.9), mean, cov, comp_id=i))
    return mbd(*comps)


def bhattacharyya_distance(m1, P1, m2, P2):
    """Closed form for single Gaussians: (1/8) dm' S^-1 dm + (1/2) log |S| / sqrt(|P1||P2|)."""
    m1, m2 = np.atleast_1d(m1), np.atleast_1d(m2)
    P1, P2 = np.atleast_2d(P1), np.atleast_2d(P2)
    S = 0.5 * (P1 + P2)
    dm = m1 - m2
    term1 = 0.125 * dm @ np.linalg.solve(S, dm)
    term2 = 0.5 * math.log(
        np.linalg.det(S) / math.sqrt(np.linalg.det(P1) * np.linalg.det(P2))
    )
    return term1 + term2


class TestDivergence:
    def test_matches_bhattacharyya_closed_form(self):
        # [DERIVED] equal-weight divergence of single Gaussians is the
        # Bhattacharyya distance; 100 random pairs in 1-3 dimensions.
        rng = np.random.default_rng(7)
        w = FusionWeights(0.5, 0.5)
        for _ in range(100):
            d = rng.integers(1, 4)
            m1, m2 = rng.normal(size=d), rng.normal(size=d)
            a1 = rng.standard_normal((d, d))
            a2 = rng.standard_normal((d, d))
            P1 = a1 @ a1.T + np.eye(d)
            P2 = a2 @ a2.T + np.eye(d)
            p1 = GaussianMixture(np.array([1.0]), m1[None], P1[None])
            p2 = GaussianMixture(np.array([1.0]), m2[None], P2[None])
            got = gci_divergence(p1, p2, w)
            want = bhattacharyya_distance(m1, P1, m2, P2)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_unit_gaussians_100_apart(self):
        # [DERIVED] (1/8) * 100^2 / 1 = 1250 exactly (log-det term vanishes).
        w = FusionWeights(0.5, 0.5)
        p1 = GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([[[1.0]]]))
        p2 = GaussianMixture(np.array([1.0]), np.array([[100.0]]), np.array([[[1.0]]]))
        assert gci_divergence(p1, p2, w) == pytest.approx(1250.0, rel=1e-12)

    def test_identical_densities_zero(self):
        # [TRIVIAL] geometric mean of a density with itself integrates to 1.
        p = GaussianMixture(np.array([1.0]), np.array([[3.0]]), np.array([[[2.0]]]))
        assert gci_divergence(p, p, FusionWeights(0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_pairwise_matrix_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        mb1 = random_mb(rng, 3)
        mb2 = random_mb(rng, 4)
        w = FusionWeights(0.4, 0.6)
        D = pairwise_distances(mb1, mb2, w)
        assert D.shape == (3, 4)
        for i, c1 in enumerate(mb1.components):
            for j, c2 in enumerate(mb2.components):
                assert D[i, j] == pytest.approx(
                    gci_divergence(c1.pdf, c2.pdf, w), rel=1e-9
                )

    def test_empty_densities_give_empty_matrix(self):
        w = FusionWeights(0.5, 0.5)
        rng = np.random.default_rng(0)
        mb = random_mb(rng, 2)
        assert pairwise_distances(mbd(), mb, w).shape == (0, 2)
        assert pairwise_distances(mb, mbd(), w).shape == (2, 0)


class TestHypothesisSpace:
    def test_enumeration_count_and_distinctness(self):
        for n1 in range(0, 4):
            for n2 in range(0, 4):
                targets = enumerate_hypotheses(n1, n2)
                assert targets.shape == (count_hypotheses_distinct(n1, n2), n1)
                assert len(np.unique(targets, axis=0)) == len(targets)

    def test_enumeration_matches_pair_tuple_reference_in_order(self):
        # [DERIVED] oracle: the tuple generator the array replaced.
        sizes = [(n1, n2) for n1 in range(5) for n2 in range(5)] + [(5, 3), (3, 5)]
        for n1, n2 in sizes:
            targets = enumerate_hypotheses(n1, n2)
            assert targets.dtype.kind == "i" and targets.shape[1] == n1
            want = list(oracle.enumerate_hypotheses(range(n1), range(n2)))
            assert oracle.hypothesis_pairs(targets) == want

    def test_distinct_counts_small_cases(self):
        # [DERIVED] sum_n C(n1,n) A(n2,n) worked by hand.
        assert count_hypotheses_distinct(1, 1) == 2
        assert count_hypotheses_distinct(2, 2) == 7
        assert count_hypotheses_distinct(2, 3) == 13
        assert count_hypotheses_distinct(3, 3) == 34

    def test_bookkeeping_counts_small_cases(self):
        # [DERIVED] 2^n1 * A(n2, n1) worked by hand.
        assert count_hypotheses_nominal(2, 3) == 24
        assert count_hypotheses_nominal(3, 3) == 48

    def test_log_q_factor_oracle(self):
        rs = np.array([0.2, 0.5, 0.9])
        got = log_q_factor(rs, {0, 2})
        assert got == pytest.approx(math.log(0.2 * (1 - 0.5) * 0.9), rel=1e-12)
        assert log_q_factor(rs, set()) == pytest.approx(
            math.log(0.8 * 0.5 * 0.1), rel=1e-12
        )


class TestSingleComponentFusion:
    W = FusionWeights(0.5, 0.5)

    def test_fused_r_closed_form(self):
        # [DERIVED] with one component per sensor there are two hypotheses;
        # r = w_pair / (w_empty + w_pair).
        r1, r2 = 0.7, 0.4
        mb1 = mbd(bern(r1, [0.0], [[1.0]]))
        mb2 = mbd(bern(r2, [1.0], [[1.0]]))
        d = bhattacharyya_distance([0.0], [[1.0]], [1.0], [[1.0]])
        w_empty = math.sqrt((1 - r1) * (1 - r2))
        w_pair = math.sqrt(r1 * r2) * math.exp(-d)
        fused, gmb = naive_gci_mb_fuse(mb1, mb2, self.W)
        assert len(fused) == 1
        assert fused.components[0].r == pytest.approx(
            w_pair / (w_empty + w_pair), rel=1e-12
        )
        assert math.exp(gmb.log_eta) == pytest.approx(w_empty + w_pair, rel=1e-12)

    def test_fused_pair_moments(self):
        # [DERIVED] exponent-scaled information fusion of single Gaussians:
        # P = (w1 P1^-1 + w2 P2^-1)^-1, m = P (w1 P1^-1 m1 + w2 P2^-1 m2).
        w = FusionWeights(0.3, 0.7)
        m1, P1 = np.array([1.0, -2.0]), np.diag([4.0, 9.0])
        m2, P2 = np.array([2.0, 0.0]), np.diag([1.0, 16.0])
        mb1 = mbd(bern(0.5, m1, P1))
        mb2 = mbd(bern(0.5, m2, P2))
        _, _, means, covs, _ = fused_pair_density([(0, 0)], mb1, mb2, w)
        Pf = np.linalg.inv(w.w1 * np.linalg.inv(P1) + w.w2 * np.linalg.inv(P2))
        mf = Pf @ (w.w1 * np.linalg.solve(P1, m1) + w.w2 * np.linalg.solve(P2, m2))
        assert means[0] == pytest.approx(mf, rel=1e-10)
        assert covs[0] == pytest.approx(Pf, rel=1e-10)

    def test_pair_mass_equals_exp_neg_divergence(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mb1 = random_mb(rng, 1)
            mb2 = random_mb(rng, 1)
            w = FusionWeights(0.45, 0.55)
            (z,) = fused_pair_density([(0, 0)], mb1, mb2, w)[4]
            d = gci_divergence(mb1.components[0].pdf, mb2.components[0].pdf, w)
            assert z == pytest.approx(math.exp(-d), rel=1e-12)

    def test_incompatible_pair_raises(self):
        mb1 = mbd(bern(0.5, [0.0], [[1.0]]))
        mb2 = mbd(bern(0.5, [200.0], [[1.0]]))
        w = FusionWeights(0.5, 0.5)
        with pytest.raises(IncompatiblePairError):
            fused_pair_density([(0, 0)], mb1, mb2, w)
        # The 1x1 batch checks its pair masses too; a zero distance keeps the pair.
        with pytest.raises(IncompatiblePairError):
            _fuse_isolated_pairs([(0, 0)], mb1, mb2, w, np.zeros((1, 1)), None)

    def test_underflow_in_a_larger_cluster_names_its_pair(self):
        # Behind a decoy on each side, only the second pair of the 2x2
        # cluster, (1, 2), lies 200 standard deviations apart.
        mb1 = mbd(bern(0.5, [1e3], [[1.0]], 0), bern(0.5, [0.0], [[1.0]], 1),
                  bern(0.5, [200.0], [[1.0]], 2))
        mb2 = mbd(bern(0.5, [-1e3], [[1.0]], 0), bern(0.5, [100.0], [[1e4]], 1),
                  bern(0.5, [200.0], [[1.0]], 2))
        w = FusionWeights(0.5, 0.5)
        with pytest.raises(IncompatiblePairError, match=r"pair \(1, 2\)"):
            fused_pair_density([(1, 1), (1, 2), (2, 1), (2, 2)], mb1, mb2, w)
        # Zero distances keep every pair of the cluster.
        cluster = Cluster(frozenset({1, 2}), frozenset({1, 2}))
        with pytest.raises(IncompatiblePairError, match=r"pair \(1, 2\)"):
            fuse_cluster(cluster, mb1, mb2, w, np.zeros((3, 3)))


def mixture_mb(rng, n):
    """n components near the origin whose 2-D pdfs hold 1 to 3 Gaussians."""
    comps = []
    for i in range(n):
        j = int(rng.integers(1, 4))
        weights = rng.uniform(0.1, 1.0, j)
        covs = np.array([np.diag(rng.uniform(0.5, 4.0, 2)) for _ in range(j)])
        pdf = GaussianMixture(weights / weights.sum(), rng.uniform(-2.0, 2.0, (j, 2)), covs)
        comps.append(BernoulliComponent(r=rng.uniform(0.2, 0.9), pdf=pdf, id=i))
    return mbd(*comps)


class TestFusedPairGather:
    """fused_pair_density takes its two sides from the Gaussian rows that
    _pair_blocks gathers, whatever the order of the pairs and however often
    a component repeats."""

    @pytest.mark.parametrize("pairs", [
        [(3, 1), (0, 4), (2, 2)],
        [(1, 0), (1, 3), (1, 2)],
        [(2, 4), (0, 4), (3, 4)],
        [(2, 3), (0, 1), (2, 0), (3, 3), (0, 3)],
        [],
    ], ids=["out-of-order", "repeated-side-1", "repeated-side-2", "repeated-both", "empty"])
    def test_gather_matches_block_reference(self, pairs, monkeypatch):
        rng = np.random.default_rng(12)
        mb1, mb2 = mixture_mb(rng, 4), mixture_mb(rng, 5)
        w = FusionWeights(0.4, 0.6)
        sides = []
        product = gci_mod.gm_pair_product

        def recording(p1, p2, w):
            sides.append((p1, p2))
            return product(p1, p2, w)

        monkeypatch.setattr(gci_mod, "gm_pair_product", recording)
        sizes, weights, means, covs, mass = fused_pair_density(pairs, mb1, mb2, w)
        want = oracle.fused_pair_density(pairs, mb1, mb2, w)
        assert sizes.tolist() == [pdf.n_components for pdf, _ in want]
        assert mass.tobytes() == np.array([z for _, z in want]).tobytes()
        for got, name in ((weights, "weights"), (means, "means"), (covs, "covs")):
            assert got.tobytes() == b"".join(getattr(pdf, name).tobytes() for pdf, _ in want)

        assert len(sides) == (1 if pairs else 0)
        if pairs:
            for side, mb, listed in zip(sides[0], (mb1, mb2), zip(*pairs)):
                pdfs = [mb.components[l].pdf for l in sorted(set(listed))]
                for name in ("weights", "means", "covs"):
                    want_rows = np.concatenate([getattr(pdf, name) for pdf in pdfs])
                    assert getattr(side, name).tobytes() == want_rows.tobytes(), name


class TestExhaustiveFusion:
    def test_fused_rs_match_brute_force(self):
        # [DERIVED] oracle: enumerate hypotheses, weight each with
        # hypothesis_weight, and accumulate pair marginals by hand.
        rng = np.random.default_rng(42)
        for _ in range(10):
            w = FusionWeights(0.5, 0.5)
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(n1, 4))  # keep n1 <= n2 so no role swap occurs
            mb1 = random_mb(rng, n1, spread=5.0)
            mb2 = random_mb(rng, n2, spread=5.0)
            D = pairwise_distances(mb1, mb2, w)
            total = 0.0
            marginal = np.zeros(len(mb1))
            for hyp in oracle.enumerate_hypotheses(range(len(mb1)), range(len(mb2))):
                wt = hypothesis_weight(hyp, mb1, mb2, w, D)
                total += wt
                for l, _ in hyp:
                    marginal[l] += wt
            fused, gmb = naive_gci_mb_fuse(mb1, mb2, w)
            want = {l: marginal[l] / total for l in range(len(mb1)) if marginal[l] > 0}
            got = {c.id: c.r for c in fused.components}
            assert set(got) == set(want)
            for l in want:
                assert got[l] == pytest.approx(want[l], rel=1e-9)
            assert math.exp(gmb.log_eta) == pytest.approx(total, rel=1e-9)

    def test_hypothesis_weights_normalized(self):
        rng = np.random.default_rng(5)
        mb1 = random_mb(rng, 2, spread=5.0)
        mb2 = random_mb(rng, 3, spread=5.0)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, FusionWeights(0.6, 0.4))
        assert sum(gmb.w) == pytest.approx(1.0, rel=1e-12)

    def test_role_swap_invariance(self):
        rng = np.random.default_rng(9)
        mb1 = random_mb(rng, 2, spread=5.0)
        mb2 = random_mb(rng, 3, spread=5.0)
        w = FusionWeights(0.35, 0.65)
        f12, g12 = naive_gci_mb_fuse(mb1, mb2, w)
        f21, g21 = naive_gci_mb_fuse(mb2, mb1, w.swapped())
        assert math.exp(g12.log_eta) == pytest.approx(math.exp(g21.log_eta), rel=1e-12)
        # The larger side is always swapped into the subset role, so both
        # calls moment-match onto the same (smaller) index set.
        assert sorted(c.r for c in f12.components) == pytest.approx(
            sorted(c.r for c in f21.components), rel=1e-9
        )

    def test_cap_enforced(self, monkeypatch):
        rng = np.random.default_rng(1)
        mb1 = random_mb(rng, 3)
        mb2 = random_mb(rng, 3)
        monkeypatch.setattr(gci_mod, "ENUM_CAP", 10)
        with pytest.raises(IntractableFusionError):
            naive_gci_mb_fuse(mb1, mb2, FusionWeights(0.5, 0.5))

    def test_empty_inputs(self):
        rng = np.random.default_rng(2)
        mb = random_mb(rng, 2)
        w = FusionWeights(0.5, 0.5)
        fused, gmb = naive_gci_mb_fuse(mbd(), mbd(), w)
        assert len(fused) == 0 and math.exp(gmb.log_eta) == pytest.approx(1.0)
        fused, gmb = naive_gci_mb_fuse(mbd(), mb, w)
        # Only the empty hypothesis survives: eta = prod (1-r)^w2.
        want = math.exp(0.5 * sum(math.log1p(-r) for r in mb.rs))
        assert len(fused) == 0 and math.exp(gmb.log_eta) == pytest.approx(want, rel=1e-12)


class TestFusionWeights:
    def test_validation(self):
        w = FusionWeights(0.25, 0.75)
        assert w.swapped() == FusionWeights(0.75, 0.25)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# Log-weights as fusion produces them: a few repeated values (tied maxima),
# -inf for a hypothesis of zero weight, and values far apart in magnitude.
log_weight = st.one_of(
    st.sampled_from([-np.inf, -745.0, -3.5, 0.0, 1.25, 700.0]),
    st.floats(-800.0, 800.0, allow_nan=False, allow_infinity=False),
)


class TestLogSumExp:
    """gci._logsumexp equals scipy.special.logsumexp bit for bit."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(log_weight, max_size=12))
    def test_equals_scipy(self, values):
        assert same_bits(_logsumexp(values), logsumexp(np.array(values, dtype=float)))

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [2.5],
            [-np.inf],
            [-np.inf, -np.inf, -np.inf],
            [1.0, 1.0, 1.0],
            [0.3, -np.inf, 0.3, -2.0],
            [-np.inf, -1e-3, -np.inf],
            [710.0, 710.0, 1.0],
        ],
        ids=["empty", "one", "one_neg_inf", "all_neg_inf", "all_tied", "tied_max_and_neg_inf",
             "neg_inf_around_one", "overflowing_sum"],
    )
    def test_edge_cases_equal_scipy(self, values):
        assert same_bits(_logsumexp(values), logsumexp(np.array(values, dtype=float)))
