"""End-to-end acceptance gate.

Each test covers one numbered criterion and records a single pass/fail line;
the conftest hook prints them as a scoreboard at the end of the run.  The
heavy Monte-Carlo criteria (2 and 9) take a few minutes together.
"""

import math
import time
from collections import deque

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from mbfuse.clustering import compute_lic, connected_components
from mbfuse.gci import (
    FusionWeights,
    count_hypotheses_distinct,
    naive_gci_mb_fuse,
    pairwise_distances,
)
from mbfuse.gm import GaussianMixture
from mbfuse.mb import BernoulliComponent, MultiBernoulliDensity
from mbfuse.pgci import (
    hypothesis_count_report,
    l1_error_bound,
    pgci_fuse,
)
from mbfuse.sim import run_montecarlo, scenario1, scenario2

from conftest import ACCEPTANCE_SCOREBOARD
from oracle import (
    cluster_log_eta, gci_divergence, gm_pair_log_mass, gm_power, inter_cluster_hypotheses,
)

W = FusionWeights(0.5, 0.5)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_SCOREBOARD.append(line)
    print(line, flush=True)
    assert ok, line


def bern(r, mean, cov=None, comp_id=0):
    mean = np.asarray(mean, dtype=float)
    cov = np.eye(len(mean)) if cov is None else np.asarray(cov, dtype=float)
    pdf = GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])
    return BernoulliComponent(r=r, pdf=pdf, id=comp_id)


def random_mb(rng, n, spread=10.0):
    comps = []
    for i in range(n):
        a = rng.standard_normal((2, 2))
        comps.append(
            bern(
                rng.uniform(0.1, 0.9),
                rng.uniform(-spread, spread, 2),
                a @ a.T + np.eye(2),
                comp_id=i,
            )
        )
    return MultiBernoulliDensity(tuple(comps))


def separated_mb_pair(n, rng, spacing=1000.0):
    """One component per object and sensor, objects far apart."""
    comps1, comps2 = [], []
    for i in range(n):
        center = np.array([i * spacing, -i * spacing])
        comps1.append(bern(rng.uniform(0.3, 0.9), center + rng.normal(0, 1, 2), comp_id=i))
        comps2.append(bern(rng.uniform(0.3, 0.9), center + rng.normal(0, 1, 2), comp_id=i))
    return MultiBernoulliDensity(tuple(comps1)), MultiBernoulliDensity(tuple(comps2))


def test_criterion_1_oracle_equivalence_exact_regime():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mb1 = random_mb(rng, int(rng.integers(1, 5)))
        mb2 = random_mb(rng, int(rng.integers(1, 5)))
        naive, _ = naive_gci_mb_fuse(mb1, mb2, W)
        fused, _ = pgci_fuse(mb1, mb2, W, gamma=np.inf)
        nc = sorted(naive.components, key=lambda c: c.r)
        fc = sorted(fused.components, key=lambda c: c.r)
        assert len(nc) == len(fc)
        for a, b in zip(fc, nc):
            worst = max(worst, abs(a.r - b.r))
            assert a.r == pytest.approx(b.r, rel=1e-9, abs=1e-12)
            assert a.pdf.weights == pytest.approx(b.pdf.weights, rel=1e-9)
            assert a.pdf.means == pytest.approx(b.pdf.means, rel=1e-9, abs=1e-9)
            assert a.pdf.covs == pytest.approx(b.pdf.covs, rel=1e-9)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(1, ok, f"100 instances, gamma=inf, max |dr| {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_scenario1_truncation_closeness():
    res = run_montecarlo(scenario1(), n_runs=50, compare_oracle=True)
    fu, na, lo = res.ospa_fused, res.ospa_naive, res.ospa_local
    gap = np.abs(fu - na) / np.maximum(na, 1e-12)
    after5 = np.arange(len(lo)) > 5
    frac_fused = (fu[after5] <= lo[after5]).mean()
    frac_naive = (na[after5] <= lo[after5]).mean()
    ok = gap.max() <= 0.05 and frac_fused >= 0.9 and frac_naive >= 0.9
    report(
        2,
        ok,
        f"scenario 1, 50 runs: max OSPA gap {gap.max():.2%}, "
        f"fused/exhaustive below local at {frac_fused:.0%}/{frac_naive:.0%} of steps",
    )


def test_criterion_3_l1_truncation_bound():
    rng = np.random.default_rng(1003)
    checked = ratio_checked = 0
    worst_margin = 0.0
    worst_ratio_err = 0.0
    trials = 0
    while checked < 1000:
        trials += 1
        assert trials < 20000
        mb1 = random_mb(rng, int(rng.integers(2, 4)), spread=6.0)
        mb2 = random_mb(rng, int(rng.integers(2, 4)), spread=6.0)
        gamma = float(rng.uniform(2.0, 8.0))
        _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
        lic = compute_lic(gmb.distances, gamma)
        if not inter_cluster_hypotheses(gmb, lic):
            continue
        checked += 1
        exact, bound = l1_error_bound(gmb, lic, gamma)
        assert exact <= bound * (1 + 1e-12)
        if bound > 0:
            worst_margin = max(worst_margin, exact / bound)
        _, bound_up = l1_error_bound(gmb, lic, gamma + 1.0)
        if bound > 0:
            ratio_checked += 1
            worst_ratio_err = max(
                worst_ratio_err, abs(bound_up / bound - math.exp(-1.0)) / math.exp(-1.0)
            )
    ok = worst_ratio_err <= 1e-6 and ratio_checked > 500
    report(
        3,
        ok,
        f"{checked} instances: mass <= bound (worst ratio {worst_margin:.3f}), "
        f"exp(-dgamma) scaling within {worst_ratio_err:.1e}",
    )


def test_criterion_4_hypothesis_count_inequality():
    rng = np.random.default_rng(1004)
    equality_seen = 0
    for _ in range(1000):
        n_clusters = int(rng.integers(2, 6))
        sizes = [
            (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            for _ in range(n_clusters)
        ]
        counts = [count_hypotheses_distinct(min(a, b), max(a, b)) for a, b in sizes]
        n_trunc = math.prod(counts)
        n_clustered = sum(counts)
        assert n_clustered <= n_trunc
        expect_equal = n_clusters == 2 and all(s == (1, 1) for s in sizes)
        assert (n_clustered == n_trunc) == expect_equal
        equality_seen += expect_equal
    ok = equality_seen > 0
    report(
        4,
        ok,
        f"1000 clusterings: sum <= product always; equality exactly at "
        f"two 1x1 clusters ({equality_seen} occurrences)",
    )


def test_criterion_5_eta_factorization():
    from mbfuse.clustering import ClusterKind
    from mbfuse.pgci import fuse_cluster

    rng = np.random.default_rng(1005)
    worst = 0.0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        mb1, mb2 = separated_mb_pair(n, rng)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, W)
        D = pairwise_distances(mb1, mb2, W)
        lic = compute_lic(D, 4.0)
        if len(lic.clusters) < 2:
            continue
        checked += 1
        total = 0.0
        for cluster in lic.clusters:
            if cluster.kind == ClusterKind.BOTH:
                total += fuse_cluster(cluster, mb1, mb2, W, D).log_eta
            else:
                total += cluster_log_eta(cluster, mb1, mb2, W)
        worst = max(worst, abs(total - gmb.log_eta) / abs(gmb.log_eta))
    ok = worst <= 1e-9 and checked >= 40
    report(5, ok, f"{checked} multi-cluster instances: eta product within {worst:.1e}")


def test_criterion_6_union_find_vs_bfs():
    def bfs(n, edges):
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen, parts = set(), []
        for v in range(n):
            if v in seen:
                continue
            part, queue = set(), deque([v])
            while queue:
                u = queue.popleft()
                if u in part:
                    continue
                part.add(u)
                queue.extend(adj[u] - part)
            seen |= part
            parts.append(part)
        return sorted(parts, key=min)

    rng = np.random.default_rng(1006)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        assert connected_components(n, edges) == bfs(n, edges)
    report(6, True, "1000 random graphs (|V| <= 50) match the BFS oracle")


def test_criterion_7_gaussian_mixture_numerics():
    rng = np.random.default_rng(1007)

    # (a) divergence vs closed-form Bhattacharyya, 100 pairs.
    worst_bh = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m1, m2 = rng.normal(size=d), rng.normal(size=d)
        a1, a2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        P1, P2 = a1 @ a1.T + np.eye(d), a2 @ a2.T + np.eye(d)
        p1 = GaussianMixture(np.array([1.0]), m1[None], P1[None])
        p2 = GaussianMixture(np.array([1.0]), m2[None], P2[None])
        S = 0.5 * (P1 + P2)
        dm = m1 - m2
        want = 0.125 * dm @ np.linalg.solve(S, dm) + 0.5 * math.log(
            np.linalg.det(S) / math.sqrt(np.linalg.det(P1) * np.linalg.det(P2))
        )
        got = gci_divergence(p1, p2, W)
        worst_bh = max(worst_bh, abs(got - want) / max(abs(want), 1e-12))
    ok_bh = worst_bh <= 1e-9

    # (b) fractional-power mass vs quadrature, 1-D and 2-D.
    mix1 = GaussianMixture(
        np.array([0.6, 0.4]),
        np.array([[0.0], [30.0]]),
        np.array([[[1.0]], [[2.0]]]),
    )
    pw1 = gm_power(mix1, 0.5)

    def density1(x, mix):
        return sum(
            w * math.exp(-0.5 * (x - m[0]) ** 2 / c[0, 0]) / math.sqrt(2 * math.pi * c[0, 0])
            for w, m, c in zip(mix.weights, mix.means, mix.covs)
        )

    quad_mass_1d = (
        quad(lambda x: density1(x, mix1) ** 0.5, -40, 80, limit=200)[0]
    )
    err_1d = abs(pw1.weights.sum() - quad_mass_1d) / quad_mass_1d

    mix2 = GaussianMixture(
        np.array([1.0]), np.array([[1.0, -1.0]]), np.array([[[2.0, 0.3], [0.3, 1.0]]])
    )
    pw2 = gm_power(mix2, 0.7)

    def density2(y, x):
        dm = np.array([x, y]) - mix2.means[0]
        P = mix2.covs[0]
        val = math.exp(-0.5 * dm @ np.linalg.solve(P, dm))
        return (val / (2 * math.pi * math.sqrt(np.linalg.det(P)))) ** 0.7

    quad_mass_2d = dblquad(density2, -15, 15, -15, 15)[0]
    err_2d = abs(pw2.weights.sum() - quad_mass_2d) / quad_mass_2d
    ok_power = err_1d <= 1e-6 and err_2d <= 1e-6

    # (c) pair-product mass equals exp(-divergence).
    worst_pair = 0.0
    for _ in range(50):
        w = FusionWeights(0.35, 0.65)
        p1 = random_mb(rng, 1, spread=4.0).components[0].pdf
        p2 = random_mb(rng, 1, spread=4.0).components[0].pdf
        from mbfuse.gm import gm_pair_product

        mass = gm_pair_product(p1, w.w1, p2, w.w2).weights.sum()
        want = math.exp(gm_pair_log_mass(p1, w.w1, p2, w.w2))
        worst_pair = max(worst_pair, abs(mass - want) / want)
    ok_pair = worst_pair <= 1e-12

    ok = ok_bh and ok_power and ok_pair
    report(
        7,
        ok,
        f"Bhattacharyya {worst_bh:.1e}, power-mass quadrature "
        f"{max(err_1d, err_2d):.1e}, pair mass {worst_pair:.1e}",
    )


@pytest.mark.slow
def test_criterion_8_complexity_demonstration():
    rng = np.random.default_rng(1008)
    mb1_full, mb2_full = separated_mb_pair(10, rng)
    fused, diag = pgci_fuse(mb1_full, mb2_full, W, gamma=4.0)
    assert len(diag.cluster_sizes) == 10  # clustered fusion handles all 10

    mb1 = MultiBernoulliDensity(mb1_full.components[:8])
    mb2 = MultiBernoulliDensity(mb2_full.components[:8])
    t0 = time.perf_counter()
    naive_gci_mb_fuse(mb1, mb2, W)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    pgci_fuse(mb1, mb2, W, gamma=4.0)
    t_pgci = time.perf_counter() - t0

    D = pairwise_distances(mb1, mb2, W)
    lic = compute_lic(D, 4.0)
    rep = hypothesis_count_report(mb1, mb2, lic)
    ratio = rep.n_h_clustered / rep.n_h
    speedup = t_naive / t_pgci
    ok = speedup >= 10.0 and ratio < 1e-2
    report(
        8,
        ok,
        f"|L|=8: clustered {speedup:.0f}x faster ({t_naive:.2f}s vs {t_pgci*1e3:.1f}ms), "
        f"N''/N_H = {ratio:.1e}",
    )


@pytest.mark.slow
def test_criterion_9_scenario2_desk_scale():
    cfg = scenario2("desk")
    res = run_montecarlo(cfg, n_runs=50)
    mask = res.truth_card >= 5
    card_err = np.abs(res.card_mean - res.truth_card)
    frac = (card_err[mask] <= 1.0).mean()
    slowest_s = res.t_fuse_max_ms.max() / 1e3
    ok = frac >= 0.8 and slowest_s < 1.0
    report(
        9,
        ok,
        f"scenario 2 (desk), 50 runs: cardinality within +-1 at {frac:.0%} of "
        f"steps with >=5 objects, slowest fusion {slowest_s*1e3:.0f}ms",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = scenario1()
    paths = []
    for name in ("a", "b"):
        res = run_montecarlo(cfg, n_runs=3)
        p = tmp_path / f"{name}.csv"
        res.to_csv(p)
        paths.append(p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    report(10, ok, "identical seeds give byte-identical CSV output")
