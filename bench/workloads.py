"""The benchmark's workloads and their output checks.

A workload runs one "run" at a time (closed loop, one client):

- ``s1`` and ``s2-desk``: one ``sim.run_montecarlo`` call with one run of
  ``scenario1`` or ``scenario2("desk")``, i.e. local filtering at every
  sensor followed by one fusion-node step per time step. Each fusion-node
  step is timed from the start of condensation to the fused density.
- ``fuse-dense``: one pass over a seeded pool of synthetic 3-density
  ``multi_sensor_fuse`` instances whose tracks come in groups of 1-5
  objects per site, so two-sided clusters range from 1x1 to 5x5.

Before each fusion-node step, and once after the last, a run times one
sample of the ``Reference`` kernel, which does not touch ``mbfuse``. Its
time is left out of the run's own figures; ``run.py`` scales the run's
timings by it to take out the drift of the host's speed.

Every call into the package goes through a module attribute
(``sim.run_montecarlo``, ``pgci.multi_sensor_fuse``, ...) so the
tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mbfuse import gci, mb, pgci, sim
from spans import patch_everywhere, unpatch

clock = time.perf_counter


REF_SEED = 20190619
REF_ROUNDS = 2           # kernel passes per sample; one sample takes about 1 ms


class Reference:
    """A fixed kernel of small-matrix numpy calls and Python-level loops.

    It resembles the package's work (4x4 Gaussians, per-component Python
    code) but never calls it, so a change to ``mbfuse`` cannot change its
    time; only the host's speed can. Samples are taken between units of
    program work, so they see the same contention as the work around them.
    """

    def __init__(self):
        rng = np.random.default_rng(REF_SEED)
        a = rng.normal(size=(16, 4, 4))
        self.covs = a @ a.transpose(0, 2, 1) + 4.0 * np.eye(4)
        self.means = rng.normal(size=(16, 4))

    def sample(self) -> float:
        """Run the kernel once and return its duration in seconds."""
        t0 = clock()
        acc = 0.0
        for _ in range(REF_ROUNDS):
            for k in range(len(self.covs)):
                inv = np.linalg.inv(self.covs[k])
                _, logdet = np.linalg.slogdet(self.covs[k])
                d = self.means[k] - self.means[k - 1]
                maha = float(d @ inv @ d)
                acc += maha + logdet + float(np.exp(-0.5 * maha))
                acc += sum(i * maha for i in range(30))
                acc += len({i: (i, acc) for i in range(20)})
        return clock() - t0


@dataclass
class RunRecord:
    wall_s: float                                 # reference samples left out
    filter_s: float = 0.0
    scans: int = 0
    nodes: list = field(default_factory=list)   # (start, end) per fusion-node step
    ospa_local: np.ndarray | None = None          # per step
    ospa_fused: np.ndarray | None = None          # per step
    card_within1: np.ndarray | None = None        # per step inside the mask
    ref: list = field(default_factory=list)       # seconds; one per step, then one more


def card_within1(cards, truth_cards) -> np.ndarray:
    """Per output: is the cardinality within 1 of the truth?

    Only outputs with at least min(5, most objects present) true objects
    count, which is criterion 9's mask wherever five objects occur.
    """
    cards = np.asarray(cards)
    truth_cards = np.asarray(truth_cards)
    mask = truth_cards >= min(5, truth_cards.max())
    return np.abs(cards - truth_cards)[mask] <= 1


class MonteCarloWorkload:
    """Run ``index`` is ``sim.run_montecarlo`` with one run of its own seed.

    Run 0 uses the scenario's seed unchanged, so it is what
    ``run_montecarlo(cfg, n_runs=1)`` (and ``mbfuse run``) computes; later
    runs use base seeds derived from it. Wrappers bound for the run's
    duration time each fusion-node step, from entry to
    ``sim._fusion_inputs`` (condensation) to exit from
    ``sim.multi_sensor_fuse``, and each ``sim.run_local_filter`` call. The
    entry wrapper first takes a reference sample, and one more follows the
    run, unless ``reference`` is None.
    """

    def __init__(self, cfg: sim.ScenarioConfig, quality_runs: int):
        cfg.validate()
        self.cfg = cfg
        self.quality_runs = quality_runs
        self.reference: Reference | None = Reference()
        self.result: sim.MonteCarloResult | None = None

    def config(self, index: int) -> sim.ScenarioConfig:
        if index == 0:
            return self.cfg
        seed = int(np.random.SeedSequence([self.cfg.base_seed, index]).generate_state(1)[0])
        return dataclasses.replace(self.cfg, base_seed=seed)

    def run(self, index: int) -> RunRecord:
        starts, nodes, filter_s, ref = [], [], [], []
        inputs, fuse, local = sim._fusion_inputs, sim.multi_sensor_fuse, sim.run_local_filter
        reference = self.reference

        def timed_inputs(*args, **kwargs):
            if reference is not None:
                ref.append(reference.sample())
            starts.append(clock())
            return inputs(*args, **kwargs)

        def timed_fuse(*args, **kwargs):
            result = fuse(*args, **kwargs)
            nodes.append((starts[-1], clock()))
            return result

        def timed_filter(*args, **kwargs):
            t0 = clock()
            result = local(*args, **kwargs)
            filter_s.append(clock() - t0)
            return result

        undo = (
            patch_everywhere(inputs, timed_inputs)
            + patch_everywhere(fuse, timed_fuse)
            + patch_everywhere(local, timed_filter)
        )
        try:
            t_start = clock()
            result = sim.run_montecarlo(self.config(index), n_runs=1)
            wall = clock() - t_start - sum(ref)
        finally:
            unpatch(undo)
        if reference is not None:
            ref.append(reference.sample())
        self.result = result
        # n_runs=1, so each per-step array is this run's own.
        return RunRecord(
            wall_s=wall,
            ref=ref,
            filter_s=sum(filter_s),
            scans=self.cfg.duration * len(self.cfg.sensors),
            nodes=nodes,
            ospa_local=result.ospa_local,
            ospa_fused=result.ospa_fused,
            card_within1=card_within1(result.card_mean, result.truth_card),
        )

    def check(self, out_dir: Path, seed: int) -> tuple[int, list[str]]:
        """Run 0's results.csv must equal that of an unwrapped ``run_montecarlo``.

        Call right after ``run(0)``. Returns (items checked, failures).
        """
        ours = out_dir / f"results-{self.cfg.name}-seed{seed}-bench.csv"
        ref = out_dir / f"results-{self.cfg.name}-seed{seed}-run_montecarlo.csv"
        self.result.to_csv(ours)
        sim.run_montecarlo(self.config(0), n_runs=1).to_csv(ref)
        if ours.read_bytes() != ref.read_bytes():
            return 1, [f"{ours.name} differs from {ref.name}"]
        return 1, []


# ---------------------------------------------------------------------------
# fuse-dense: synthetic stream of dense-cluster fusions
# ---------------------------------------------------------------------------

REGION = 2000.0          # sites lie in [-REGION, REGION]^2
GROUP_SIZES = [1, 2, 3, 3, 4, 5]  # objects per site; the same mix in every instance
CLUTTER = 3              # low-r tracks per density away from the objects
SITE_SPACING = 400.0     # minimum distance between site centres
GROUP_SPREAD = 8.0       # std of object positions around their site centre
POOL = 50                # instances per pass
WEIGHTS = (1 / 3, 1 / 3, 1 / 3)
GAMMA = 4.0
REDUCE = mb.MbReduceConfig(trunc_threshold=1e-4, max_components=100)
CHECK_INSTANCES = 2      # instances whose clusters the oracle check samples from
CHECK_CLUSTERS = 24      # two-sided clusters re-fused by the oracle
R_TOL = 1e-9             # criterion 1's tolerance on fused existence


def _track(rng, state, r, comp_id) -> mb.BernoulliComponent:
    """A filter-like Bernoulli: 1-3 Gaussians around a noisy state estimate."""
    n = int(rng.integers(1, 4))
    weights = np.array([1.0] + list(rng.uniform(0.05, 0.3, n - 1)))
    means = state + rng.normal(0.0, [4.0, 4.0, 1.5, 1.5], (n, 4))
    pos_var = rng.uniform(30.0, 80.0, n)
    vel_var = rng.uniform(20.0, 50.0, n)
    covs = np.zeros((n, 4, 4))
    covs[:, 0, 0] = covs[:, 1, 1] = pos_var
    covs[:, 2, 2] = covs[:, 3, 3] = vel_var
    covs[:, 0, 2] = covs[:, 2, 0] = covs[:, 1, 3] = covs[:, 3, 1] = 0.5 * np.sqrt(pos_var * vel_var)
    pdf = mb.GaussianMixture(weights / weights.sum(), means, covs)
    return mb.BernoulliComponent(r=float(r), pdf=pdf, id=comp_id)


def make_instance(rng) -> tuple[list, np.ndarray]:
    """Three densities over the same objects plus per-sensor clutter tracks.

    The fixed site mix and clutter count keep the work per instance alike
    across seeds.
    """
    sizes = rng.permutation(GROUP_SIZES)
    centres: list[np.ndarray] = []
    while len(centres) < len(sizes):
        c = rng.uniform(-REGION, REGION, 2)
        if all(np.linalg.norm(c - o) >= SITE_SPACING for o in centres):
            centres.append(c)
    truth = []
    for c, size in zip(centres, sizes):
        for _ in range(size):
            pos = c + rng.normal(0.0, GROUP_SPREAD, 2)
            truth.append(np.concatenate([pos, rng.normal(0.0, 5.0, 2)]))
    truth = np.array(truth)
    densities = []
    for _ in WEIGHTS:
        comps = [_track(rng, x, rng.uniform(0.7, 0.97), i) for i, x in enumerate(truth)]
        for _ in range(CLUTTER):
            x = np.concatenate([rng.uniform(-REGION, REGION, 2), np.zeros(2)])
            comps.append(_track(rng, x, rng.uniform(0.02, 0.3), len(comps)))
        densities.append(mb.MultiBernoulliDensity(tuple(comps)))
    return densities, truth


class FuseDenseWorkload:
    """Run ``index`` is one pass over the same pool of instances.

    A reference sample precedes each fusion, and one more follows the
    last, unless ``reference`` is None.
    """

    quality_runs = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 20190619])
        self.instances = [make_instance(rng) for _ in range(POOL)]
        self.reference: Reference | None = Reference()

    def fuse(self, densities):
        return pgci.multi_sensor_fuse(densities, WEIGHTS, GAMMA, reduce_config=REDUCE)

    def run(self, index: int) -> RunRecord:
        nodes, local, fused_o, cards, truth_cards, ref = [], [], [], [], [], []
        t_start = clock()
        for densities, truth in self.instances:
            if self.reference is not None:
                ref.append(self.reference.sample())
            t0 = clock()
            fused = self.fuse(densities)
            nodes.append((t0, clock()))
            truth_pos = truth[:, :2]
            local_est = mb.extract_estimates(densities[0])
            fused_est = mb.extract_estimates(fused)
            local.append(sim.ospa(local_est[:, :2], truth_pos))
            fused_o.append(sim.ospa(fused_est[:, :2], truth_pos))
            cards.append(fused_est.shape[0])
            truth_cards.append(truth.shape[0])
        wall = clock() - t_start - sum(ref)
        if self.reference is not None:
            ref.append(self.reference.sample())
        return RunRecord(
            wall_s=wall,
            ref=ref,
            nodes=nodes,
            ospa_local=np.array(local),
            ospa_fused=np.array(fused_o),
            card_within1=card_within1(cards, truth_cards),
        )

    def check(self, out_dir: Path, seed: int) -> tuple[int, list[str]]:
        """Re-fuse a seeded sample of two-sided clusters with the exhaustive oracle.

        Clusters are captured from ``fuse_cluster`` calls made by
        ``multi_sensor_fuse`` on the first instances. Only clusters with
        |L1| <= |L2| are sampled: the oracle swaps roles otherwise and
        moment-matches onto the other side. Fused existence must agree
        within ``R_TOL`` component by component.
        """
        captured = []
        original = pgci.fuse_cluster
        signature = inspect.signature(original)

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            captured.append((bound.arguments, result))
            return result

        undo = patch_everywhere(original, capture)
        try:
            outputs = [self.fuse(d) for d, _ in self.instances[:CHECK_INSTANCES]]
        finally:
            unpatch(undo)

        failures = []
        for fused in outputs:
            rs = fused.rs
            if not np.all((rs >= 0.0) & (rs <= 1.0)):
                failures.append("fused existence outside [0, 1]")
        candidates = [
            (a, res) for a, res in captured if len(a["cluster"].l1) <= len(a["cluster"].l2)
        ]
        if not candidates:
            return 1, failures + ["no two-sided cluster reached fuse_cluster"]
        rng = np.random.default_rng([seed, 1])
        picks = rng.choice(len(candidates), min(CHECK_CLUSTERS, len(candidates)), replace=False)
        for i in sorted(picks):
            a, result = candidates[i]
            cluster = a["cluster"]
            sub1 = mb.MultiBernoulliDensity(
                tuple(a["mb1"].components[l] for l in sorted(cluster.l1))
            )
            sub2 = mb.MultiBernoulliDensity(
                tuple(a["mb2"].components[l] for l in sorted(cluster.l2))
            )
            oracle, _ = gci.naive_gci_mb_fuse(sub1, sub2, a["w"], gm_config=a["gm_config"])
            got = [float(c.r) for c in result.components]
            want = [float(c.r) for c in oracle.components]
            if len(got) != len(want) or any(abs(x - y) > R_TOL for x, y in zip(got, want)):
                failures.append(
                    f"cluster {len(cluster.l1)}x{len(cluster.l2)}: pgci r {got} != oracle r {want}"
                )
        return len(picks), failures


def build(name: str, seed: int):
    if name == "s1":
        return MonteCarloWorkload(sim.scenario1(seed=seed), quality_runs=16)
    if name == "s2-desk":
        return MonteCarloWorkload(sim.scenario2("desk", seed=seed), quality_runs=4)
    if name == "fuse-dense":
        return FuseDenseWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
