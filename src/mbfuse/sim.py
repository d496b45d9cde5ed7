"""Scenario generation, sensor-network plumbing, Monte-Carlo driver, OSPA.

Everything is driven by integer seed sequences through
numpy.random.default_rng so that a config plus its seeds reproduces every
artifact byte for byte.

OSPA's optimal assignment comes from an in-package solver: a pure-Python
port of the shortest-augmenting-path algorithm (Crouse, IEEE TAES 2016) as
scipy's ``linear_sum_assignment`` implements it, step for step, so it picks
the same columns, ties included, and the package needs no scipy at run time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .clustering import connected_components
from .errors import ConfigError
from .gci import naive_gci_mb_fuse
from .gm import _is_cap
from .mb import (
    _check_matrix,
    _rows,
    _single_gaussians,
    _strongest,
    _take,
    mb_merge_components,
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
from .pgci import _fold_pairwise, multi_sensor_fuse

# Mixture and Bernoulli reduction for local filters and fused densities.
REDUCE_CONFIG = MbReduceConfig()

# Known births (scenarios without adaptive births) start every object present
# at step 0 with this existence and a covariance of diag(KNOWN_BIRTH_VAR).
KNOWN_BIRTH_R = 0.9
KNOWN_BIRTH_VAR = (100.0, 100.0, 25.0, 25.0)

# Exchanged densities are condensed before fusion (local posteriors are
# untouched): co-located Bernoulli components merge into one track-like
# component (first moment preserved), then components below CONDENSE_TRUNC
# are dropped and the count is capped. Without this a filter posterior
# carries per-object legacy chains that multiply the fusion hypothesis
# count while adding almost no information.
# Existence probabilities in exchanged densities are capped so that
# ln(odds) stays below the association gate gamma: a pair whose
# divergence exceeds the gate must then carry negligible hypothesis
# weight, which is the assumption the clustering truncation rests on.
# With r clamped near 1 (odds ~1e9) an out-of-gate pair could still
# dominate the empty hypothesis.
CONDENSE_GATE = 4.0
CONDENSE_TRUNC = 0.1
CONDENSE_R_CAP = 0.98

# The simulator tracks a [px, py, vx, vy] state observed in position: its
# births, clutter and regions are built for these dimensions only.
STATE_DIM = 4
MEAS_DIM = 2


@dataclass(frozen=True)
class ObjectBirth:
    birth_step: int          # first step the object exists (0-based)
    death_step: int          # first step the object no longer exists
    state: np.ndarray        # initial [px, py, vx, vy]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    region: Rectangle
    duration: int
    births: tuple[ObjectBirth, ...]
    motion: MotionModel
    sensors: tuple[SensorModel, ...]
    adjacency: tuple[frozenset[int], ...]   # adjacency[i] = neighbors of sensor i
    fusion_node: int
    gamma: float = 4.0
    base_seed: int = 1
    adaptive_births: bool = False       # False -> known births at step 0
    fusion_max_components: int = 100

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError unless the scenario is one the simulator runs;
        runs whenever a config is built, dataclasses.replace included."""
        if self.duration < 1:
            raise ConfigError("duration must be >= 1")
        n = len(self.sensors)
        if len(self.adjacency) != n:
            raise ConfigError("adjacency size must match sensor count")
        if not (0 <= self.fusion_node < n):
            raise ConfigError("fusion node out of range")
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if j == i or not (0 <= j < n):
                    raise ConfigError(f"bad neighbor {j} for sensor {i}")
                if i not in self.adjacency[j]:
                    raise ConfigError("adjacency must be symmetric")
        edges = ((i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs)
        if len(connected_components(n, edges)) > 1:
            raise ConfigError("sensor network must be connected")
        # The models check themselves when built; the simulator needs n = 4, m = 2.
        _check_matrix(self.motion.F, (STATE_DIM, STATE_DIM), "motion F")
        for s in self.sensors:
            _check_matrix(s.H, (MEAS_DIM, STATE_DIM), "sensor H")
        for b in self.births:
            if not (0 <= b.birth_step < b.death_step <= self.duration):
                raise ConfigError("birth step must precede death step within duration")
            if np.shape(b.state) != (STATE_DIM,):
                raise ConfigError(f"initial object state must have {STATE_DIM} entries")
            if not np.isfinite(np.asarray(b.state, dtype=float)).all():
                raise ConfigError("initial object state must be finite")
            if not self.region.contains(b.state[:2]):
                raise ConfigError("initial object state outside region")
        # Each check also rejects NaN, which fails every comparison.
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        if not _is_cap(self.fusion_max_components):
            raise ConfigError("fusion component cap must be an integer of at least 1")


def _psd_sqrt(Q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(Q)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def generate_truth(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Per-step arrays of true states; noise-free linear propagation."""
    tracks = []
    for b in cfg.births:
        x = np.asarray(b.state, dtype=float)
        states = {b.birth_step: x}
        for k in range(b.birth_step + 1, b.death_step):
            x = cfg.motion.F @ x
            states[k] = x
        tracks.append(states)
    truth = []
    for k in range(cfg.duration):
        present = [t[k] for t in tracks if k in t]
        truth.append(np.array(present) if present else np.zeros((0, 4)))
    return truth


def generate_measurements(
    truth: list[np.ndarray], sensor: SensorModel, seed: int
) -> list[np.ndarray]:
    """Per-step scans: detections with probability P_D plus uniform Poisson clutter."""
    rng = np.random.default_rng(seed)
    r_root = _psd_sqrt(sensor.R)
    scans = []
    for states in truth:
        rows = []
        for x in states:
            if rng.random() < sensor.p_detect:
                rows.append(sensor.H @ x + r_root @ rng.standard_normal(sensor.H.shape[0]))
        n_clutter = rng.poisson(sensor.clutter_rate)
        if n_clutter > 0:
            rows.extend(sensor.region.sample(rng, n_clutter))
        scans.append(np.array(rows) if rows else np.zeros((0, sensor.H.shape[0])))
    return scans


def metropolis_weights(adjacency, node: int) -> tuple[float, dict[int, float]]:
    """Metropolis rule: w_ij = 1 / (1 + max(deg_i, deg_j)); self takes the rest."""
    if not (0 <= node < len(adjacency)):
        raise ConfigError(f"node {node} not in topology")
    deg = [len(nbrs) for nbrs in adjacency]
    neighbor_w = {
        j: 1.0 / (1.0 + max(deg[node], deg[j])) for j in sorted(adjacency[node])
    }
    self_w = 1.0 - sum(neighbor_w.values())
    return self_w, neighbor_w


def _assign_columns(cost: np.ndarray) -> list[int]:
    """Column of each row in a minimum-cost assignment; rows <= columns.

    A port of scipy's ``rectangular_lsap`` (Crouse, IEEE TAES 2016): the
    same scan order, tie rule and dual updates, so it returns the columns
    that ``linear_sum_assignment(cost)[1]`` returns, ties included.
    """
    nr, nc = cost.shape
    if not (cost > -math.inf).all():   # NaN fails the comparison too
        raise ValueError("matrix contains invalid numeric entries")
    rows = cost.tolist()
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row cur, by Dijkstra on reduced costs.
        min_val = 0.0
        # Reverse order makes a constant cost matrix give the identity.
        remaining = list(range(nc - 1, -1, -1))
        spc = [inf] * nc
        rows_seen, cols_seen = [], []
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = inf
            rows_seen.append(i)
            ci, ui = rows[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                # On a tie prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


# OSPA's cutoff c (m) and order p.
OSPA_C = 100.0
OSPA_P = 2.0


def ospa(x: np.ndarray, y: np.ndarray) -> float:
    """Optimal sub-pattern assignment distance between two position sets,
    with cutoff OSPA_C and order OSPA_P.

    Each non-empty set is an (n, 2) array. A position with an infinite
    coordinate lies beyond the cutoff of every other; a NaN coordinate or
    another shape raises ConfigError.
    """
    x, y = _rows(x, 2, ConfigError), _rows(y, 2, ConfigError)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ConfigError("positions must not be NaN")
    m, n = x.shape[0], y.shape[0]
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return OSPA_C
    if m > n:
        x, y, m, n = y, x, n, m
    with np.errstate(invalid="ignore"):  # two positions at one infinity are NaN apart
        dists = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    cost = np.fmin(dists, OSPA_C) ** OSPA_P
    cols = _assign_columns(cost)
    total = cost[np.arange(m), cols].sum() + OSPA_C**OSPA_P * (n - m)
    return float((total / n) ** (1.0 / OSPA_P))


def known_birth_components(cfg: ScenarioConfig) -> MultiBernoulliDensity:
    """One component per object present at step 0; its id is the object's
    position in cfg.births."""
    ids = [i for i, b in enumerate(cfg.births) if b.birth_step == 0]
    means = np.array([cfg.births[i].state for i in ids], dtype=float).reshape(-1, 4)
    return _single_gaussians(ids, KNOWN_BIRTH_R, means, np.diag(KNOWN_BIRTH_VAR))


def run_local_filter(
    scans: list[np.ndarray],
    cfg: ScenarioConfig,
    sensor: SensorModel,
) -> list[MultiBernoulliDensity]:
    """GM cardinality-balanced MB filter over one sensor's scan sequence."""
    posterior = MultiBernoulliDensity(())
    prev_scan = np.zeros((0, 2))    # no adaptive births before the first scan
    out = []
    for k, scan in enumerate(scans):
        if cfg.adaptive_births:
            births = adaptive_birth(prev_scan, start_id=posterior.next_id())
        else:
            births = known_birth_components(cfg) if k == 0 else None
        predicted = mb_predict(posterior, cfg.motion, births)
        updated = mb_update(predicted, scan, sensor)
        posterior = mb_reduce(updated, REDUCE_CONFIG)
        out.append(posterior)
        prev_scan = scan
    return out


@dataclass
class MonteCarloResult:
    steps: np.ndarray
    truth_card: np.ndarray
    ospa_local: np.ndarray
    ospa_fused: np.ndarray
    ospa_naive: np.ndarray | None
    card_mean: np.ndarray
    card_std: np.ndarray
    t_fuse_ms: np.ndarray
    t_fuse_max_ms: np.ndarray
    n_h: np.ndarray
    n_h_clustered: np.ndarray

    CSV_COLUMNS = ("step", "ospa_local_mean", "ospa_fused_mean", "card_mean", "card_std",
                   "N_H", "N_H2")

    def to_csv(self, path) -> None:
        """Deterministic per-step statistics (timings go to a separate file)."""
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for i, k in enumerate(self.steps):
                fh.write(
                    f"{int(k)},{self.ospa_local[i]:.9f},{self.ospa_fused[i]:.9f},"
                    f"{self.card_mean[i]:.9f},{self.card_std[i]:.9f},"
                    f"{self.n_h[i]:.6e},{self.n_h_clustered[i]:.6e}\n"
                )

    def timings_to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("step,t_fuse_ms\n")
            for i, k in enumerate(self.steps):
                fh.write(f"{int(k)},{self.t_fuse_ms[i]:.6f}\n")


def _condense_for_fusion(mb: MultiBernoulliDensity, cfg) -> MultiBernoulliDensity:
    merged = mb_merge_components(mb, CONDENSE_GATE, REDUCE_CONFIG.gm)
    ids, rs, *_ = merged.stack
    capped = np.minimum(rs, CONDENSE_R_CAP)
    kept = _strongest(ids, capped, np.flatnonzero(rs >= CONDENSE_TRUNC), cfg.fusion_max_components)
    return _take(merged, kept, capped)


def _fusion_inputs(cfg, read, posteriors_by_sensor, k):
    """The condensed step-k densities of the sensors in read, a {sensor:
    weight} dict, and their weights, both in read's order."""
    densities = [_condense_for_fusion(posteriors_by_sensor[j][k], cfg) for j in read]
    return densities, list(read.values())


def run_montecarlo(
    cfg: ScenarioConfig,
    n_runs: int,
    compare_oracle: bool = False,
) -> MonteCarloResult:
    """Independent seeded runs: local filtering, fusion at one node, OSPA.

    Only the sensors the node reads, its own and its neighbours', are
    filtered; each draws its scans from its own seed, so skipping the rest
    changes no output. cfg was checked when it was built.
    """
    if not _is_cap(n_runs):
        raise ConfigError(f"n_runs must be an integer >= 1, got {n_runs}")
    # The node's own density first, then its neighbours' in index order.
    self_w, neighbor_w = metropolis_weights(cfg.adjacency, cfg.fusion_node)
    read = {cfg.fusion_node: self_w, **neighbor_w}
    T = cfg.duration
    truth = generate_truth(cfg)
    truth_card = np.array([len(t) for t in truth])

    ospa_local = np.zeros((n_runs, T))
    ospa_fused = np.zeros((n_runs, T))
    ospa_naive = np.zeros((n_runs, T)) if compare_oracle else None
    card = np.zeros((n_runs, T))
    t_fuse = np.zeros((n_runs, T))
    n_h = np.zeros((n_runs, T))
    n_h2 = np.zeros((n_runs, T))

    for run in range(n_runs):
        posteriors = {}
        for s in read:
            scans = generate_measurements(
                truth, cfg.sensors[s], np.random.SeedSequence([cfg.base_seed, run, s]).entropy
            )
            posteriors[s] = run_local_filter(scans, cfg, cfg.sensors[s])

        for k in range(T):
            # The fusion node's time includes condensing the exchanged densities.
            t0 = time.perf_counter()
            densities, weights = _fusion_inputs(cfg, read, posteriors, k)
            fused, diags = multi_sensor_fuse(densities, weights, cfg.gamma,
                                             reduce_config=REDUCE_CONFIG, return_diagnostics=True)
            t_fuse[run, k] = (time.perf_counter() - t0) * 1e3
            if diags:
                n_h[run, k] = float(min(diags[0].n_h, 1e300))
                n_h2[run, k] = float(diags[0].n_h_clustered)

            truth_pos = truth[k][:, :2]
            local_est = extract_estimates(posteriors[cfg.fusion_node][k])
            fused_est = extract_estimates(fused)
            ospa_local[run, k] = ospa(local_est[:, :2], truth_pos)
            ospa_fused[run, k] = ospa(fused_est[:, :2], truth_pos)
            card[run, k] = fused_est.shape[0]

            if compare_oracle:
                acc, _ = _fold_pairwise(
                    densities, weights,
                    lambda a, b, w: naive_gci_mb_fuse(a, b, w, gm_config=REDUCE_CONFIG.gm),
                    REDUCE_CONFIG,
                )
                naive_est = extract_estimates(acc)
                ospa_naive[run, k] = ospa(naive_est[:, :2], truth_pos)

    return MonteCarloResult(
        steps=np.arange(T),
        truth_card=truth_card,
        ospa_local=ospa_local.mean(axis=0),
        ospa_fused=ospa_fused.mean(axis=0),
        ospa_naive=ospa_naive.mean(axis=0) if compare_oracle else None,
        card_mean=card.mean(axis=0),
        card_std=card.std(axis=0),
        t_fuse_ms=t_fuse.mean(axis=0),
        t_fuse_max_ms=t_fuse.max(axis=0),
        n_h=n_h.mean(axis=0),
        n_h_clustered=n_h2.mean(axis=0),
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------


def scenario1(seed: int = 1) -> ScenarioConfig:
    """Two sensors, three objects known to be born at step 0, T = 65."""
    region = Rectangle(-500.0, 500.0, -500.0, 500.0)
    motion = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
    sensor = SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=0.95, clutter_rate=10.0, region=region
    )
    births = (
        ObjectBirth(0, 65, np.array([-250.0, -250.0, 5.0, 3.0])),
        ObjectBirth(0, 65, np.array([250.0, -250.0, -4.0, 4.0])),
        ObjectBirth(0, 65, np.array([0.0, 250.0, 2.0, -5.0])),
    )
    return ScenarioConfig(
        name="scenario1",
        region=region,
        duration=65,
        births=births,
        motion=motion,
        sensors=(sensor, sensor),
        adjacency=(frozenset({1}), frozenset({0})),
        fusion_node=0,
        base_seed=seed,
        fusion_max_components=6,
    )


def _staggered_births(n_objects: int, duration: int, region: Rectangle, seed: int):
    rng = np.random.default_rng(seed)
    births = []
    for i in range(n_objects):
        birth = int(rng.integers(0, max(1, duration // 3))) if i >= n_objects // 2 else 0
        death = int(min(duration, birth + rng.integers(duration // 2, duration)))
        margin = 0.3
        px = rng.uniform(region.xmin * (1 - margin), region.xmax * (1 - margin))
        py = rng.uniform(region.ymin * (1 - margin), region.ymax * (1 - margin))
        speed = rng.uniform(3.0, 10.0)
        angle = rng.uniform(0, 2 * np.pi)
        births.append(
            ObjectBirth(birth, death, np.array([px, py, speed * np.cos(angle),
                                               speed * np.sin(angle)]))
        )
    return tuple(births)


def scenario2(scale: str = "desk", seed: int = 1) -> ScenarioConfig:
    """Adaptive-birth multi-object scenario; desk scale by default.

    Desk scale: 10 objects, 3 chain-linked sensors, T = 100.
    Full scale: 40 objects, 6 sensors, T = 200; one run takes about
    12 s on a shared 2-vCPU x86_64 host, a level that drifts with the host.
    """
    region = Rectangle(-2000.0, 2000.0, -2000.0, 2000.0)
    motion = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
    sensor = SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=0.95, clutter_rate=10.0, region=region
    )
    if scale == "desk":
        duration, n_objects = 100, 10
        sensors = (sensor,) * 3
        adjacency = (frozenset({1}), frozenset({0, 2}), frozenset({1}))
        fusion_node = 1
    elif scale == "full":
        duration, n_objects = 200, 40
        sensors = (sensor,) * 6
        adjacency = (
            frozenset({1, 4}),
            frozenset({0, 2}),
            frozenset({1, 4}),
            frozenset({4}),
            frozenset({0, 2, 3, 5}),
            frozenset({4}),
        )
        fusion_node = 4
    else:
        raise ConfigError(f"unknown scale {scale!r}")
    births = _staggered_births(n_objects, duration, region, seed=777)
    return ScenarioConfig(
        name=f"scenario2-{scale}",
        region=region,
        duration=duration,
        births=births,
        motion=motion,
        sensors=sensors,
        adjacency=adjacency,
        fusion_node=fusion_node,
        base_seed=seed,
        adaptive_births=True,
    )


def build_scenario(name: str, scale: str = "desk", seed: int = 1) -> ScenarioConfig:
    if name == "scenario1":
        return scenario1(seed=seed)
    if name == "scenario2":
        return scenario2(scale=scale, seed=seed)
    raise ConfigError(f"unknown scenario {name!r}")
