"""Command-line entry point.

Subcommands:
  run            Monte-Carlo scenario with clustered fusion, write CSV results.
  compare-oracle Run clustered fusion next to exhaustive fusion and report gaps.
  bench-counts   Hypothesis-count bookkeeping for random instances.
  bound-check    Empirical truncation error against the analytic bound.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 fusion
intractable under the configured cap.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, IntractableFusionError, NumericalError
from .gci import FusionWeights, naive_gci_mb_fuse, pairwise_distances
from .mb import GaussianMixture, BernoulliComponent, MultiBernoulliDensity
from .pgci import hypothesis_count_report, inter_cluster_hypotheses, l1_error_bound
from .clustering import compute_lic
from .sim import build_scenario, run_montecarlo


def _apply_config_file(args: argparse.Namespace) -> None:
    if not args.config:
        return
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    if "run" not in parser:
        raise ConfigError("config file must contain a [run] section")
    section = parser["run"]
    for key, cast in (
        ("scenario", str),
        ("scale", str),
        ("seed", int),
        ("runs", int),
        ("gamma", float),
        ("out", str),
    ):
        if key in section and getattr(args, key, None) is None:
            try:
                setattr(args, key, cast(section[key]))
            except ValueError as exc:
                raise ConfigError(f"bad config value for {key}: {exc}") from exc


def _fill_defaults(args: argparse.Namespace) -> None:
    defaults = {
        "scenario": "scenario1",
        "scale": "desk",
        "seed": 1,
        "runs": 10,
        "gamma": 4.0,
        "out": "results",
    }
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _random_mb(rng: np.random.Generator, n: int, spread: float = 60.0):
    comps = []
    for i in range(n):
        mean = rng.uniform(-spread, spread, size=2)
        cov = np.diag(rng.uniform(1.0, 6.0, size=2))
        comps.append(
            BernoulliComponent(
                r=float(rng.uniform(0.2, 0.9)),
                pdf=GaussianMixture.single(mean, cov),
                id=i,
            )
        )
    return MultiBernoulliDensity(tuple(comps))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_scenario(args.scenario, scale=args.scale, seed=args.seed)
    cfg = dataclasses.replace(cfg, gamma=args.gamma)
    result = run_montecarlo(cfg, n_runs=args.runs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "results.csv")
    result.timings_to_csv(out / "timings.csv")
    print(f"wrote {out / 'results.csv'} ({len(result.steps)} steps, {args.runs} runs)")
    print(f"mean fused OSPA: {result.ospa_fused.mean():.3f}")
    return 0


def cmd_compare_oracle(args: argparse.Namespace) -> int:
    cfg = build_scenario(args.scenario, scale=args.scale, seed=args.seed)
    cfg = dataclasses.replace(cfg, gamma=args.gamma)
    result = run_montecarlo(cfg, n_runs=args.runs, compare_oracle=True)
    gap = np.abs(result.ospa_fused - result.ospa_naive)
    print(f"mean fused OSPA (clustered):  {result.ospa_fused.mean():.4f}")
    print(f"mean fused OSPA (exhaustive): {result.ospa_naive.mean():.4f}")
    print(f"max per-step gap:             {gap.max():.4f}")
    return 0


def cmd_bench_counts(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    w = FusionWeights(0.5, 0.5)
    print("n1,n2,N_H,N_distinct,N_H_prod,N_H_sum")
    for _ in range(args.runs):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(n1, 8))
        mb1 = _random_mb(rng, n1)
        mb2 = _random_mb(rng, n2)
        dists = pairwise_distances(mb1, mb2, w)
        lic, _ = compute_lic(dists, args.gamma)
        report = hypothesis_count_report(mb1, mb2, lic)
        print(
            f"{n1},{n2},{report.n_h},{report.n_h_distinct},"
            f"{report.n_h_truncated},{report.n_h_clustered}"
        )
    return 0


def cmd_bound_check(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    w = FusionWeights(0.5, 0.5)
    worst_ratio = 0.0
    for _ in range(args.runs):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(n1, 5))
        mb1 = _random_mb(rng, n1, spread=20.0)
        mb2 = _random_mb(rng, n2, spread=20.0)
        dists = pairwise_distances(mb1, mb2, w)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, w, distances=dists)
        if gmb.swapped:
            dists = dists.T
        lic, _ = compute_lic(dists, args.gamma)
        discarded = inter_cluster_hypotheses(gmb, lic)
        exact, bound = l1_error_bound(gmb, discarded, args.gamma)
        if exact > bound + 1e-12:
            print(f"BOUND VIOLATED: exact={exact} bound={bound}")
            return 3
        if bound > 0:
            worst_ratio = max(worst_ratio, exact / bound)
    print(f"checked {args.runs} instances, bound holds; worst exact/bound "
          f"ratio {worst_ratio:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbfuse",
        description="Distributed multi-object tracking with clustered "
        "multi-Bernoulli fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", cmd_run),
        ("compare-oracle", cmd_compare_oracle),
        ("bench-counts", cmd_bench_counts),
        ("bound-check", cmd_bound_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--scenario", type=str, default=None,
                       choices=["scenario1", "scenario2"])
        p.add_argument("--scale", type=str, default=None, choices=["desk", "full"])
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        _fill_defaults(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntractableFusionError as exc:
        print(f"fusion intractable: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
