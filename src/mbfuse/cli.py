"""Command-line entry point.

Subcommands:
  run            Monte-Carlo scenario with clustered fusion, write CSV results.
  compare-oracle Run clustered fusion next to exhaustive fusion and report gaps.
  bench-counts   Hypothesis-count bookkeeping for random instances.
  bound-check    Empirical truncation error against the analytic bound.

Exit codes: 0 ok, 2 configuration or argument error (any ConfigError, the
library's own included), 3 numerical failure, 4 fusion intractable under
its fixed cap, 5 truncation bound violated (bound-check).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, IntractableFusionError, NumericalError
from .gci import FusionWeights, naive_gci_mb_fuse, pairwise_distances
from .mb import GaussianMixture, BernoulliComponent, MultiBernoulliDensity
from .pgci import hypothesis_count_report, l1_error_bound
from .clustering import compute_lic
from .sim import build_scenario, run_montecarlo


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


def _check_runs(args: argparse.Namespace) -> None:
    """Reject a run count below 1; compute_lic checks the gate in every run."""
    if args.runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")


def cmd_bench_counts(args: argparse.Namespace) -> int:
    _check_runs(args)
    rng = np.random.default_rng(args.seed)
    w = FusionWeights(0.5, 0.5)
    print("n1,n2,N_H,N_distinct,N_H_prod,N_H_sum")
    for _ in range(args.runs):
        # Either side may be the larger one; the report takes min and max.
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 8))
        mb1 = _random_mb(rng, n1)
        mb2 = _random_mb(rng, n2)
        dists = pairwise_distances(mb1, mb2, w)
        lic = compute_lic(dists, args.gamma)
        report = hypothesis_count_report(mb1, mb2, lic)
        print(
            f"{n1},{n2},{report.n_h},{report.n_h_distinct},"
            f"{report.n_h_truncated},{report.n_h_clustered}"
        )
    return 0


def cmd_bound_check(args: argparse.Namespace) -> int:
    _check_runs(args)
    rng = np.random.default_rng(args.seed)
    w = FusionWeights(0.5, 0.5)
    worst_ratio = 0.0
    for _ in range(args.runs):
        # Either side may be the larger one; the oracle orients them.
        mb1 = _random_mb(rng, int(rng.integers(2, 5)), spread=20.0)
        mb2 = _random_mb(rng, int(rng.integers(2, 5)), spread=20.0)
        _, gmb = naive_gci_mb_fuse(mb1, mb2, w)
        lic = compute_lic(gmb.distances, args.gamma)
        exact, bound = l1_error_bound(gmb, lic, args.gamma)
        if exact > bound + 1e-12:
            print(f"BOUND VIOLATED: exact={exact} bound={bound}")
            return 5
        if bound > 0:
            worst_ratio = max(worst_ratio, exact / bound)
    print(f"checked {args.runs} instances, bound holds; worst exact/bound "
          f"ratio {worst_ratio:.3e}")
    return 0


# (option, type, default, choices), shared by the subcommands that read them.
_SCENARIO = (
    ("scenario", str, "scenario1", ("scenario1", "scenario2")),
    ("scale", str, "desk", ("desk", "full")),
)
_COMMON = (("seed", int, 1, None), ("runs", int, 10, None), ("gamma", float, 4.0, None))

_COMMANDS = {
    "run": (cmd_run, _SCENARIO + _COMMON + (("out", str, "results", None),)),
    "compare-oracle": (cmd_compare_oracle, _SCENARIO + _COMMON),
    "bench-counts": (cmd_bench_counts, _COMMON),
    "bound-check": (cmd_bound_check, _COMMON),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbfuse",
        description="Distributed multi-object tracking with clustered "
        "multi-Bernoulli fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for key, cast, default, choices in options:
            p.add_argument(f"--{key}", type=cast, default=default, choices=choices)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
