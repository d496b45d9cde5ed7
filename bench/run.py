"""mbfuse benchmark: one workload, one seed, one measurement window.

Usage, from the repository root:

    python3 bench/run.py --workload s2-desk --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
alternates untraced and traced runs of the same inputs and reports the
per-layer metrics. Both check the program's outputs first. The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
the lines before it print every metric with its unit and the host facts.
A full record, and in traced runs every span, go to ``.bench_out/``.

Run and step timings are scaled to a reference host speed, because the
shared host's speed drifts by up to 2x over minutes. The
``workloads.Reference`` kernel, which never calls ``mbfuse``, is timed right
before every fusion-node step and once after a run's last step. Each step's
time is multiplied by ``REF_NOMINAL_S`` over the median of the ``REF_SPAN``
samples before it and the ``REF_SPAN`` after it; a run's wall time, by
``REF_NOMINAL_S`` over the median of its own samples. The raw times are
printed and recorded beside them. Set-up time, spent in fresh interpreters,
follows another clock: each set-up is multiplied by ``SETUP_REF_NOMINAL_S``
over the mean wall time of the two fresh interpreters that only import
numpy, started right before and right after it.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("s1", "s2-desk", "fuse-dense")
SETUP_REPEATS = 7
# Timings read as on a host where one reference sample takes this long;
# its median on the baseline host ranged 0.6-1.25 ms, typically 1.1 ms.
REF_NOMINAL_S = 1.0e-3
REF_SPAN = 5             # a step is scaled by the 5 samples before and 5 after it
# Set-ups read as on a host where a fresh interpreter imports numpy in this
# long; on the baseline host that took 0.16-0.23 s.
SETUP_REF_NOMINAL_S = 0.2
MIN_NODE_SAMPLES = 200   # p95 then has at least 10 samples beyond it
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Layers that must record calls in a traced run of each workload; a
# refactor that moves work out from under a wrapper then fails loudly.
FILTER_LAYERS = ("sim.run_local_filter", "mb.predict", "mb.update", "mb.reduce")
FUSION_LAYERS = (
    "pgci.multi_sensor_fuse", "pgci.pgci_fuse", "gci.pairwise_distances",
    "clustering.compute_lic", "pgci.fuse_cluster", "gci.fused_pair_density",
    "gm.pair_product", "gm.reduce",
)
MUST_RUN = {
    "s1": FILTER_LAYERS + FUSION_LAYERS + ("sim.condense", "mb.merge_components"),
    "s2-desk": FILTER_LAYERS + FUSION_LAYERS
    + ("mb.birth", "sim.condense", "mb.merge_components"),
    "fuse-dense": FUSION_LAYERS + ("mb.reduce",),
}

clock = time.perf_counter


def median(values) -> float:
    return float(statistics.median(values))


def listed_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pooled_mean(arrays) -> float:
    return statistics.fmean(float(x) for a in arrays for x in a)


def host_facts() -> dict:
    import numpy as np
    import scipy

    def blas_version(module) -> str:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError):
            return "unknown"

    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "process_threads": threads,
        "blas_threads_pinned": {v: os.environ[v] for v in BLAS_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Import plus input construction, each time in a fresh interpreter.

    Returns (set-up seconds, reference seconds) per interpreter. The
    reference is the mean wall time of the interpreters started right
    before and right after it that only import numpy. A fresh process's
    start-up drifts with the host's memory and file-cache load, which the
    in-process reference kernel does not see.
    """

    def reference() -> float:
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        return clock() - t0

    refs = [reference()]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        refs.append(reference())
        samples.append((float(proc.stdout.split()[-1]), (refs[-2] + refs[-1]) / 2))
    return samples


def run_loop(wl, seed: int, seconds: float, run_pair, min_runs: int, min_nodes: int):
    """Closed loop of runs until the window has passed and at least
    ``min_runs`` runs and ``min_nodes`` fusion-node steps are done. Run 0
    is checked, and the check is left out of the window.

    Returns (records, attempted, failures); a run that raises ends the loop.
    """
    records, failures = [], []
    attempted = nodes = 0
    deadline = clock() + seconds
    while True:
        attempted += 1
        try:
            rec = run_pair(len(records))
            if not records:
                t0 = clock()
                checked, found = wl.check(OUT, seed)
                attempted += checked
                failures += found
                deadline += clock() - t0
        except Exception:
            failures.append(traceback.format_exc())
            break
        records.append(rec)
        nodes += len(rec[0].nodes)
        if clock() >= deadline and len(records) >= min_runs and nodes >= min_nodes:
            break
    return records, attempted, failures


def end_to_end(records, setup_samples, quality_runs: int) -> tuple[dict, dict]:
    runs = [r for (r,) in records]
    node_ms = [(b - a) * 1e3 for r in runs for a, b in r.nodes]
    node_busy = sum(node_ms) / 1e3
    quality = runs[:quality_runs]
    # Reference sample i precedes step i, and the last one follows the last step.
    step_ms = [
        (b - a) * 1e3 * REF_NOMINAL_S / median(r.ref[max(0, i + 1 - REF_SPAN): i + 1 + REF_SPAN])
        for r in runs
        for i, (a, b) in enumerate(r.nodes)
    ]
    run_scale = [REF_NOMINAL_S / median(r.ref) for r in runs]
    metrics = {
        "setup_s": median(s * SETUP_REF_NOMINAL_S / ref for s, ref in setup_samples),
        "run_wall_s": median(r.wall_s * k for r, k in zip(runs, run_scale)),
        "node_latency_p50_ms": median(step_ms),
        "node_latency_p95_ms": statistics.quantiles(step_ms, n=20)[-1],
        "fusions_per_s": len(step_ms) / (sum(step_ms) / 1e3),
        "ospa_fused_mean_m": pooled_mean(r.ospa_fused for r in quality),
        "ospa_local_mean_m": pooled_mean(r.ospa_local for r in quality),
        "card_within1_frac": pooled_mean(r.card_within1 for r in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "raw.setup_s": median(s for s, _ in setup_samples),
        "setup_ref_median_s": median(ref for _, ref in setup_samples),
        "raw.run_wall_s": median(r.wall_s for r in runs),
        "raw.node_latency_p50_ms": median(node_ms),
        "raw.node_latency_p95_ms": statistics.quantiles(node_ms, n=20)[-1],
        "raw.fusions_per_s": len(node_ms) / node_busy,
        "ref_median_ms": median(x for r in runs for x in r.ref) * 1e3,
        "runs": len(runs),
        "node_samples": len(node_ms),
    }
    if runs[0].scans:
        extra["filter_ms_per_scan"] = median(
            r.filter_s / r.scans * 1e3 * k for r, k in zip(runs, run_scale)
        )
    return metrics, extra


def per_layer(records, tracer, workload) -> tuple[dict, int, list[str]]:
    untraced = [u for u, _, _ in records]
    traced = [t for _, t, _ in records]
    windows = [w for _, _, w in records]
    n = len(traced)
    summary = tracer.summary()
    counts = tracer.counts

    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0) / n

    def self_(name):
        return summary.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / n

    op_wall = sum(b - a for a, b in windows)
    op_covered = sum(tracer.covered(a, b) for a, b in windows)
    nodes = [iv for t in traced for iv in t.nodes]
    node_wall = sum(b - a for a, b in nodes)
    node_covered = sum(tracer.covered(a, b) for a, b in nodes)
    scans = untraced[0].scans
    m = {
        "mb.reduce_filter_s": tracer.inclusive_under("mb.reduce", "sim.run_local_filter") / n,
        "mb.update_s": incl("mb.update"),
        "mb.predict_s": incl("mb.predict"),
        "mb.birth_s": incl("mb.birth"),
        "mb.update_gaussian_meas_pairs": counts["mb.update_gaussian_meas_pairs"] / n,
        "mb.merge_components_s": incl("mb.merge_components"),
        "mb.merge_components_in": counts["mb.merge_components_in"] / n,
        "mb.merge_components_out": counts["mb.merge_components_out"] / n,
        "sim.condense_self_s": self_("sim.condense"),
        "gm.reduce_s": incl("gm.reduce"),
        "gm.reduce_calls": calls("gm.reduce"),
        "gm.reduce_components_in": counts["gm.reduce_components_in"] / n,
        "gm.reduce_components_out": counts["gm.reduce_components_out"] / n,
        "pgci.fuse_cluster_s": incl("pgci.fuse_cluster"),
        "pgci.clusters": counts["pgci.clusters"] / n,
        "pgci.clusters_1x1": counts["pgci.clusters_1x1"] / n,
        "pgci.largest_cluster": counts["pgci.largest_cluster"],
        "pgci.hypotheses": counts["pgci.hypotheses"] / n,
        "gm.pair_product_s": incl("gm.pair_product"),
        "gm.pair_product_calls": calls("gm.pair_product"),
        "gci.fused_pair_density_calls": calls("gci.fused_pair_density"),
        "gci.pairwise_distances_s": incl("gci.pairwise_distances"),
        "gci.gaussian_pairs": counts["gci.gaussian_pairs"] / n,
        "clustering.compute_lic_s": incl("clustering.compute_lic"),
        "clustering.pairs_in_gate": counts["clustering.pairs_in_gate"] / n,
        "clustering.pairs_total": counts["clustering.pairs_total"] / n,
        "mb.reduce_fusion_s": tracer.inclusive_under("mb.reduce", "pgci.multi_sensor_fuse") / n,
        "pgci.pgci_fuse_self_s": self_("pgci.pgci_fuse"),
        "pgci.multi_sensor_fuse_self_s": self_("pgci.multi_sensor_fuse"),
        "sim.run_local_filter_self_s": self_("sim.run_local_filter"),
        "sim.estimates_ospa_s": incl("mb.extract_estimates") + incl("sim.ospa"),
        "sim.generate_measurements_s": incl("sim.generate_measurements"),
        "sim.filter_ms_per_scan": (
            median(u.filter_s / u.scans * 1e3 for u in untraced) if scans else 0.0
        ),
        "trace.overhead_s": median(t.wall_s - u.wall_s for u, t in zip(untraced, traced)),
        "trace.unaccounted_frac": 1.0 - op_covered / op_wall,
        "trace.node_accounted_frac": node_covered / node_wall,
    }
    failures = [
        f"layer {name} recorded no calls on {workload}"
        for name in MUST_RUN[workload]
        if name not in summary
    ]
    return m, len(MUST_RUN[workload]), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mbfuse" / "__init__.py").is_file():
        print(f"mbfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy loads OpenBLAS; recorded in the host facts.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        t0 = clock()
        import workloads

        workloads.build(args.workload, args.seed)
        print(clock() - t0)
        return 0

    setup_samples = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    import mbfuse
    import workloads
    from spans import Tracer

    if Path(mbfuse.__file__).resolve().parent != SRC / "mbfuse":
        print(f"imported mbfuse from {mbfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed)

    if args.trace == 0:
        records, attempted, failures = run_loop(
            wl, args.seed, args.seconds, lambda i: (wl.run(i),),
            min_runs=wl.quality_runs, min_nodes=MIN_NODE_SAMPLES,
        )
    else:
        tracer = Tracer()
        wl.reference = None   # per-layer figures are raw seconds

        def run_pair(i):
            untraced = wl.run(i)
            with tracer:
                a = clock()
                traced = wl.run(i)
                b = clock()
            return untraced, traced, (a, b)

        records, attempted, failures = run_loop(
            wl, args.seed, args.seconds, run_pair, min_runs=1, min_nodes=0
        )

    extra: dict = {}
    values: dict = {}
    if records and args.trace == 0:
        values, extra = end_to_end(records, setup_samples, wl.quality_runs)
    elif records:
        values, checked, missing = per_layer(records, tracer, args.workload)
        attempted += checked
        failures += missing
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    units = listed_units(args.trace)
    if values and set(values) != set(units):
        failures.append(f"metrics {sorted(set(values) ^ set(units))} not both measured and listed")
    metrics = {k: (v, units[k]) for k, v in values.items() if k in units}
    failed = min(len(failures), attempted)
    extra["failed_frac"] = failed / attempted

    facts = host_facts()
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"{name:34s} {value:14.6g}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("host " + json.dumps(facts))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, extra=extra, host=facts, failures=failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
