"""In-memory span tracing of mbfuse layer functions, applied from outside.

Inside ``with Tracer():`` each layer function listed in ``LAYERS`` is
replaced by a timing wrapper in every loaded ``mbfuse`` module that binds
it (so calls through ``from .gm import gm_reduce`` are seen too); leaving
the block puts the originals back. Each call records one span (name,
start, end, parent) plus the counts its ``count`` hook derives from the
arguments and the result. Nothing in the package itself is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _n_gauss(mb) -> int:
    return sum(c.pdf.n_components for c in mb.components)


def _count_gm_reduce(counts, args, kwargs, result):
    counts["gm.reduce_components_in"] += args[0].n_components
    counts["gm.reduce_components_out"] += result.n_components


def _count_mb_update(counts, args, kwargs, result):
    predicted, scan = args[0], args[1]
    counts["mb.update_gaussian_meas_pairs"] += _n_gauss(predicted) * len(scan)


def _count_merge(counts, args, kwargs, result):
    counts["mb.merge_components_in"] += len(args[0])
    counts["mb.merge_components_out"] += len(result)


def _count_distances(counts, args, kwargs, result):
    counts["gci.gaussian_pairs"] += _n_gauss(args[0]) * _n_gauss(args[1])


def _count_lic(counts, args, kwargs, result):
    distances, gamma = args[0], args[1]
    counts["clustering.pairs_in_gate"] += int((distances <= gamma).sum())
    counts["clustering.pairs_total"] += int(distances.size)


def _count_cluster(counts, args, kwargs, result):
    cluster = args[0]
    n1, n2 = len(cluster.l1), len(cluster.l2)
    counts["pgci.clusters"] += 1
    counts["pgci.clusters_1x1"] += n1 == 1 and n2 == 1
    counts["pgci.hypotheses"] += result.hypothesis_count
    counts["pgci.largest_cluster"] = max(counts["pgci.largest_cluster"], n1, n2)


# (module, function, span name, count hook)
LAYERS = (
    ("gm", "gm_reduce", "gm.reduce", _count_gm_reduce),
    ("gm", "gm_pair_product", "gm.pair_product", None),
    ("mb", "mb_predict", "mb.predict", None),
    ("mb", "mb_update", "mb.update", _count_mb_update),
    ("mb", "mb_reduce", "mb.reduce", None),
    ("mb", "adaptive_birth", "mb.birth", None),
    ("mb", "mb_merge_components", "mb.merge_components", _count_merge),
    ("mb", "extract_estimates", "mb.extract_estimates", None),
    ("gci", "pairwise_distances", "gci.pairwise_distances", _count_distances),
    ("gci", "fused_pair_density", "gci.fused_pair_density", None),
    ("clustering", "compute_lic", "clustering.compute_lic", _count_lic),
    ("pgci", "fuse_cluster", "pgci.fuse_cluster", _count_cluster),
    ("pgci", "pgci_fuse", "pgci.pgci_fuse", None),
    ("pgci", "multi_sensor_fuse", "pgci.multi_sensor_fuse", None),
    ("sim", "generate_measurements", "sim.generate_measurements", None),
    ("sim", "run_local_filter", "sim.run_local_filter", None),
    ("sim", "_condense_for_fusion", "sim.condense", None),
    ("sim", "ospa", "sim.ospa", None),
)


def patch_everywhere(original, replacement) -> list:
    """Rebind ``original`` to ``replacement`` in every loaded mbfuse module.

    Returns the (module, name, original) triples needed to undo the patch.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "mbfuse" and not name.startswith("mbfuse."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def unpatch(undo) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


class Tracer:
    """Spans are [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for module_name, attr, name, count in LAYERS:
            fn = getattr(sys.modules[f"mbfuse.{module_name}"], attr)
            self._undo += patch_everywhere(fn, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        self._undo = []

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Calls run on one thread and nest strictly, so the part of a span
        its children cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[i]
        return out

    def inclusive_under(self, name: str, ancestor: str) -> float:
        """Seconds spent in spans ``name`` that have ``ancestor`` above them."""
        total = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                total += s[2] - s[1]
        return total

    def covered(self, t_start: float, t_end: float) -> float:
        """Seconds of [t_start, t_end] covered by root spans."""
        return sum(
            min(t1, t_end) - max(t0, t_start)
            for _, t0, t1, parent in self.spans
            if parent < 0 and t1 > t_start and t0 < t_end
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
