"""The package runs on numpy alone: no scipy module is ever imported.

scipy is a test dependency only (the references in ``oracle.py`` use it), so
the check runs in a fresh interpreter that imports nothing from the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
import numpy as np
import mbfuse
import mbfuse.cli
from mbfuse import (
    BernoulliComponent, FusionWeights, GaussianMixture, MultiBernoulliDensity,
    compute_lic, l1_error_bound, naive_gci_mb_fuse,
    run_montecarlo, scenario1,
)

result = run_montecarlo(scenario1(seed=1), n_runs=1, compare_oracle=True)
assert np.isfinite(result.ospa_naive).all()

def density(*means):
    return MultiBernoulliDensity(tuple(
        BernoulliComponent(r=0.7, pdf=GaussianMixture.single(np.array(m), np.eye(2)), id=i)
        for i, m in enumerate(means)
    ))

# The pair (1, 1) lies outside the gate, so some hypotheses are discarded.
mb1, mb2 = density([0.0, 0.0], [3.0, 0.0]), density([0.5, 0.0], [9.0, 0.0])
w = FusionWeights(0.5, 0.5)
_, gmb = naive_gci_mb_fuse(mb1, mb2, w)
lic = compute_lic(gmb.distances, 4.0)
exact, bound = l1_error_bound(gmb, lic, 4.0)
assert 0.0 < exact <= bound, (exact, bound)

loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
print(loaded)
sys.exit(1 if loaded else 0)
"""


def test_no_scipy_module_is_imported():
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
