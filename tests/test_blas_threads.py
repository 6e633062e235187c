"""Emitted bytes do not depend on the BLAS thread count.

The 1-D reductions (grid and delta-mixture means and variances, and the
agreement analysis's grid means) are plain ``einsum`` sums, so a run of a
scenario with a 1-D agent, a batch of the grid pair, and
``mean_contraction_gap`` of grid beliefs give the same bytes with one BLAS
thread as with two.  So do the particle agents of ``quantum_pair_biasedZ``
(exact refresh, utility table) and ``quinn_clara_sharp`` (resample-move).
The digests come from the golden test's own helpers, computed in child
processes that fix the thread count before numpy loads.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SCENARIOS = ("classical_disjoint", "classical_pair", "coin_tomography", "prior_coins_simultaneous",
             "prior_coins_turns", "quinn_clark", "quantum_pair_biasedZ", "quinn_clara_sharp")
BATCH_CASE = "classical_pair"  # 20 steps over seeds 1-3
GAP_SHAPES = (0.5, 1.0, 2.5, 7.0, 40.0)  # Beta(alpha, beta) grids, 25 beliefs, 625 pairs

CHILD = f"""
import hashlib, json, sys, tempfile
from functools import partial
sys.path.insert(0, {HERE!r})
from test_golden import batch_digest, golden_record
from qbagents.agreement import mean_contraction_gap
from qbagents.core_math import DEFAULT_GRID_POINTS, BetaParams, beta_pdf
from qbagents.inference import grid_ensemble
from qbagents.postulate import Interval
with tempfile.TemporaryDirectory() as tmp:
    out = {{name: golden_record(name, 1, tmp + "/" + name) for name in {SCENARIOS!r}}}
    out["batch"] = batch_digest({BATCH_CASE!r}, tmp + "/batch")
grids = [grid_ensemble(Interval(), DEFAULT_GRID_POINTS, pdf=partial(beta_pdf, p=BetaParams(a, b)))
         for a in {GAP_SHAPES!r} for b in {GAP_SHAPES!r}]
gaps = [mean_contraction_gap(a, b) for a in grids for b in grids]
out["mean_contraction_gap"] = hashlib.sha256(repr(gaps).encode()).hexdigest()
json.dump(out, sys.stdout, sort_keys=True)
"""


def _digests(threads: int) -> dict:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def digests():
    return {threads: _digests(threads) for threads in (1, 2)}


@pytest.mark.parametrize("key", SCENARIOS + ("batch", "mean_contraction_gap"))
def test_bytes_equal_at_one_and_two_threads(digests, key):
    assert digests[1][key] == digests[2][key]
