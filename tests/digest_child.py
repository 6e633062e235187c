"""One child program for the byte gates that change the environment numpy
starts in: the BLAS thread count (``test_blas_threads.py``) and the OpenBLAS
kernel (``test_blas_kernels.py``).

``child_digests(env, cases, batches, gap)`` runs a fresh interpreter with the
variables of ``env`` set (a value of None unsets one), before numpy loads,
and returns the golden digests (``test_golden.golden_record`` and
``batch_digest``) of the named (scenario, seed) cases and batch cases, keyed
as in ``golden_digests.json``, plus with ``gap`` the digest of
``mean_contraction_gap`` over 625 pairs of 10,001-point Beta grids.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GAP_SHAPES = (0.5, 1.0, 2.5, 7.0, 40.0)  # Beta(alpha, beta) grids, 25 beliefs, 625 pairs

CHILD = f"""
import hashlib, json, os, sys, tempfile
from functools import partial
sys.path.insert(0, {HERE!r})
from test_golden import _batch_key, _key, batch_digest, golden_record
spec = json.loads(sys.argv[1])
out = {{}}
with tempfile.TemporaryDirectory() as tmp:
    for name, seed in spec["cases"]:
        out[_key(name, seed)] = golden_record(name, seed, os.path.join(tmp, _key(name, seed)))
    for case in spec["batches"]:
        out[_batch_key(case)] = batch_digest(case, os.path.join(tmp, "batch"))
if spec["gap"]:
    from qbagents.agreement import mean_contraction_gap
    from qbagents.core_math import DEFAULT_GRID_POINTS, BetaParams, beta_pdf
    from qbagents.inference import grid_ensemble
    from qbagents.postulate import Interval
    grids = [grid_ensemble(Interval(), DEFAULT_GRID_POINTS,
                           pdf=partial(beta_pdf, p=BetaParams(a, b)))
             for a in {GAP_SHAPES!r} for b in {GAP_SHAPES!r}]
    gaps = [mean_contraction_gap(a, b) for a in grids for b in grids]
    out["mean_contraction_gap"] = hashlib.sha256(repr(gaps).encode()).hexdigest()
json.dump(out, sys.stdout, sort_keys=True)
"""


def child_digests(env: dict, cases=(), batches=(), gap: bool = False) -> dict:
    """The digests of ``cases`` ((scenario, seed) pairs), ``batches`` (keys of
    ``test_golden.BATCH_CASES``) and, with ``gap``, ``mean_contraction_gap``,
    computed in a child process whose environment is this one's updated by
    ``env`` (None unsets a variable)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    child_env = {**os.environ, "PYTHONPATH": path}
    for var, value in env.items():
        child_env.pop(var, None)
        if value is not None:
            child_env[var] = value
    spec = json.dumps({"cases": list(cases), "batches": list(batches), "gap": gap})
    out = subprocess.run([sys.executable, "-c", CHILD, spec], env=child_env,
                         capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout)


def threads(n: int) -> dict:
    """The environment of ``n`` BLAS threads."""
    return {var: str(n) for var in THREAD_VARS}
