"""Golden values of the appendix battery: a bit-level oracle for ``agreement``.

Pins, in ``golden_appendix.json``:

* the sha256 of the float64 bytes of every ``kolmogorov_contraction_check(k, l, N)``
  pair for N <= ``KDIST_MAX_N``, in the battery's order (N, then k, then l);
* the sha256 of every ``chi`` array on ``CHI_POINTS`` evenly spaced points of
  [0, 1] for N <= ``CHI_MAX_N``, in the same order;
* the ``repr`` of every ``verify_appendix_claims`` row at the ``verify-appendix``
  CLI defaults for seeds 0 and 1.

These paths use elementwise numpy and scipy only (no BLAS reductions), so the
values do not depend on the BLAS thread count.  A change that alters them
changes results and has to say so.

Regenerate (only for a deliberate behaviour change):

    PYTHONPATH=src python tests/test_appendix_golden.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from qbagents import agreement
from qbagents.agreement import chi, kolmogorov_contraction_check, verify_appendix_claims

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_appendix.json")
KDIST_MAX_N = 15
CHI_MAX_N = 25
CHI_POINTS = 101
SEEDS = (0, 1)


def kolmogorov_pairs_digest() -> str:
    pairs = [kolmogorov_contraction_check(k, l, n)
             for n in range(1, KDIST_MAX_N + 1)
             for k in range(n + 1)
             for l in range(n + 1)]
    return hashlib.sha256(np.asarray(pairs, dtype=np.float64).tobytes()).hexdigest()


def chi_arrays_digest() -> str:
    xs = np.linspace(0.0, 1.0, CHI_POINTS)
    digest = hashlib.sha256()
    for n in range(1, CHI_MAX_N + 1):
        for k in range(1, n + 1):
            for l in range(k):
                digest.update(np.asarray(chi(xs, k, l, n), dtype=np.float64).tobytes())
    return digest.hexdigest()


def battery_rows(seed: int) -> list[str]:
    return [repr(row) for row in verify_appendix_claims(seed=seed)]


def golden_table() -> dict:
    table = {"kolmogorov_pairs_sha256": kolmogorov_pairs_digest(),
             "chi_arrays_sha256": chi_arrays_digest()}
    table.update({f"battery/seed{seed}": battery_rows(seed) for seed in SEEDS})
    return table


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf8") as fh:
        return json.load(fh)


def test_kolmogorov_pairs_match_golden(golden):
    assert kolmogorov_pairs_digest() == golden["kolmogorov_pairs_sha256"]


def test_chi_arrays_match_golden(golden):
    assert chi_arrays_digest() == golden["chi_arrays_sha256"]


@pytest.mark.parametrize("seed", SEEDS)
def test_battery_rows_match_golden(golden, seed):
    assert battery_rows(seed) == golden[f"battery/seed{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_battery_rows_match_golden_in_small_blocks(golden, seed, monkeypatch):
    # 20 chi blocks and 54 Kolmogorov blocks, the last of each short
    monkeypatch.setattr(agreement, "TRIPLE_BLOCK_CELLS", 1000)
    assert battery_rows(seed) == golden[f"battery/seed{seed}"]


if __name__ == "__main__":
    table = golden_table()
    if sys.argv[1:] == ["--write"]:
        with open(GOLDEN_PATH, "w", encoding="utf8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(table, sys.stdout, indent=1, sort_keys=True)
