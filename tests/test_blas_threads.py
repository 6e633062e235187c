"""Emitted bytes do not depend on the BLAS thread count.

The 1-D reductions (grid and delta-mixture means and variances, and the
agreement analysis's grid means) are plain ``einsum`` sums, so a run of a
scenario with a 1-D agent, a batch of the grid pair, and
``mean_contraction_gap`` of grid beliefs give the same bytes with one BLAS
thread as with two.  So do the particle agents, whose sums no BLAS call
takes: ``qubit_tomography`` (record-all), ``quantum_pair_biasedZ`` (exact
refresh, utility table), ``quinn_clara_sharp`` (resample-move) and the two
particle batches.  The digests come from the golden test's own helpers,
computed in child processes (``digest_child.py``) that fix the thread count
before numpy loads.
"""

import pytest

from digest_child import child_digests, threads

SCENARIOS = ("classical_disjoint", "classical_pair", "coin_tomography", "prior_coins_simultaneous",
             "prior_coins_turns", "quinn_clark", "quantum_pair_biasedZ", "quinn_clara_sharp",
             "qubit_tomography")
# test id -> batch case over seeds 1-3 at 20 steps
BATCHES = {"batch": "classical_pair",
           "batch/quantum_pair_biasedZ": "quantum_pair_biasedZ",
           "batch/prior_qubits_turns/uniform_ball": "prior_qubits_turns/uniform_ball"}
KEYS = {**{name: f"{name}/seed1" for name in SCENARIOS},
        **{key: f"batch/{case}" for key, case in BATCHES.items()},
        "mean_contraction_gap": "mean_contraction_gap"}


@pytest.fixture(scope="module")
def digests():
    return {n: child_digests(threads(n), [(name, 1) for name in SCENARIOS],
                             BATCHES.values(), gap=True) for n in (1, 2)}


@pytest.mark.parametrize("key", KEYS)
def test_bytes_equal_at_one_and_two_threads(digests, key):
    assert digests[1][KEYS[key]] == digests[2][KEYS[key]]
