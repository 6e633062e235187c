"""End-to-end acceptance criteria.

Each test exercises one criterion at full scale and prints a PASS line with
the measured values (visible under ``pytest -s`` or on failure).  Tolerances
are fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qbagents.agents import Agent
from qbagents.agreement import (
    chi,
    kolmogorov_contraction_check,
    mean_contraction_gap,
    verify_appendix_claims,
)
from qbagents.core_math import BetaParams
from qbagents.errors import ImpossibleOutcomeError
from qbagents.inference import delta_ensemble
from qbagents.interaction import RunSpec, run
from qbagents.postulate import (
    Interval,
    QubitBall,
    apply_postulate,
    classical_postulate,
    phi_matrix,
    quantum_postulate,
    sqrt_phi,
)
from qbagents.quantum import (
    bloch_to_density,
    born_probabilities,
    conditional_matrix,
    pauli_povm,
    random_density,
    random_povm,
    sic_d2,
)
from qbagents.scenarios import _menu, batch, build_runtime, default_config, run_config

S3 = math.sqrt(3.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_born_rule_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    ref = sic_d2()
    post = quantum_postulate()
    worst = 0.0
    for _ in range(1000):
        rho = random_density(rng)
        povm = random_povm(rng, 2, int(rng.integers(2, 7)))
        p = born_probabilities(rho, ref.effects)
        via_postulate = apply_postulate(post, p, conditional_matrix(povm, ref))
        direct = born_probabilities(rho, povm)
        worst = max(worst, float(np.max(np.abs(via_postulate - direct))))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, f"Born-rule equivalence on 1000 random pairs, "
              f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sic_golden_values():
    ref = sic_d2()
    gram = np.array([[np.trace(a @ b).real for b in ref.effects]
                     for a in ref.effects])
    assert np.max(np.abs(gram - (2 * np.eye(4) + 1) / 12)) < 1e-12

    phi = phi_matrix(ref)
    assert np.max(np.abs(phi - (3 * np.eye(4) - 0.5 * np.ones((4, 4))))) < 1e-12

    plus = born_probabilities(bloch_to_density([1, 0, 0]), ref.effects)
    assert np.max(np.abs(plus - np.array([3 + S3, 3 - S3, 3 + S3, 3 - S3]) / 12)) < 1e-12

    golden_r = {
        "X": np.array([[3 + S3, 3 - S3, 3 + S3, 3 - S3],
                       [3 - S3, 3 + S3, 3 - S3, 3 + S3]]) / 6,
        "Y": np.array([[3 + S3, 3 - S3, 3 - S3, 3 + S3],
                       [3 - S3, 3 + S3, 3 + S3, 3 - S3]]) / 6,
        "Z": np.array([[3 + S3, 3 + S3, 3 - S3, 3 - S3],
                       [3 - S3, 3 - S3, 3 + S3, 3 + S3]]) / 6,
    }
    golden_sharp = {
        "X": np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float),
        "Y": np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=float),
        "Z": np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float),
    }
    root = sqrt_phi(phi)
    for axis in "XYZ":
        r = conditional_matrix(pauli_povm(axis), ref)
        assert np.max(np.abs(r - golden_r[axis])) < 1e-12
        assert np.max(np.abs(r @ root - golden_sharp[axis])) < 1e-12
    report(2, "SIC Gram, Phi, |+> probabilities, Pauli and sharp matrices "
              "all match to 1e-12")


def test_criterion_3_coin_tomography():
    start = time.monotonic()
    n_seeds = 20
    good_final = 0
    n_particles = None
    worst_ulps = Fraction(0)
    for seed in range(n_seeds):
        cfg = default_config("coin_tomography", seed=1000 + seed)
        trace = run_config(cfg)
        n_particles = build_runtime(cfg).slots[0].ensemble.n if n_particles is None \
            else n_particles
        tol = 3.0 / math.sqrt(n_particles)
        heads = 0
        for rec in trace.records:
            heads += rec.agents[0].outcome == 0
            analytic = (heads + 1) / (rec.step + 2)
            mean = rec.agents[0].mean[0]
            assert abs(mean - analytic) < tol
            # the count belief's closed form: within one ulp of the exact
            # conjugate mean (heads + 1) / (step + 2)
            error = abs(Fraction(mean) - Fraction(heads + 1, rec.step + 2))
            worst_ulps = max(worst_ulps, error / Fraction(math.ulp(analytic)))
        if abs(trace.records[-1].agents[0].mean[0] - 0.75) < 0.05:
            good_final += 1
    elapsed = time.monotonic() - start
    assert worst_ulps <= 1
    assert good_final >= 18
    assert elapsed < 30.0
    report(3, f"coin tomography: conjugate means every step (worst "
              f"{float(worst_ulps):.4f} ulp), final within 0.05 in {good_final}/20 "
              f"seeds, {elapsed:.1f}s")


def test_criterion_4_qubit_tomography():
    start = time.monotonic()
    d50, d500 = [], []
    shrunk = 0
    for seed in range(20):
        cfg = default_config("qubit_tomography", seed=2000 + seed)
        trace = run_config(cfg)
        by_step = {rec.step: rec for rec in trace.records}
        d50.append(by_step[50].metrics["dist_to_source"])
        d500.append(by_step[500].metrics["dist_to_source"])
        if by_step[500].agents[0].semi_major < by_step[50].agents[0].semi_major:
            shrunk += 1
    elapsed = time.monotonic() - start
    med50, med500 = float(np.median(d50)), float(np.median(d500))
    assert med500 < 0.1
    assert med500 < med50
    assert shrunk >= 18
    assert elapsed < 300.0
    report(4, f"qubit tomography: median distance {med50:.3f} -> {med500:.3f}, "
              f"ellipsoid shrank in {shrunk}/20 seeds, {elapsed:.0f}s")


def test_criterion_5_classical_agreement():
    cfg = default_config("classical_pair", seed=3000)
    result = batch(cfg, 200)
    assert result.aggregates["n_errors"] == 0
    finals = [r["final_metrics"]["mean_gap"] for r in result.rows]
    earlies = [r["early_metrics"]["mean_gap"] for r in result.rows]
    med_final, med_early = float(np.median(finals)), float(np.median(earlies))
    assert med_final < med_early

    for seed in range(5):
        spec = build_runtime(replace(default_config("classical_disjoint"),
                                     seed=4000 + seed))
        run(spec)
        alice, bob = spec.slots
        assert alice.ensemble.points.min() >= 0.0
        assert alice.ensemble.points.max() <= 1 / 3 + 1e-12
        assert bob.ensemble.points.min() >= 2 / 3 - 1e-12
        assert bob.ensemble.points.max() <= 1.0
        assert abs(alice.ensemble.weights.sum() - 1) < 1e-9
        assert abs(bob.ensemble.weights.sum() - 1) < 1e-9
    report(5, f"classical agreement: median gap {med_early:.3f} @step10 -> "
              f"{med_final:.3f} @step1000 over 200 seeds; disjoint supports preserved")


def test_criterion_6_agreement_analysis():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(10_000):
        a = BetaParams(rng.uniform(0.2, 20), rng.uniform(0.2, 20))
        b = BetaParams(rng.uniform(0.2, 20), rng.uniform(0.2, 20))
        before, after = mean_contraction_gap(a, b)
        worst = min(worst, before - after)
        assert after <= before + 1e-12

    xs = np.linspace(0.0, 1.0, 101)
    chi_min = np.inf
    for n in range(1, 26):
        for k in range(1, n + 1):
            for l in range(k):
                chi_min = min(chi_min, float(np.min(chi(xs, k, l, n))))
    assert chi_min >= -1e-12

    # k == l gives (0, 0), a margin of 0 that would hide every other pair's
    kdist_margin = np.inf
    for n in range(1, 16):
        for k in range(n + 1):
            for l in range(n + 1):
                if k != l:
                    k_prior, k_post = kolmogorov_contraction_check(k, l, n)
                    kdist_margin = min(kdist_margin, k_prior - k_post)
    assert kdist_margin >= -1e-10
    assert kdist_margin > 0
    rows = {row["claim"].split(" (")[0]: row for row in verify_appendix_claims()}
    assert kdist_margin == rows["Kolmogorov contraction"]["margin"]
    # the least Bernstein coefficient of (N+2)! chi, N+1-k at k = N or l+1 at l = 0
    assert rows["chi >= 0 by positive Bernstein coefficients"]["margin"] == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"agreement analysis: contraction margin {worst:.2e}, "
              f"chi min {chi_min:.2e}, Kolmogorov margin {kdist_margin:.2e}, "
              f"{elapsed:.0f}s")


def test_criterion_7_exogenous_limit():
    # The stand-in for a source must be a delta on an interior point: an
    # infinitely confident agent at a boundary state can be contradicted by
    # the outcomes served to it, which (correctly) raises.  Interior deltas
    # have positive likelihood for every outcome, so the limit is exact.
    checked = 0
    for name, source_point, delta in (
        ("coin_tomography", [0.75],
         delta_ensemble([[0.75]], [1.0], Interval())),
        ("qubit_tomography", [0.6, 0.0, 0.0],
         delta_ensemble([[0.6, 0.0, 0.0]], [1.0], QubitBall())),
    ):
        cfg = replace(default_config(name, seed=777), n_steps=200)
        source_spec = replace(cfg.agents[1], point=tuple(source_point))
        cfg = replace(cfg, agents=(cfg.agents[0], source_spec))
        against_source = run_config(cfg)
        spec = build_runtime(cfg)
        post = (classical_postulate(2) if name == "coin_tomography"
                else quantum_postulate())
        menu = _menu("flip" if name == "coin_tomography" else "paulis")
        stand_in = Agent("source", post, delta, menu)
        spec_pair = RunSpec(scenario=cfg.scenario, seed=cfg.seed,
                            n_steps=cfg.n_steps,
                            slots=(spec.slots[0], stand_in),
                            incoming_reg=("none", "none"),
                            metrics_kind=spec.metrics_kind,
                            config=cfg.to_dict())
        against_delta = run(spec_pair)
        assert len(against_source.records) == len(against_delta.records) == 200
        for r1, r2 in zip(against_source.records, against_delta.records):
            assert r1.agents[0] == r2.agents[0]
            assert r1.metrics == r2.metrics
            checked += 1
    report(7, f"exogenous limit: {checked} steps bit-identical between source "
              "and delta-prior stand-in")


def test_criterion_8_prior_sampling_polarization():
    n_seeds = 1000
    errors = 0
    for seed in range(n_seeds):
        cfg = replace(default_config("prior_coins_simultaneous"),
                      seed=seed, n_steps=2)
        try:
            run_config(cfg)
        except ImpossibleOutcomeError:
            errors += 1
    freq = errors / n_seeds
    assert abs(freq - 0.5) <= 0.05

    for seed in range(n_seeds):
        cfg = replace(default_config("prior_coins_turns"), seed=seed, n_steps=1)
        trace = run_config(cfg)
        fa = trace.final["summaries"]["alice"]
        fb = trace.final["summaries"]["bob"]
        assert fa["mean"] == fb["mean"]
        assert fa["std"][0] == 0.0
        assert fb["std"][0] == 0.0
    report(8, f"prior sampling: simultaneous polarization frequency {freq:.3f}, "
              "turn-based agreement after one round in 1000/1000 seeds")


def test_criterion_9_biased_utility_behavior():
    n_seeds = 50
    p5 = stats.binom.ppf(0.05, 81, 1 / 3)
    below = 0
    alice_counts = np.zeros(3)
    for seed in range(n_seeds):
        cfg = default_config("quantum_pair_biasedZ", seed=5000 + seed)
        trace = run_config(cfg)
        z_count = sum(1 for rec in trace.records
                      if 20 <= rec.step <= 100 and rec.agents[1].action == "Z")
        below += z_count < p5
        for rec in trace.records:
            alice_counts["XYZ".index(rec.agents[0].action)] += 1
    assert below >= 40
    total = alice_counts.sum()
    sigma = math.sqrt(total * (1 / 3) * (2 / 3))
    assert np.all(np.abs(alice_counts - total / 3) < 3 * sigma)
    report(9, f"biased utility: Bob under the Z 5th percentile in {below}/50 "
              f"seeds; Alice action counts {alice_counts.astype(int).tolist()} "
              "uniform within 3 sigma")
