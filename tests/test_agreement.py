import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from qbagents import agreement, core_math
from qbagents.agreement import (
    BETA_PAIR_BLOCK,
    _band_cells,
    _beta_pair_gaps,
    _chi_coefficients,
    _chi_elevated,
    _count_triples,
    _critical_points,
    _edge_terms,
    _kolmogorov_pairs,
    _mean_of,
    _triple_blocks,
    chi,
    chi_edge_terms,
    expected_posterior,
    kolmogorov_contraction_check,
    mean_contraction_gap,
    verify_appendix_claims,
)
from qbagents.core_math import (
    DEFAULT_GRID_POINTS,
    BetaParams,
    beta_pdf,
    kolmogorov_distance,
    regularized_incomplete_beta,
)
from qbagents.errors import ValidationError
from qbagents.inference import (
    BetaMixture,
    delta_ensemble,
    grid_ensemble,
    sample_uniform,
)
from qbagents.interaction import run
from qbagents.postulate import Interval, QubitBall
from qbagents.scenarios import build_runtime, default_config, triangular_pdf, triangular_pieces


def beta_grid(alpha, beta, n=4001):
    """A grid belief on [0, 1] weighted by the Beta(alpha, beta) pdf."""
    return grid_ensemble(Interval(), n, pdf=partial(beta_pdf, p=BetaParams(alpha, beta)))


def count_belief(pieces=((0.0, 1.0, 1.0, 0.0, 1.0),), counts=(0, 0), n=401):
    """A count belief with the given prior pieces and counts, on a small grid
    (which only its ESS and curve files read)."""
    return BetaMixture(grid_ensemble(Interval(), n), tuple(pieces), counts)


class TestExpectedPosterior:
    def test_symmetric_uniform(self):
        exp = expected_posterior(BetaParams(1, 1), 0.5)
        assert exp.mean() == pytest.approx(0.5, abs=1e-15)

    def test_beta21_against_third(self):
        # prior mean 2/3, second moment 1/2; the mean formula gives 7/12.
        exp = expected_posterior(BetaParams(2, 1), 1.0 / 3.0)
        assert exp.mean() == pytest.approx(7 / 12, abs=1e-12)
        # independent quadrature oracle on the density formula
        theta = np.linspace(0, 1, 200_001)
        prior_pdf = 2 * theta  # Beta(2,1)
        m_a, m_b = 2 / 3, 1 / 3
        factor = (m_b / m_a) * theta + ((1 - m_b) / (1 - m_a)) * (1 - theta)
        dens = factor * prior_pdf
        norm = np.trapezoid(dens, theta)
        oracle_mean = np.trapezoid(theta * dens, theta) / norm
        assert norm == pytest.approx(1.0, abs=1e-9)
        assert oracle_mean == pytest.approx(7 / 12, abs=1e-9)

    def test_appendix_mixture_weights(self):
        # Beta(k+1, N-k+1) prior and other mean (l+1)/(N+2)
        n, k, l = 7, 5, 2
        exp = expected_posterior(BetaParams(k + 1, n - k + 1), (l + 1) / (n + 2))
        assert exp.mixture_weights == pytest.approx(((l + 1) / (n + 2),
                                                     (n - l + 1) / (n + 2)))
        assert exp.components[0] == BetaParams(k + 2, n - k + 1)
        assert exp.components[1] == BetaParams(k + 1, n - k + 2)

    def test_count_prior_mixture(self):
        # theta P / m_A and (1 - theta) P / (1 - m_A) are the belief with one
        # more head and with one more tail
        prior = count_belief(triangular_pieces(), (7, 4))
        exp = expected_posterior(prior, 0.4)
        assert exp.mixture_weights == (0.4, 0.6)
        assert [c.counts for c in exp.components] == [(8, 4), (7, 5)]
        assert all(c.pieces is prior.pieces for c in exp.components)
        assert exp.mean() == 0.4 * exp.components[0].mean() + 0.6 * exp.components[1].mean()

    def test_boundary_means_rejected(self):
        with pytest.raises(ValidationError):
            expected_posterior(BetaParams(1, 1), 0.0)
        with pytest.raises(ValidationError):
            expected_posterior(BetaParams(1, 1), 1.0)

    def test_matches_monte_carlo_step(self):
        # one simulated exchange: outcome ~ Bernoulli(mean_b), posterior mean
        # averaged over 1e5 trials agrees with the expected-posterior mean
        rng = np.random.default_rng(0)
        prior = BetaMixture(grid_ensemble(Interval(), 2001, pdf=triangular_pdf),
                            triangular_pieces())
        mean_b = 0.55
        theta = prior.points[:, 0]
        w_heads = prior.weights * theta
        w_heads /= w_heads.sum()
        w_tails = prior.weights * (1 - theta)
        w_tails /= w_tails.sum()
        m_heads = float(w_heads @ theta)
        m_tails = float(w_tails @ theta)
        n_trials = 100_000
        heads = rng.binomial(n_trials, mean_b)
        mc_mean = (heads * m_heads + (n_trials - heads) * m_tails) / n_trials
        sd = abs(m_heads - m_tails) * math.sqrt(mean_b * (1 - mean_b) / n_trials)
        expected = expected_posterior(prior, mean_b).mean()
        assert abs(mc_mean - expected) < 3 * sd


class TestMeanContraction:
    def test_equal_means(self):
        before, after = mean_contraction_gap(BetaParams(2, 2), BetaParams(2, 2))
        assert before == 0.0
        assert after == pytest.approx(0.0, abs=1e-15)

    def test_beta21_vs_beta12(self):
        before, after = mean_contraction_gap(BetaParams(2, 1), BetaParams(1, 2))
        assert before == pytest.approx(1 / 3, abs=1e-12)
        assert after == pytest.approx(1 / 4, abs=1e-12)
        assert before >= after

    def test_random_beta_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            a = BetaParams(rng.uniform(0.2, 15), rng.uniform(0.2, 15))
            b = BetaParams(rng.uniform(0.2, 15), rng.uniform(0.2, 15))
            before, after = mean_contraction_gap(a, b)
            assert after <= before + 1e-12

    def test_count_prior_contraction(self):
        # Beta(5, 2) and Beta(2, 5) as uniform priors with counts, and a
        # triangular prior with counts
        prior, other = count_belief(counts=(4, 1)), count_belief(counts=(1, 4))
        before, after = mean_contraction_gap(prior, other)
        assert after <= before + 1e-12
        laws = mean_contraction_gap(BetaParams(5, 2), BetaParams(2, 5))
        assert before == pytest.approx(laws[0], abs=1e-15)
        assert after == pytest.approx(laws[1], abs=1e-15)
        triangular = count_belief(triangular_pieces(), (3, 9))
        for x, y in ((prior, triangular), (triangular, other)):
            before, after = mean_contraction_gap(x, y)
            assert after <= before + 1e-12


SUP_CASES = {
    "lower_edge": ([(0.0, 1.0, 1.0, 0.3, 1.0)], (0, 0), BetaParams(1, 1)),  # sup 0.3 at 0.3
    "upper_edge": ([(0.0, 1.0, 1.0, 0.0, 0.7)], (0, 0), BetaParams(1, 1)),  # sup 0.3 at 0.7
    "second_piece": (triangular_pieces(), (0, 0), BetaParams(2, 1)),  # crossing at 1/1.3
    "second_piece_first": (triangular_pieces(), (0, 0), BetaParams(1, 3)),
    "two_triangles": (triangular_pieces(), (3, 2), count_belief(triangular_pieces(0.4), (1, 1))),
    "two_triangles_with_counts": (triangular_pieces(0.2), (9, 4),
                                  count_belief(triangular_pieces(0.85), (2, 6))),
}


class TestCountBeliefs:
    """The agreement analysis reads a count belief by its closed forms."""

    def test_uniform_mean(self):
        assert _mean_of(count_belief()) == 0.5

    def test_beta_mean(self):
        # a uniform prior with 771 heads and 229 tails is Beta(772, 230)
        assert _mean_of(count_belief(counts=(771, 229))) == pytest.approx(
            772 / 1002, abs=1e-15)

    @pytest.mark.parametrize("pieces,counts,law", SUP_CASES.values(), ids=SUP_CASES)
    def test_sup_at_edges_and_crossings(self, pieces, counts, law):
        # the sup at a lower or an upper piece edge, and at a crossing in a
        # belief's second piece, with the belief sorted after or before the law
        belief = count_belief(pieces, counts)
        distance = kolmogorov_distance(belief, law)
        assert distance == kolmogorov_distance(law, belief)
        with mp.workdps(50):
            exact, scanned = mp_kolmogorov(belief, law)
        assert abs(distance - float(exact)) <= 1e-14
        assert distance >= scanned - 1e-15

    def test_deep_tail_pieces(self):
        # a truncated piece far below its untruncated mean, as in
        # classical_disjoint after about 3,000 steps: its incomplete Beta
        # values underflow, so its shares are ratios of beta_piece masses,
        # whose logs (about -2,680) round by up to 2.3e-13
        pieces = [(0.0, 1.0, 1.0, 0.0, 1 / 3)]
        a, b = count_belief(pieces, (2100, 900)), count_belief(pieces, (2000, 1000))
        distance = kolmogorov_distance(a, b)
        assert distance == kolmogorov_distance(b, a)
        with mp.workdps(50):
            pa, pb = mp_pieces(a), mp_pieces(b)
            root = mp.findroot(lambda x: mp_piece_pdf(pa, x) - mp_piece_pdf(pb, x),
                               (mp.mpf(0.333), mp.mpf(0.3333)), solver="anderson")
            exact = abs(mp_piece_cdf(pa, root) - mp_piece_cdf(pb, root))
        assert 0.03 < distance and abs(distance - float(exact)) <= 1e-12
        other_side = count_belief([(0.0, 1.0, 1.0, 2 / 3, 1.0)], (900, 2100))
        assert kolmogorov_distance(a, other_side) == 1.0

    @pytest.mark.parametrize("operand", [
        sample_uniform(QubitBall(), 20, np.random.default_rng(0)),
        delta_ensemble([0.2, 0.7], [0.5, 0.5], Interval()),
        beta_grid(3, 2),
    ], ids=["bloch_particles", "delta_1d", "grid_1d"])
    def test_other_beliefs_rejected(self, operand):
        belief = count_belief(counts=(2, 1))
        for call in (lambda: kolmogorov_distance(operand, BetaParams(2, 2)),
                     lambda: kolmogorov_distance(BetaParams(2, 2), operand),
                     lambda: kolmogorov_distance(belief, operand),
                     lambda: kolmogorov_distance(operand, belief),
                     lambda: expected_posterior(operand, 0.4),
                     lambda: mean_contraction_gap(operand, belief),
                     lambda: mean_contraction_gap(belief, operand)):
            with pytest.raises(ValidationError, match="unsupported operand"):
                call()


@cache
def curve_snapshots(scenario, seed):
    """Every curve snapshot (a count belief) of a registry run, both agents'."""
    trace = run(build_runtime(default_config(scenario, seed)))
    return tuple(belief for curve in trace.curves.values() for _step, belief in curve)


def raw_pieces(belief):
    """(log c, alpha, beta, lo, hi) with the counts added, and no counts
    for a Beta law, the density being c theta^(alpha-1) (1-theta)^(beta-1)."""
    if isinstance(belief, BetaParams):
        return [(0.0, belief.alpha, belief.beta, 0.0, 1.0)]
    a, b = belief.counts
    return [(log_c, alpha + a, beta + b, lo, hi) for log_c, alpha, beta, lo, hi in belief.pieces]


@cache
def mp_pieces(belief):
    """The pieces at 50 digits, each c scaled so the density integrates to one."""
    pieces = [(mp.exp(log_c), *map(mp.mpf, rest)) for log_c, *rest in raw_pieces(belief)]
    total = mp.fsum(c * mp.betainc(al, be, lo, hi) for c, al, be, lo, hi in pieces)
    return [(c / total, al, be, lo, hi) for c, al, be, lo, hi in pieces]


def mp_piece_cdf(pieces, x):
    return mp.fsum(c * mp.betainc(al, be, lo, min(hi, x))
                   for c, al, be, lo, hi in pieces if lo < x)


def mp_piece_pdf(pieces, x):
    return mp.fsum(c * x**(al - 1) * (1 - x)**(be - 1)
                   for c, al, be, lo, hi in pieces if lo <= x <= hi)


def mp_piece_mean(pieces):
    return mp.fsum(c * mp.betainc(al + 1, be, lo, hi) for c, al, be, lo, hi in pieces)


SCAN = np.linspace(0.0, 1.0, 20_001)


@cache
def scan_cdf(belief):
    """The CDF on ``SCAN`` from ``betainc`` rows, each piece's mass below x
    taken from the side where its incomplete Beta values are below 1/2."""
    rows, logs = [], []
    for log_c, alpha, beta, lo, hi in raw_pieces(belief):
        x = np.clip(SCAN, lo, hi)
        if special.betainc(alpha, beta, hi) <= 0.5:
            edge = special.betainc(alpha, beta, lo)
            below, mass = special.betainc(alpha, beta, x) - edge, special.betainc(
                alpha, beta, hi) - edge
        else:
            edge = special.betaincc(alpha, beta, lo)
            below, mass = edge - special.betaincc(alpha, beta, x), edge - special.betaincc(
                alpha, beta, hi)
        rows.append(below / mass)
        logs.append(log_c + special.betaln(alpha, beta) + math.log(mass))
    weights = np.exp(np.array(logs) - max(logs))
    return (weights / weights.sum()) @ np.array(rows)


def mp_kolmogorov(a, b):
    """(sup |F_a - F_b| at 50 digits, the largest gap on ``SCAN``).  The sup
    is the largest value at the interior piece edges and at the density
    crossings near the largest values of the scan's gap, each crossing a
    ``findroot`` of the density difference bracketed by the scan points
    around it (a bracket holding an edge is left to the edge)."""
    pa, pb = mp_pieces(a), mp_pieces(b)
    edges = {edge for *_, lo, hi in pa + pb for edge in (lo, hi)} - {0, 1}
    gap = np.abs(scan_cdf(a) - scan_cdf(b))
    candidates = list(edges)
    inner = gap[1:-1]
    peaks = 1 + np.flatnonzero((inner > gap[:-2]) & (inner >= gap[2:])
                               & (inner >= gap.max() - 1e-4))
    for lo, hi in zip(map(mp.mpf, SCAN[peaks - 1]), map(mp.mpf, SCAN[peaks + 1])):
        if not any(lo <= edge <= hi for edge in edges):
            candidates.append(mp.findroot(lambda x: mp_piece_pdf(pa, x) - mp_piece_pdf(pb, x),
                                          (lo, hi), solver="anderson"))
    return max(abs(mp_piece_cdf(pa, x) - mp_piece_cdf(pb, x)) for x in candidates), gap.max()


def snapshot_pairs(scenario, seed):
    """Every pair of curve snapshots of a run, or, for coin_tomography, each
    snapshot against Beta(2, 3)."""
    beliefs = curve_snapshots(scenario, seed)
    if scenario == "coin_tomography":
        return [(belief, BetaParams(2, 3)) for belief in beliefs]
    return [(x, y) for i, x in enumerate(beliefs) for y in beliefs[i + 1:]]


SNAPSHOT_RUNS = [(scenario, seed)
                 for scenario in ("classical_pair", "classical_disjoint", "coin_tomography")
                 for seed in (1, 2, 3)]


class TestExactSnapshots:
    """The count beliefs of registry runs against 50-digit references."""

    @pytest.mark.parametrize("scenario,seed", SNAPSHOT_RUNS)
    def test_kolmogorov_is_the_exact_sup(self, scenario, seed):
        with mp.workdps(50):
            for a, b in snapshot_pairs(scenario, seed):
                distance = kolmogorov_distance(a, b)
                assert distance == kolmogorov_distance(b, a)
                exact, scanned = mp_kolmogorov(a, b)
                assert abs(distance - float(exact)) <= 1e-14
                assert distance >= scanned - 1e-15

    @pytest.mark.parametrize("scenario,seed", [
        pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=(
            "BetaMixture.mean of the count belief (56, 44) on [0, 1/3] reads "
            "betainc(57, 45, 1/3), 1.2e-14 relative off, and is 5.8e-15 off")))
        if case == ("classical_disjoint", 2) else case for case in SNAPSHOT_RUNS])
    def test_means_are_exact(self, scenario, seed):
        beliefs = curve_snapshots(scenario, seed)
        with mp.workdps(50):
            for x in beliefs:
                assert abs(x.mean() - float(mp_piece_mean(mp_pieces(x)))) <= 1e-15
                heads, tails = (mp_piece_mean(mp_pieces(x.observed(c)))
                                for c in ((0, 1), (0, -1)))
                for y in beliefs:
                    exact = y.mean() * heads + (1 - mp.mpf(y.mean())) * tails
                    assert abs(expected_posterior(x, y.mean()).mean() - float(exact)) <= 1e-15

    @pytest.mark.parametrize("scenario,seed", SNAPSHOT_RUNS)
    def test_mean_contraction_on_every_pair(self, scenario, seed):
        beliefs = curve_snapshots(scenario, seed)
        for x in beliefs:
            for y in beliefs:
                before, after = mean_contraction_gap(x, y)
                assert after <= before + 1e-12


class TestSimulatedAgents:
    """The appendix's contraction read on the simulator's own beliefs."""

    @pytest.mark.parametrize("scenario", ["classical_pair", "classical_disjoint"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mean_contraction(self, scenario, seed):
        config = default_config(scenario, seed)
        for n_steps in (0, 10, config.n_steps):
            spec = build_runtime(replace(config, n_steps=n_steps))
            if n_steps:
                run(spec, record_steps=())
            a, b = (slot.ensemble for slot in spec.slots)
            assert [sum(belief.counts) for belief in (a, b)] == [n_steps, n_steps]
            for x, y in ((a, b), (b, a)):
                before, after = mean_contraction_gap(x, y)
                assert after <= before + 1e-12

    @pytest.mark.parametrize("prior,law", [
        ({"kind": "grid_pdf", "name": "semicircle"}, BetaParams(1.5, 1.5)),
        ({"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}, BetaParams(1, 1)),
        ({"kind": "grid_beta", "alpha": 3, "beta": 2}, BetaParams(3, 2)),
    ], ids=["semicircle", "grid_uniform", "grid_beta"])
    def test_prior_grid_matches_its_beta_piece(self, prior, law):
        config = default_config("coin_tomography")
        agent = replace(config.agents[0], prior=prior)
        spec = build_runtime(replace(config, agents=(agent, *config.agents[1:])))
        belief = spec.slots[0].ensemble
        assert [piece[1:] for piece in belief.pieces] == [(law.alpha, law.beta, 0.0, 1.0)]
        assert kolmogorov_distance(belief, law) <= 1e-15


CHI_PROBES = (1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6)


def chi_reference_rows(max_n, width):
    """Coefficients of (N+2)! chi on B_i = C(N+2, i) x^i (1-x)^(N+2-i) for every
    0 <= l < k <= N <= max_n, in ``_count_triples`` order, from chi's
    definition in exact rationals: x^p (1-x)^q with p + q = m <= N+2 is
    sum_i C(N+2-m, i-p) B_i / C(N+2, i)."""
    for n in range(1, max_n + 1):
        def g(p, q):  # (N+2)! g(p, q) on the B_i
            out = [Fraction(0)] * width
            for i in range(p, n + 3 - q):
                out[i] = Fraction(math.factorial(n + 2) * math.comb(n + 2 - p - q, i - p),
                                  math.factorial(p) * math.factorial(q) * math.comb(n + 2, i))
            return out

        summed = {j: g(j, n + 1 - j) for j in range(1, n + 1)}
        ends = {p: g(p, n + 2 - p) for p in range(1, n + 2)}
        rows = {}
        for l in range(n):
            total = [Fraction(0)] * width
            for k in range(l + 1, n + 1):
                total = [a + b for a, b in zip(total, summed[k])]
                rows[k, l] = [a - (k - l) * (b + c)
                              for a, b, c in zip(total, ends[l + 1], ends[k + 1])]
        for k in range(1, n + 1):
            for l in range(k):
                assert all(c.denominator == 1 for c in rows[k, l])
                yield [int(c) for c in rows[k, l]]


def band_rows(cells, k, l, n):
    """Band cells, one per case and i = l+1..k+1 in case order, scattered back
    into one row of width N+3 per case, zeros off the band."""
    rows, cells = [], cells.tolist()
    for kc, lc, nc in zip(k.tolist(), l.tolist(), n.tolist()):
        row = [0] * (nc + 3)
        row[lc + 1:kc + 2], cells = cells[:kc - lc + 1], cells[kc - lc + 1:]
        rows.append(row)
    assert not cells
    return rows


def six_pass_edge_terms(k, l, n_total):
    """The split-sum boundary values from six ``gammaln`` passes over the cases."""
    span = k - l
    first = np.exp(special.gammaln(l + 2) + special.gammaln(n_total + 2 - l)
                   - special.gammaln(l + 2) - special.gammaln(n_total + 1 - l))
    second = np.exp(special.gammaln(k + 2) + special.gammaln(n_total + 2 - k)
                    - special.gammaln(k + 1) - special.gammaln(n_total + 2 - k))
    return first - span, second - span


class TestChi:
    def test_vanishes_at_boundary(self):
        assert chi(0.0, 3, 1, 5) == 0.0
        assert chi(1.0, 3, 1, 5) == 0.0

    def test_hand_value(self):
        # sum term 1/4; boundary terms 1/16 + 1/16
        assert chi(0.5, 1, 0, 1) == pytest.approx(1 / 8, abs=1e-15)

    def test_nonnegative_on_grid(self):
        xs = np.linspace(0, 1, 101)
        for n in range(1, 13):
            for k in range(1, n + 1):
                for l in range(k):
                    assert np.min(chi(xs, k, l, n)) >= -1e-12

    def test_matches_mpmath(self):
        # relative to 60-digit sums of the definition, at points where the
        # split form lost up to 5.5e-13 to cancellation
        worst = 0.0
        with mp.workdps(60):
            for x in CHI_PROBES:
                xp = mp.mpf(x)
                g = [[xp**p * (1 - xp)**q / (mp.factorial(p) * mp.factorial(q))
                      for q in range(28)] for p in range(28)]
                for n in range(1, 26):
                    for l in range(n):
                        total = mp.mpf(0)
                        for k in range(l + 1, n + 1):
                            total += g[k][n + 1 - k]
                            exact = total - (k - l) * (g[l + 1][n + 1 - l] + g[k + 1][n + 1 - k])
                            worst = max(worst, float(abs(chi(x, k, l, n) - exact) / exact))
        assert worst <= 1e-14

    def test_certificate_matches_definition(self):
        # chi's definition expanded into the degree N+2 Bernstein basis in exact
        # rationals, one case at a time, against the battery's one array pass
        k, l, n = _count_triples(25)
        cells = _chi_coefficients(_band_cells(k, l, n))
        reference = list(chi_reference_rows(25, 28))
        assert band_rows(cells, k, l, n) == [row[:nc + 3] for row, nc in zip(reference, n.tolist())]
        assert not any(any(row[nc + 3:]) for row, nc in zip(reference, n.tolist()))
        assert np.all(cells > 0)
        assert _chi_elevated(_band_cells(k, l, n)).tolist() == cells.tolist()

    def test_band_cells_are_l_plus_1_to_k_plus_1(self):
        k, l, n = _count_triples(25)
        cells = _band_cells(k, l, n)
        assert cells.dtype == np.int32
        expected = [(kc, lc, nc, i) for kc, lc, nc in zip(k.tolist(), l.tolist(), n.tolist())
                    for i in range(lc + 1, kc + 2)]
        assert list(zip(*(c.tolist() for c in cells))) == expected

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            chi(0.5, 1, 1, 2)
        with pytest.raises(ValidationError):
            chi(1.5, 2, 1, 3)

    def test_edge_terms(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                for l in range(k):
                    first, second = chi_edge_terms(k, l, n)
                    assert first == pytest.approx(n + 1 - k, abs=1e-6)
                    assert second == pytest.approx(l + 1, abs=1e-6)
                    assert first > 0
                    assert second > 0


class TestKolmogorovContraction:
    def test_equal_counts(self):
        assert kolmogorov_contraction_check(3, 3, 6) == (0.0, 0.0)

    def test_single_flip_case(self):
        k_prior, k_post = kolmogorov_contraction_check(1, 0, 1)
        assert k_prior == pytest.approx(0.5, abs=1e-9)
        assert k_post <= k_prior

    def test_swap_symmetry(self):
        a = kolmogorov_contraction_check(4, 1, 6)
        b = kolmogorov_contraction_check(1, 4, 6)
        assert a[0] == pytest.approx(b[0], abs=1e-15)
        assert a[1] == pytest.approx(b[1], abs=1e-15)

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for l in range(n + 1):
                    k_prior, k_post = kolmogorov_contraction_check(k, l, n)
                    assert k_prior >= k_post - 1e-10


class TestBetaincUse:
    def test_battery_never_evaluates_betainc(self, monkeypatch):
        class NoBetainc:
            def __getattr__(self, name):
                if name == "betainc":
                    raise AssertionError("the battery evaluated betainc")
                return getattr(special, name)

        monkeypatch.setattr(core_math, "special", NoBetainc())
        monkeypatch.setattr(core_math, "scalar", NoBetainc())
        rows = verify_appendix_claims(chi_max_n=2, n_beta_pairs=1)
        assert all(row["passed"] for row in rows)
        with pytest.raises(AssertionError, match="betainc"):
            kolmogorov_distance(BetaParams(4, 3), BetaParams(5, 3))


def grid_contraction_check(k, l, n, row):
    """The Kolmogorov pair as a max over the 10,001-point grid, from ``betainc``
    CDF rows; ``row(alpha, beta)`` gives the CDF row of Beta(alpha, beta)."""
    def rows(c):
        return row(c + 1, n - c + 1), row(c + 2, n - c + 1), row(c + 1, n - c + 2)

    (prior_k, heads_k, tails_k), (prior_l, heads_l, tails_l) = rows(k), rows(l)
    mean_k, mean_l = (k + 1) / (n + 2), (l + 1) / (n + 2)
    exp_k = mean_l * heads_k + (1.0 - mean_l) * tails_k
    exp_l = mean_k * heads_l + (1.0 - mean_k) * tails_l
    return np.max(np.abs(prior_k - prior_l)), np.max(np.abs(exp_k - exp_l))


def mp_cdf(a, b, x):
    """The Beta(a, b) CDF for integer shapes: P(Bin(a+b-1, x) >= a)."""
    n = a + b - 1
    return mp.fsum(math.comb(n, j) * x**j * (1 - x)**(n - j) for j in range(a, n + 1))


def mp_pdf(a, b, x):
    return x**(a - 1) * (1 - x)**(b - 1) * (a * math.comb(a + b - 1, a))


def mp_sup(dist, slope, floats):
    """sup of ``dist`` on (0, 1): the root of its ``slope`` by ``findroot``,
    bracketed by the neighbours of the largest of ``floats``, ``dist`` on the
    201-point grid."""
    xs = np.linspace(0.0, 1.0, 201)
    i = int(np.clip(np.argmax(floats(xs)), 1, 199))
    return dist(mp.findroot(slope, (mp.mpf(xs[i - 1]), mp.mpf(xs[i + 1])), solver="anderson"))


def mp_contraction_check(k, l, n):
    """(K priors, K posteriors) for l < k at 50 digits, from the CDFs and
    densities of the priors and of the mixture components."""
    def prior_gap(f):
        return lambda x: f(l + 1, n - l + 1, x) - f(k + 1, n - k + 1, x)

    def posterior_gap(f, mean_k, mean_l):
        return lambda x: (mean_k * f(l + 2, n - l + 1, x) + (1 - mean_k) * f(l + 1, n - l + 2, x)
                          - mean_l * f(k + 2, n - k + 1, x)
                          - (1 - mean_l) * f(k + 1, n - k + 2, x))

    means = mp.mpf(k + 1) / (n + 2), mp.mpf(l + 1) / (n + 2)
    k_prior = mp_sup(prior_gap(mp_cdf), prior_gap(mp_pdf), prior_gap(special.betainc))
    k_post = mp_sup(posterior_gap(mp_cdf, *means), posterior_gap(mp_pdf, *means),
                    posterior_gap(special.betainc, *map(float, means)))
    return k_prior, k_post


class TestExactSups:
    """The Kolmogorov pairs as exact sups at their critical points."""

    def test_pairs_match_mpmath(self):
        k, l, n = _count_triples(15)
        k_prior, k_post = _kolmogorov_pairs(k, l, n)
        worst = 0.0
        with mp.workdps(50):
            for case in zip(k.tolist(), l.tolist(), n.tolist(), k_prior, k_post):
                exact = mp_contraction_check(*case[:3])
                worst = max(worst, *(abs(float(v - e)) for v, e in zip(case[3:], exact)))
        assert worst <= 1e-14
        assert np.all(k_prior - k_post > 0.0)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        k, l, n = _count_triples(15)
        whole = np.column_stack(_kolmogorov_pairs(k, l, n))
        monkeypatch.setattr(agreement, "TRIPLE_BLOCK_CELLS", 100)  # 5 triples a block
        blocks = [np.column_stack(_kolmogorov_pairs(*block)) for block in _triple_blocks(15)]
        assert len(blocks) == -(-k.size // 5)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_pairs_not_below_the_grid(self):
        # a max over grid points can only read the sup low, up to the rounding
        # of the grid rows
        row = cache(lambda alpha, beta: special.betainc(
            alpha, beta, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)))
        k, l, n = _count_triples(15)
        exact = np.column_stack(_kolmogorov_pairs(k, l, n))
        grid = np.array([grid_contraction_check(*case, row) for case in zip(k, l, n)])
        assert np.max(grid - exact) <= 4e-15
        assert np.max(exact - grid) <= 1e-7

    def test_large_n_in_the_unit_interval(self):
        # about 2,000 Bernstein terms summed toward 1 can round above it
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            pair = kolmogorov_contraction_check(1000, 3, 2000)
            elapsed.append(time.perf_counter() - start)
        assert all(0.0 <= v <= 1.0 for v in pair)
        assert pair[0] >= pair[1]
        assert min(elapsed) < 0.02
        for k, l, n in [(1000, 999, 2000), (1, 0, 2000), (2000, 0, 2000), (700, 650, 1500)]:
            k_prior, k_post = kolmogorov_contraction_check(k, l, n)
            assert 0.0 <= k_post <= k_prior <= 1.0


ROOT_TOL = 1e-14
ROOT_SPOTS = [(1, 0, 2000), (2000, 0, 2000), (1000, 999, 2000), (700, 650, 1500)]


def posterior_sign(k, l, n, s):
    """The sign of p(e^s), the posteriors' critical polynomial of
    ``_critical_points``, from its coefficients times N+2, exact integers."""
    a0, a1 = (n + 1 - k) * math.comb(n + 1, l), (k + 1) * math.comb(n + 1, l + 1)
    b0, b1 = (n + 1 - l) * math.comb(n + 1, k), (l + 1) * math.comb(n + 1, k + 1)
    t = mp.exp(s)
    return mp.sign(a0 + a1 * t - t ** (k - l) * (b0 + b1 * t))


def crossing_pairs():
    """The operand pairs of ``SUP_CASES`` and the twelve random Beta pairs of
    ``test_core_math.TestKolmogorov.test_beta_pairs_match_mpmath``."""
    rng = np.random.default_rng(11)
    betas = [tuple(BetaParams(*rng.uniform(0.3, 8.0, 2)) for _ in range(2)) for _ in range(12)]
    return [(count_belief(pieces, counts), law) for pieces, counts, law in SUP_CASES.values()] + betas


def mp_crossings(a, b, lo, hi):
    """The points of (lo, hi) where pieces ``a`` and ``b`` of
    ``core_math._normalized_pieces`` have equal densities, at 50 digits: each
    sign change of the log-density difference on a 4,001-point scan, polished
    by ``findroot``."""
    p, q, c = (mp.mpf(v) for v in (a[1] - b[1], a[2] - b[2], b[0] - a[0]))
    xs = np.linspace(lo, hi, 4001)[1:-1]
    diff = float(p) * np.log(xs) + float(q) * np.log1p(-xs) - float(c)
    turns = np.flatnonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    return [mp.findroot(lambda x: p * mp.log(x) + q * mp.log(1 - x) - c,
                        (mp.mpf(xs[i]), mp.mpf(xs[i + 1])), solver="anderson") for i in turns]


class TestRoots:
    """Both root searches of ``core_math._rising_root`` against 50-digit roots."""

    def test_critical_points_match_mpmath(self):
        # every triple of N <= 25, and spot pairs whose log binomials reach 1,380
        cases = [_count_triples(25)] + [tuple(np.array([v]) for v in spot) for spot in ROOT_SPOTS]
        with mp.workdps(50):
            for k, l, n in cases:
                _, s_prior, s_post = _critical_points(k, l, n)
                for case, prior, post in zip(zip(k.tolist(), l.tolist(), n.tolist()),
                                             s_prior.tolist(), s_post.tolist()):
                    kk, ll, nn = case
                    exact = mp.log(mp.mpf(math.comb(nn, ll)) / math.comb(nn, kk)) / (kk - ll)
                    assert abs(prior - exact) <= ROOT_TOL, case
                    # p falls through its one positive root within ROOT_TOL of post
                    assert (posterior_sign(*case, mp.mpf(post) - ROOT_TOL) > 0
                            > posterior_sign(*case, mp.mpf(post) + ROOT_TOL)), case

    def test_beta_crossings_match_mpmath(self):
        found = 0
        with mp.workdps(50):
            for x, y in crossing_pairs():
                pieces_x, pieces_y = (core_math._normalized_pieces(v) for v in (x, y))
                for a, b in itertools.product(pieces_x, pieces_y):
                    lo, hi = max(a[3], b[3]), min(a[4], b[4])
                    if lo < hi:
                        points = core_math._beta_crossings(a, b, lo, hi)
                        for root in mp_crossings(a, b, lo, hi):
                            assert np.min(np.abs(points - float(root))) <= ROOT_TOL, (a, b)
                            found += 1
        assert found >= 20


def test_verify_claims_small_battery():
    rows = verify_appendix_claims(chi_max_n=6, kdist_max_n=4, n_beta_pairs=500)
    assert all(r["passed"] for r in rows)


@pytest.mark.parametrize("kwargs", [
    {"chi_max_n": 0}, {"kdist_max_n": 0}, {"n_beta_pairs": -3}, {"n_beta_pairs": 0},
    {"seed": -1}, {"seed": 1.5}, {"kdist_max_n": True}, {"chi_max_n": "3"},
])
def test_verify_claims_rejects_bad_counts(kwargs):
    name, value = next(iter(kwargs.items()))
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        verify_appendix_claims(**{"chi_max_n": 2, "kdist_max_n": 2,
                                  "n_beta_pairs": 10, **kwargs})


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def scalar_beta_gaps(seed, n_pairs):
    """``mean_contraction_gap`` pair by pair, four scalar draws per pair."""
    rng = philox(seed)
    gaps = []
    for _ in range(n_pairs):
        a = BetaParams(rng.uniform(0.2, 20.0), rng.uniform(0.2, 20.0))
        b = BetaParams(rng.uniform(0.2, 20.0), rng.uniform(0.2, 20.0))
        gaps.append(mean_contraction_gap(a, b))
    return np.array(gaps)


def scalar_battery(chi_max_n, kdist_max_n, n_beta_pairs, seed):
    """Each claim's worst margin and pass flag from one public call, or one
    exact reference, per case."""
    gaps = scalar_beta_gaps(seed, n_beta_pairs)
    chi_min = min(min(c for c in row if c) for row in chi_reference_rows(chi_max_n, chi_max_n + 3))
    kdist_min = min(a - b for a, b in (kolmogorov_contraction_check(k, l, n)
                                       for n in range(1, kdist_max_n + 1)
                                       for k in range(n + 1) for l in range(n + 1) if k != l))
    edges = [(k, l, n, *chi_edge_terms(k, l, n)) for n in range(1, chi_max_n + 1)
             for k in range(1, n + 1) for l in range(k)]
    edges_ok = all(abs(first - (n + 1 - k)) < 1e-6 and abs(second - (l + 1)) < 1e-6
                   and first > 0 and second > 0 for k, l, n, first, second in edges)
    edge_min = min(min(first, second) for _k, _l, _n, first, second in edges)
    return [float(np.min(gaps[:, 0] - gaps[:, 1])), float(chi_min), kdist_min,
            edge_min], edges_ok


class TestBatteryEqualsPublicChecks:
    """The battery's whole-array passes give the public functions' bits."""

    def test_chi_coefficients(self):
        k, l, n = _count_triples(25)
        rows = band_rows(_chi_coefficients(_band_cells(k, l, n)), k, l, n)
        for row, case in zip(rows, zip(k.tolist(), l.tolist(), n.tolist())):
            public = _chi_coefficients(_band_cells(*case))  # as ``chi`` reads them
            assert row == band_rows(public, *(np.array([c]) for c in case))[0]

    def test_edge_terms_match_six_gammaln_passes(self):
        k, l, n = _count_triples(60)
        table = np.column_stack(_edge_terms(k, l, n))
        assert table.tobytes() == np.column_stack(six_pass_edge_terms(k, l, n)).tobytes()

    def test_kolmogorov_pairs(self):
        k, l, n = _count_triples(15)
        pairs = np.column_stack(_kolmogorov_pairs(k, l, n))
        for pair, case in zip(pairs, zip(k.tolist(), l.tolist(), n.tolist())):
            assert np.array(kolmogorov_contraction_check(*case)).tobytes() == pair.tobytes()
            swapped = kolmogorov_contraction_check(case[1], case[0], case[2])
            assert np.array(swapped).tobytes() == pair.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_blocked_beta_pairs(self, seed):
        n_pairs = 2 * BETA_PAIR_BLOCK + 1
        blocks = list(_beta_pair_gaps(philox(seed), n_pairs))
        assert [len(before) for before, _ in blocks] == [BETA_PAIR_BLOCK] * 2 + [1]
        blocked = np.column_stack([np.concatenate(part) for part in zip(*blocks)])
        assert blocked.tobytes() == scalar_beta_gaps(seed, n_pairs).tobytes()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_small_battery_margins(self, seed):
        n_pairs = 2 * BETA_PAIR_BLOCK + 3
        rows = verify_appendix_claims(chi_max_n=7, kdist_max_n=6,
                                      n_beta_pairs=n_pairs, seed=seed)
        margins, edges_ok = scalar_battery(7, 6, n_pairs, seed)
        assert [row["margin"] for row in rows] == margins
        assert [row["passed"] for row in rows] == [True, True, True, edges_ok]


def test_beta_pair_memory_does_not_grow_with_pairs():
    def peak(n_pairs):
        tracemalloc.reset_peak()
        verify_appendix_claims(chi_max_n=1, kdist_max_n=1, n_beta_pairs=n_pairs)
        return tracemalloc.get_traced_memory()[1]

    verify_appendix_claims(chi_max_n=1, kdist_max_n=1, n_beta_pairs=1)  # scipy loaded
    tracemalloc.start()
    try:
        small, large = peak(2 * BETA_PAIR_BLOCK), peak(20 * BETA_PAIR_BLOCK)
    finally:
        tracemalloc.stop()
    assert abs(large - small) <= 16 * 1024


def test_triple_memory_is_bounded_in_n():
    # at N <= 60 the 37,820 triples' Bernstein columns take 163 MB in one pass
    verify_appendix_claims(chi_max_n=1, kdist_max_n=1, n_beta_pairs=1)  # scipy loaded
    tracemalloc.start()
    try:
        rows = verify_appendix_claims(chi_max_n=60, kdist_max_n=60, n_beta_pairs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row["passed"] for row in rows)
    assert peak <= 40 * 10**6


def block_peaks(monkeypatch, size):
    """``tracemalloc`` peaks of the battery with the pass ``size`` names at
    N <= 24 and N <= 48 and the other at N <= 3, in blocks of 4,096 cells
    (80 triples at N <= 48), so that the N^3/6 triples would show if they were
    all built at once."""
    monkeypatch.setattr(agreement, "TRIPLE_BLOCK_CELLS", 4096)

    def peak(max_n):
        tracemalloc.reset_peak()
        verify_appendix_claims(**{"chi_max_n": 3, "kdist_max_n": 3, size: max_n},
                               n_beta_pairs=10)
        return tracemalloc.get_traced_memory()[1]

    verify_appendix_claims(chi_max_n=1, kdist_max_n=1, n_beta_pairs=1)  # scipy loaded
    tracemalloc.start()
    try:
        return peak(24), peak(48)
    finally:
        tracemalloc.stop()


def test_triple_memory_does_not_grow_with_n(monkeypatch):
    small, large = block_peaks(monkeypatch, "kdist_max_n")
    assert large < 1.5 * small


def test_chi_memory_does_not_grow_with_n(monkeypatch):
    # the chi pass holds one block's band cells, at most N+2 per triple
    small, large = block_peaks(monkeypatch, "chi_max_n")
    assert large < 1.5 * small


class TestApiBoundary:
    @pytest.mark.parametrize("x", [float("nan"), [0.5, float("nan")]])
    def test_chi_rejects_nan(self, x):
        with pytest.raises(ValidationError, match="outside"):
            chi(x, 2, 1, 3)

    def test_incomplete_beta_rejects_nan(self):
        with pytest.raises(ValidationError, match="outside"):
            regularized_incomplete_beta(float("nan"), 2, 3)
        with pytest.raises(ValidationError, match="finite"):
            regularized_incomplete_beta(0.5, math.inf, 3)

    @pytest.mark.parametrize("check,counts", [
        (lambda k, l, n: chi(0.5, k, l, n), [(True, 0, 2), (2, False, 3), (1, 0, True)]),
        (chi_edge_terms, [(True, 0, 2), (2, False, 3), (1, 0, True)]),
        (kolmogorov_contraction_check, [(True, 0, 2), (1, False, 2), (1, 0, True)]),
    ])
    def test_bool_counts_rejected(self, check, counts):
        for k, l, n in counts:
            with pytest.raises(ValidationError, match="integers"):
                check(k, l, n)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 1), (1, math.inf),
                                            (math.nan, 1), (0, 1), (1, -2)])
    def test_beta_params_finite_and_positive(self, alpha, beta):
        with pytest.raises(ValidationError, match="finite and positive"):
            BetaParams(alpha, beta)
