"""The exact refresh of Pauli-axis qubit agents, its Beta sampler and the
choice of refresh path.

Under the uniform ball prior, outcomes whose likelihood is c0 (1 +- r_a) on
one Bloch axis give the posterior prod_a (1 + r_a)^(n+_a) (1 - r_a)^(n-_a)
truncated to the ball.  The exactness gate compares clouds drawn by
``sample_axis_posterior`` with a quadrature of that density: the integral
over one axis is a difference of regularized incomplete Beta functions, and
the other two axes are integrated on a trapezoid grid that spans the mass of
their Beta factors.  The count vectors cover both branches of the Beta
sampler ``_beta_draws``: closed forms for one-sided counts and Cheng's BB
rejection for two-sided ones.  The sampler itself is checked against the
Beta law at shapes from uniform to the thousands.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from digest_child import ENVIRONMENTS, LAW_ROWS, SIMD_ROWS, disabled_targets, output
from qbagents import inference
from qbagents.agents import Agent
from qbagents.inference import (
    PROPOSAL_SCALE,
    RESAMPLE_SWEEPS,
    _beta_draws,
    _systematic_indices,
    bayes_update,
    log_posterior_density,
    maybe_resample,
    posterior_summary,
    sample_axis_posterior,
    sample_uniform,
)
from qbagents.postulate import QubitBall, axis_classes, classical_postulate, quantum_postulate
from qbagents.quantum import TETRA_VERTICES
from qbagents.scenarios import _menu, default_config, run_config

QUANTUM = quantum_postulate()
CLASSICAL4 = classical_postulate(4)
N = 10_000
NODES = 801


def _rows(post, menu):
    return [a.matrix @ post.phi for a in _menu(menu)]


def _source_counts(point, n_obs, axes, seed):
    """Counts of n_obs Pauli outcomes on random axes from a Bloch point."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((3, 2))
    for _ in range(n_obs):
        a = axes[rng.integers(len(axes))]
        counts[a, 0 if rng.random() < (1 + point[a]) / 2 else 1] += 1
    return counts


COUNT_VECTORS = {
    "no_evidence": np.zeros((3, 2)),
    "three_on_x": np.array([[2, 1], [0, 0], [0, 0]], dtype=float),
    "plus_source_500": _source_counts((1.0, 0.0, 0.0), 500, (0, 1, 2), seed=5),
    "boundary_xz": _source_counts((0.6, 0.0, 0.8), 600, (0, 2), seed=6),
    "one_sided": np.array([[4, 0], [0, 3], [7, 0]], dtype=float),
    "inner_source_3000": _source_counts((0.3, -0.5, 0.6), 3000, (0, 1, 2), seed=7),
}


def _axis_nodes(alpha, beta):
    """Trapezoid nodes and weights in B = (1 + r) / 2 over the mass of Beta."""
    lo = stats.beta.ppf(1e-14, alpha, beta)
    hi = stats.beta.isf(1e-14, alpha, beta)
    b = np.linspace(lo, hi, NODES)
    w = np.full(NODES, b[1] - b[0])
    w[[0, -1]] /= 2
    return b, w * stats.beta.pdf(b, alpha, beta)


def _inner(alpha, beta, h, k):
    """E[r^k; |r| <= h] for r = 2B - 1, B ~ Beta(alpha, beta), elementwise in h."""
    lo, hi = (1 - h) / 2, (1 + h) / 2

    def mass(shift):
        return betainc(alpha + shift, beta, hi) - betainc(alpha + shift, beta, lo)

    p0 = mass(0)
    if k == 0:
        return p0
    e1 = alpha / (alpha + beta) * mass(1)
    if k == 1:
        return 2 * e1 - p0
    e2 = alpha * (alpha + 1) / ((alpha + beta) * (alpha + beta + 1)) * mass(2)
    return 4 * e2 - 4 * e1 + p0


def _grid(counts, u, v, inner):
    """Nodes, weights and ball half-widths on the (u, v) grid, with axis
    ``inner`` integrated out."""
    alpha, beta = counts[:, 0] + 1, counts[:, 1] + 1
    bu, wu = _axis_nodes(alpha[u], beta[u])
    bv, wv = _axis_nodes(alpha[v], beta[v])
    ru, rv = 2 * bu - 1, 2 * bv - 1
    h = np.sqrt(np.clip(1 - ru[:, None] ** 2 - rv[None, :] ** 2, 0, None))
    return (bu, bv), (ru, rv), wu[:, None] * wv[None, :], h, (alpha[inner], beta[inner])


def truncated_moments(counts):
    """Mean and covariance of the truncated axis-product density, by quadrature."""
    u, v = 0, 1
    _b, (ru, rv), w, h, (a, b) = _grid(counts, u, v, 2)
    g0, g1, g2 = (w * _inner(a, b, h, k) for k in (0, 1, 2))
    z = g0.sum()
    m = np.zeros(3)
    s = np.zeros((3, 3))
    m[u], m[v], m[2] = (ru @ g0.sum(1)) / z, (g0.sum(0) @ rv) / z, g1.sum() / z
    s[u, u] = (ru ** 2 @ g0.sum(1)) / z
    s[v, v] = (g0.sum(0) @ rv ** 2) / z
    s[2, 2] = g2.sum() / z
    s[u, v] = s[v, u] = ru @ g0 @ rv / z
    s[u, 2] = s[2, u] = (ru @ g1.sum(1)) / z
    s[v, 2] = s[2, v] = (g1.sum(0) @ rv) / z
    return m, s - np.outer(m, m)


def marginal_cdf(counts, axis):
    """CDF of the r_axis marginal of the truncated density, by quadrature."""
    (bu, _bv), _r, w, h, (a, b) = _grid(counts, axis, (axis + 1) % 3, (axis + 2) % 3)
    mass = (w * _inner(a, b, h, 0)).sum(1)
    cdf = np.concatenate(([0.0], np.cumsum((mass[1:] + mass[:-1]) / 2)))
    cdf /= cdf[-1]
    return lambda r: np.interp((1 + np.asarray(r)) / 2, bu, cdf)


class TestBlochAxes:
    @pytest.mark.parametrize("menu", ["paulis", "paulis_zx"])
    def test_quantum_paulis_are_axis_aligned(self, menu):
        expected = {"X": 0, "Y": 1, "Z": 2}
        for action, rows in zip(_menu(menu), _rows(QUANTUM, menu)):
            axis = expected[action.name]
            assert axis_classes(rows) == ((axis, 1), (axis, -1))

    @pytest.mark.parametrize("post,menu", [(QUANTUM, "sic_reference"),
                                           (CLASSICAL4, "paulis"),
                                           (CLASSICAL4, "sharp_paulis"),
                                           (CLASSICAL4, "sic_reference")])
    def test_other_rows_fall_back(self, post, menu):
        for rows in _rows(post, menu):
            assert set(axis_classes(rows)) == {None}

    def test_unit_ratio_is_matched_within_tolerance(self):
        # the quantum Pauli rows miss |k| = 1 by a few ulps, so a test for an
        # exact 1.0 would classify no action at all
        ratios = [np.abs(r @ TETRA_VERTICES).max() / r.sum()
                  for rows in _rows(QUANTUM, "paulis") for r in rows]
        assert any(k != 1.0 for k in ratios)
        assert np.allclose(ratios, 1.0, rtol=0, atol=1e-15)


def moment_z_scores(counts, pts):
    """|sample - quadrature| over its standard error, for the 3 means and the
    6 covariance entries of a cloud drawn for ``counts``."""
    mean, cov = truncated_moments(counts)
    n = pts.shape[0]
    z = list(np.abs(pts.mean(axis=0) - mean) / (pts.std(axis=0) / np.sqrt(n)))
    centered = pts - pts.mean(axis=0)
    for i in range(3):
        for j in range(i, 3):
            prod = centered[:, i] * centered[:, j]
            z.append(abs(prod.mean() - cov[i, j]) / (prod.std() / np.sqrt(n)))
    return np.array(z)


SIMD_LAW_VECTORS = ("one_sided", "boundary_xz", "inner_source_3000")


def law_report(*names):
    """For each count vector of ``names``, the largest moment z-score and the
    smallest axis-marginal KS p-value of one N-point cloud."""
    report = {}
    for name in names:
        counts = COUNT_VECTORS[name]
        pts = sample_axis_posterior(counts, N, np.random.default_rng(22))
        report[name] = {
            "z_max": float(moment_z_scores(counts, pts).max()),
            "ks_min": min(stats.kstest(pts[:, a], marginal_cdf(counts, a)).pvalue
                          for a in range(3)),
        }
    return report


# the bit generators the exact draw must be exact on: PCG64 (``default_rng``)
# and SFC64, that of the run's ``resample`` stream
BIT_GENERATORS = pytest.mark.parametrize("bits", [np.random.PCG64, np.random.SFC64],
                                         ids=["pcg64", "sfc64"])


class TestExactnessGate:
    @BIT_GENERATORS
    @pytest.mark.parametrize("name", COUNT_VECTORS)
    def test_moments_match_quadrature(self, name, bits):
        counts = COUNT_VECTORS[name]
        pts = sample_axis_posterior(counts, N, np.random.Generator(bits(20)))
        assert pts.shape == (N, 3)
        assert np.all(np.einsum("ij,ij->i", pts, pts) <= 1.0)
        assert np.all(moment_z_scores(counts, pts) < 4)

    @BIT_GENERATORS
    @pytest.mark.parametrize("name", COUNT_VECTORS)
    @pytest.mark.parametrize("axis", range(3))
    def test_axis_marginals_pass_ks(self, name, axis, bits):
        counts = COUNT_VECTORS[name]
        pts = sample_axis_posterior(counts, N, np.random.Generator(bits(21)))
        result = stats.kstest(pts[:, axis], marginal_cdf(counts, axis))
        assert result.pvalue > 0.001

    def test_law_holds_on_numpy_loops_below_avx512(self):
        # The draws round through numpy's log, exp and power loops, whose bits
        # follow the SIMD level: with the AVX-512 loops off, other candidates
        # pass the ball and BB tests, and the law must hold all the same.
        laws = {}
        for row in LAW_ROWS:
            child = output(row, *SIMD_ROWS)
            assert not any(child["simd"].get(t) for t in disabled_targets(row))
            laws.update(child[ENVIRONMENTS[row].parts[0]])
        assert sorted(laws) == sorted(SIMD_LAW_VECTORS)
        for name, law in laws.items():
            assert law["z_max"] < 4, name
            assert law["ks_min"] > 0.001, name

    def test_round_memory_does_not_grow_with_rejection(self):
        # Beta(13, 1) on x and z puts about 2 % of the axis product in the
        # ball; a refill round sized from that acceptance would hold about 60
        # candidates a missing point, where every round is capped at n
        low_acceptance = np.array([[12, 0], [0, 0], [12, 0]], dtype=float)
        sample_axis_posterior(np.zeros((3, 2)), 10, np.random.default_rng(25))
        peaks = []
        tracemalloc.start()
        try:
            for counts in (np.zeros((3, 2)), low_acceptance):
                tracemalloc.reset_peak()
                assert sample_axis_posterior(counts, N, np.random.default_rng(25)) is not None
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_quadrature_of_the_uniform_ball(self):
        mean, cov = truncated_moments(np.zeros((3, 2)))
        assert np.allclose(mean, 0, atol=1e-9)
        assert np.allclose(cov, np.eye(3) / 5, atol=1e-6)


BETA_SHAPES = [(1, 1), (4, 1), (1, 4), (2, 2), (3, 2), (13, 9), (41, 31), (2, 300),
               (1001, 3), (5000, 4000)]
BETA_DRAWS = 100_000


class FirstUniformZero:
    """A generator whose first uniform array has 0.0 at ``cell``."""

    def __init__(self, seed, cell):
        self.rng, self.cell = np.random.default_rng(seed), cell

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        if self.cell is not None:
            u[self.cell] = 0.0
            self.cell = None
        return u


class TestBetaDraws:
    @BIT_GENERATORS
    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_law(self, a, b, bits):
        x = np.empty(BETA_DRAWS)
        _beta_draws(x, float(a), float(b), np.random.Generator(bits(23)))
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        assert abs(x.mean() - mean) < 4 * np.sqrt(var / x.size)
        sq = (x - mean) ** 2
        assert abs(sq.mean() - var) < 4 * sq.std() / np.sqrt(x.size)
        assert stats.kstest(x, stats.beta(a, b).cdf).pvalue > 0.001

    @pytest.mark.parametrize("a,b", [(3.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 0)], ids=["u1", "u2"])
    def test_zero_uniform_in_a_bb_pass(self, a, b, cell):
        # U1 = 0 gives W = 0, which would pin the draw at 0 (a <= b) or 1;
        # U2 = 0 is kept or not like any other U2; neither may warn
        x = np.empty(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _beta_draws(x, a, b, FirstUniformZero(24, cell))
        assert np.all((x > 0.0) & (x < 1.0))


def observe(agent, a, j):
    """Outcome j of menu action a, as the run loop takes it: the update, then
    the count in the agent's evidence."""
    agent.ensemble = bayes_update(agent.ensemble, agent.evidence, a, j)
    agent.evidence.add(a, j)


def _pauli_agent(seed, cells, n=N, post=QUANTUM, menu="paulis"):
    """An agent on a uniform ball cloud that has observed the given (menu
    index, outcome) cells."""
    agent = Agent("a", post, sample_uniform(QubitBall(), n, np.random.default_rng(seed)),
                  _menu(menu))
    for a, j in cells:
        observe(agent, a, j)
    return agent


def _parent_resample_move(agent, rng):
    # Systematic resampling plus random-walk Metropolis, as resample-move ran
    # before the exact path existed: the fallback must reproduce it bit for bit.
    ens = agent.ensemble
    summary = posterior_summary(ens)
    pts = ens.points[_systematic_indices(ens.weights, rng)].copy()
    scale = PROPOSAL_SCALE * summary.std
    logp = log_posterior_density(ens, pts, agent.evidence)
    for _ in range(RESAMPLE_SWEEPS):
        proposal = pts + rng.normal(size=pts.shape) * scale
        logp_prop = log_posterior_density(ens, proposal, agent.evidence)
        with np.errstate(invalid="ignore"):
            accept = np.log(rng.uniform(size=ens.n)) < (logp_prop - logp)
        accept &= np.isfinite(logp_prop)
        pts[accept] = proposal[accept]
        logp[accept] = logp_prop[accept]
    return pts


class LastUniform:
    """A generator whose ``uniform()`` is the largest double below 1."""

    def uniform(self):
        return 1.0 - 2.0 ** -53


class TestSystematicIndices:
    def test_last_position_stays_in_range(self):
        # positions reach (u + n - 1) / n, which rounds to 1.0, while these
        # normalized weights sum to 0.9999999999999998 left to right
        w = np.random.default_rng(3).random(N)
        w /= w.sum()
        assert np.cumsum(w)[-1] < 1.0
        assert _systematic_indices(w, LastUniform()).max() == N - 1

    def test_last_position_skips_trailing_zero_weights(self):
        w = np.random.default_rng(3).random(N)
        w[-3:] = 0.0
        w /= w.sum()
        assert np.cumsum(w)[-1] < 1.0
        idx = _systematic_indices(w, LastUniform())
        assert idx.max() == N - 4
        assert np.all(w[idx] > 0)


class TestPathSelection:
    def test_pauli_evidence_takes_the_exact_path(self):
        cells = [(0, 0)] * 6 + [(2, 1)] * 3 + [(1, 0)]
        agent = _pauli_agent(30, cells)
        ens = agent.ensemble
        assert ens.ess() < ens.n / 2
        assert np.array_equal(agent.evidence.axis_counts(), [[6, 0], [1, 0], [0, 3]])
        out = maybe_resample(ens, agent.evidence, np.random.default_rng(31))
        expected = sample_axis_posterior([[6, 0], [1, 0], [0, 3]], ens.n,
                                         np.random.default_rng(31))
        assert np.array_equal(out.points, expected)
        assert np.all(out.weights == 1.0 / ens.n)

    def test_non_firing_resample_leaves_the_stream_untouched(self):
        agent = _pauli_agent(32, [(0, 0)])
        ens = agent.ensemble
        assert ens.ess() >= ens.n / 2
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        assert maybe_resample(ens, agent.evidence, rng) is ens
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("post,menu", [(QUANTUM, "sic_reference"),
                                           (CLASSICAL4, "paulis"),
                                           (CLASSICAL4, "sharp_paulis")])
    def test_fallback_is_the_parent_resample_move(self, post, menu):
        n_actions = len(_menu(menu))
        rng = np.random.default_rng(34)
        cells = [(int(rng.integers(n_actions)), 0) for _ in range(40)]
        agent = _pauli_agent(35, cells, n=2000, post=post, menu=menu)
        ens = agent.ensemble
        assert agent.evidence.axis_counts() is None
        assert ens.ess() < ens.n / 2
        out = maybe_resample(ens, agent.evidence, np.random.default_rng(36))
        assert np.array_equal(out.points,
                              _parent_resample_move(agent, np.random.default_rng(36)))

    def test_mixed_evidence_falls_back(self):
        # one SIC observation among Pauli ones rules out the axis product
        menu = _menu("paulis") + _menu("sic_reference")
        agent = Agent("a", QUANTUM, sample_uniform(QubitBall(), 2000, np.random.default_rng(37)),
                      menu)
        for a, j in [(2, 0)] * 8 + [(3, 1)]:
            observe(agent, a, j)
        assert agent.evidence.axis_counts() is None
        out = maybe_resample(agent.ensemble, agent.evidence, np.random.default_rng(38))
        assert np.array_equal(out.points,
                              _parent_resample_move(agent, np.random.default_rng(38)))

    def test_exact_draw_gives_up_when_the_product_leaves_the_ball(self):
        # Beta(201, 1) on x and z puts the axis product near (1, 0, 1), where
        # about 1e-20 of it lies in the ball: the draw spends its candidate
        # budget, and resample-move runs on the stream it leaves
        counts = [[200, 0], [0, 0], [200, 0]]
        agent = _pauli_agent(40, [(0, 0)] * 200 + [(2, 0)] * 200, n=50)
        assert np.array_equal(agent.evidence.axis_counts(), counts)
        rng = np.random.default_rng(41)
        assert sample_axis_posterior(counts, agent.ensemble.n, rng) is None
        out = maybe_resample(agent.ensemble, agent.evidence, np.random.default_rng(41))
        assert np.array_equal(out.points, _parent_resample_move(agent, rng))
        assert out.ess() == pytest.approx(out.n)


class TestFallbackReached:
    """Registry runs reach the Metropolis fallback exactly when their evidence
    is not Pauli-axis: a view of the agent's counts that lost the action
    classes would send fallback evidence to the exact draw, and no benchmark
    workload runs a fallback scenario."""

    @pytest.mark.parametrize("name,reached", [("quinn_clark", True),
                                              ("quinn_clara_sharp", True),
                                              ("quantum_pair_biasedZ", False)])
    def test_fallback_calls(self, monkeypatch, name, reached):
        calls = []
        original = inference.log_posterior_density

        def counting(*args):
            calls.append(args[1].shape[0])
            return original(*args)

        monkeypatch.setattr(inference, "log_posterior_density", counting)
        run_config(replace(default_config(name), n_steps=50))
        assert bool(calls) == reached
