"""Exchangeable 1-D agents carry Beta counts (``inference.BetaMixture``).

* The quadrature gate: the closed-form mean and standard deviation of every
  continuous 1-D prior kind, at counts up to (10^4, 10^4) and with the mass
  piled against truncated edges, agree within relative error 1e-12 with an
  mpmath quadrature at 50 digits.
* A property test: the grid built in log space from the counts is finite,
  sums to 1 and has the closed-form mean within the grid's quadrature error.
* The draw-column gate: over the golden seeds of the 1-D scenarios the action
  and outcome columns equal those of the grid engine (the same priors as
  reweighted grids); where they differ, the first difference falls at a draw
  whose ``random()`` lies between the two engines' outcome probabilities.
* The update: counting by ``axis_classes``, the rejection of a likelihood
  that is not theta or 1 - theta (on the update and at agent build; the
  plain prior grid runs such an action), and the agent and run plumbing
  around it.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlog1py, xlogy

from qbagents.agents import Action, Agent
from qbagents.core_math import DEFAULT_GRID_POINTS
from qbagents.errors import ImpossibleOutcomeError, ValidationError
from qbagents.inference import (
    BetaMixture,
    ParticleEnsemble,
    bayes_update,
    grid_ensemble,
    maybe_resample,
    posterior_mean,
    posterior_summary,
)
from qbagents.interaction import run
from qbagents.postulate import Interval, classical_postulate, outcome_probs
from qbagents.rng import agent_streams
from qbagents.scenarios import PRIORS, REGISTRY, _menu, build_runtime, default_config

CLASSICAL2 = classical_postulate(2)

# every continuous 1-D prior kind, with truncations at 0, at 1 and inside
PRIOR_CASES = {
    "uniform": {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0},
    "uniform_low_third": {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0 / 3.0},
    "uniform_high_third": {"kind": "grid_uniform", "lo": 2.0 / 3.0, "hi": 1.0},
    "uniform_inner": {"kind": "grid_uniform", "lo": 0.2, "hi": 0.6},
    "semicircle": {"kind": "grid_pdf", "name": "semicircle"},
    "triangular": {"kind": "grid_pdf", "name": "triangular", "peak": 0.7},
    "triangular_low": {"kind": "grid_pdf", "name": "triangular", "peak": 0.25},
    "beta": {"kind": "grid_beta", "alpha": 2.5, "beta": 4.0},
}
COUNTS = [(0, 0), (3, 1), (700, 300), (10**4, 10**4), (10**4, 0), (0, 10**4)]


def belief(prior: dict, counts=(0, 0), n: int = 101) -> BetaMixture:
    """A prior kind's belief on an n-point grid, at the given counts."""
    _region, _params, _check, build, pieces = PRIORS[prior["kind"]]
    return BetaMixture(build(prior, n, None), pieces(prior), counts)


# ---------------------------------------------------------------------------
# The mpmath reference: 50-digit quadrature of the posterior pieces

mp.mp.dps = 50
DROPS = (2.0, 8.0, 24.0, 60.0, 140.0)


def _cuts(A: float, B: float, lo: float, hi: float) -> list[float]:
    """Edges of subintervals of [lo, hi] on which the log of t^A (1-t)^B
    falls from its peak by less than the next of ``DROPS``, out to where it
    is 140 below it (the mass beyond is below 1e-55 of the whole).  Cuts that
    crowd an end at 0 or 1 merge into it, whose algebraic singularity
    tanh-sinh takes."""
    def ld(t):
        return xlogy(A, t) + xlog1py(B, -t)

    grid = np.linspace(lo, hi, 4001)
    values = ld(grid)
    values[~np.isfinite(values)] = -np.inf
    peak = grid[np.argmax(values)]
    if A + B > 0 and lo < A / (A + B) < hi:
        peak = A / (A + B)
    top = ld(peak) if np.isfinite(ld(peak)) else values.max()
    cuts = [peak]
    for end in (lo, hi):
        inner, side = peak, []
        for drop in DROPS:
            if not ld(end) < top - drop:
                side.append(end)
                break
            a, b = inner, end  # ld(a) >= top - drop > ld(b)
            for _ in range(80):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if ld(mid) >= top - drop else (a, mid)
            side.append(b)
            inner = b
        if end in (0.0, 1.0):
            near = [x for x in side if abs(x - end) < 1e-3 * abs(peak - end)]
            if near:
                side = [x for x in side if x not in near] + [end]
        cuts += side
    return sorted(set(cuts))


def reference(pieces, counts) -> tuple[float, float]:
    """(mean, std) at 50 digits of sum_k c_k t^(alpha_k+a-1) (1-t)^(beta_k+b-1)
    on [lo_k, hi_k], by quadrature over the subintervals of ``_cuts``."""
    a, b = counts
    sums = [mp.mpf(0)] * 3
    for log_c, alpha, beta, lo, hi in pieces:
        A, B = alpha + a - 1.0, beta + b - 1.0
        pts = [mp.mpf(x) for x in _cuts(A, B, lo, hi)]
        Am, Bm = mp.mpf(A), mp.mpf(B)
        # less its largest value at the cuts, so that the error estimates see
        # numbers near 1
        def log_density(t):  # 0 log 0 = 0, as nodes round onto an end
            return (Am * mp.log(t) if Am else 0) + (Bm * mp.log1p(-t) if Bm else 0)

        mids = [(x0 + x1) / 2 for x0, x1 in zip(pts, pts[1:])]
        shift = max(log_density(t) for t in pts + mids if 0 < t < 1)

        def density(t):
            return mp.exp(log_density(t) - shift)

        first, second = mp.mpc(0), mp.mpf(0)
        for x0, x1 in zip(pts, pts[1:]):
            # Gauss-Legendre away from the singular points 0 and 1, tanh-sinh near them
            far = min(x0, 1 - x1) >= x1 - x0
            method = "gauss-legendre" if far else "tanh-sinh"
            part, err = mp.quad(lambda t: mp.mpc(density(t), density(t) * t), [x0, x1],
                                error=True, method=method)
            part2, err2 = mp.quad(lambda t: density(t) * t * t, [x0, x1], error=True,
                                  method=method)
            assert err <= mp.mpf(10) ** -30 and err2 <= mp.mpf(10) ** -30
            first, second = first + part, second + part2
        scale = mp.exp(mp.mpf(log_c) + shift)
        sums = [sums[0] + scale * first.real, sums[1] + scale * first.imag,
                sums[2] + scale * second]
    mean = sums[1] / sums[0]
    return float(mean), float(mp.sqrt(sums[2] / sums[0] - mean ** 2))


@pytest.mark.parametrize("counts", COUNTS, ids=str)
@pytest.mark.parametrize("kind", PRIOR_CASES)
def test_closed_form_matches_50_digit_quadrature(kind, counts):
    b = belief(PRIOR_CASES[kind], counts)
    mean, std = reference(b.pieces, counts)
    summary = posterior_summary(b)
    assert summary.mean[0] == pytest.approx(mean, rel=1e-12, abs=0)
    assert summary.std[0] == pytest.approx(std, rel=1e-12, abs=0)
    assert summary.semi_major == summary.std[0]
    assert b.mean_floats() == (summary.mean[0],) == (b.mean(),)


@pytest.mark.parametrize("pieces,counts", [
    (((0.0, 1.0, 1.0, 0.45, 0.46),), (0, 0)),  # narrower than the posterior
    (((0.0, 1.0, 1.0, 0.45, 0.46),), (3, 1)),
    (((0.0, 1.0, 1.0, 0.3, 0.32),), (10**4, 10**4)),  # piled against hi, lo inside
    (((0.0, 1.0, 1.0, 0.0, 1.0 / 3.0),), (2 * 10**4, 10**4)),  # betainc underflows
])
def test_hard_truncations_match_quadrature(pieces, counts):
    lo, hi = pieces[0][3:]
    b = BetaMixture(grid_ensemble(Interval(lo, hi), 11), pieces, counts)
    mean, std = reference(pieces, counts)
    assert b.mean() == pytest.approx(mean, rel=1e-12, abs=0)
    assert math.sqrt(b.variance()) == pytest.approx(std, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# The grid from the counts

PRIORS_DRAWN = st.one_of(
    st.just({"kind": "grid_pdf", "name": "semicircle"}),
    st.builds(lambda peak: {"kind": "grid_pdf", "name": "triangular", "peak": peak},
              st.floats(0.01, 0.99)),
    st.builds(lambda lo, width: {"kind": "grid_uniform", "lo": lo,
                                 "hi": min(1.0, lo + width)},
              st.sampled_from([0.0, 1.0 / 3.0, 0.2, 0.5, 0.9]),
              st.sampled_from([1.0, 1.0 / 3.0, 0.1, 0.01])),
    st.builds(lambda a, b: {"kind": "grid_beta", "alpha": a, "beta": b},
              st.floats(1.0, 50.0), st.floats(1.0, 50.0)),
)


@settings(max_examples=60, deadline=None)
@given(prior=PRIORS_DRAWN, a=st.integers(0, 10**4), b=st.integers(0, 10**4))
def test_log_space_grid_is_finite_normalized_and_near_the_closed_form(prior, a, b):
    belief_ = belief(prior, (a, b), n=DEFAULT_GRID_POINTS)
    w, theta = belief_.weights, belief_.points[:, 0]
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(np.einsum("i->", w) - 1.0) < 1e-12
    # The equal-weight rule's mean is within one grid step of the integral's:
    # the weights of the end points bias it by half a step, and a posterior
    # narrower than a step sits on one point.
    step = theta[1] - theta[0]
    assert abs(np.einsum("i,i->", w, theta) - belief_.mean()) <= step
    assert 1.0 <= belief_.ess() <= theta.size


def test_grid_at_counts_is_the_reweighted_prior_grid():
    prior = PRIOR_CASES["triangular"]
    start = belief(prior, n=DEFAULT_GRID_POINTS)
    grid = start.prior
    action = _menu("flip")[0]
    b = start
    for j in [0, 0, 1, 0, 1, 1, 1, 0, 0, 0] * 30:
        grid = bayes_update(grid, CLASSICAL2, action.matrix, j)
        b = bayes_update(b, CLASSICAL2, action.matrix, j)
    assert b.counts == (180, 120)
    assert np.allclose(b.weights, grid.weights, rtol=1e-10, atol=1e-300)
    assert b.points is start.points is grid.points
    assert b.mean() == pytest.approx(posterior_mean(grid)[0], abs=1e-8)


# ---------------------------------------------------------------------------
# The update and its callers

def test_update_counts_theta_and_one_minus_theta():
    b = belief(PRIOR_CASES["semicircle"])
    action = _menu("flip")[0]
    heads = bayes_update(b, CLASSICAL2, action.matrix, 0)
    tails = bayes_update(heads, CLASSICAL2, action.matrix, 1, (0, -1))
    assert (b.counts, heads.counts, tails.counts) == ((0, 0), (1, 0), (1, 1))
    assert tails.prior is b.prior and tails.pieces is b.pieces
    assert heads.mean() == pytest.approx(2.5 / 4.0)  # Beta(5/2, 3/2)
    assert maybe_resample(tails, None, None) is tails
    # the class passed decides; values at the points are ignored and the row
    # is classified
    assert bayes_update(b, CLASSICAL2, action.matrix, 0, (0, -1)).counts == (0, 1)
    assert bayes_update(b, CLASSICAL2, action.matrix, 1, np.ones(b.n)).counts == (0, 1)


MIXED = np.array([[0.75, 0.25], [0.25, 0.75]])


def as_grid(b: BetaMixture) -> ParticleEnsemble:
    """The count belief's grid posterior as a plain grid ensemble."""
    return ParticleEnsemble(b.points, b.weights, b.region, grid=True)


def test_other_likelihood_reweights_the_grid():
    b = belief(PRIOR_CASES["uniform"], (2, 1), n=1001)
    out = bayes_update(as_grid(b), CLASSICAL2, MIXED, 0)
    assert not isinstance(out, BetaMixture) and out.grid and out.posterior
    theta = b.points[:, 0]
    expected = b.weights * (0.25 + 0.5 * theta)
    assert np.allclose(out.weights, expected / expected.sum(), rtol=1e-12)
    with pytest.raises(ValidationError, match="neither theta nor 1 - theta"):
        bayes_update(b, CLASSICAL2, MIXED, 0)


def test_an_outcome_the_support_rules_out_raises():
    b = belief(PRIOR_CASES["uniform"], (2, 1), n=1001)
    never = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ImpossibleOutcomeError):
        bayes_update(as_grid(b), CLASSICAL2, never, 1)
    # a zero row is no class, so the count belief rejects it before any grid
    with pytest.raises(ValidationError, match="neither theta nor 1 - theta"):
        bayes_update(b, CLASSICAL2, never, 1)


def test_agent_with_a_mixed_action_starts_from_the_grid():
    b = belief(PRIOR_CASES["uniform"], n=1001)
    mixed = Action("noisy", MIXED, ("h", "t"))
    with pytest.raises(ValidationError, match=r"agent 'a'.*BetaMixture\.prior"):
        Agent("a", CLASSICAL2, b, (mixed,))
    with pytest.raises(ValidationError, match="agent 'a'"):
        Agent("a", CLASSICAL2, b, (*_menu("flip"), mixed))
    agent = Agent("a", CLASSICAL2, b.prior, (mixed,))
    assert agent.ensemble is b.prior and agent.evidence.axes == ((None, None),)
    counting = Agent("c", CLASSICAL2, b, _menu("flip"))
    assert counting.ensemble is b
    assert [b.likelihood(counting.evidence, 0, j) for j in (0, 1)] == [(0, 1), (0, -1)]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_agents_carry_counts_and_read_grids_lazily(name):
    # every agent with a continuous 1-D prior carries counts, and every
    # outcome of its menu classifies as theta or 1 - theta
    spec = build_runtime(replace(default_config(name, 3), n_steps=30))
    blocks = [b for b in spec.config["agents"] if "prior" in b]
    agents = [a for a in spec.slots if hasattr(a, "menu")]
    assert [b["id"] for b in blocks] == [a.id for a in agents]
    counting = [a for b, a in zip(blocks, agents) if PRIORS[b["prior"]["kind"]][4]]
    assert bool(counting) == (name in ONE_D)
    if not counting:
        return
    for agent in counting:
        assert isinstance(agent.ensemble, BetaMixture)
        assert {c for classes in agent.evidence.axes for c in classes} == {(0, 1), (0, -1)}
    run(spec, record_steps={30})
    for agent in counting:
        ens = agent.ensemble
        assert isinstance(ens, BetaMixture) and sum(ens.counts) == 30
        assert sum(agent.counts.values()) == 30
        assert ens._weights is not None  # read once, for the last record's ESS
        assert ens.n == DEFAULT_GRID_POINTS


# ---------------------------------------------------------------------------
# The draw-column gate

GOLDEN_SEEDS = (1, 2, 3)
ONE_D = ("coin_tomography", "classical_pair", "classical_disjoint", "quinn_clark")


def _columns(trace) -> list[tuple]:
    return [tuple((a.action, a.outcome) for a in rec.agents if a is not None)
            for rec in trace.records]


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("name", ONE_D)
def test_draw_columns_match_the_grid_engine(name, seed):
    cfg = default_config(name, seed)
    cfg = replace(cfg, n_steps=min(cfg.n_steps, 200))
    counting = build_runtime(cfg)
    grids = build_runtime(cfg)
    for slot in grids.slots:
        if isinstance(getattr(slot, "ensemble", None), BetaMixture):
            slot.ensemble = slot.ensemble.prior
    new, old = run(counting), run(grids)
    if _columns(new) == _columns(old):
        return
    step = next(i for i, (x, y) in enumerate(zip(_columns(new), _columns(old))) if x != y)
    # Before that step every draw agreed, so each receiver drew its outcome
    # from the same stream position; it differs because the sender's mean did.
    for k, slot in enumerate(counting.slots):
        if not hasattr(slot, "menu") or new.records[step].agents[k].outcome == \
                old.records[step].agents[k].outcome:
            continue
        stream = agent_streams(seed, k)["outcome"]
        for _ in range(step):
            stream.random()
        u = stream.random()
        sender = 1 - k
        means = []
        for trace, spec in ((new, counting), (old, grids)):
            point = (np.asarray(trace.records[step - 1].agents[sender].mean) if step
                     else np.asarray(trace.initial[spec.slots[sender].id]["mean"]))
            point = spec.regularizers[k](point)
            q = outcome_probs(spec.slots[k].kernel_rows[0], [1.0, *point])
            means.append(np.cumsum(q) / sum(q))
        assert any(min(x, y) <= u <= max(x, y) for x, y in zip(*means))


# ---------------------------------------------------------------------------
# The two-piece mixture: one ``+`` for fsum of two terms, bit for bit


def _parent_mixture(pieces, counts, piece):
    # BetaMixture.mean's general form: the masses and the mean summed by fsum
    a, b = counts
    logs, means = [], []
    for log_c, alpha, beta, lo, hi in pieces:
        log_mass, mean = piece(alpha + a, beta + b, lo, hi)
        logs.append(log_c + log_mass)
        means.append(mean)
    top = max(logs)
    w = [math.exp(x - top) for x in logs]
    total = math.fsum(w)
    mix = [x / total for x in w]
    return mix, means, math.fsum(map(lambda u, v: u * v, mix, means))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_two_piece_mean_equals_the_fsum_form(monkeypatch):
    # 10^5 random counts and two-piece sets, each piece's (log mass, mean)
    # drawn at random over the range beta_piece returns (down to masses
    # that underflow, means at 0 and 1), so only the mixing arithmetic is
    # compared
    from qbagents import inference

    rng = np.random.default_rng(61)
    n = 100_000
    log_c = rng.uniform(-40.0, 40.0, (n, 2))
    log_mass = np.where(rng.random((n, 2)) < 0.9, rng.uniform(-60.0, 2.0, (n, 2)),
                        rng.uniform(-800.0, -600.0, (n, 2)))
    log_mass[rng.random((n, 2)) < 0.01] = -np.inf
    log_mass[np.isinf(log_mass).all(axis=1), 0] = -1.0
    means = rng.random((n, 2))
    means[rng.random((n, 2)) < 0.01] = 0.0
    means[rng.random((n, 2)) < 0.01] = 1.0
    counts = rng.integers(0, 10**4, (n, 2)).tolist()
    table = {}

    def piece(alpha, beta, lo, hi):
        return table[alpha, beta, lo, hi]

    monkeypatch.setattr(inference, "beta_piece", piece)
    for i in range(n):
        lo, peak = 0.0, float(rng.uniform(0.01, 0.99)) if i % 1000 == 0 else 0.5
        pieces = ((log_c[i, 0], 2.0, 1.0, lo, peak), (log_c[i, 1], 1.0, 2.0, peak, 1.0))
        a, b = counts[i]
        table.clear()
        table[2.0 + a, 1.0 + b, lo, peak] = (log_mass[i, 0], means[i, 0])
        table[1.0 + a, 2.0 + b, peak, 1.0] = (log_mass[i, 1], means[i, 1])
        belief = BetaMixture(None, pieces, (a, b))
        mix, piece_means, mean = _parent_mixture(pieces, (a, b), piece)
        assert _hex([belief.mean(), *belief._mix, *belief._means]) == _hex(
            [mean, *mix, *piece_means])


@pytest.mark.parametrize("peak", [0.7, 0.25, 0.5])
def test_two_piece_mean_equals_the_fsum_form_on_triangular_beliefs(peak):
    from qbagents.core_math import beta_piece, beta_piece_var

    rng = np.random.default_rng(62)
    pieces = PRIORS["grid_pdf"][4]({"kind": "grid_pdf", "name": "triangular", "peak": peak})
    for a, b in [*COUNTS, *rng.integers(0, 3000, (300, 2)).tolist()]:
        belief = BetaMixture(None, pieces, (a, b))
        mix, piece_means, mean = _parent_mixture(pieces, (a, b), beta_piece)
        variance = math.fsum(w * (beta_piece_var(alpha + a, beta + b, lo, hi) + (m - mean) ** 2)
                             for w, m, (_c, alpha, beta, lo, hi) in zip(mix, piece_means, pieces))
        assert _hex([belief.mean(), belief.variance(), *belief._mix]) == _hex(
            [mean, variance, *mix])
