"""Closed-form agreement analysis for two coin-exchanging Bayesian agents.

After one exchange in which agent A receives heads with probability equal to
agent B's mean bias estimate m_B, the density A expects to hold is their prior
reweighted by the other's mean:

    ExpPos_A(theta) = (m_B / m_A * theta + (1 - m_B) / (1 - m_A) * (1 - theta)) * P_A(theta)

For a Beta(a, b) prior this is the two-component mixture
m_B * Beta(a+1, b) + (1 - m_B) * Beta(a, b+1), and for agents that started
from uniform priors and exchanged N coins (A saw k heads, B saw l), the
current priors are Beta(k+1, N-k+1) and Beta(l+1, N-l+1).

Two contraction statements are realized numerically here:

* mean contraction: |m_B - m_A| >= |m_B - mean(ExpPos_A)|, a consequence of
  mean(theta)^2 <= mean(theta^2);
* Kolmogorov contraction: for uniform initial priors, the sup-distance between
  the expected-posterior CDFs never exceeds the distance between the prior
  CDFs.  The proof reduces to nonnegativity on [0, 1] of

      chi = sum_{j=l+1}^{k} g(j, N+1-j)
            - (k - l) * (g(l+1, N+1-l) + g(k+1, N+1-k)),

  with g(p, q) = x^p (1-x)^q / (p! q!), evaluated here through log-gamma so
  that N up to a few dozen stays exact to float precision.

``verify_appendix_claims`` checks every claim in whole-array passes, and the
public checks compute through the same private helpers, so each claim has one
arithmetic path and the battery's values are bit for bit those of the public
functions:

* mean contraction: Beta pairs are drawn in blocks of ``BETA_PAIR_BLOCK``
  (four uniforms per pair, the stream of four scalar draws) and their gaps
  computed elementwise by ``_mixture_mean`` and ``_gaps``, so memory does not
  grow with the number of pairs;
* chi: per level N, one table of the ``g`` rows on the grid's interior points
  (``_chi_tables``); for each ``l`` a cumulative sum over ``j`` gives every
  ``k`` at once (``_chi_rows``), adding left to right like a running total;
* Kolmogorov contraction: the priors and mixture components have integer
  shapes, so their CDFs are binomial upper tails (``_binomial_tails``).  Per
  level N, one running sum of degree N+2 gives the N+2 mixture-component rows,
  which are also the prior rows of level N+1, and ``_contraction_pairs``
  compares them pair by pair on the 10,001-point grid.  Only ``l <= k`` is
  evaluated: both distances are exactly symmetric in ``(k, l)``;
* the split-sum boundary values: one pass of ``_edge_terms`` over all
  ``(k, l, N)`` triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core_math
from .core_math import (
    DEFAULT_GRID_POINTS,
    BetaParams,
    beta_cdf_row,
    beta_mean,
    grid_belief,
)
from .errors import ValidationError
from .inference import ParticleEnsemble

CHI_GRID = 101  # points on [0, 1] where chi is checked
CLAIM_TOL = 1e-12  # slack on the mean-contraction and chi margins
BETA_PAIR_BLOCK = 4096  # random Beta pairs drawn and checked per array pass


class _BetaArrays(NamedTuple):
    """Beta parameters as parallel arrays; ``beta_mean`` reads them elementwise."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class ExpectedPosterior:
    """Expected density after one exchange: a Beta mixture or a reweighted grid belief."""

    kind: str
    mixture_weights: tuple[float, float] | None = None
    components: tuple[BetaParams, BetaParams] | None = None
    density: ParticleEnsemble | None = None

    def mean(self) -> float:
        if self.kind == "beta_mixture":
            return _mixture_mean(self.mixture_weights, self.components)
        return _mean_of(self.density)

    def cdf(self) -> np.ndarray:
        """Mixture CDF at the default grid's points, from the two components'
        ``beta_cdf_row``."""
        if self.kind != "beta_mixture":
            raise ValidationError("a grid expected posterior's CDF is that of its density")
        w1, w2 = self.mixture_weights
        c1, c2 = self.components
        return w1 * beta_cdf_row(c1) + w2 * beta_cdf_row(c2)


def _mixture_components(prior):
    """Beta(a+1, b) and Beta(a, b+1) for a prior Beta(a, b), of the prior's type."""
    make = type(prior)
    return make(prior.alpha + 1, prior.beta), make(prior.alpha, prior.beta + 1)


def _mixture_mean(weights, components):
    """Mean of a two-component Beta mixture; elementwise for ``_BetaArrays``."""
    (w1, w2), (c1, c2) = weights, components
    return w1 * beta_mean(c1) + w2 * beta_mean(c2)


def _gaps(mean_a, mean_b, after):
    """(|m_B - m_A|, |m_B - mean(ExpPos_A)|); elementwise over arrays."""
    return abs(mean_b - mean_a), abs(mean_b - after)


def _mean_of(prior) -> float:
    """A Beta law's mean, or a 1-D grid belief's ``weights @ grid`` (its grid measure)."""
    if isinstance(prior, BetaParams):
        return beta_mean(prior)
    theta, weights = grid_belief(prior)
    return float(weights @ theta)


def expected_posterior(prior_a, mean_b: float) -> ExpectedPosterior:
    """Expected density for agent A, a ``BetaParams`` or a 1-D grid belief,
    after one exchange with an agent of mean bias estimate ``mean_b``."""
    if not (0.0 < mean_b < 1.0):
        raise ValidationError(f"other agent's mean must be interior, got {mean_b}")
    mean_a = _mean_of(prior_a)
    if not (0.0 < mean_a < 1.0):
        raise ValidationError(f"prior mean must be interior, got {mean_a}")
    if isinstance(prior_a, BetaParams):
        return ExpectedPosterior("beta_mixture",
                                 mixture_weights=(mean_b, 1.0 - mean_b),
                                 components=_mixture_components(prior_a))
    theta = prior_a.points[:, 0]
    factor = (mean_b / mean_a) * theta + ((1.0 - mean_b) / (1.0 - mean_a)) * (1.0 - theta)
    weights = prior_a.weights * factor
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"expected posterior integrates to {total!r}")
    return ExpectedPosterior("grid", density=ParticleEnsemble(
        prior_a.points, weights / total, prior_a.region, grid=True))


def mean_contraction_gap(prior_a, prior_b) -> tuple[float, float]:
    """(|m_B - m_A|, |m_B - mean(ExpPos_A)|); the first is never smaller."""
    mean_a, mean_b = _mean_of(prior_a), _mean_of(prior_b)
    return _gaps(mean_a, mean_b, expected_posterior(prior_a, mean_b).mean())


def _beta_pair_gaps(rng: np.random.Generator, n_pairs: int):
    """``mean_contraction_gap`` of ``n_pairs`` random Beta pairs, one block of at
    most ``BETA_PAIR_BLOCK`` pairs at a time.

    Yields (before, after) arrays.  Each pair takes four uniforms on
    [0.2, 20) in the order alpha_a, beta_a, alpha_b, beta_b: the stream of four
    scalar ``rng.uniform`` calls per pair.
    """
    for start in range(0, n_pairs, BETA_PAIR_BLOCK):
        draws = rng.uniform(0.2, 20.0, size=(min(BETA_PAIR_BLOCK, n_pairs - start), 4))
        prior_a = _BetaArrays(draws[:, 0], draws[:, 1])
        mean_b = beta_mean(_BetaArrays(draws[:, 2], draws[:, 3]))
        after = _mixture_mean((mean_b, 1.0 - mean_b), _mixture_components(prior_a))
        yield _gaps(beta_mean(prior_a), mean_b, after)


def chi(x, k: int, l: int, n_total: int):
    """The nonnegative quantity certifying Kolmogorov contraction.

    Vectorized over ``x`` in [0, 1]; requires 0 <= l < k <= n_total.
    """
    _check_counts(k, l, n_total, strict=True)
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise ValidationError("x outside [0, 1]")
    scalar = xv.ndim == 0
    xv = np.atleast_1d(xv)
    interior = (xv > 0.0) & (xv < 1.0)
    out = np.zeros_like(xv)
    if np.any(interior):
        xi = xv[interior]
        tables = _chi_tables(np.log(xi), np.log1p(-xi), n_total)
        out[interior] = _chi_rows(tables, l, k)[-1]
    return float(out[0]) if scalar else out


def _g(log_x: np.ndarray, log_1mx: np.ndarray, p, q) -> np.ndarray:
    """x^p (1-x)^q / (p! q!) from ``log x`` and ``log(1 - x)``; with integer
    columns ``p`` and ``q``, one row per (p, q)."""
    gammaln = core_math.special.gammaln
    logv = p * log_x + q * log_1mx - gammaln(p + 1) - gammaln(q + 1)
    return np.exp(logv)


def _chi_tables(log_x: np.ndarray, log_1mx: np.ndarray, n_total: int):
    """The ``g`` rows of level ``n_total``: g(j, N+1-j) for j = 1..N, the summed
    terms, and g(j, N+2-j) for j = 1..N+1, the boundary terms."""
    j = np.arange(1, n_total + 2)[:, None]
    return (_g(log_x, log_1mx, j[:-1], n_total + 1 - j[:-1]),
            _g(log_x, log_1mx, j, n_total + 2 - j))


def _chi_rows(tables, l: int, k_stop: int) -> np.ndarray:
    """chi at the tables' points for k = l+1..k_stop, one row per k.

    The cumulative sum adds the terms left to right from the first, as a
    running total from zero does.
    """
    terms, bounds = tables
    total = np.cumsum(terms[l:k_stop], axis=0)
    span = np.arange(1, k_stop - l + 1)[:, None]
    total -= span * (bounds[l] + bounds[l + 1:k_stop + 1])
    return total


def _edge_terms(k, l, n_total):
    """Boundary values of the two split sums; elementwise over integer arrays."""
    span = k - l
    gammaln = core_math.special.gammaln
    first = np.exp(gammaln(l + 2) + gammaln(n_total + 2 - l)
                   - gammaln(l + 2) - gammaln(n_total + 1 - l))
    second = np.exp(gammaln(k + 2) + gammaln(n_total + 2 - k)
                    - gammaln(k + 1) - gammaln(n_total + 2 - k))
    return first - span, second - span


def chi_edge_terms(k: int, l: int, n_total: int) -> tuple[float, float]:
    """Boundary values of the two split sums whose nonnegativity proves chi >= 0.

    Returns (first sum at x = 0, second sum at x = 1); these evaluate to
    n_total + 1 - k and l + 1 respectively, both strictly positive for l < k <= n_total.
    """
    _check_counts(k, l, n_total, strict=True)
    first_sum, second_sum = _edge_terms(k, l, n_total)
    return float(first_sum), float(second_sum)


def _contraction_pairs(rows_k, rows_l, mean_k: float, mean_l: float):
    """(K between priors, K between expected posteriors) of prior k against prior l.

    ``rows_*`` are the (prior, heads component, tails component) CDF rows and
    ``mean_*`` the prior means.  Each mixture is formed as
    ``ExpectedPosterior.cdf`` forms it.
    """
    prior_k, heads_k, tails_k = rows_k
    prior_l, heads_l, tails_l = rows_l
    exp_k = mean_l * heads_k + (1.0 - mean_l) * tails_k
    exp_l = mean_k * heads_l + (1.0 - mean_k) * tails_l
    return np.max(np.abs(prior_k - prior_l)), np.max(np.abs(exp_k - exp_l))


def _log_grid():
    """``log x`` and ``log(1 - x)`` at the default grid's interior points."""
    x = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)[1:-1]
    return np.log(x), np.log1p(-x)


def _binomial_tails(n: int, stop: int, log_x: np.ndarray, log_1mx: np.ndarray):
    """P(Bin(n, x) >= c) on the default grid for c = n, n-1, ..., stop >= 1.

    For integer shapes the Beta CDF is a binomial upper tail,
    I_x(c, n+1-c) = sum_{j >= c} C(n, j) x^j (1-x)^(n-j) (DLMF 8.17.5), so one
    running sum of these Bernstein terms gives every row of degree n, from the
    smallest tail up.  Each term is formed in log space on the interior points
    (``log_x``, ``log_1mx`` from ``_log_grid``); the end points are exact, 0 at
    x = 0 and 1 at x = 1.  Each row yielded is a new array, and the generator
    holds only the running sum.
    """
    total = np.zeros_like(log_x)
    binom = 1  # C(n, c), exact
    for c in range(n, stop - 1, -1):
        term = c * log_x
        term += math.log(binom)
        term += (n - c) * log_1mx
        total += np.exp(term, out=term)
        yield np.concatenate(([0.0], total, [1.0]))
        binom = binom * c // (n + 1 - c)


def _tail_rows(n: int, log_x: np.ndarray, log_1mx: np.ndarray) -> list[np.ndarray]:
    """Every upper-tail row of degree ``n``; entry c - 1 is P(Bin(n, x) >= c)."""
    return list(_binomial_tails(n, 1, log_x, log_1mx))[::-1]


def kolmogorov_contraction_check(k: int, l: int, n_total: int) -> tuple[float, float]:
    """(K between priors, K between expected posteriors) for uniform-start agents.

    Priors are Beta(k+1, N-k+1) and Beta(l+1, N-l+1); the expected posteriors
    are the corresponding two-component mixtures.  The first value dominates
    the second, and the domination holds pointwise in the CDF difference, so a
    supremum over the 10,001-point grid preserves the ordering.

    The six CDF rows are binomial tails of degree N+1 (the priors) and N+2 (the
    components), streamed by ``_binomial_tails`` and kept only where needed, so
    memory stays at a few rows for any N.  Time grows with N, at about 2N
    terms of a few passes over the grid each: on a 2-core Xeon N = 2000 takes
    about 0.5 s, where six ``betainc`` rows take 0.015 s.  The battery's
    default stops at N = 15.
    """
    _check_counts(k, l, n_total, strict=False)
    grid = _log_grid()
    stop = min(k, l) + 1

    def kept(n, wanted):
        return {c: row for c, row in zip(range(n, 0, -1),
                                          _binomial_tails(n, stop, *grid))
                if c in wanted}

    priors = kept(n_total + 1, {k + 1, l + 1})
    comps = kept(n_total + 2, {k + 1, k + 2, l + 1, l + 2})

    def rows(c):
        return priors[c + 1], comps[c + 2], comps[c + 1]

    k_prior, k_post = _contraction_pairs(rows(k), rows(l), (k + 1) / (n_total + 2),
                                         (l + 1) / (n_total + 2))
    return float(k_prior), float(k_post)


def _kolmogorov_level(n_total: int, priors=None, tails=None):
    """``kolmogorov_contraction_check(k, l, N)`` for every 0 <= l <= k <= N.

    Yields (k, l, K priors, K posteriors).  ``priors`` and ``tails`` are the
    ``_tail_rows`` of degree N+1 and N+2: entry c of the first is the CDF of
    prior c, Beta(c+1, N-c+1), and entry c of the second that of its tails
    component Beta(c+1, N-c+2), whose entry c+1 is the heads component.  They
    are built here when not given; the battery passes each level's ``tails`` on
    as the next level's ``priors``.  One pair at a time keeps each temporary at
    one 80 kB row.
    """
    if priors is None:
        grid = _log_grid()
        priors, tails = _tail_rows(n_total + 1, *grid), _tail_rows(n_total + 2, *grid)
    rows = [(priors[c], tails[c + 1], tails[c]) for c in range(n_total + 1)]
    means = [(c + 1) / (n_total + 2) for c in range(n_total + 1)]
    for k in range(n_total + 1):
        for l in range(k + 1):
            yield (k, l, *_contraction_pairs(rows[k], rows[l], means[k], means[l]))


def _check_counts(k: int, l: int, n_total: int, *, strict: bool):
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
               for c in (k, l, n_total)):
        raise ValidationError("counts must be integers")
    if strict:
        if not (0 <= l < k <= n_total):
            raise ValidationError(f"need 0 <= l < k <= N, got l={l}, k={k}, N={n_total}")
    else:
        if not (0 <= l <= n_total and 0 <= k <= n_total):
            raise ValidationError(f"need 0 <= k, l <= N, got l={l}, k={k}, N={n_total}")


def _count_triples(max_n: int):
    """(k, l, N) as integer arrays for every 0 <= l < k <= N, 1 <= N <= max_n."""
    ks, ls = zip(*(np.tril_indices(n + 1, -1) for n in range(1, max_n + 1)))
    ns = [np.full(len(k), n) for n, k in enumerate(ks, start=1)]
    return np.concatenate(ks), np.concatenate(ls), np.concatenate(ns)


def verify_appendix_claims(*, chi_max_n: int = 25, kdist_max_n: int = 15,
                           n_beta_pairs: int = 10_000, seed: int = 0) -> list[dict]:
    """Run the full battery of closed-form agreement checks.

    Returns one row per claim: name, pass flag, and the worst observed margin.
    The three counts must be integers >= 1 and the seed an integer >= 0.
    """
    bounds = {"chi_max_n": (chi_max_n, 1), "kdist_max_n": (kdist_max_n, 1),
              "n_beta_pairs": (n_beta_pairs, 1), "seed": (seed, 0)}
    for name, (value, least) in bounds.items():
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < least):
            raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    rows = []
    rng = np.random.Generator(np.random.Philox(seed))

    worst = min(float(np.min(before - after))
                for before, after in _beta_pair_gaps(rng, n_beta_pairs))
    rows.append({"claim": f"mean contraction ({n_beta_pairs} random Beta pairs)",
                 "passed": bool(worst >= -CLAIM_TOL), "margin": float(worst)})

    xs = np.linspace(0.0, 1.0, CHI_GRID)[1:-1]
    log_x, log_1mx = np.log(xs), np.log1p(-xs)
    worst = 0.0  # chi is exactly zero at the grid's end points x = 0 and x = 1
    for n in range(1, chi_max_n + 1):
        tables = _chi_tables(log_x, log_1mx, n)
        for l in range(n):
            worst = min(worst, float(np.min(_chi_rows(tables, l, n))))
    rows.append({"claim": f"chi >= 0 on grid (N <= {chi_max_n})",
                 "passed": bool(worst >= -CLAIM_TOL), "margin": float(worst)})

    grid = _log_grid()
    tails = _tail_rows(2, *grid)
    worst = 0.0  # both distances are exactly zero at k = l
    for n in range(1, kdist_max_n + 1):
        priors = tails  # frees the previous priors before the next table is built
        tails = _tail_rows(n + 2, *grid)
        for _, _, k_prior, k_post in _kolmogorov_level(n, priors, tails):
            worst = min(worst, float(k_prior - k_post))
    rows.append({"claim": f"Kolmogorov contraction (N <= {kdist_max_n})",
                 "passed": bool(worst >= -1e-10), "margin": float(worst)})

    k, l, n = _count_triples(chi_max_n)
    first, second = _edge_terms(k, l, n)
    ok = np.all((np.abs(first - (n + 1 - k)) < 1e-6) & (np.abs(second - (l + 1)) < 1e-6)
                & (first > 0) & (second > 0))
    rows.append({"claim": f"split-sum boundary positivity (N <= {chi_max_n})",
                 "passed": bool(ok), "margin": 0.0})
    return rows
