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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core_math import (
    BetaParams,
    Density1D,
    beta_cdf_row,
    beta_mean,
    kolmogorov_distance,
)
from .errors import ValidationError

CHI_GRID = 101  # points on [0, 1] where chi is checked
CLAIM_TOL = 1e-12  # slack on the mean-contraction and chi margins


@dataclass(frozen=True)
class ExpectedPosterior:
    """Expected density after one exchange; a Beta mixture or a reweighted grid."""

    kind: str
    mixture_weights: tuple[float, float] | None = None
    components: tuple[BetaParams, BetaParams] | None = None
    density: Density1D | None = None

    def mean(self) -> float:
        if self.kind == "beta_mixture":
            w1, w2 = self.mixture_weights
            c1, c2 = self.components
            return w1 * beta_mean(c1) + w2 * beta_mean(c2)
        return self.density.mean()

    def cdf(self) -> np.ndarray:
        """Mixture CDF at the default grid's points, from memoized Beta rows."""
        if self.kind != "beta_mixture":
            raise ValidationError("grid expected posteriors expose cdf via density")
        w1, w2 = self.mixture_weights
        c1, c2 = self.components
        return w1 * beta_cdf_row(c1) + w2 * beta_cdf_row(c2)


def _mean_of(prior) -> float:
    if isinstance(prior, BetaParams):
        return beta_mean(prior)
    if isinstance(prior, Density1D):
        return prior.mean()
    raise ValidationError(f"unsupported prior type {type(prior).__name__}")


def expected_posterior(prior_a, mean_b: float) -> ExpectedPosterior:
    """Expected density for agent A after one exchange with an agent of mean
    bias estimate ``mean_b``."""
    if not (0.0 < mean_b < 1.0):
        raise ValidationError(f"other agent's mean must be interior, got {mean_b}")
    mean_a = _mean_of(prior_a)
    if not (0.0 < mean_a < 1.0):
        raise ValidationError(f"prior mean must be interior, got {mean_a}")
    if isinstance(prior_a, BetaParams):
        heads = BetaParams(prior_a.alpha + 1, prior_a.beta)
        tails = BetaParams(prior_a.alpha, prior_a.beta + 1)
        return ExpectedPosterior("beta_mixture",
                                 mixture_weights=(mean_b, 1.0 - mean_b),
                                 components=(heads, tails))
    theta = prior_a.grid
    factor = (mean_b / mean_a) * theta + ((1.0 - mean_b) / (1.0 - mean_a)) * (1.0 - theta)
    weights = prior_a.weights * factor
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"expected posterior integrates to {total!r}")
    return ExpectedPosterior("grid", density=Density1D(theta, weights / total))


def mean_contraction_gap(prior_a, prior_b) -> tuple[float, float]:
    """(|m_B - m_A|, |m_B - mean(ExpPos_A)|); the first is never smaller."""
    mean_a = _mean_of(prior_a)
    mean_b = _mean_of(prior_b)
    after = expected_posterior(prior_a, mean_b).mean()
    return abs(mean_b - mean_a), abs(mean_b - after)


def chi(x, k: int, l: int, n_total: int):
    """The nonnegative quantity certifying Kolmogorov contraction.

    Vectorized over ``x`` in [0, 1]; requires 0 <= l < k <= n_total.
    """
    _check_counts(k, l, n_total, strict=True)
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0):
        raise ValidationError("x outside [0, 1]")
    scalar = xv.ndim == 0
    xv = np.atleast_1d(xv)
    interior = (xv > 0.0) & (xv < 1.0)
    out = np.zeros_like(xv)
    if np.any(interior):
        xi = xv[interior]
        log_x, log_1mx = np.log(xi), np.log1p(-xi)
        total = np.zeros_like(xi)
        for j in range(l + 1, k + 1):
            total += _g(log_x, log_1mx, j, n_total + 1 - j)
        total -= (k - l) * (_g(log_x, log_1mx, l + 1, n_total + 1 - l)
                            + _g(log_x, log_1mx, k + 1, n_total + 1 - k))
        out[interior] = total
    return float(out[0]) if scalar else out


def _g(log_x: np.ndarray, log_1mx: np.ndarray, p: int, q: int) -> np.ndarray:
    """x^p (1-x)^q / (p! q!) from ``log x`` and ``log(1 - x)``."""
    logv = (p * log_x + q * log_1mx
            - special.gammaln(p + 1) - special.gammaln(q + 1))
    return np.exp(logv)


def chi_edge_terms(k: int, l: int, n_total: int) -> tuple[float, float]:
    """Boundary values of the two split sums whose nonnegativity proves chi >= 0.

    Returns (first sum at x = 0, second sum at x = 1); these evaluate to
    n_total + 1 - k and l + 1 respectively, both strictly positive for l < k <= n_total.
    """
    _check_counts(k, l, n_total, strict=True)
    span = k - l
    first = math.exp(special.gammaln(l + 2) + special.gammaln(n_total + 2 - l)
                     - special.gammaln(l + 2) - special.gammaln(n_total + 1 - l))
    first_sum = first - span
    second = math.exp(special.gammaln(k + 2) + special.gammaln(n_total + 2 - k)
                      - special.gammaln(k + 1) - special.gammaln(n_total + 2 - k))
    second_sum = second - span
    return first_sum, second_sum


def kolmogorov_contraction_check(k: int, l: int, n_total: int) -> tuple[float, float]:
    """(K between priors, K between expected posteriors) for uniform-start agents.

    Priors are Beta(k+1, N-k+1) and Beta(l+1, N-l+1); the expected posteriors
    are the corresponding two-component mixtures.  The first value dominates
    the second, and the domination holds pointwise in the CDF difference, so a
    supremum over the 10,001-point grid preserves the ordering.
    """
    _check_counts(k, l, n_total, strict=False)
    prior_a = BetaParams(k + 1, n_total - k + 1)
    prior_b = BetaParams(l + 1, n_total - l + 1)
    exp_a = expected_posterior(prior_a, beta_mean(prior_b)).cdf()
    exp_b = expected_posterior(prior_b, beta_mean(prior_a)).cdf()
    return kolmogorov_distance(prior_a, prior_b), float(np.max(np.abs(exp_a - exp_b)))


def _check_counts(k: int, l: int, n_total: int, *, strict: bool):
    if not (isinstance(k, (int, np.integer)) and isinstance(l, (int, np.integer))
            and isinstance(n_total, (int, np.integer))):
        raise ValidationError("counts must be integers")
    if strict:
        if not (0 <= l < k <= n_total):
            raise ValidationError(f"need 0 <= l < k <= N, got l={l}, k={k}, N={n_total}")
    else:
        if not (0 <= l <= n_total and 0 <= k <= n_total):
            raise ValidationError(f"need 0 <= k, l <= N, got l={l}, k={k}, N={n_total}")


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

    worst = np.inf
    for _ in range(n_beta_pairs):
        a = BetaParams(rng.uniform(0.2, 20.0), rng.uniform(0.2, 20.0))
        b = BetaParams(rng.uniform(0.2, 20.0), rng.uniform(0.2, 20.0))
        before, after = mean_contraction_gap(a, b)
        worst = min(worst, before - after)
    rows.append({"claim": f"mean contraction ({n_beta_pairs} random Beta pairs)",
                 "passed": bool(worst >= -CLAIM_TOL), "margin": float(worst)})

    xs = np.linspace(0.0, 1.0, CHI_GRID)
    worst = np.inf
    for n in range(1, chi_max_n + 1):
        for k in range(1, n + 1):
            for l in range(0, k):
                worst = min(worst, float(np.min(chi(xs, k, l, n))))
    rows.append({"claim": f"chi >= 0 on grid (N <= {chi_max_n})",
                 "passed": bool(worst >= -CLAIM_TOL), "margin": float(worst)})

    worst = np.inf
    for n in range(1, kdist_max_n + 1):
        for k in range(0, n + 1):
            for l in range(0, n + 1):
                k_prior, k_post = kolmogorov_contraction_check(k, l, n)
                worst = min(worst, k_prior - k_post)
    rows.append({"claim": f"Kolmogorov contraction (N <= {kdist_max_n})",
                 "passed": bool(worst >= -1e-10), "margin": float(worst)})

    ok = True
    for n in range(1, chi_max_n + 1):
        for k in range(1, n + 1):
            for l in range(0, k):
                first, second = chi_edge_terms(k, l, n)
                ok &= abs(first - (n + 1 - k)) < 1e-6 and abs(second - (l + 1)) < 1e-6
                ok &= first > 0 and second > 0
    rows.append({"claim": f"split-sum boundary positivity (N <= {chi_max_n})",
                 "passed": bool(ok), "margin": 0.0})
    return rows
