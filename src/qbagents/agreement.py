"""Closed-form agreement analysis for two coin-exchanging Bayesian agents.

After one exchange in which agent A receives heads with probability equal to
agent B's mean bias estimate m_B, the density A expects to hold is their prior
reweighted by the other's mean:

    ExpPos_A(theta) = (m_B / m_A * theta + (1 - m_B) / (1 - m_A) * (1 - theta)) * P_A(theta)

For a Beta(a, b) prior this is the two-component mixture
m_B * Beta(a+1, b) + (1 - m_B) * Beta(a, b+1), and for agents that started
from uniform priors and exchanged N coins (A saw k heads, B saw l), the
current priors are Beta(k+1, N-k+1) and Beta(l+1, N-l+1).  A simulated
agent's belief is a count belief P (``inference.BetaMixture``), and
theta P / m_A and (1 - theta) P / (1 - m_A) are P with one more head and one
more tail, so its expected posterior is the same mixture of those two
beliefs.  Every mean is then a closed form (``BetaMixture.mean``), and
``core_math.kolmogorov_distance`` takes the exact sup between any two count
beliefs or Beta laws; no grid is read.

Two contraction statements are realized numerically here:

* mean contraction: |m_B - m_A| >= |m_B - mean(ExpPos_A)|, a consequence of
  mean(theta)^2 <= mean(theta^2);
* Kolmogorov contraction: for uniform initial priors, the sup-distance between
  the expected-posterior CDFs never exceeds the distance between the prior
  CDFs.  The proof reduces to nonnegativity on [0, 1] of

      chi = sum_{j=l+1}^{k} g(j, N+1-j)
            - (k - l) * (g(l+1, N+1-l) + g(k+1, N+1-k)),

  with g(p, q) = x^p (1-x)^q / (p! q!).  Raised to degree N+2, chi is a sum
  of Bernstein terms B_i = C(N+2, i) x^i (1-x)^(N+2-i) with positive
  coefficients (Farouki, CAGD 29, 2012, on degree elevation):

      (N+2)! chi = (N+1-k) B_{l+1} + (N+2) sum_{i=l+2}^{k} B_i + (l+1) B_{k+1},

  so chi >= 0 holds at every x, and ``chi`` evaluates this sum.

``verify_appendix_claims`` checks every claim in whole-array passes, and the
public checks compute through the same private helpers, so each claim has one
arithmetic path and the battery's values are bit for bit those of the public
functions:

* mean contraction: Beta pairs are drawn in blocks of ``BETA_PAIR_BLOCK``
  (four uniforms per pair, the stream of four scalar draws) and their gaps
  computed elementwise by ``_mixture_mean`` and ``_gaps``, so memory does not
  grow with the number of pairs;
* chi: a certificate for every (k, l, N).  Its Bernstein coefficients on
  the band i = l+1..k+1 (``_band_cells``, built once per block) are derived
  from chi's definition in integer arithmetic (``_chi_elevated``), compared
  with the closed form (``_chi_coefficients``) and checked positive;
* Kolmogorov contraction: the priors and mixture components have integer
  shapes, so each CDF difference is a band of Bernstein terms (DLMF 8.17.5)
  with one interior critical point, where ``_kolmogorov_pairs`` takes its
  exact sup, for many pairs l < k at once.  Both distances are exactly
  symmetric in (k, l) and vanish at k = l;
* the split-sum boundary values: ``_edge_terms`` over the chi triples.

The Kolmogorov pass holds one column per Bernstein index 0..N+2 for each
(k, l, N) triple, the chi pass one cell per band index l+1..k+1 and the
split-sum pass a gammaln table of 0..N+2, so they go over the triples in blocks
of at most ``TRIPLE_BLOCK_CELLS`` cells (``_triple_blocks``), each built from
its indices: memory grows with the largest N, not with the N^3 triples, and a
row's values, so the battery's bits, do not depend on the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core_math
from .core_math import BetaParams, beta_mean
from .errors import ValidationError
from .inference import BetaMixture

CLAIM_TOL = 1e-12  # slack on the mean-contraction and chi margins
BETA_PAIR_BLOCK = 4096  # random Beta pairs drawn and checked per array pass
TRIPLE_BLOCK_CELLS = 2**17  # (k, l, N) triples times Bernstein indices per array pass


class _BetaArrays(NamedTuple):
    """Beta parameters as parallel arrays; ``beta_mean`` reads them elementwise."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class ExpectedPosterior:
    """Expected density after one exchange: the two-component mixture
    m_B P(a+1, b) + (1 - m_B) P(a, b+1) of a Beta law or count belief P."""

    mixture_weights: tuple[float, float]
    components: tuple

    def mean(self) -> float:
        return _mixture_mean(self.mixture_weights, self.components)


def _mixture_components(prior):
    """Beta(a+1, b) and Beta(a, b+1) for a prior Beta(a, b), of the prior's type."""
    make = type(prior)
    return make(prior.alpha + 1, prior.beta), make(prior.alpha, prior.beta + 1)


def _mixture_mean(weights, components):
    """Mean of a two-component mixture; elementwise for ``_BetaArrays``."""
    (w1, w2), (c1, c2) = weights, components
    return w1 * _mean_of(c1) + w2 * _mean_of(c2)


def _gaps(mean_a, mean_b, after):
    """(|m_B - m_A|, |m_B - mean(ExpPos_A)|); elementwise over arrays."""
    return abs(mean_b - mean_a), abs(mean_b - after)


def _mean_of(prior):
    """A Beta law's mean (elementwise for ``_BetaArrays``), or a count
    belief's closed-form mean (``BetaMixture.mean``)."""
    if isinstance(prior, BetaMixture):
        return prior.mean()
    if isinstance(prior, (BetaParams, _BetaArrays)):
        return beta_mean(prior)
    raise ValidationError(f"unsupported operand {type(prior).__name__}")


def expected_posterior(prior_a, mean_b: float) -> ExpectedPosterior:
    """Expected density for agent A, a ``BetaParams`` or a count belief, after
    one exchange with an agent of mean bias estimate ``mean_b``.

    theta P / m_A is the belief with one more head, and (1 - theta) P / (1 - m_A)
    the one with one more tail, so the reweighted prior is their mixture with
    weights m_B and 1 - m_B.
    """
    if not (0.0 < mean_b < 1.0):
        raise ValidationError(f"other agent's mean must be interior, got {mean_b}")
    mean_a = _mean_of(prior_a)
    if not (0.0 < mean_a < 1.0):
        raise ValidationError(f"prior mean must be interior, got {mean_a}")
    components = ((prior_a.observed((0, 1)), prior_a.observed((0, -1)))
                  if isinstance(prior_a, BetaMixture) else _mixture_components(prior_a))
    return ExpectedPosterior((mean_b, 1.0 - mean_b), components)


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

    Vectorized over ``x`` in [0, 1]; requires 0 <= l < k <= n_total.  Evaluated
    as its Bernstein form on the band i = l+1..k+1 (``_chi_coefficients``), a
    sum of positive terms c_i / (i! (N+2-i)!) x^i (1-x)^(N+2-i), so no two cancel.
    """
    _check_counts(k, l, n_total, strict=True)
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise ValidationError("x outside [0, 1]")
    i = np.arange(l + 1, k + 2)
    coefficients = _chi_coefficients(_band_cells(k, l, n_total)).tolist()
    scale = np.array([c / (math.factorial(j) * math.factorial(n_total + 2 - j))
                      for c, j in zip(coefficients, i.tolist())])
    xe = xv[..., None]
    out = np.sum(scale * xe ** i * (1.0 - xe) ** (n_total + 2 - i), axis=-1)
    return float(out) if out.ndim == 0 else out


def _band_cells(k, l, n_total):
    """k, l, N and i as int32 rows, one cell per case and i = l+1..k+1 in case
    order; the coefficients are at most N+2, and int32 halves their memory."""
    k, l, n = (np.asarray(v, dtype=np.int32).reshape(-1) for v in (k, l, n_total))
    width = k - l + 1
    starts = np.cumsum(width, dtype=np.int32) - width
    cells = np.repeat(np.stack((k, l, n, l + 1 - starts)), width, axis=1)
    cells[3] += np.arange(cells.shape[1], dtype=np.int32)  # i = l+1 + rank in the case
    return cells


def _chi_coefficients(cells) -> np.ndarray:
    """Bernstein coefficients of (N+2)! chi in degree N+2 on its band, one per
    cell of ``_band_cells`` (``_chi_elevated`` shows none off it is nonzero):
    N+1-k at i = l+1, l+1 at i = k+1, N+2 between."""
    k, l, n, i = cells
    return np.where(i == l + 1, n + 1 - k, np.where(i == k + 1, l + 1, n + 2))


def _chi_elevated(cells) -> np.ndarray:
    """``_chi_coefficients`` of the same band cells, derived from chi's
    definition in integer arithmetic.

    With B_i = C(N+2, i) x^i (1-x)^(N+2-i), (N+2)! g(j, N+1-j) is
    (N+2) b_{j,N+1}, raised to degree N+2 as (N+2-j) B_j + (j+1) B_{j+1}
    (x + 1 - x = 1), and (N+2)! g(c+1, N+1-c) is B_{c+1}.  All these terms
    (j = l+1..k; c = l, k) lie on the band i = l+1..k+1, so none off it is nonzero.
    """
    k, l, n, i = cells
    return ((n + 2 - i) * (i <= k) + i * (i > l + 1)  # j = i and j = i - 1
            - (k - l) * ((i == l + 1).astype(np.int32) + (i == k + 1)))


def _edge_terms(k, l, n_total):
    """Boundary values of the two split sums from one log-gamma table; elementwise."""
    span = k - l
    log_gamma = core_math.special.gammaln(np.arange(np.max(n_total) + 3))
    first = np.exp(log_gamma[l + 2] + log_gamma[n_total + 2 - l]
                   - log_gamma[l + 2] - log_gamma[n_total + 1 - l])
    second = np.exp(log_gamma[k + 2] + log_gamma[n_total + 2 - k]
                    - log_gamma[k + 1] - log_gamma[n_total + 2 - k])
    return first - span, second - span


def chi_edge_terms(k: int, l: int, n_total: int) -> tuple[float, float]:
    """Boundary values of the two split sums whose nonnegativity proves chi >= 0.

    Returns (first sum at x = 0, second sum at x = 1); these evaluate to
    n_total + 1 - k and l + 1 respectively, both strictly positive for l < k <= n_total.
    """
    _check_counts(k, l, n_total, strict=True)
    first_sum, second_sum = _edge_terms(k, l, n_total)
    return float(first_sum), float(second_sum)


# ln 2 as a head of 32 bits, exact times any bit count below 2^20, and its tail
LN2_HEAD, LN2_TAIL = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _log_tail(c: int, head: float) -> float:
    """log c - head for an integer c >= 1 and its ``math.log`` head, to about
    2e-16: log c = e ln 2 + log(c / 2^e), e the bit count of c, and
    c / 2^e in [1/2, 1) from its leading 64 bits."""
    e = c.bit_length()
    cut = max(e - 64, 0)
    return (e * LN2_HEAD - head) + (e * LN2_TAIL + math.log(math.ldexp(float(c >> cut), cut - e)))


def _log_binomials(n_total, columns) -> tuple[np.ndarray, np.ndarray]:
    """log C(n, j) for n = min N..max N + 2 (rows) and j = 0..max N + 2, -inf
    for j > n, each the log of the exact integer, the rows built by Pascal's
    rule; and the tails (``_log_tail``) of rows min N..max N, taken only at
    each case's row N and its columns j in ``columns`` (0 elsewhere), so that
    a head plus its tail is log C(N, j) to about 2e-16."""
    n_lo, width = int(n_total.min()), int(n_total.max()) + 3
    read = np.zeros((width - n_lo - 2, width), dtype=bool)
    read[n_total - n_lo, columns] = True
    row = [1]
    for j in range(n_lo):
        row.append(row[-1] * (n_lo - j) // (j + 1))
    table = np.full((width - n_lo, width), -np.inf)
    tails = np.zeros(read.shape)
    for i, out in enumerate(table):
        out[:len(row)] = heads = [math.log(c) for c in row]
        if i < len(tails):
            tails[i, :len(row)] = [_log_tail(c, head) if wanted else 0.0
                                   for c, head, wanted in zip(row, heads, read[i].tolist())]
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    return table, tails


def _band(log_c: np.ndarray, degree, s: np.ndarray, inside: np.ndarray,
          outside: np.ndarray) -> np.ndarray:
    """sum_j w_j b_{j,n}(x) at x / (1-x) = e^s, one pair per row, from log C(n, j)
    (-inf past the row's ``degree`` n) and the weights w_j (``inside``) and
    1 - w_j (``outside``).  Both sums add positive terms left to right, so a
    row's bits do not depend on the width; a band above 1/2 is taken as 1
    minus the other sum, so every value lies in [0, 1]."""
    j = np.arange(log_c.shape[1])
    degree = degree[:, None]
    log_x, log_1mx = -np.logaddexp(0.0, -s)[:, None], -np.logaddexp(0.0, s)[:, None]
    terms = np.exp(log_c + j * log_x + (degree - j) * log_1mx)
    band = np.cumsum(inside * terms, axis=1)[:, -1]
    rest = np.cumsum(outside * terms, axis=1)[:, -1]
    return np.where(band <= 0.5, band, 1.0 - rest)


def _critical_points(k, l, n_total):
    """(log C, s_prior, s_post) for integer arrays 0 <= l < k <= N: the
    ``_log_binomials`` rows N..N+2 as ``log_c(extra, j)`` = log C(N + extra, j),
    and the critical points of the CDF differences of the priors and of the
    expected posteriors in s = log t, t = x / (1-x).

    With b_{j,n} the Bernstein terms:

    * F_l - F_k = sum_{j=l+1}^{k} b_{j,N+1} >= 0, whose derivative
      (N+1) (b_{l,N} - b_{k,N}) vanishes where t^(k-l) = C(N, l) / C(N, k);
    * exp_l - exp_k = (1-m_k) b_{l+1} + sum_{j=l+2}^{k} b_j + m_l b_{k+1} >= 0 in
      degree N+2, whose derivative is (N+2) (1-x)^(N+1) t^l p(t) with
      p(t) = (1-m_k) C(N+1, l) + m_k C(N+1, l+1) t
             - (1-m_l) C(N+1, k) t^(k-l) - m_l C(N+1, k+1) t^(k-l+1).
      The coefficients' signs change once, so by Descartes' rule p has one
      positive root.  The log of p's negative part over its positive part,
      with gap = log C(N, l) / C(N, k) and A = log((k+1) (N+1-l) / ((N+1-k) (l+1))),
      is span (s - gap / span) + 2 log((N+1-l) / (N+1-k)) + softplus(s - A)
      - softplus(s + A) (C(N+1, j) = C(N, j) (N+1) / (N+1-j)).  It rises
      strictly in s, with slope span + sigma(s - A) - sigma(s + A) > span - 1,
      and ``core_math._rising_root`` finds its zero.  As A > 0, the softplus
      difference lies in (-2A, 0), which brackets the root in an interval
      2A / span wide; A <= 2 log(1 + span), so the width is at most 4 log 2.

    Only gap is a difference of large logs (about 1,380 at N = 2,000), so it
    takes their heads and tails (``_log_binomials``): both roots then lie
    within about 1e-15 of the exact ones, the prior's at gap / span.
    """
    table, tails = _log_binomials(n_total, (l, k))
    row = n_total - n_total.min()

    def log_c(extra, j):
        return table[row + extra, j]

    span = k - l
    gap = (log_c(0, l) - log_c(0, k)) + (tails[row, l] - tails[row, k])
    tilt = np.log((k + 1) * (n_total + 1 - l) / ((n_total + 1 - k) * (l + 1)))  # A
    offset = 2.0 * np.log((n_total + 1 - l) / (n_total + 1 - k)) - gap
    expit = core_math.special.expit

    def excess(s):
        return span * s + offset + np.logaddexp(0.0, s - tilt) - np.logaddexp(0.0, s + tilt)

    def slope(s):
        return span + expit(s - tilt) - expit(s + tilt)

    lo = -offset / span
    return log_c, gap / span, core_math._rising_root(excess, slope, lo, lo + 2.0 * tilt / span)


def _kolmogorov_pairs(k, l, n_total):
    """(K between priors, K between expected posteriors) for integer arrays
    0 <= l < k <= N, each an exact sup at its one interior critical point
    (``_critical_points``), where a band of Bernstein terms (``_band``)
    takes the CDF difference.  A root off by d misses the sup by about
    |D''| d^2 / 2."""
    log_c, s_prior, s_post = _critical_points(k, l, n_total)
    prior_logs, post_logs = log_c(1, slice(None)), log_c(2, slice(None))
    j = np.arange(prior_logs.shape[1])
    k_col, l_col, n_col = k[:, None], l[:, None], n_total[:, None]
    band = ((j > l_col) & (j <= k_col)).astype(float)
    k_prior = _band(prior_logs, n_total + 1, s_prior, band, 1.0 - band)
    first, last = j == l_col + 1, j == k_col + 1
    inside = np.where(first, (n_col + 1 - k_col) / (n_col + 2),
                      np.where(last, (l_col + 1) / (n_col + 2), band))
    outside = np.where(first, (k_col + 1) / (n_col + 2),
                       np.where(last, (n_col + 1 - l_col) / (n_col + 2), 1.0 - band))
    k_post = _band(post_logs, n_total + 2, s_post, inside, outside)
    return k_prior, k_post


def kolmogorov_contraction_check(k: int, l: int, n_total: int) -> tuple[float, float]:
    """(K between priors, K between expected posteriors) for uniform-start agents.

    Priors are Beta(k+1, N-k+1) and Beta(l+1, N-l+1); the expected posteriors
    are the corresponding two-component mixtures.  The first value dominates
    the second.  Both are exact sups at the critical points of the CDF
    differences (``_kolmogorov_pairs``), lie in [0, 1] and are exactly
    symmetric in (k, l).  N = 2000 takes about 4 ms on a 2-core Xeon.
    """
    _check_counts(k, l, n_total, strict=False)
    if k == l:
        return 0.0, 0.0
    k, l = max(k, l), min(k, l)
    k_prior, k_post = _kolmogorov_pairs(np.array([k]), np.array([l]), np.array([n_total]))
    return float(k_prior[0]), float(k_post[0])


def _check_counts(k: int, l: int, n_total: int, *, strict: bool):
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
               for c in (k, l, n_total)):
        raise ValidationError("counts must be integers")
    if strict and not (0 <= l < k <= n_total):
        raise ValidationError(f"need 0 <= l < k <= N, got l={l}, k={k}, N={n_total}")
    if not strict and not (0 <= l <= n_total and 0 <= k <= n_total):
        raise ValidationError(f"need 0 <= k, l <= N, got l={l}, k={k}, N={n_total}")


def _count_triples(max_n: int, start: int = 0, stop: int | None = None):
    """(k, l, N) as int64 arrays for every 0 <= l < k <= N, 1 <= N <= max_n,
    ordered by N, then k, then l; or for the triples start..stop-1 of that order.

    In closed form from the triple's index t: N(N+1)(N+2)/6 triples have a
    count below N + 1, and k(k+1)/2 pairs of one N a k below k + 1, so N and
    k are the first counts whose tallies pass t and its rank within its N."""
    counts = np.arange(max_n + 1)
    below_n = counts * (counts + 1) * (counts + 2) // 6
    below_k = counts * (counts + 1) // 2
    t = np.arange(start, below_n[-1] if stop is None else stop)
    n = np.searchsorted(below_n, t, side="right")
    rank = t - below_n[n - 1]
    k = np.searchsorted(below_k, rank, side="right")
    return k, rank - below_k[k - 1], n


def _triple_blocks(max_n: int):
    """``_count_triples(max_n)`` in blocks of at most ``TRIPLE_BLOCK_CELLS``
    cells of max_n + 3 Bernstein indices each (one triple at the least),
    each block built on its own."""
    total = max_n * (max_n + 1) * (max_n + 2) // 6
    step = max(1, TRIPLE_BLOCK_CELLS // (max_n + 3))
    for start in range(0, total, step):
        yield _count_triples(max_n, start, min(start + step, total))


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

    worst, same, edges = [], True, True
    for k, l, n in _triple_blocks(chi_max_n):
        cells = _band_cells(k, l, n)
        coefficients = _chi_coefficients(cells)
        worst.append(int(coefficients.min()))
        same &= np.array_equal(coefficients, _chi_elevated(cells))
        first, second = _edge_terms(k, l, n)
        edges &= bool(np.all((np.abs(first - (n + 1 - k)) < 1e-6)
                             & (np.abs(second - (l + 1)) < 1e-6) & (first > 0) & (second > 0)))
    rows.append({"claim": f"chi >= 0 by positive Bernstein coefficients (N <= {chi_max_n})",
                 "passed": bool(same and min(worst) > 0), "margin": float(min(worst))})

    worst = min(float(np.min(np.subtract(*_kolmogorov_pairs(*block))))
                for block in _triple_blocks(kdist_max_n))
    rows.append({"claim": f"Kolmogorov contraction (N <= {kdist_max_n})",
                 "passed": bool(worst >= -CLAIM_TOL), "margin": worst})
    rows.append({"claim": f"split-sum boundary positivity (N <= {chi_max_n})",
                 "passed": edges, "margin": 0.0})
    return rows
