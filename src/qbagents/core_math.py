"""Shared probability machinery: validated probability vectors, column-stochastic
conditional matrices, Beta distributions, and distances between densities on [0, 1].

Conventions
-----------
* A probability vector is a 1-D float array with entries in [0, 1] that sum to 1,
  both within ``PROB_TOL``.  Construction clamps tiny negative entries in
  ``[-PROB_TOL, 0)`` to zero and renormalizes; anything worse is rejected.
  Clamping exists because long chains of Bayesian updates accumulate float drift.
* A conditional probability matrix ``R`` has shape ``(m, n)`` with semantics
  ``R[j, i] = Pr(outcome j | reference outcome i)``, so every *column* is a
  probability vector.
* Densities on the unit interval are Beta laws (``BetaParams``) or the
  agents' count beliefs (``inference.BetaMixture``), both read as Beta pieces
  on sub-intervals, so the Kolmogorov distance between any two is an exact
  sup (``kolmogorov_distance``).  A count belief's grid, 10,001 uniform points
  by default, serves its ESS and curve files only.
* A Beta law truncated to [lo, hi] has closed-form mass, mean and variance
  (``beta_piece``, ``beta_piece_var``) from incomplete Beta values, and in its
  tails from their continued fraction and series, without cancellation.
* Small matrix products and inverses that feed a run (``Phi``, its square
  root, the action matrices and likelihood rows) are ``matmul`` and
  ``inverse`` over Python floats, each sum added left to right: a BLAS or
  LAPACK call rounds by the kernel the CPU selects.
* ``scipy.special`` and its scalar kernels ``cython_special`` load together
  at the first Beta function, not on import or build: quantum runs and
  tomography from a fixed source never evaluate one.  A step's closed forms
  call the scalar ``betainc`` and ``betaln``, a third of the cost of a ufunc
  call on a tiny array; they are the routines the ufuncs wrap, so they give
  the ufuncs' bits (``tests/test_core_math.py`` checks a seeded sample).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import ValidationError


class _LazySpecial:
    """Stands in for ``scipy.special`` (``special``) or its scalar kernels
    (``scalar``) until an attribute of either is first read; that read imports
    both and rebinds both module globals to them, so later calls reach the
    real modules directly."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr: str):
        global special, scalar
        from scipy import special
        from scipy.special import cython_special as scalar
        return getattr(globals()[self.name], attr)


special = _LazySpecial("special")
scalar = _LazySpecial("scalar")

PROB_TOL = 1e-9
DEFAULT_GRID_POINTS = 10_001


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    a.flags.writeable = False
    return a


def dot(a, b) -> float:
    """a . b over Python floats, added left to right (``reduce``, not ``sum``,
    which compensates from Python 3.12 on)."""
    return functools.reduce(add, map(mul, a, b), 0.0)


def matmul(a, b) -> np.ndarray:
    """a @ b for small matrices, each entry a left-to-right ``dot``, so that
    no BLAS kernel rounds it."""
    cols = np.asarray(b, dtype=float).T.tolist()
    return np.array([[dot(row, col) for col in cols]
                     for row in np.asarray(a, dtype=float).tolist()])


def inverse(a) -> np.ndarray:
    """The inverse of a small nonsingular square matrix by Gauss-Jordan
    elimination with partial pivoting over Python floats, in a fixed order,
    so that no LAPACK kernel rounds it."""
    n = len(a)
    rows = [row + [float(i == j) for j in range(n)]
            for i, row in enumerate(np.asarray(a, dtype=float).tolist())]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        scale = top[k]
        top[:] = [x / scale for x in top]
        for i in range(n):
            f = rows[i][k]
            if i != k and f != 0.0:
                rows[i] = [x - f * t for x, t in zip(rows[i], top)]
    return np.array([row[n:] for row in rows])


def is_int(least: int):
    """The check that a value is an integer (not a bool) of at least ``least``."""
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def one_of(names):
    """The check that a value is a string among ``names``."""
    return lambda v: isinstance(v, str) and v in names


def as_prob_vector(entries, *, name: str = "probability vector") -> np.ndarray:
    """Validate, clamp and renormalize a probability vector.

    Returns a read-only float array.  Raises ``ValidationError`` for entries
    outside [-PROB_TOL, 1 + PROB_TOL] or a total farther than
    ``PROB_TOL * size`` from 1.
    """
    p = np.asarray(entries, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError(f"{name}: empty")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{name}: non-finite entries")
    if p.min() < -PROB_TOL or p.max() > 1.0 + PROB_TOL:
        raise ValidationError(
            f"{name}: entries outside [0, 1] beyond tolerance "
            f"(min {p.min():.3e}, max {p.max():.3e})")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL * p.size:
        raise ValidationError(f"{name}: sums to {total!r}, expected 1")
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return readonly(p)


def as_cond_prob_matrix(rows) -> np.ndarray:
    """Validate a conditional probability matrix; every column must be a
    probability vector.  Returns a read-only (m, n) float array."""
    r = np.asarray(rows, dtype=float)
    if r.ndim != 2:
        raise ValidationError("conditional matrix: expected a 2-D array")
    cols = [as_prob_vector(r[:, i], name=f"conditional matrix column {i}")
            for i in range(r.shape[1])]
    return readonly(np.column_stack(cols))


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution, both finite and strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ValidationError(
                f"Beta parameters must be finite and positive, got ({self.alpha}, {self.beta})")


def beta_mean(p: BetaParams) -> float:
    """Mean alpha / (alpha + beta), always in (0, 1)."""
    return p.alpha / (p.alpha + p.beta)


def beta_posterior(prior: BetaParams, heads: int, tails: int) -> BetaParams:
    """Conjugate update of a Beta prior by Bernoulli counts."""
    if heads < 0 or tails < 0:
        raise ValidationError("counts must be nonnegative")
    return BetaParams(prior.alpha + heads, prior.beta + tails)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """The Beta distribution CDF I_x(a, b), monotone from 0 at x=0 to 1 at x=1."""
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise ValidationError(f"x outside [0, 1]: {x!r}")
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise ValidationError(f"shape parameters must be finite and positive, got ({a}, {b})")
    out = special.betainc(a, b, xv)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def beta_pdf(theta, p: BetaParams):
    """Beta density evaluated pointwise (vectorized)."""
    t = np.asarray(theta, dtype=float)
    logb = special.betaln(p.alpha, p.beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = (p.alpha - 1) * np.log(t) + (p.beta - 1) * np.log1p(-t) - logb
    out = np.exp(logpdf)
    return np.where(np.isfinite(out), out, 0.0)


# A truncated Beta piece whose mass piles against an edge more than this many
# standard deviations of the untruncated law from its mean is a tail: its mass
# and mean come from the continued fraction of ``_tail_fraction``, where
# ``betainc`` loses digits or underflows.  So does a piece too thin for its
# mass to be a normal double, however near the mean.
BETA_TAIL_Z = 12.0
TINY = 2.0 ** -1022  # the least normal double


def beta_piece(alpha: float, beta: float, lo: float, hi: float,
               mass: bool = True) -> tuple[float | None, float]:
    """(log mass, mean) of theta^(alpha-1) (1-theta)^(beta-1) on [lo, hi], the
    mass being its integral there (None unless ``mass``).

    On [0, 1] these are log B(alpha, beta) and alpha/s, s = alpha + beta.  On a
    truncation the mass is B times the difference of regularized incomplete
    Beta values, each tail taken from the side where it is small
    (I_x(a, b) = 1 - I_{1-x}(b, a)), and the mean is alpha/s
    times the ratio of that difference at (alpha + 1, beta) to it at
    (alpha, beta).  A tail (see ``BETA_TAIL_Z``) takes both from
    I_x(a, b) = x^a (1-x)^b G / (a B(a, b)), G the continued fraction of
    ``_tail_fraction``, and the recurrence I_x(a + 1, b) = I_x(a, b) (1 - 1/G),
    in log space.
    """
    s = alpha + beta
    if lo <= 0.0 and hi >= 1.0:
        return scalar.betaln(alpha, beta) if mass else None, alpha / s
    mu = alpha / s
    reach = BETA_TAIL_Z * math.sqrt(mu * (1.0 - mu) / (s + 1.0))
    if mu - hi > reach or lo - mu > reach:
        return _far_piece(alpha, beta, lo, hi)
    if lo <= 0.0:  # the two values ``_inc_difference`` takes at an edge
        z, z1 = scalar.betainc(alpha, beta, hi), scalar.betainc(alpha + 1.0, beta, hi)
    elif hi >= 1.0:
        x = 1.0 - lo
        z, z1 = scalar.betainc(beta, alpha, x), scalar.betainc(beta, alpha + 1.0, x)
    else:
        z, z1 = _inc_difference((alpha, alpha + 1.0), beta, lo, hi)
    if z < TINY and lo < hi:  # a thin piece, whose mass betainc underflows
        return _far_piece(alpha, beta, lo, hi)
    return scalar.betaln(alpha, beta) + math.log(z) if mass else None, mu * z1 / z


def _far_piece(alpha: float, beta: float, lo: float, hi: float) -> tuple[float, float]:
    """``_tail_piece`` of a piece below the mean alpha/s, or mirrored, of one
    above it, whose mass piles against the lower edge."""
    if hi <= alpha / (alpha + beta):
        return _tail_piece(alpha, beta, lo, hi)
    log_mass, mean = _tail_piece(beta, alpha, 1.0 - hi, 1.0 - lo)
    return log_mass, 1.0 - mean


def _tail_piece(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """(log mass, mean) of a piece whose mass piles against hi, far below the
    mean a/s, from ``_tail_fraction`` at hi and at lo."""
    g_hi = _tail_fraction(a, b, hi)
    ratio, rho = 1.0 - 1.0 / g_hi, 0.0  # I_hi(a + 1, b) / I_hi(a, b)
    if lo > 0.0:  # rho is the tail below lo over the tail below hi
        g_lo = _tail_fraction(a, b, lo)
        rho = _tail_ratio(a, b, lo, hi, g_lo / g_hi)
        ratio = (ratio - rho * (1.0 - 1.0 / g_lo)) / (1.0 - rho)
    log_mass = (a * math.log(hi) + b * math.log1p(-hi) - math.log(a) + math.log(g_hi)
                + math.log1p(-rho))
    return log_mass, a / (a + b) * ratio


def beta_piece_var(alpha: float, beta: float, lo: float, hi: float) -> float:
    """The variance of theta^(alpha-1) (1-theta)^(beta-1) on [lo, hi].

    On [0, 1] it is alpha beta / (s^2 (s + 1)).  A truncation takes it about
    the edge its mass piles against, as the tail below that edge minus the
    tail below the other; a piece holding the mean alpha/s takes it as the
    Beta law's minus its tails below lo and above hi.  Each tail's moments
    about its edge come from the series of ``_tail_moments``, so that no step
    subtracts two nearly equal moments.
    """
    s = alpha + beta
    mu = alpha / s
    if lo <= 0.0 and hi >= 1.0:
        return alpha * beta / (s * s * (s + 1.0))
    if mu <= lo:
        return beta_piece_var(beta, alpha, 1.0 - hi, 1.0 - lo)
    if mu >= hi:
        dist, variance = _tail_moments(alpha, beta, hi)
        if lo <= 0.0:
            return variance
        rho = _tail_ratio(alpha, beta, lo, hi, _tail_fraction(alpha, beta, lo)
                          / _tail_fraction(alpha, beta, hi))
        if rho > 0.5:
            return _narrow_var(alpha, beta, lo, hi)
        dist_lo, var_lo = _tail_moments(alpha, beta, lo)
        gap = (dist_lo + hi - lo - dist) / (1.0 - rho)
        return (variance - rho * var_lo) / (1.0 - rho) - rho * gap * gap
    mass = _inc_difference((alpha,), beta, lo, hi)[0]
    if mass < 0.5:
        return _narrow_var(alpha, beta, lo, hi)
    m1, m2 = 0.0, alpha * beta / (s * s * (s + 1.0))  # moments about mu
    if lo > 0.0:
        dist, v = _tail_moments(alpha, beta, lo)
        tail, off = scalar.betainc(alpha, beta, lo), lo - dist - mu
        m1, m2 = m1 - tail * off, m2 - tail * (v + off * off)
    if hi < 1.0:
        dist, v = _tail_moments(beta, alpha, 1.0 - hi)
        tail, off = scalar.betainc(beta, alpha, 1.0 - hi), hi + dist - mu
        m1, m2 = m1 - tail * off, m2 - tail * (v + off * off)
    return m2 / mass - (m1 / mass) ** 2


@functools.cache
def _legendre(n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return readonly((nodes + 1.0) / 2.0), readonly(weights / 2.0)


def _narrow_var(a: float, b: float, lo: float, hi: float) -> float:
    """The variance of theta^(a-1) (1-theta)^(b-1) on [lo, hi] by 64-point
    Gauss-Legendre quadrature in log space, for a piece holding less than half
    of the tail or law it is cut from: the density then changes by a bounded
    factor across it, and the tail difference would cancel."""
    nodes, weights = _legendre()
    theta = lo + (hi - lo) * nodes
    log_density = special.xlogy(a - 1.0, theta) + special.xlog1py(b - 1.0, -theta)
    w = weights * np.exp(log_density - log_density.max())
    w /= np.einsum("i->", w)
    centered = theta - np.einsum("i,i->", w, theta)
    return float(np.einsum("i,i,i->", w, centered, centered))


def _inc_difference(alphas, beta, lo, hi) -> list[float]:
    """I_hi(a, beta) - I_lo(a, beta) for each a of ``alphas``, from the side
    where the tails are small, as the first a's tails decide.  An upper tail
    1 - I_x(a, b) is I_{1-x}(b, a) from ``betainc``, which takes half the time
    of ``betaincc`` here; rounding 1 - x moves the edge by at most half an ulp."""
    betainc = scalar.betainc
    if lo <= 0.0:
        return [betainc(a, beta, hi) for a in alphas]
    if hi >= 1.0:
        return [betainc(beta, a, 1.0 - lo) for a in alphas]
    below = [betainc(a, beta, hi) for a in alphas]
    if below[0] <= 0.5:
        return [x - betainc(a, beta, lo) for a, x in zip(alphas, below)]
    above = [betainc(beta, a, 1.0 - lo) for a in alphas]
    if above[0] <= 0.5:
        return [x - betainc(beta, a, 1.0 - hi) for a, x in zip(alphas, above)]
    return [1.0 - betainc(a, beta, lo) - betainc(beta, a, 1.0 - hi) for a in alphas]


def _tail_fraction(a: float, b: float, x: float) -> float:
    """G = a B(a, b) I_x(a, b) / (x^a (1-x)^b) for 0 < x <= a / (a + b), by the
    continued fraction of DLMF 8.17.22 under the modified Lentz algorithm
    (Numerical Recipes, ``betacf``); it takes a few terms in a tail.  Each pass
    of the loop takes the even and then the odd term of step m; a value v is
    kept when v > tiny or v < -tiny, as |v| > tiny would keep it."""
    tiny = 1e-300
    s = a + b
    c, d = 1.0, 1.0 - s * x / (a + 1.0)
    d = 1.0 / (d if d > tiny or d < -tiny else tiny)
    g, m = d, 1
    while True:
        a2m = a + 2 * m
        num = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 + num * d
        d = 1.0 / (d if d > tiny or d < -tiny else tiny)
        c = 1.0 + num / c
        if not (c > tiny or c < -tiny):
            c = tiny
        g *= c * d
        num = -(a + m) * (s + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 + num * d
        d = 1.0 / (d if d > tiny or d < -tiny else tiny)
        c = 1.0 + num / c
        if not (c > tiny or c < -tiny):
            c = tiny
        cd = c * d
        g *= cd
        if -4e-16 < cd - 1.0 < 4e-16:
            return g
        m += 1


def _tail_ratio(a: float, b: float, lo: float, hi: float, g_ratio: float) -> float:
    """I_lo(a, b) / I_hi(a, b) from the ratio of their ``_tail_fraction`` G."""
    return math.exp(a * math.log(lo / hi) + b * math.log((1.0 - lo) / (1.0 - hi))
                    + math.log(g_ratio))


def _tail_sums(a: float, b: float, x: float) -> list[float]:
    """G_k = 2F1(a + b + k, k + 1; a + k + 1; x) for k = 0, 1, 2, by their
    positive series, for 0 < x <= a / (a + b).

    G_0 = a B(a, b) I_x(a, b) / (x^a (1-x)^b) (DLMF 8.17.8).  Its terms
    t_n = (s)_n x^n / (a + 1)_n, s = a + b, fall monotonically, and those of
    G_1 and G_2 are t_n times (s + n) (n + 1) (a + 1) / (s (a + 1 + n)) and
    times that and (s + n + 1) (n + 2) (a + 2) / (2 (s + 1) (a + 2 + n)).  The
    sums run to the first power of two of terms where t_n (n + 2)^2 is below
    e^-50, then on until their last terms are below 1e-17 of the sums.
    """
    s = a + b
    base = math.lgamma(a + 1.0) - math.lgamma(s)
    size = 64
    while (math.lgamma(s + size) - math.lgamma(a + 1.0 + size) + base + size * math.log(x)
           + 2.0 * math.log(size + 2.0) > -50.0):
        size *= 2
    while True:
        n = np.arange(float(size))
        terms = np.empty(size)
        terms[0] = 1.0
        np.cumprod((s + n[:-1]) * x / (a + 1.0 + n[:-1]), out=terms[1:])
        first = terms * (s + n) * (n + 1.0) / (a + 1.0 + n)
        second = first * (s + 1.0 + n) * (n + 2.0) / (a + 2.0 + n)
        sums = [np.einsum("i->", terms), (a + 1.0) / s * np.einsum("i->", first),
                (a + 1.0) * (a + 2.0) / (2.0 * s * (s + 1.0)) * np.einsum("i->", second)]
        if second[-1] <= 1e-17 * np.einsum("i->", second):
            return [float(v) for v in sums]
        size *= 2


def _tail_moments(a: float, b: float, x: float) -> tuple[float, float]:
    """(distance of the mean below x, variance) of theta^(a-1) (1-theta)^(b-1)
    on [0, x], for 0 < x <= a / (a + b).

    With v = (x - theta) / x, Pfaff's transformation of the Euler integral of
    (1 - v)^(a-1) (1 + v x/(1-x))^(b-1) gives E[v] = (1 - x) G_1 / ((a + 1) G_0)
    and E[v^2] = 2 (1 - x)^2 G_2 / ((a + 1) (a + 2) G_0), G_k as in
    ``_tail_sums``.
    """
    g0, g1, g2 = _tail_sums(a, b, x)
    ev = (1.0 - x) * g1 / ((a + 1.0) * g0)
    ev2 = 2.0 * (1.0 - x) ** 2 * g2 / ((a + 1.0) * (a + 2.0) * g0)
    return x * ev, x * x * (ev2 - ev * ev)


def _normalized_pieces(operand) -> list[tuple]:
    """A density on [0, 1] as Beta pieces (log weight, alpha, beta, lo, hi,
    mass): exp(log weight) theta^(alpha-1) (1-theta)^(beta-1) on each
    [lo, hi], which holds that mass of the whole, one.

    A count belief (``inference.BetaMixture``), read through its ``pieces``
    and ``counts`` (a, b), is its prior pieces times theta^a (1-theta)^b, and
    a ``BetaParams`` one piece on [0, 1] with no counts.  A piece's mass is
    its share of the pieces' total (``beta_piece``), and its log weight is
    less the log of that total, which for a ``BetaParams`` is log B(alpha, beta).
    """
    if isinstance(operand, BetaParams):  # floats, which the scalar betaln takes
        prior, (a, b) = [(0.0, float(operand.alpha), float(operand.beta), 0.0, 1.0)], (0, 0)
    elif hasattr(operand, "pieces"):
        prior, (a, b) = operand.pieces, operand.counts
    else:
        raise ValidationError(f"unsupported operand {type(operand).__name__}")
    pieces = [(log_c, alpha + a, beta + b, lo, hi) for log_c, alpha, beta, lo, hi in prior]
    logs = [log_c + beta_piece(*rest)[0] for log_c, *rest in pieces]
    top = max(logs)  # exp(0) = 1 for the largest, so a lone piece's mass is 1
    shares = [math.exp(x - top) for x in logs]
    total = math.fsum(shares)
    return [(log_c - top - math.log(total), *rest, share / total)
            for (log_c, *rest), share in zip(pieces, shares)]


def _cdf(pieces: list[tuple], x: float) -> float:
    """The CDF at x of ``_normalized_pieces``: each piece's mass times its
    share below x (``_share``)."""
    return math.fsum(mass * _share(alpha, beta, lo, hi, min(x, hi))
                     for _w, alpha, beta, lo, hi, mass in pieces if lo < x)


def _share(alpha: float, beta: float, lo: float, hi: float, x: float) -> float:
    """The share of theta^(alpha-1) (1-theta)^(beta-1) on [lo, hi] below x
    in (lo, hi], as a ratio of incomplete Beta differences
    (``_inc_difference``), each taken from the side where it is small; 1 at
    hi, where the two are one.  A log mass of ``beta_piece`` holds
    log B(alpha, beta), about -683 at 1,000 counts, so it rounds by up to
    6e-14; only a piece so deep in a tail that its whole difference
    underflows takes the ratio of those masses, and 0 where the part's rounds
    to zero or below."""
    part, whole = (_inc_difference((alpha,), beta, lo, y)[0] for y in (x, hi))
    if whole > 1e-300:  # a normal float, with its full precision
        return part / whole
    try:
        return math.exp(beta_piece(alpha, beta, lo, x)[0] - beta_piece(alpha, beta, lo, hi)[0])
    except ValueError:  # math.log of a part <= 0
        return 0.0


def kolmogorov_distance(a, b) -> float:
    """Supremum distance between the CDFs of two densities on [0, 1], each a
    ``BetaParams`` or a count belief (``inference.BetaMixture``); any other
    operand raises ``ValidationError``.

    The exact sup.  Each operand is a set of contiguous Beta pieces
    (``_normalized_pieces``), put in a fixed order first, so the distance is
    exactly symmetric.  Where a piece of one overlaps a piece of the other,
    the CDF difference moves with the difference of their densities, so it
    can turn only where they cross (``_beta_crossings``); elsewhere it moves
    with one density, or none, and it can turn at a piece edge, where a
    density jumps.  The sup is the largest CDF gap over the interior edges
    and the crossings, each CDF a sum over the pieces (``_cdf``).
    """
    a, b = sorted((_normalized_pieces(a), _normalized_pieces(b)))
    points = [edge for piece in a + b for edge in piece[3:5] if 0.0 < edge < 1.0]
    for piece_a, piece_b in itertools.product(a, b):
        lo, hi = max(piece_a[3], piece_b[3]), min(piece_a[4], piece_b[4])
        if lo < hi:
            points += _beta_crossings(piece_a, piece_b, lo, hi).tolist()
    return max(abs(_cdf(a, x) - _cdf(b, x)) for x in points)


def _rising_root(f, slope, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zero of ``f`` in each element's bracket [lo, hi], where ``f``
    rises; ``f`` and its derivative ``slope`` act elementwise on arrays.

    Newton-Raphson safeguarded by bisection (Numerical Recipes, section 9.4):
    each bracket is halved until it is at most 2^-8 wide, then three Newton
    steps from its midpoint, each clipped to it, take the root to rounding
    level; from 2^-9 off, the error squares at each step.  An element's
    number of halvings comes from its own bracket, so its bits do not depend
    on the other elements of the array.  A bracket without a sign change
    ends at the edge where ``f`` is nearest zero.
    """
    mantissa, exponent = np.frexp((hi - lo) * 2.0**8)
    halvings = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(width / 2^-8))
    for step in range(int(halvings.max())):
        mid = 0.5 * (lo + hi)
        up = f(mid) < 0.0
        live = step < halvings
        lo, hi = np.where(live & up, mid, lo), np.where(live & ~up, mid, hi)
    s = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            s = np.fmin(np.fmax(s - f(s) / slope(s), lo), hi)  # a NaN step ends at lo
    return s


def _beta_crossings(a: tuple, b: tuple, lo: float, hi: float) -> np.ndarray:
    """The points of (lo, hi) where the densities of Beta pieces ``a`` and
    ``b`` ((log weight, alpha, beta, ...) of ``_normalized_pieces``) cross,
    and the turning point between them when there is one.

    The densities are equal where phi = p log x + q log(1-x) equals c, the
    log weight of ``b`` less that of ``a``, with p and q the differences of
    the shapes.  In s = log(x / (1-x)), phi has slope p (1-x) - q x; it is
    monotone when p q <= 0, and otherwise rises to one peak (or falls to one
    trough) at s = log(p / q).  So each monotone piece of (lo, hi) holds at
    most one crossing, which ``_rising_root`` finds in s, with |s| <= 745 at
    the edges 0 and 1; past that, x or 1 - x is below the smallest float.
    """
    p, q, c = a[1] - b[1], a[2] - b[2], b[0] - a[0]

    def excess(s):
        return -p * np.logaddexp(0.0, -s) - q * np.logaddexp(0.0, s) - c

    edges = np.clip(special.logit([lo, hi]), -745.0, 745.0).tolist()
    if p * q > 0.0 and edges[0] < math.log(p / q) < edges[1]:
        edges.insert(1, math.log(p / q))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    sign = np.where(excess(lo) < excess(hi), 1.0, -1.0)  # excess times sign rises
    s = _rising_root(lambda s: sign * excess(s),
                     lambda s: sign * (p * special.expit(-s) - q * special.expit(s)), lo, hi)
    return special.expit(np.concatenate((s, edges[1:-1])))
