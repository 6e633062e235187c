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
* Densities on the unit interval are either analytic (``BetaParams``) or numeric
  (``Density1D``, a weighted grid).  The default grid has 10,001 uniform points,
  enough to resolve posterior features at the 1e-3 scale cheaply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ValidationError

PROB_TOL = 1e-9
DEFAULT_GRID_POINTS = 10_001
BETA_CDF_CACHE_ROWS = 40  # rows kept by ``beta_cdf_row``, 80 kB each on the default grid


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    a.flags.writeable = False
    return a


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


@functools.lru_cache(maxsize=BETA_CDF_CACHE_ROWS)
def beta_cdf_row(p: BetaParams) -> np.ndarray:
    """The CDF of ``p`` at the ``DEFAULT_GRID_POINTS`` uniform points of [0, 1].

    Memoized and read-only: the appendix battery asks for each of its few
    distinct integer-parameter rows many times.  The least recently used row
    goes once ``BETA_CDF_CACHE_ROWS`` are held.
    """
    x = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    return readonly(special.betainc(p.alpha, p.beta, x))


def beta_pdf(theta, p: BetaParams):
    """Beta density evaluated pointwise (vectorized)."""
    t = np.asarray(theta, dtype=float)
    logb = special.betaln(p.alpha, p.beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = (p.alpha - 1) * np.log(t) + (p.beta - 1) * np.log1p(-t) - logb
    out = np.exp(logpdf)
    return np.where(np.isfinite(out), out, 0.0)


@dataclass(frozen=True)
class Density1D:
    """A density on [0, 1] as normalized weights over a strictly increasing grid."""

    grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float).ravel()
        if g.size == 0:
            raise ValidationError("Density1D: empty grid")
        if g.min() < 0.0 or g.max() > 1.0:
            raise ValidationError("Density1D: grid points outside [0, 1]")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValidationError("Density1D: grid must be strictly increasing")
        w = as_prob_vector(self.weights, name="Density1D weights")
        if w.size != g.size:
            raise ValidationError("Density1D: grid and weights lengths differ")
        object.__setattr__(self, "grid", readonly(g))
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1.0,
                n: int = DEFAULT_GRID_POINTS) -> "Density1D":
        grid = np.linspace(lo, hi, n)
        return cls(grid, np.full(n, 1.0 / n))

    @classmethod
    def from_pdf(cls, pdf, lo: float = 0.0, hi: float = 1.0,
                 n: int = DEFAULT_GRID_POINTS) -> "Density1D":
        grid = np.linspace(lo, hi, n)
        w = np.asarray(pdf(grid), dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("pdf produced negative or non-finite values")
        total = w.sum()
        if total <= 0:
            raise ValidationError("pdf is zero everywhere on the grid")
        return cls(grid, w / total)

    @classmethod
    def from_beta(cls, p: BetaParams, n: int = DEFAULT_GRID_POINTS) -> "Density1D":
        return cls.from_pdf(lambda t: beta_pdf(t, p), 0.0, 1.0, n)

    def mean(self) -> float:
        return float(self.weights @ self.grid)

    def cdf(self) -> np.ndarray:
        """Cumulative weights at the grid points (inclusive convention)."""
        return np.cumsum(self.weights)


def kolmogorov_distance(a, b) -> float:
    """Supremum distance between the CDFs of two densities on [0, 1].

    For two ``BetaParams`` the analytic CDFs are compared on the default
    10,001-point grid, from the rows ``beta_cdf_row`` memoizes; with a
    ``Density1D`` the supremum is taken over its grid points only, which is
    adequate at that resolution and avoids root-finding.  Two grid densities
    must share a grid.
    """
    a_beta = isinstance(a, BetaParams)
    b_beta = isinstance(b, BetaParams)
    if a_beta and b_beta:
        return float(np.max(np.abs(beta_cdf_row(a) - beta_cdf_row(b))))
    if a_beta or b_beta:
        dens, bp = (b, a) if a_beta else (a, b)
        if not isinstance(dens, Density1D):
            raise ValidationError(f"unsupported operand {type(dens).__name__}")
        diff = dens.cdf() - special.betainc(bp.alpha, bp.beta, dens.grid)
        return float(np.max(np.abs(diff)))
    if isinstance(a, Density1D) and isinstance(b, Density1D):
        if a.grid.size != b.grid.size or not np.array_equal(a.grid, b.grid):
            raise ValidationError("kolmogorov_distance: mismatched grids")
        return float(np.max(np.abs(a.cdf() - b.cdf())))
    raise ValidationError(
        f"unsupported operands {type(a).__name__}, {type(b).__name__}")
