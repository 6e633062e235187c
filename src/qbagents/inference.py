"""Exchangeable-prior Bayesian inference over parameter regions.

Beliefs take three forms:

* Beta counts (``BetaMixture``, 1-D regions): every continuous 1-D prior is a
  mixture of truncated Beta pieces, and every coin likelihood is theta or
  1 - theta, so the posterior is the prior times theta^a (1 - theta)^b and
  depends on the counts (a, b) alone (de Finetti).  An update adds one to a
  count, and rejects a likelihood that is neither; the mean and variance are
  the pieces' closed forms (``core_math.beta_piece``), scalars that round the
  same at any BLAS thread count.  The 10,001-point grid is built in log space
  from the counts only where something reads it: ESS at recorded steps,
  curve snapshots and prior-sampling draws;
* grid ensembles (1-D regions only): a fixed uniform grid whose weights track
  the density exactly at the grid points; these are never resampled, since
  reweighting alone keeps the representation faithful.  Delta mixtures and
  grids built directly take this path;
* particle ensembles (the Bloch ball): weighted samples refreshed with a
  new, equally weighted cloud when the effective sample size degrades.

An update of a weighted ensemble returns a new ensemble whose weights are
the old ones times the postulate likelihood of the observed outcome,
renormalized; a caller that already holds that likelihood (an agent's cache)
passes it in.  The observations belong to the agent, not to the ensemble:
its one count store, keyed by (menu index, outcome), and its actions'
likelihood rows ``R[j] @ Phi`` with their ``postulate.axis_classes``, made
once when the agent is built.  ``Evidence`` holds them, reading the counts
live.  That one classification decides every exact update: a likelihood
c0 (1 +- r_a) is one more count, for a ``BetaMixture`` as for the refresh.

The refresh (``maybe_resample``) takes one of two paths.  When every observed
outcome has a likelihood c0 (1 +- r_a) on one Bloch axis a (the Pauli menus
of a quantum agent), the posterior is a product of three Beta laws truncated
to the ball, and the refresh draws from it exactly.  All other evidence (the
SIC reference action, and classical Pauli and sharp Pauli actions, whose
axis factors are 1 +- k r_a with k < 1) goes to resample-move: systematic
resampling plus Metropolis sweeps, which evaluate the current posterior
density at proposed points from the counts (one embedding of the points,
then one dot product and one log per observed cell).  Both paths assume a
uniform prior, so agents reject particle ensembles that do not start uniform
or that an update or a refresh returned (see ``Agent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .core_math import beta_piece, beta_piece_var, readonly
from .errors import ImpossibleOutcomeError, ValidationError
from .postulate import PhysicalPostulate, QubitBall, axis_classes, likelihood_values, likelihoods

DEFAULT_BALL_PARTICLES = 10_000
RESAMPLE_SWEEPS = 10
PROPOSAL_SCALE = 0.5
EXACT_MAX_DRAWS = 100  # candidates per particle before the exact refresh gives up


@dataclass(frozen=True)
class Evidence:
    """An agent's observations: ``rows[a]``, the likelihood rows ``R[j] @ Phi``
    of menu action a, ``axes[a]``, their ``axis_classes``, and the agent's
    live ``counts`` of (menu index, outcome) cells in first-observed order,
    the order ``log_posterior_density`` sums them in."""

    rows: tuple = ()
    axes: tuple = ()
    counts: dict = field(default_factory=dict)

    def axis_counts(self) -> np.ndarray | None:
        """Counts ``[[n+_x, n-_x], [n+_y, n-_y], [n+_z, n-_z]]`` of outcomes
        whose likelihood is proportional to (1 + r_a) and (1 - r_a), or None
        when some observed outcome's likelihood is not of that form."""
        counts = np.zeros((3, 2))
        for (a, j), count in self.counts.items():
            axis = self.axes[a][j]
            if axis is None:
                return None
            counts[axis[0], 0 if axis[1] > 0 else 1] += count
        return counts


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted points over a parameter region representing a belief density.

    ``grid`` marks a fixed 1-D quadrature grid and ``atoms`` a delta mixture;
    both are exact representations whose weights alone carry the density, so
    the resample-move step leaves them untouched.  ``posterior`` marks an
    ensemble that an update or a refresh returned: it has absorbed evidence,
    even when its weights are equal again, so it is not a prior.
    """

    points: np.ndarray
    weights: np.ndarray
    region: object
    grid: bool = False
    atoms: bool = False
    posterior: bool = field(default=False, init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValidationError(f"points must be (n, dim) with n >= 1, got {pts.shape}")
        if pts.shape[1] != self.region.dim:
            raise ValidationError(
                f"point dimension {pts.shape[1]} vs region dimension {self.region.dim}")
        if not np.all(self.region.contains(pts)):
            raise ValidationError("some points lie outside the region")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != (pts.shape[0],):
            raise ValidationError("weights length does not match points")
        if w.min() < 0 or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and nonnegative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "points", readonly(pts.copy()))
        object.__setattr__(self, "weights", readonly(w / total))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2)."""
        return float(1.0 / np.sum(self.weights ** 2))


@dataclass(frozen=True)
class PosteriorSummary:
    """Weighted mean, covariance, and the standard deviation ellipsoid.

    Axis lengths are the eigenvalues of the covariance square root (sorted
    descending).
    """

    mean: np.ndarray
    covariance: np.ndarray
    axis_lengths: np.ndarray

    @property
    def semi_major(self) -> float:
        return float(self.axis_lengths[0])

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


class BetaMixture:
    """An exchangeable 1-D belief carried by counts: the prior density
    sum_k c_k theta^(alpha_k - 1) (1 - theta)^(beta_k - 1) on [lo_k, hi_k]
    (``pieces``, each (log c_k, alpha_k, beta_k, lo_k, hi_k), contiguous and
    covering the prior grid's interval) times theta^a (1 - theta)^b,
    ``counts`` = (a, b).

    Every likelihood a coin action gives is theta or 1 - theta up to a
    constant (``axis_classes`` (0, +1) or (0, -1)), so the posterior depends
    on the counts alone (de Finetti), and an update adds one to a count
    (``observed``).  The mean and variance are the pieces' closed forms
    (``core_math.beta_piece``), mixed by their masses: float arithmetic plus
    one scalar special-function call per incomplete Beta value, or a
    continued fraction in a tail.

    ``prior`` is the grid ensemble of the prior pdf; it sets the resolution of
    what reads a grid.  ``weights``, the grid posterior, is built in log space
    from the prior's log weights and the counts the first time it is read (for
    ESS, curve snapshots and prior-sampling draws), and kept.  The other
    attributes mirror a grid ``ParticleEnsemble``'s, so a belief goes wherever
    one does.
    """

    grid = True
    atoms = False
    dim = 1
    __slots__ = ("prior", "pieces", "counts", "_weights", "_mean", "_mix", "_means", "_logs")

    def __init__(self, prior: ParticleEnsemble, pieces: tuple, counts: tuple = (0, 0),
                 _logs: dict | None = None):
        self.prior, self.pieces, self.counts = prior, pieces, counts
        self._weights = self._mean = None  # computed when first read
        # log theta, log (1 - theta) and the prior's log weights on the grid,
        # computed once and shared by every belief that grows from this prior
        self._logs = {} if _logs is None else _logs

    @property
    def points(self) -> np.ndarray:
        return self.prior.points

    @property
    def region(self):
        return self.prior.region

    @property
    def n(self) -> int:
        return self.prior.n

    @property
    def posterior(self) -> bool:
        return any(self.counts)

    def observed(self, cls: tuple) -> "BetaMixture":
        """The belief times theta for the ``axis_classes`` class (0, +1), or
        times 1 - theta for (0, -1)."""
        a, b = self.counts
        return BetaMixture(self.prior, self.pieces,
                           (a + 1, b) if cls[1] > 0 else (a, b + 1), self._logs)

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = self._grid_weights()
        return self._weights

    def _grid_weights(self) -> np.ndarray:
        a, b = self.counts
        if not (a or b):
            return self.prior.weights
        logs = self._logs
        if not logs:
            theta = self.prior.points[:, 0]
            with np.errstate(divide="ignore"):  # -inf where theta, 1 - theta or w is 0
                logs.update(theta=np.log(theta), rest=np.log1p(-theta),
                            prior=np.log(self.prior.weights))
        # 0 log 0 = 0: a zero count leaves the endpoint's weight alone
        w = a * logs["theta"] + logs["prior"] if a else logs["prior"].copy()
        if b:
            w += b * logs["rest"]
        w -= w.max()
        np.exp(w, out=w)
        w /= np.einsum("i->", w)
        return readonly(w)

    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2) of the grid posterior."""
        return float(1.0 / np.sum(self.weights ** 2))

    def grid_ensemble(self) -> ParticleEnsemble:
        """The grid posterior as a plain grid ensemble."""
        return self.prior if not self.posterior else _refreshed(self.prior, self.weights)

    def mean(self) -> float:
        """The mixture of the posterior pieces' closed-form means."""
        if self._mean is None:
            a, b = self.counts
            if len(self.pieces) == 1:
                _c, alpha, beta, lo, hi = self.pieces[0]
                self._mix = (1.0,)
                self._means = (beta_piece(alpha + a, beta + b, lo, hi, False)[1],)
                self._mean = self._means[0]
                return self._mean
            # (log mass, mean) of each posterior piece, mixed by mass; the sums
            # are fsum's, rounded the same on every Python version
            logs, means = [], []
            for log_c, alpha, beta, lo, hi in self.pieces:
                log_mass, mean = beta_piece(alpha + a, beta + b, lo, hi)
                logs.append(log_c + log_mass)
                means.append(mean)
            top = max(logs)
            w = [math.exp(x - top) for x in logs]
            total = math.fsum(w)
            self._mix, self._means = [x / total for x in w], means
            self._mean = math.fsum(map(mul, self._mix, means))
        return self._mean

    def variance(self) -> float:
        """The mixture of the posterior pieces' closed-form variances about
        the mixture mean."""
        mean, (a, b) = self.mean(), self.counts
        return math.fsum(w * (beta_piece_var(alpha + a, beta + b, lo, hi) + (m - mean) ** 2)
                         for w, m, (_c, alpha, beta, lo, hi)
                         in zip(self._mix, self._means, self.pieces))


def sample_uniform(region, n: int, rng: np.random.Generator) -> ParticleEnsemble:
    """n i.i.d. uniform points on the region with equal weights."""
    if n < 1:
        raise ValidationError("need at least one particle")
    pts = region.sample(n, rng)
    return ParticleEnsemble(pts, np.full(n, 1.0 / n), region)


def grid_ensemble(region, n: int, pdf=None) -> ParticleEnsemble:
    """Deterministic uniform grid over a 1-D region, weighted by ``pdf`` if given."""
    if region.dim != 1:
        raise ValidationError("grid ensembles are only supported on 1-D regions")
    if n < 2:
        raise ValidationError("grid needs at least 2 points")
    grid = np.linspace(region.lo, region.hi, n).reshape(-1, 1)
    if pdf is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(pdf(grid[:, 0]), dtype=float)
        if w.min() < 0 or not np.all(np.isfinite(w)):
            raise ValidationError("pdf produced negative or non-finite weights")
        total = w.sum()
        if total <= 0:
            raise ValidationError("pdf is zero everywhere on the grid")
        w = w / total
    return ParticleEnsemble(grid, w, region, grid=True)


def delta_ensemble(points, weights, region) -> ParticleEnsemble:
    """Mixture of point masses (a single point gives an exogenous-style delta)."""
    w = np.asarray(weights, dtype=float).ravel()
    return ParticleEnsemble(points, w / w.sum(), region, atoms=True)


def bayes_update(ens: ParticleEnsemble, post: PhysicalPostulate, R, j: int,
                 like: np.ndarray | None = None) -> ParticleEnsemble:
    """Reweight by the likelihood of outcome j; points never move here.

    ``like`` is that likelihood at ``ens.points`` when the caller has it
    cached; otherwise it is computed.  Raises ``ImpossibleOutcomeError`` when
    the total posterior weight underflows, i.e. the outcome contradicts the
    entire support.

    A ``BetaMixture`` adds one to the count of the outcome's ``axis_classes``
    class; the caller may pass the class as ``like``.  An outcome whose
    likelihood is neither theta nor 1 - theta raises ``ValidationError``.
    """
    if isinstance(ens, BetaMixture):
        cls = like if isinstance(like, tuple) else axis_classes(
            np.asarray(R, dtype=float) @ post.phi)[j]
        if cls is None:
            raise ValidationError(
                f"outcome {j}'s likelihood is neither theta nor 1 - theta, which a "
                "Beta-count belief cannot absorb")
        return ens.observed(cls)
    if like is None:
        like = likelihood_values(post, R, j, ens.points)
    w = ens.weights * like
    total = np.add.reduce(w)
    if not math.isfinite(total) or total < 1e-300:
        raise ImpossibleOutcomeError(
            f"outcome {j} has zero probability on the whole support")
    w /= total
    return _refreshed(ens, w)


def log_posterior_density(ens: ParticleEnsemble, points,
                          evidence: Evidence) -> np.ndarray:
    """Unnormalized log density at given points of the posterior that
    ``evidence`` gives over the ensemble's region.

    The prior is uniform over the region: agents only accept particle
    ensembles with equal weights that are not ``posterior``.  Points outside
    the region get -inf.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, ens.dim)
    probs = ens.region.to_ref_probs(pts)
    logp = np.zeros(pts.shape[0])
    with np.errstate(divide="ignore"):
        for (a, j), count in evidence.counts.items():
            logp += count * np.log(likelihoods(probs, evidence.rows[a][j]))
    logp[~ens.region.contains(pts)] = -np.inf
    return logp


def posterior_mean(ens: ParticleEnsemble) -> np.ndarray:
    """The weighted mean of the points, or a ``BetaMixture``'s closed form.
    A 1-D sum goes through ``einsum``, which rounds the same at any BLAS
    thread count; a threaded ``gemv`` splits a long sum between threads and
    rounds it differently."""
    if isinstance(ens, BetaMixture):
        return np.array([ens.mean()])
    w, pts = ens.weights, ens.points
    if pts.shape[1] == 1:
        return np.einsum("i,i->", w, pts[:, 0]).reshape(1)
    return w @ pts


def posterior_summary(ens: ParticleEnsemble) -> PosteriorSummary:
    """Weighted mean and covariance with the ellipsoid decomposition; a
    ``BetaMixture``'s closed-form mean and variance."""
    if isinstance(ens, BetaMixture):
        var = max(ens.variance(), 0.0)
        return PosteriorSummary(mean=readonly(np.array([ens.mean()])),
                                covariance=readonly(np.array([[var]])),
                                axis_lengths=readonly(np.array([math.sqrt(var)])))
    w = ens.weights
    mean = posterior_mean(ens)
    if ens.dim == 1:
        centered = ens.points - mean
        cov = np.array([[np.einsum("i,i->", w, centered[:, 0] ** 2)]])
    else:
        # points - mean and its product with w, one coordinate at a time: the
        # same values as the broadcasts, without their inner loops of length 3
        pts = ens.points
        centered, weighted = np.empty_like(pts), np.empty_like(pts)
        for k in range(ens.dim):
            np.subtract(pts[:, k], mean[k], out=centered[:, k])
            np.multiply(centered[:, k], w, out=weighted[:, k])
        cov = weighted.T @ centered
        cov = 0.5 * (cov + cov.T)
    eigvals = np.clip(np.linalg.eigh(cov)[0], 0.0, None)
    order = np.argsort(eigvals)[::-1]
    return PosteriorSummary(
        mean=readonly(mean),
        covariance=readonly(cov),
        axis_lengths=readonly(np.sqrt(eigvals[order])),
    )


def maybe_resample(ens: ParticleEnsemble, evidence: Evidence,
                   rng: np.random.Generator) -> ParticleEnsemble:
    """Resample-move step, triggered when ESS drops below n/2.

    Exact representations (grids, delta mixtures) and healthy particle sets
    are returned as they are, and the stream is not touched.  Otherwise a new
    ensemble gets n equally weighted points, drawn from the posterior that
    ``evidence`` (the agent's observations) gives, by one of two paths:

    * exact refresh, for Bloch-ball particles whose every observed outcome
      has a likelihood c0 (1 +- r_a) on one axis a (``evidence.axes``): the
      quantum ``paulis`` and ``paulis_zx`` menus.  The posterior under the
      uniform prior is then a product of three Beta laws truncated to the
      ball, and ``sample_axis_posterior`` draws n i.i.d. points from it;
    * resample-move, for all other evidence (the ``sic_reference`` menu, and
      classical ``paulis`` and ``sharp_paulis``, whose axis factors are
      (1 +- k r_a) with k = 1/3 and 1/sqrt(3)), and when the exact draw runs
      out of candidates: systematic resampling restores equal weights, then
      a Gaussian random-walk Metropolis pass (scale = ``PROPOSAL_SCALE``
      times the per-dimension posterior standard deviation,
      ``RESAMPLE_SWEEPS`` sweeps, proposals outside the region rejected)
      rejuvenates particle diversity while targeting the current posterior.

    The k < 1 factors are left to resample-move: their Beta laws are
    truncated to [(1 - k)/2, (1 + k)/2], and an inverse-CDF draw
    (``betaincinv``) costs more than the Metropolis sweeps and underflows at
    counts in the thousands.
    """
    if ens.grid or ens.atoms or ens.ess() >= ens.n / 2:
        return ens
    equal = np.full(ens.n, 1.0 / ens.n)
    counts = evidence.axis_counts() if isinstance(ens.region, QubitBall) else None
    if counts is not None:
        pts = sample_axis_posterior(counts, ens.n, rng)
        if pts is not None:
            return _refreshed(ens, equal, pts)
    summary = posterior_summary(ens)
    idx = _systematic_indices(ens.weights, rng)
    pts = ens.points[idx].copy()
    scale = PROPOSAL_SCALE * summary.std
    if not np.any(scale > 0):
        return _refreshed(ens, equal, pts)
    logp = log_posterior_density(ens, pts, evidence)
    for _ in range(RESAMPLE_SWEEPS):
        proposal = pts + rng.normal(size=pts.shape) * scale
        logp_prop = log_posterior_density(ens, proposal, evidence)
        with np.errstate(invalid="ignore"):
            accept = np.log(rng.uniform(size=ens.n)) < (logp_prop - logp)
        accept &= np.isfinite(logp_prop)
        pts[accept] = proposal[accept]
        logp[accept] = logp_prop[accept]
    return _refreshed(ens, equal, pts)


def _refreshed(ens: ParticleEnsemble, weights: np.ndarray,
               points: np.ndarray | None = None) -> ParticleEnsemble:
    # A copy of ``ens`` marked posterior, with new weights and, from a
    # refresh, new points.  The constructor would check region membership,
    # which updates and refreshes guarantee, and renormalize weights that
    # already sum to one (or are 1/n, whose sum is rarely 1).
    out = object.__new__(ParticleEnsemble)
    state = out.__dict__
    state.update(ens.__dict__)
    state["weights"] = readonly(weights)
    state["posterior"] = True
    if points is not None:
        state["points"] = readonly(points)
    return out


def sample_axis_posterior(counts, n: int, rng: np.random.Generator) -> np.ndarray | None:
    """n i.i.d. Bloch points from the uniform-ball prior times
    prod_a (1 + r_a)^(n+_a) (1 - r_a)^(n-_a), ``counts[a] = (n+_a, n-_a)``.

    Each axis is r_a = 2 B_a - 1 with B_a ~ Beta(n+_a + 1, n-_a + 1), drawn
    axis by axis (uniform on [-1, 1] for an axis without counts); points
    with |r|^2 > 1 are rejected, in rounds sized from the acceptance so far,
    until n are kept.  Returns None when ``EXACT_MAX_DRAWS * n`` candidates
    have not given n points (evidence that pushes the axis product almost
    wholly outside the ball).
    """
    counts = np.asarray(counts, dtype=float)
    alpha, beta = counts[:, 0] + 1.0, counts[:, 1] + 1.0
    parts, kept, drawn = [], 0, 0
    while kept < n:
        budget = EXACT_MAX_DRAWS * n - drawn
        if budget <= 0:
            return None
        size = n if not kept else math.ceil(1.2 * (n - kept) * drawn / kept) + 16
        size = min(size, budget)
        r = np.empty((size, 3))
        for a in range(3):
            # Beta(1, 1) is uniform, and numpy's Beta sampler is slow there
            r[:, a] = (rng.uniform(-1.0, 1.0, size) if not counts[a].any()
                       else 2.0 * rng.beta(alpha[a], beta[a], size) - 1.0)
        r = r[np.einsum("ij,ij->i", r, r) <= 1.0][:n - kept]
        parts.append(r)
        kept += r.shape[0]
        drawn += size
    return np.concatenate(parts)


def _systematic_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.size
    positions = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions)
