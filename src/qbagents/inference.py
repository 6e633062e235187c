"""Exchangeable-prior Bayesian inference over parameter regions.

A belief is a ``BetaMixture`` or a ``ParticleEnsemble``, and each class owns
every phase of an agent's step that depends on its kind, through one shared
set of methods:

* ``likelihood(evidence, a, j)``: p(j | theta) of the agent's menu action a
  in the form the belief's update takes;
* ``updated(post, R, j, like)``: the update by outcome j (``bayes_update``);
* ``refreshed(evidence, rng)``: the refresh (``maybe_resample``);
* ``mean_floats()``: the posterior mean as Python floats, computed once per
  belief, which the agent chooses by and broadcasts (``Agent.mean``);
* ``summary()``: the mean, covariance, ellipsoid and ESS of a recorded step
  (``posterior_summary``);
* ``check_agent(agent_id, axes)``: the check, when an ``Agent`` is built,
  that the belief can take the ``postulate.axis_classes`` of its actions;
* ``curve()``: the belief itself when ``interaction.run`` keeps it as a 1-D
  curve for plots, or None when the run keeps its points and weights as a
  cloud.

``bayes_update``, ``maybe_resample`` and ``posterior_summary`` are the
one-line public entry points to the update, the refresh and the summary.
The kinds:

* Beta counts (``BetaMixture``, 1-D regions): every continuous 1-D prior is a
  mixture of truncated Beta pieces, and every coin likelihood is theta or
  1 - theta, so the posterior is the prior times theta^a (1 - theta)^b and
  depends on the counts (a, b) alone (de Finetti).  An update adds one to a
  count, and rejects a likelihood that is neither; the refresh returns the
  belief; the mean and variance are the pieces' closed forms
  (``core_math.beta_piece``), scalars that round the same at any BLAS thread
  count.  The 10,001-point grid is built in log space from the counts only
  where something reads it: ESS at recorded steps, curve snapshots and
  prior-sampling draws;
* grid ensembles (``ParticleEnsemble`` with ``grid``, 1-D regions only): a
  fixed uniform grid whose weights track the density exactly at the grid
  points; these are never resampled, since reweighting alone keeps the
  representation faithful.  Grids built directly take this path, and delta
  mixtures (``atoms``) likewise;
* particle ensembles (the Bloch ball): weighted samples refreshed with a
  new, equally weighted cloud when the effective sample size degrades.  The
  points are stored by column, an (n, 3) array in F order, and every sum
  over them is taken in an order fixed here, never by a BLAS or LAPACK call
  whose rounding follows the CPU's kernel: the mean is one ``einsum`` over
  the columns, each covariance entry one ``einsum`` of two columns, and the
  3 x 3 eigenvalues come from Jacobi rotations over Python floats.

An update of a weighted ensemble returns a new ensemble whose weights are
the old ones times the postulate likelihood of the observed outcome,
renormalized; the likelihood at the points is kept with the point set, so
each (kernel row, point set) pair is computed once.  The observations belong
to the agent, not to the belief: its one count store, keyed by (menu index,
outcome), and its actions' likelihood rows ``R[j] @ Phi`` in the two forms
the agent makes of them once when it is built: their
``postulate.axis_classes`` and their affine coefficients on the region
(``postulate.affine_rows``).  ``Evidence`` holds them, reading the counts
live.  That one classification decides every exact update: a likelihood
c0 (1 +- r_a) is one more count, for a ``BetaMixture`` as for the refresh.

The refresh of a particle ensemble takes one of two paths.  When every
observed outcome has a likelihood c0 (1 +- r_a) on one Bloch axis a (the
Pauli menus of a quantum agent), the posterior is a product of three Beta
laws truncated to the ball, and the refresh draws from it exactly: each Beta
law with shapes (n+ + 1, n- + 1) by its closed form when one count is zero
and by Cheng's BB rejection over whole arrays of uniforms otherwise
(``_beta_draws``), and the ball test keeps the points inside.  All other
evidence (the SIC reference action, and classical Pauli and sharp Pauli
actions, whose axis factors are 1 +- k r_a with k < 1) goes to resample-move:
systematic resampling plus Metropolis sweeps, which evaluate the current
posterior density at proposed points from the counts (one affine likelihood
over the point columns, ``postulate.affine_likelihoods``, and one log per
observed cell).  Both paths assume a uniform prior, so an agent cannot start
from a particle ensemble that is not uniform, or that an update or a refresh
returned (``check_agent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .core_math import beta_piece, beta_piece_var, readonly
from .errors import ImpossibleOutcomeError, ValidationError
from .postulate import (
    PhysicalPostulate,
    QubitBall,
    affine_likelihoods,
    axis_classes,
    likelihood_rows,
    likelihood_values,
)

DEFAULT_BALL_PARTICLES = 10_000
RESAMPLE_SWEEPS = 10
PROPOSAL_SCALE = 0.5
EXACT_MAX_DRAWS = 100  # candidates per particle before the exact refresh gives up
BB_CHUNK = 8192  # Cheng BB attempts per pass, which bounds the pass's scratch arrays
JACOBI_MAX_SWEEPS = 50  # a 3 x 3 matrix takes about four


@dataclass(frozen=True)
class Evidence:
    """An agent's observations: ``axes[a]``, the ``axis_classes`` of the
    likelihood rows ``R[j] @ Phi`` of menu action a, the agent's live
    ``counts`` of (menu index, outcome) cells in first-observed order, the
    order ``log_posterior_density`` sums them in, and ``kernel[a]``, the rows
    composed with the region's embedding (``postulate.affine_rows``), which
    every likelihood is computed from."""

    axes: tuple = ()
    counts: dict = field(default_factory=dict)
    kernel: tuple = ()

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


class _Weighted:
    """What both belief kinds read off their weighted ``points``: ``n`` and the
    ESS."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2)."""
        return float(1.0 / np.sum(self.weights ** 2))


@dataclass(frozen=True)
class ParticleEnsemble(_Weighted):
    """Weighted points over a parameter region representing a belief density.

    ``grid`` marks a fixed 1-D quadrature grid and ``atoms`` a delta mixture;
    both are exact representations whose weights alone carry the density, so
    the resample-move step leaves them untouched.  ``posterior`` marks an
    ensemble that an update or a refresh returned: it has absorbed evidence,
    even when its weights are equal again, so it is not a prior.  The
    likelihoods at the points are kept by kernel row (``likelihood``), shared
    by every ensemble with the same points.
    """

    points: np.ndarray
    weights: np.ndarray
    region: object
    grid: bool = False
    atoms: bool = False
    posterior: bool = field(default=False, init=False)
    _likes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _mean: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        # F order: a Bloch ensemble's coordinates are three contiguous columns
        object.__setattr__(self, "points", readonly(pts.copy(order="F")))
        object.__setattr__(self, "weights", readonly(w / total))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def likelihood(self, evidence: Evidence, a: int, j: int) -> np.ndarray:
        """p(j | theta) of menu action ``a`` at the points, the form ``updated``
        takes: ``affine_likelihoods`` of the outcome's ``evidence.kernel``
        row, as ``likelihood_values`` computes it.  It is computed the first
        time that row is asked for on this point set and kept with the points
        (grid and delta points never move; particles move only when a refresh
        replaces them)."""
        rows = evidence.kernel[a][j]
        like = self._likes.get(rows)
        if like is None:
            like = self._likes[rows] = readonly(affine_likelihoods(rows, self.points))
        return like

    def updated(self, post: PhysicalPostulate, R, j: int,
                like: np.ndarray | None = None) -> "ParticleEnsemble":
        """Reweight by the likelihood of outcome j; points never move here.

        ``like`` is that likelihood at the points when the caller has it
        (``likelihood``); otherwise it is computed.  Raises
        ``ImpossibleOutcomeError`` when the total posterior weight underflows,
        i.e. the outcome contradicts the entire support."""
        if like is None:
            like = likelihood_values(post, R, j, self.points)
        w = self.weights * like
        total = np.add.reduce(w)
        if not math.isfinite(total) or total < 1e-300:
            raise ImpossibleOutcomeError(
                f"outcome {j} has zero probability on the whole support")
        w /= total
        return self._with(w)

    def refreshed(self, evidence: Evidence, rng: np.random.Generator) -> "ParticleEnsemble":
        """Resample-move step, triggered when ESS drops below n/2.

        Exact representations (grids, delta mixtures) and healthy particle
        sets are returned as they are, and the stream is not touched.
        Otherwise a new ensemble gets n equally weighted points, drawn from
        the posterior that ``evidence`` (the agent's observations) gives, by
        one of two paths:

        * exact refresh, for Bloch-ball particles whose every observed
          outcome has a likelihood c0 (1 +- r_a) on one axis a
          (``evidence.axes``): the quantum ``paulis`` and ``paulis_zx``
          menus.  The posterior under the uniform prior is then a product of
          three Beta laws truncated to the ball, and
          ``sample_axis_posterior`` draws n i.i.d. points from it (closed
          forms for one-sided counts, Cheng's BB rejection for two-sided
          ones, uniforms for an axis without counts);
        * resample-move, for all other evidence (the ``sic_reference`` menu,
          and classical ``paulis`` and ``sharp_paulis``, whose axis factors
          are (1 +- k r_a) with k = 1/3 and 1/sqrt(3)), and when the exact
          draw runs out of candidates: systematic resampling restores equal
          weights, then a Gaussian random-walk Metropolis pass (scale =
          ``PROPOSAL_SCALE`` times the per-dimension posterior standard
          deviation, ``RESAMPLE_SWEEPS`` sweeps, proposals outside the region
          rejected) rejuvenates particle diversity while targeting the
          current posterior.

        The k < 1 factors are left to resample-move: their Beta laws are
        truncated to [(1 - k)/2, (1 + k)/2], and an inverse-CDF draw
        (``betaincinv``) costs more than the Metropolis sweeps and underflows
        at counts in the thousands.
        """
        if self.grid or self.atoms or self.ess() >= self.n / 2:
            return self
        equal = np.full(self.n, 1.0 / self.n)
        counts = evidence.axis_counts() if isinstance(self.region, QubitBall) else None
        if counts is not None:
            pts = sample_axis_posterior(counts, self.n, rng)
            if pts is not None:
                return self._with(equal, pts)
        summary = posterior_summary(self)
        idx = _systematic_indices(self.weights, rng)
        pts = self.points[idx].copy()
        scale = PROPOSAL_SCALE * summary.std
        if not np.any(scale > 0):
            return self._with(equal, pts)
        logp = log_posterior_density(self, pts, evidence)
        for _ in range(RESAMPLE_SWEEPS):
            proposal = pts + rng.normal(size=pts.shape) * scale
            logp_prop = log_posterior_density(self, proposal, evidence)
            with np.errstate(invalid="ignore"):
                accept = np.log(rng.uniform(size=self.n)) < (logp_prop - logp)
            accept &= np.isfinite(logp_prop)
            pts[accept] = proposal[accept]
            logp[accept] = logp_prop[accept]
        return self._with(equal, pts)

    def mean_floats(self) -> tuple[float, ...]:
        """The weighted mean of the points (``posterior_mean``) as Python
        floats, computed once per ensemble."""
        if self._mean is None:
            object.__setattr__(self, "_mean", tuple(posterior_mean(self).tolist()))
        return self._mean

    def summary(self) -> "PosteriorSummary":
        """Weighted mean and covariance with the ellipsoid decomposition, and
        the ESS.

        Every sum is taken in an order fixed here: the mean as in
        ``posterior_mean``, each covariance entry of Bloch particles as one
        ``einsum`` of two columns (six of them, the matrix being symmetric),
        and the 3 x 3 eigenvalues by Jacobi rotations (``sym3_eigenvalues``).
        No BLAS or LAPACK call rounds them."""
        w = self.weights
        mean = posterior_mean(self)
        if self.dim == 1:
            var = np.einsum("i,i->", w, (self.points[:, 0] - mean[0]) ** 2)
            cov = np.array([[var]])
            lengths = [math.sqrt(max(var, 0.0))]
        else:
            centered = [col - m for col, m in zip(self.points.T, mean.tolist())]
            weighted = [col * w for col in centered]
            cov = np.empty((3, 3))
            for k, l in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
                cov[k, l] = cov[l, k] = np.einsum("i,i->", weighted[k], centered[l])
            lengths = [math.sqrt(max(e, 0.0)) for e in sym3_eigenvalues(cov.tolist())]
        return PosteriorSummary(
            mean=readonly(mean),
            covariance=readonly(cov),
            axis_lengths=readonly(np.array(lengths)),
            ess=self.ess(),
        )

    def check_agent(self, agent_id: str, axes) -> None:
        """Raise ``ValidationError`` unless an agent may start from the
        ensemble: particles must be uniform and not an update's or a
        refresh's result, the prior that resample-move assumes; grids and
        delta mixtures, which are never resampled, may start anywhere."""
        if not (self.grid or self.atoms) and (self.posterior or np.ptp(self.weights) > 0):
            raise ValidationError(
                f"agent {agent_id!r}: a particle ensemble must start uniform "
                "(equal weights, no evidence), the prior resample-move assumes")

    def curve(self) -> "ParticleEnsemble | None":
        """A grid, whose weights are the curve; None for particles and atoms,
        which a run keeps as a cloud."""
        return self if self.grid else None

    def _with(self, weights: np.ndarray, points: np.ndarray | None = None) -> "ParticleEnsemble":
        # A copy marked posterior, with new weights and, from a refresh, new
        # points and an empty likelihood store.  The constructor would check
        # region membership, which updates and refreshes guarantee, and
        # renormalize weights that already sum to one (or are 1/n, whose sum
        # is rarely 1).
        out = object.__new__(ParticleEnsemble)
        state = out.__dict__
        state.update(self.__dict__)
        state["weights"] = readonly(weights)
        state["posterior"] = True
        state["_mean"] = None
        if points is not None:
            state["points"] = readonly(np.asfortranarray(points))
            state["_likes"] = {}
        return out


@dataclass(frozen=True)
class PosteriorSummary:
    """Weighted mean, covariance, the standard deviation ellipsoid and the
    effective sample size.

    Axis lengths are the eigenvalues of the covariance square root (sorted
    descending).
    """

    mean: np.ndarray
    covariance: np.ndarray
    axis_lengths: np.ndarray
    ess: float

    @property
    def semi_major(self) -> float:
        return float(self.axis_lengths[0])

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


class BetaMixture(_Weighted):
    """An exchangeable 1-D belief carried by counts: the prior density
    sum_k c_k theta^(alpha_k - 1) (1 - theta)^(beta_k - 1) on [lo_k, hi_k]
    (``pieces``, each (log c_k, alpha_k, beta_k, lo_k, hi_k), contiguous and
    covering the prior grid's interval) times theta^a (1 - theta)^b,
    ``counts`` = (a, b).

    Every likelihood a coin action gives is theta or 1 - theta up to a
    constant (``axis_classes`` (0, +1) or (0, -1)), so the posterior depends
    on the counts alone (de Finetti), an update adds one to a count
    (``updated``, ``observed``) and the refresh returns the belief.  The mean
    and variance are the pieces' closed forms (``core_math.beta_piece``),
    mixed by their masses: float arithmetic plus one scalar special-function
    call per incomplete Beta value, or a continued fraction in a tail.

    ``prior`` is the grid ensemble of the prior pdf; it sets the resolution of
    what reads a grid.  ``weights``, the grid posterior, is built in log space
    from the prior's log weights and the counts the first time it is read (for
    ESS, curve snapshots and prior-sampling draws), and kept.  ``points``,
    ``region``, ``n``, ``grid`` and ``atoms`` read as a grid
    ``ParticleEnsemble``'s.
    """

    grid = True
    atoms = False
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

    def likelihood(self, evidence: Evidence, a: int, j: int) -> tuple | None:
        """The ``axis_classes`` class of outcome j of menu action ``a`` (theta
        or 1 - theta), the form ``updated`` takes."""
        return evidence.axes[a][j]

    def updated(self, post: PhysicalPostulate, R, j: int, like=None) -> "BetaMixture":
        """One more count for the ``axis_classes`` class of outcome j, which the
        caller may pass as ``like``; otherwise it is classified from the
        action's rows.  An outcome whose likelihood is neither theta nor
        1 - theta raises ``ValidationError``."""
        cls = (like if isinstance(like, tuple)
               else axis_classes(likelihood_rows(post, R))[j])
        if cls is None:
            raise ValidationError(
                f"outcome {j}'s likelihood is neither theta nor 1 - theta, which a "
                "Beta-count belief cannot absorb")
        a, b = self.counts
        return BetaMixture(self.prior, self.pieces,
                           (a + 1, b) if cls[1] > 0 else (a, b + 1), self._logs)

    def observed(self, cls: tuple) -> "BetaMixture":
        """The belief times theta for the ``axis_classes`` class (0, +1), or
        times 1 - theta for (0, -1)."""
        return self.updated(None, None, None, cls)

    def refreshed(self, evidence: Evidence, rng: np.random.Generator) -> "BetaMixture":
        """The belief itself: counts are exact, and the stream is not touched."""
        return self

    def summary(self) -> "PosteriorSummary":
        """The closed-form mean and variance, and the grid posterior's ESS."""
        var = max(self.variance(), 0.0)
        return PosteriorSummary(mean=readonly(np.array([self.mean()])),
                                covariance=readonly(np.array([[var]])),
                                axis_lengths=readonly(np.array([math.sqrt(var)])),
                                ess=self.ess())

    def check_agent(self, agent_id: str, axes) -> None:
        """Raise ``ValidationError`` unless every outcome's likelihood, by its
        ``axis_classes`` class, is theta or 1 - theta; a row that is neither
        runs on the belief's plain prior grid (``prior``)."""
        if any(None in c for c in axes):
            raise ValidationError(
                f"agent {agent_id!r}: a Beta-count belief needs likelihoods theta or "
                "1 - theta, and some action's is neither; run such an action on the "
                "belief's plain prior grid (BetaMixture.prior)")

    def curve(self) -> "BetaMixture":
        """The belief itself: its grid weights are built when emission reads them."""
        return self

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

    def mean(self) -> float:
        """The mixture of the posterior pieces' closed-form means."""
        return self.mean_floats()[0]

    def mean_floats(self) -> tuple[float]:
        """``(mean(),)``, computed once per belief, as the step path reads it."""
        if self._mean is None:
            a, b = self.counts
            if len(self.pieces) == 1:
                _c, alpha, beta, lo, hi = self.pieces[0]
                self._mix = (1.0,)
                self._means = (beta_piece(alpha + a, beta + b, lo, hi, False)[1],)
                self._mean = self._means
                return self._mean
            if len(self.pieces) == 2:
                # fsum of two terms is their correctly rounded sum, one ``+``
                (c1, a1, b1, lo1, hi1), (c2, a2, b2, lo2, hi2) = self.pieces
                l1, m1 = beta_piece(a1 + a, b1 + b, lo1, hi1)
                l2, m2 = beta_piece(a2 + a, b2 + b, lo2, hi2)
                l1 += c1
                l2 += c2
                top = max(l1, l2)
                e1, e2 = math.exp(l1 - top), math.exp(l2 - top)
                total = e1 + e2
                self._mix, self._means = (e1 / total, e2 / total), (m1, m2)
                self._mean = (self._mix[0] * m1 + self._mix[1] * m2,)
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
            self._mean = (math.fsum(map(mul, self._mix, means)),)
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


def bayes_update(ens, post: PhysicalPostulate, R, j: int, like=None):
    """The belief after outcome j of action R (``updated`` of its kind):
    ``like`` is the outcome's likelihood in the form ``likelihood`` gives,
    when the caller has it.  A weighted ensemble is reweighted, its points
    unmoved, and raises ``ImpossibleOutcomeError`` when the outcome
    contradicts its entire support; a ``BetaMixture`` adds one count, and
    raises ``ValidationError`` for a likelihood neither theta nor 1 - theta."""
    return ens.updated(post, R, j, like)


def log_posterior_density(ens: ParticleEnsemble, points,
                          evidence: Evidence) -> np.ndarray:
    """Unnormalized log density at given points of the posterior that
    ``evidence`` gives over the ensemble's region.

    The prior is uniform over the region: agents only accept particle
    ensembles with equal weights that are not ``posterior``.  Points outside
    the region get -inf.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, ens.dim)
    logp = np.zeros(pts.shape[0])
    with np.errstate(divide="ignore"):
        for (a, j), count in evidence.counts.items():
            logp += count * np.log(affine_likelihoods(evidence.kernel[a][j], pts))
    logp[~ens.region.contains(pts)] = -np.inf
    return logp


def posterior_mean(ens: ParticleEnsemble) -> np.ndarray:
    """The weighted mean of the points.  The sums go through ``einsum``, over
    the point columns: they round the same at any BLAS thread count and with
    any BLAS kernel, where a ``gemv`` rounds by the kernel the CPU selects,
    and a threaded one splits a long sum between threads."""
    w, pts = ens.weights, ens.points
    if pts.shape[1] == 1:
        return np.einsum("i,i->", w, pts[:, 0]).reshape(1)
    return np.einsum("ki,i->k", pts.T, w)


def posterior_summary(ens) -> PosteriorSummary:
    """The belief's mean, covariance, ellipsoid and ESS (``summary`` of its
    kind): fixed-order sums over a weighted ensemble, closed forms for a
    ``BetaMixture``."""
    return ens.summary()


def sym3_eigenvalues(a) -> list[float]:
    """The eigenvalues of a real symmetric 3 x 3 matrix (nested lists), in
    descending order, by cyclic Jacobi rotations over Python floats in a
    fixed order (Golub and Van Loan, *Matrix Computations*, section 8.5;
    the rotation of Rutishauser's formulation).

    A rotation zeroes one off-diagonal entry; sweeps over the three run
    until all three are zero, an entry being dropped once adding it to
    both diagonal entries it couples changes neither.  Within 1e-15 of the
    trace of 50-digit values on covariance matrices with double, triple and
    zero eigenvalues (``tests/test_particle_kernels.py``).  A diagonal
    matrix gives its diagonal exactly.  Smith's closed form (*CACM* 4, 168,
    1961) loses about half the digits at a double eigenvalue (7e-9 of the
    trace), where its arc cosine meets its branch point.
    """
    (d0, a01, a02), (_a10, d1, a12), (_a20, _a21, d2) = a
    d = [d0, d1, d2]
    off = [a12, a02, a01]  # off[r]: the entry of the rows and columns other than r
    for _ in range(JACOBI_MAX_SWEEPS):
        if not any(off):
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            if apq == 0.0:
                continue
            g = 100.0 * abs(apq)
            if abs(d[p]) + g == abs(d[p]) and abs(d[q]) + g == abs(d[q]):
                off[r] = 0.0
                continue
            theta = 0.5 * (d[q] - d[p]) / apq
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            t = -t if theta < 0.0 else t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            d[p] -= t * apq
            d[q] += t * apq
            arp, arq = off[q], off[p]
            off[r] = 0.0
            off[q] = arp - s * (arq + tau * arp)
            off[p] = arq + s * (arp - tau * arq)
    return sorted(d, reverse=True)


def maybe_resample(ens, evidence: Evidence, rng: np.random.Generator):
    """The belief after the refresh (``refreshed`` of its kind): a particle
    ensemble whose ESS is below n/2 gets n equally weighted points drawn from
    the posterior that ``evidence`` gives (``ParticleEnsemble.refreshed``);
    every other belief is returned as it is, and the stream is not touched."""
    return ens.refreshed(evidence, rng)


def sample_axis_posterior(counts, n: int, rng: np.random.Generator) -> np.ndarray | None:
    """n i.i.d. Bloch points from the uniform-ball prior times
    prod_a (1 + r_a)^(n+_a) (1 - r_a)^(n-_a), ``counts[a] = (n+_a, n-_a)``.

    Each axis is r_a = 2 B_a - 1 with B_a ~ Beta(n+_a + 1, n-_a + 1), drawn
    axis by axis by ``_beta_draws`` (uniform on [-1, 1] for an axis without
    counts); points with x*x + y*y + z*z > 1 (the order of
    ``QubitBall.contains``) are rejected, in rounds sized from the acceptance
    so far, until n are kept.  Each axis of a round is drawn into its own
    contiguous row, and the kept columns are gathered into a (3, n) array,
    whose transpose is the (n, 3) F-ordered particle layout.  Returns None
    when ``EXACT_MAX_DRAWS * n`` candidates have not given n points
    (evidence that pushes the axis product almost wholly outside the ball).
    """
    shapes = (np.asarray(counts, dtype=float) + 1.0).tolist()
    out = np.empty((3, n))
    kept, drawn = 0, 0
    while kept < n:
        budget = EXACT_MAX_DRAWS * n - drawn
        if budget <= 0:
            return None
        size = n if not kept else math.ceil(1.2 * (n - kept) * drawn / kept) + 16
        size = min(size, budget)
        r = np.empty((3, size))
        for a, (alpha, beta) in enumerate(shapes):
            if alpha == beta == 1.0:
                r[a] = rng.uniform(-1.0, 1.0, size)
            else:
                _beta_draws(r[a], alpha, beta, rng)
                r[a] *= 2.0
                r[a] -= 1.0
        x, y, z = r
        inside = np.flatnonzero(x * x + y * y + z * z <= 1.0)[:n - kept]
        r.take(inside, axis=1, out=out[:, kept:kept + inside.size])
        kept += inside.size
        drawn += size
    return out.T


def _beta_draws(out: np.ndarray, a: float, b: float, rng: np.random.Generator) -> None:
    """Fill the contiguous row ``out`` with i.i.d. Beta(a, b) draws, a, b >= 1.

    Beta(a, 1) is U^(1/a) and Beta(1, b) is 1 - U^(1/b), one uniform a draw.
    Otherwise Cheng's BB rejection (*CACM* 21, 317, 1978; R's ``rbeta``)
    runs over whole arrays of uniform pairs (U1, U2), at most ``BB_CHUNK``
    attempts at a time.  With a0 = min(a, b), b0 = max(a, b), alpha = a0 + b0,
    beta = sqrt((alpha - 2) / (2 a0 b0 - alpha)) and gamma = a0 + 1/beta, an
    attempt proposes V = beta log(U1 / (1 - U1)) and W = a0 e^V, and is kept
    when gamma V - log 4 + alpha log(alpha / (b0 + W)) >= log(U1^2 U2); then
    W / (b0 + W) ~ Beta(a0, b0), and the draw is that for a <= b and
    b0 / (b0 + W) otherwise.  Cheng's two squeezes only spare scalar code a
    log, which whole arrays take anyway, so the one exact test decides.  An
    attempt with U1 = 0 (W = 0, which the test would keep) is rejected.
    """
    if b == 1.0:
        np.power(rng.random(out=out), 1.0 / a, out=out)
        return
    if a == 1.0:
        np.power(rng.random(out=out), 1.0 / b, out=out)
        np.subtract(1.0, out, out=out)
        return
    a0, b0 = min(a, b), max(a, b)
    alpha = a0 + b0
    beta = math.sqrt((alpha - 2.0) / (2.0 * a0 * b0 - alpha))
    gamma = a0 + 1.0 / beta
    filled = 0
    while filled < out.size:
        # the acceptance is 0.8 to 0.95 for a, b >= 2
        u1, u2 = rng.random((2, min(BB_CHUNK, math.ceil(1.25 * (out.size - filled)) + 16)))
        with np.errstate(divide="ignore"):
            v = np.log(u1 / (1.0 - u1))
            v *= beta
            w = np.exp(v)
            w *= a0
            test = np.log(alpha / (b0 + w))
            test *= alpha
            test += gamma * v - math.log(4.0)
            u2 *= u1 * u1
            keep = test >= np.log(u2)
        keep &= u1 > 0.0
        w = w[keep][:out.size - filled]
        row = out[filled:filled + w.size]
        np.add(w, b0, out=row)
        np.divide(w if a <= b else b0, row, out=row)
        filled += w.size


def _systematic_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.size
    positions = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions)
