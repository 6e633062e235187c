"""Rational agents: action menus, utilities, predictive distributions, and
expected-utility choice.

An agent owns a physical postulate, a belief ensemble over the matching
parameter region, a menu of actions (conditional probability matrices), and a
utility function over (action, outcome) pairs.  Choice maximizes expected
utility; ties within ``TIE_TOL`` are broken uniformly at random, which is what
turns a flat utility function into uniformly random action choice.

Everything the step loop needs is validated and precomputed when the agent is
built, so a step does only arithmetic:

* every action must give nonnegative probabilities in every valid state
  (``min_likelihood``), and a particle ensemble must start uniform and not
  be an update's or a refresh's result, the prior that resample-move assumes;
* each action's utility row is checked and stored (``utility_rows``);
* each action's likelihood rows ``R[j] @ Phi`` are stored with their
  ``axis_classes`` (``evidence.axes``), and composed with the region's affine
  embedding as Python floats (``kernel_rows``), the rows
  ``postulate.outcome_probs`` evaluates at (1, theta); both products are
  left-to-right sums (``postulate.likelihood_rows``, ``affine_rows``), which
  no BLAS kernel rounds;
* a ``BetaMixture`` belief updates by those classes; with a row that is neither
  theta nor 1 - theta the agent is rejected (its ``prior`` grid runs such rows);
* likelihoods on the ensemble's points are cached per point set: each
  (action, outcome) vector is computed the first time it is asked for and
  kept until the points change (grid and delta points never move; particles
  move only when the refresh replaces them).  On the Bloch ball it is the
  outcome's ``kernel_rows`` over the point columns
  (``postulate.ball_likelihoods``, as ``likelihood_values`` computes it); on
  the interval the points are embedded once and multiplied by the row;
* the posterior mean is cached per ensemble, and the predictive is the
  likelihood at that mean (exact, since the likelihood is affine in the
  parameter), the action's ``kernel_rows`` at (1, mean), so a choice costs
  a few float products instead of a pass over the ensemble; each expected
  utility is the utility row times that predictive, added left to right
  over Python floats;
* a single-action menu draws nothing, and a menu without a utility table,
  whose expected utilities all equal ``DEFAULT_UTILITY``, draws the
  tie-break index directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import PROB_TOL, as_cond_prob_matrix, dot, readonly
from .errors import ValidationError
from .inference import BetaMixture, Evidence, ParticleEnsemble, posterior_mean
from .postulate import (
    PhysicalPostulate,
    QubitBall,
    affine_rows,
    axis_classes,
    ball_likelihoods,
    ensemble_compatible,
    likelihood_rows,
    likelihoods,
    min_likelihood,
    outcome_probs,
    ref_probs_of_points,
)

# Not called here; bound because perfbench's span recorder wraps
# ``agents.likelihood_matrix`` and ``agents.as_prob_vector`` by name.
from .core_math import as_prob_vector  # noqa: F401
from .postulate import likelihood_matrix  # noqa: F401

TIE_TOL = 1e-12
DEFAULT_UTILITY = 1.0  # the utility of an (action, outcome) pair no table entry sets


@dataclass(frozen=True)
class Action:
    """A named action with its conditional probability matrix and outcome labels."""

    name: str
    matrix: np.ndarray
    outcomes: tuple[str, ...]

    def __post_init__(self):
        m = as_cond_prob_matrix(self.matrix)
        if len(self.outcomes) != m.shape[0]:
            raise ValidationError(
                f"action {self.name!r}: {len(self.outcomes)} labels for {m.shape[0]} outcomes")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @property
    def n_outcomes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UtilityFn:
    """Utility of each (action, outcome) pair; ``DEFAULT_UTILITY`` where the table is silent."""

    table: dict = field(default_factory=dict)

    def row(self, action: Action) -> np.ndarray:
        values = self.table.get(action.name)
        if values is None:
            return np.full(action.n_outcomes, DEFAULT_UTILITY)
        out = np.asarray(values, dtype=float)
        if out.shape != (action.n_outcomes,):
            raise ValidationError(
                f"utility row for {action.name!r} has length {out.size}, "
                f"expected {action.n_outcomes}")
        if not np.all(np.isfinite(out)):
            raise ValidationError(f"utility row for {action.name!r} is not finite")
        return out


@dataclass
class Agent:
    """Postulate + belief ensemble + action menu + utility function.

    ``counts`` is the one count store of observed (menu index, outcome) cells,
    in first-observed order, and ``evidence`` the refresh's view of it.  The
    likelihood cache keys on the ensemble's points array and the mean cache on
    the ensemble, which updates and refreshes replace.
    """

    id: str
    postulate: PhysicalPostulate
    ensemble: ParticleEnsemble
    menu: tuple[Action, ...]
    utility: UtilityFn = field(default_factory=UtilityFn)

    def __post_init__(self):
        self.menu = tuple(self.menu)
        if not self.menu:
            raise ValidationError(f"agent {self.id!r}: empty action menu")
        if len({a.name for a in self.menu}) < len(self.menu):
            raise ValidationError(f"agent {self.id!r}: action names must be distinct")
        ens = self.ensemble
        if not ensemble_compatible(self.postulate, ens.region):
            raise ValidationError(
                f"agent {self.id!r}: ensemble region incompatible with postulate")
        self.utility_rows = {}  # each action's checked utility row, read by every choice
        for action in self.menu:
            if action.matrix.shape[1] != self.postulate.n_outcomes:
                raise ValidationError(
                    f"agent {self.id!r}: action {action.name!r} has reference "
                    f"dimension {action.matrix.shape[1]}, postulate expects "
                    f"{self.postulate.n_outcomes}")
            self.utility_rows[action.name] = self.utility.row(action)
            lowest = min_likelihood(self.postulate, action.matrix)
            if lowest < -PROB_TOL:
                raise ValidationError(
                    f"agent {self.id!r}: action {action.name!r} gives a negative "
                    f"probability ({lowest:.3e}); not physically valid for this "
                    "postulate")
        if not (ens.grid or ens.atoms) and (ens.posterior or np.ptp(ens.weights) > 0):
            raise ValidationError(
                f"agent {self.id!r}: a particle ensemble must start uniform "
                "(equal weights, no evidence), the prior resample-move assumes")
        rows = tuple(likelihood_rows(self.postulate, a.matrix) for a in self.menu)
        axes = tuple(map(axis_classes, rows))
        if isinstance(ens, BetaMixture) and any(None in c for c in axes):
            raise ValidationError(
                f"agent {self.id!r}: a Beta-count belief needs likelihoods theta or "
                "1 - theta, and some action's is neither; run such an action on the "
                "belief's plain prior grid (BetaMixture.prior)")
        # The embedding is affine, so an outcome's probability is its row of
        # coefficients (constant, gradient) dotted with (1, theta).
        self.kernel_rows = tuple(affine_rows(ens.region, r) for r in rows)
        self.counts = {}
        self.evidence = Evidence(rows, axes, self.counts, self.kernel_rows)
        # each menu action's utility row and kernel rows, as the choice reads them
        self._choices = tuple((self.utility_rows[a.name].tolist(), k)
                              for a, k in zip(self.menu, self.kernel_rows))
        self._ball = isinstance(ens.region, QubitBall)
        self.menu_index = {a.name: i for i, a in enumerate(self.menu)}
        self._points = None  # the point set the likelihood cache belongs to
        self._probs = None  # its reference probabilities
        self._likes = {}  # (action index, outcome) -> likelihood at those points
        self._mean_of = None  # the ensemble whose mean is cached
        self._mean = None

    def action(self, name: str) -> Action:
        if name not in self.menu_index:
            raise ValidationError(f"agent {self.id!r}: no action named {name!r}")
        return self.menu[self.menu_index[name]]

    def mean(self) -> tuple[float, ...]:
        """Posterior mean of the current ensemble as Python floats, computed
        once per ensemble (updates and refreshes return a new one)."""
        ens = self.ensemble
        if self._mean_of is not ens:
            self._mean_of = ens
            self._mean = ((ens.mean(),) if isinstance(ens, BetaMixture)
                          else tuple(posterior_mean(ens).tolist()))
        return self._mean

    def likelihood(self, a: int, j: int):
        """p(j | theta) of menu action ``a`` in the form ``bayes_update``
        takes for the ensemble: its values at the points, or for a
        ``BetaMixture`` its ``axis_classes`` class (theta or 1 - theta)."""
        if isinstance(self.ensemble, BetaMixture):
            return self.evidence.axes[a][j]
        points = self.ensemble.points
        if points is not self._points:
            self._points = points
            self._probs = None if self._ball else ref_probs_of_points(self.postulate, points)
            self._likes = {}
        like = self._likes.get((a, j))
        if like is None:
            like = self._likes[a, j] = readonly(
                ball_likelihoods(self.kernel_rows[a][j], points) if self._ball
                else likelihoods(self._probs, self.evidence.rows[a][j]))
        return like


def predictive(agent: Agent, action: Action) -> np.ndarray:
    """Posterior predictive q(j) = sum_i w_i p(j | theta_i) for a menu action.

    The likelihood is affine in theta, so the sum equals the likelihood at the
    posterior mean: the action's ``kernel_rows`` at (1, mean), one point
    instead of the whole ensemble.
    """
    rows = agent.kernel_rows[agent.menu_index[action.name]]
    return np.array(outcome_probs(rows, [1.0, *agent.mean()]))


def expected_utility(agent: Agent, action: Action) -> float:
    """The utility row dotted with the predictive, added left to right."""
    utility, rows = agent._choices[agent.menu_index[action.name]]
    return _utility(utility, rows, [1.0, *agent.mean()])


def _utility(utility, rows, point) -> float:
    return dot(utility, outcome_probs(rows, point))


def choose_action(agent: Agent, rng: np.random.Generator) -> int:
    """The menu index of an expected-utility maximizer; ties broken uniformly
    at random.

    Without a utility table every expected utility equals ``DEFAULT_UTILITY``
    up to rounding, so all actions tie and the tie-break index is drawn
    directly.  Otherwise each expected utility is a left-to-right sum over
    Python floats (``core_math.dot``) of the utility row times the
    predictive at (1, mean).
    """
    menu = agent.menu
    if len(menu) == 1:
        return 0
    if not agent.utility.table:
        return int(rng.integers(len(menu)))
    point = [1.0, *agent.mean()]
    utilities = [_utility(utility, rows, point) for utility, rows in agent._choices]
    best = max(utilities) - TIE_TOL
    tied = [i for i, u in enumerate(utilities) if u >= best]
    return tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]


def broadcast_point(agent: Agent) -> tuple[float, ...]:
    """The signal an agent emits: the mean of their current belief density,
    as Python floats."""
    return agent.mean()
