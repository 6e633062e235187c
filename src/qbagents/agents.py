"""Rational agents: action menus, utilities, predictive distributions, and
expected-utility choice.

An agent owns a physical postulate, a belief over the matching parameter
region, a menu of actions (conditional probability matrices), and a utility
function over (action, outcome) pairs.  Choice maximizes expected utility;
ties within ``TIE_TOL`` are broken uniformly at random, which is what turns a
flat utility function into uniformly random action choice.  The agent owns
the choice and its ``evidence`` (``inference.Evidence``), the one record of
what it resolved when it was built and what it has observed since; the
belief (an ``inference.BetaMixture`` or ``inference.ParticleEnsemble``) owns
every phase that depends on its kind, the update, the refresh, the mean and
the summary, and reads the agent only through that evidence (see
``inference``).

Everything the step loop needs is validated and precomputed when the agent is
built, so a step does only arithmetic:

* every action must give nonnegative probabilities in every valid state
  (``min_likelihood``), and the belief must accept the menu (its
  ``check_agent``): a particle ensemble must start uniform and not be an
  update's or a refresh's result, the prior that resample-move assumes, and
  a ``BetaMixture`` needs every likelihood to be theta or 1 - theta (its
  ``prior`` grid runs other rows);
* each action's utility row is checked once and kept, as Python floats,
  with its kernel rows for the choice;
* each action's likelihood rows ``R[j] @ Phi`` are computed once
  (``Evidence.of``), classified by ``axis_classes`` (``evidence.axes``), and
  composed with the region's affine embedding as Python floats
  (``evidence.kernel``), the one form every likelihood is computed from, on
  either region: ``postulate.outcome_probs`` evaluates it at (1, theta);
  both products are left-to-right sums (``postulate.likelihood_rows``,
  ``affine_rows``), which no BLAS kernel rounds;
* the posterior mean is the belief's ``mean_floats``, computed once per
  belief (updates and refreshes return a new one), and the predictive is the
  likelihood at that mean (exact, since the likelihood is affine in the
  parameter), the action's kernel rows at (1, mean), so a choice costs a
  few float products instead of a pass over the ensemble; each expected
  utility is the utility row times that predictive, added left to right
  over Python floats;
* a single-action menu draws nothing, and a menu without a utility table,
  whose expected utilities all equal ``DEFAULT_UTILITY``, draws the
  tie-break index directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import PROB_TOL, as_cond_prob_matrix, dot
from .errors import ValidationError
from .inference import BetaMixture, Evidence, ParticleEnsemble
from .postulate import PhysicalPostulate, ensemble_compatible, min_likelihood, outcome_probs

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
    """Postulate + belief + action menu + utility function.

    ``ensemble`` is the belief, a ``ParticleEnsemble`` or a ``BetaMixture``,
    and ``evidence`` the agent's one record of its menu's likelihoods and of
    the (menu index, outcome) cells it has observed (``inference.Evidence``).
    """

    id: str
    postulate: PhysicalPostulate
    ensemble: ParticleEnsemble | BetaMixture
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
        utilities = []  # each action's checked utility row, read by every choice
        for action in self.menu:
            if action.matrix.shape[1] != self.postulate.n_outcomes:
                raise ValidationError(
                    f"agent {self.id!r}: action {action.name!r} has reference "
                    f"dimension {action.matrix.shape[1]}, postulate expects "
                    f"{self.postulate.n_outcomes}")
            utilities.append(self.utility.row(action).tolist())
            lowest = min_likelihood(self.postulate, action.matrix)
            if lowest < -PROB_TOL:
                raise ValidationError(
                    f"agent {self.id!r}: action {action.name!r} gives a negative "
                    f"probability ({lowest:.3e}); not physically valid for this "
                    "postulate")
        self.evidence = Evidence.of(self.postulate, ens.region, [a.matrix for a in self.menu])
        ens.check_agent(self.id, self.evidence.axes)
        # each menu action's utility row and kernel rows, as the choice reads them
        self._choices = tuple(zip(utilities, self.evidence.kernel))
        self.menu_index = {a.name: i for i, a in enumerate(self.menu)}

    def action(self, name: str) -> Action:
        if name not in self.menu_index:
            raise ValidationError(f"agent {self.id!r}: no action named {name!r}")
        return self.menu[self.menu_index[name]]

    def mean(self) -> tuple[float, ...]:
        """Posterior mean of the current belief as Python floats, its
        ``mean_floats`` (computed once per belief; updates and refreshes
        return a new one)."""
        return self.ensemble.mean_floats()


def predictive(agent: Agent, action: Action) -> np.ndarray:
    """Posterior predictive q(j) = sum_i w_i p(j | theta_i) for a menu action.

    The likelihood is affine in theta, so the sum equals the likelihood at the
    posterior mean: the action's ``evidence.kernel`` rows at (1, mean), one
    point instead of the whole ensemble.
    """
    rows = agent.evidence.kernel[agent.menu_index[action.name]]
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
    point = [1.0, *agent.ensemble.mean_floats()]
    utilities = [_utility(utility, rows, point) for utility, rows in agent._choices]
    best = max(utilities) - TIE_TOL
    tied = [i for i, u in enumerate(utilities) if u >= best]
    return tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]


def broadcast_point(agent: Agent) -> tuple[float, ...]:
    """The signal an agent emits: the mean of their current belief density,
    as Python floats."""
    return agent.ensemble.mean_floats()
