"""The interaction engine: exogenous sources, expectation and prior sampling
between agent pairs, regularizations across species, and the run driver.

In one expectation-sampling step both parties broadcast the mean of their
current beliefs (the first-subsystem marginal of an exchangeable prior), both
choose an action by expected utility, and each receives an outcome drawn from
their own postulate evaluated at the *other's* broadcast.  Updates then happen
simultaneously: broadcasts are the pre-update means on both sides, so the step
has no ordering artifact.  An exogenous source is the degenerate case of a
party whose belief is a delta function and who never updates, which is why a
pair run against a delta source reproduces the single-agent run exactly under
shared seeds.

Prior sampling replaces the broadcast mean with a weighted draw from the
broadcaster's ensemble.  It may be run simultaneously or turn based; with
delta-mixture priors it can polarize beliefs to the point where a further
outcome is impossible, which surfaces as ``ImpossibleOutcomeError``.

Cross-species regularizations (a qubit party facing a two-outcome party):

* ``z_projection``: a Bloch broadcast (a, b, c) becomes theta = (1 + c) / 2,
  the Born probability of the +1 outcome of a Pauli Z measurement;
* ``z_embedding``: a scalar broadcast theta becomes the Bloch point
  (0, 0, 2 theta - 1), a state on the z axis;
* ``support_restriction``: identity at interaction time; the constraint lives
  in the prior, whose support must already sit inside the quantum region.

Validation happens when agents and the ``RunSpec`` are built, never per step:
agents check their actions and priors; the spec checks its fields, the slot
rules a config shares (``slot_problems``) and its source points, and resolves
each slot's regularization to one function.  Agent broadcasts (means of, or
draws from, valid ensembles) are valid by construction.  ``regularize`` and
``sample_outcome`` are the checked forms of the same maps and draw.

A step is then a flat kernel over agent-owned state, and every phase that
depends on the kind of belief is the belief's own method
(``inference.BetaMixture`` or ``inference.ParticleEnsemble``), so the engine
never asks which kind an agent holds:

* choice (``agents``): the agent's expected utilities at the belief's mean,
  its ``mean_floats``, computed once per belief;
* outcome (here): the receiver's stored rows ``R[j] @ Phi`` at the embedded
  broadcast (``postulate.outcome_probs`` on the agent's ``evidence.kernel``),
  drawn with one uniform of the agent's outcome stream (``rng.draw_outcome``;
  ``rng.UniformBlocks`` draws those uniforms in blocks of up to 1,024, the
  same doubles as scalar draws);
* update (the belief): ``bayes_update`` of the belief by (evidence, menu
  index, outcome), which reads the outcome's class for a count belief and
  its kernel row at the points, kept with the point set, for a weighted
  ensemble; then the agent's evidence counts the outcome
  (``Evidence.add``), keyed by (menu index, outcome), which the refresh,
  the metrics and the trace read;
* refresh (the belief): ``maybe_resample``;
* record (here): one ``posterior_summary`` per agent, the belief's
  ``summary``, and the metrics.

A broadcast travels as Python floats, from the sender's mean (``Agent.mean``)
or drawn point through the receiver's regularizer to ``outcome_probs``.
Which slots are agents, and so which broadcasts a step computes, is resolved
once per run.

``run(spec, record_steps)`` records a step (posterior summaries, ESS,
metrics) only if it is named or the last one; ``None``, the default, records
every step.  A recorded step takes one ``posterior_summary`` per agent
(mean, covariance, ellipsoid and ESS), and every ball metric is a trace
distance of two qubit operators, half the distance between their Bloch
vectors, with no operator built.  So ``batch``, which reports two steps,
skips the summaries of the other thousand.  An unrecorded step changes
nothing downstream: every broadcast is the belief's ``mean_floats``, the
value the summary's mean takes.  What a run keeps for plots is what the
belief's ``curve`` gives: 1-D beliefs at the snapshot steps, and the final
points and weights of a belief without a curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agents import Agent, broadcast_point, choose_action
from .core_math import is_int, one_of
from .errors import ImpossibleOutcomeError, ValidationError
from .inference import bayes_update, maybe_resample, posterior_summary
from .postulate import (
    Interval,
    PhysicalPostulate,
    QubitBall,
    apply_postulate,
    outcome_probs,
    ref_probs_of_points,
    region_with,
    where_outside,
)
from .quantum import frequency_vector
from .rng import UniformBlocks, agent_streams, draw_index, draw_outcome

# Not called here; bound because perfbench's span recorder wraps
# ``interaction.trace_distance`` by name.
from .quantum import trace_distance  # noqa: F401

EXPECTATION = "expectation"
PRIOR_SIMULTANEOUS = "prior_simultaneous"
PRIOR_TURNS = "prior_turns"
MODES = (EXPECTATION, PRIOR_SIMULTANEOUS, PRIOR_TURNS)


@dataclass(frozen=True)
class ExogenousSource:
    """An infinitely confident party: broadcasts a fixed point, never updates."""

    id: str
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).ravel())


# Each regularization -> (receiver space, sender space, unchecked map of a
# broadcast into the receiver's space); ``none`` keeps the receiver's space.
REGULARIZERS = {
    "none": (None, None, lambda p: p),
    "z_projection": (Interval, QubitBall, lambda p: ((1.0 + p[2]) / 2.0,)),
    "z_embedding": (QubitBall, Interval, lambda p: (0.0, 0.0, 2.0 * p[0] - 1.0)),
    "support_restriction": (QubitBall, QubitBall, lambda p: p),
}


def regularize(kind: str, point: np.ndarray) -> np.ndarray:
    """Map an incoming broadcast into the receiver's parameter space, after
    checking the kind and that a map between species gets a point of the
    sender's size (a Bloch point or a scalar).  Returns an array."""
    if kind not in REGULARIZERS:
        raise ValidationError(f"unknown regularization {kind!r}")
    receiver, sender, to_receiver = REGULARIZERS[kind]
    if sender is not receiver:
        point = np.asarray(point, dtype=float).ravel()
        if point.size != sender.dim:
            raise ValidationError(f"{kind} expects a point of size {sender.dim}, "
                                  f"got {point.size}")
    return np.asarray(to_receiver(point), dtype=float)


def sample_outcome(post: PhysicalPostulate, broadcast: np.ndarray, R,
                   regularization: str, rng: np.random.Generator) -> int:
    """Draw an outcome with the probabilities the receiver's postulate assigns
    at the (regularized) broadcast point.

    The checked form of the run loop's outcome kernel: ``regularize`` and
    ``apply_postulate`` check the point and the action.
    """
    point = regularize(regularization, broadcast)
    q = apply_postulate(post, ref_probs_of_points(post, point)[0], R)
    return draw_outcome(q.tolist(), rng)


@dataclass(frozen=True)
class AgentStepRecord:
    agent_id: str
    action: str
    outcome: int
    mean: tuple[float, ...]
    std: tuple[float, ...]
    semi_major: float
    ess: float


@dataclass(frozen=True)
class InteractionRecord:
    step: int
    agents: tuple[AgentStepRecord | None, ...]
    metrics: dict


@dataclass
class Trace:
    """Everything a run produced: per-step records plus final summaries and
    the raw material for plots (grid snapshots as (step, belief) pairs,
    final point clouds)."""

    scenario: str
    seed: int
    config: dict
    mode: str
    records: list = field(default_factory=list)
    initial: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    clouds: dict = field(default_factory=dict)


def _source_point(slot, summary) -> list[float]:
    return (summary.mean if _is_agent(slot) else slot.point).tolist()


def _mean_state(summary) -> list[float]:
    # the mean Bloch vector, scaled onto the sphere when rounding puts it outside
    x, y, z = summary.mean.tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    return [x / norm, y / norm, z / norm] if norm > 1.0 else [x, y, z]


def _half_distance(r, s) -> float:
    # The trace distance of the qubit operators (I + r.sigma)/2 and
    # (I + s.sigma)/2: their difference (r - s).sigma/2 has eigenvalues
    # +-|r - s|/2, positive or not (Nielsen and Chuang, section 9.2.1).  The
    # squares are added left to right.
    dx, dy, dz = r[0] - s[0], r[1] - s[1], r[2] - s[2]
    return 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)


def _coin_tomography(slots, summaries, step: int) -> dict:
    # Slot 0 is the learner; slot 1 is the source side (an exogenous source or
    # the delta-prior agent standing in for one).
    mean = summaries[0].mean[0]
    freq = sum(c for (_a, j), c in slots[0].evidence.counts.items() if j == 0) / step
    return {
        "dist_to_frequency": abs(mean - freq),
        "dist_to_source": abs(mean - _source_point(slots[1], summaries[1])[0]),
        "running_frequency": freq,
    }


def _qubit_tomography(slots, summaries, step: int) -> dict:
    # Each metric is the trace distance of two qubit operators, ``_half_distance``
    # of their Bloch vectors: the mean state, the source point and the
    # running-frequency vector (``frequency_vector``, the Bloch vector of the
    # possibly non-positive ``frequency_operator``).
    state = _mean_state(summaries[0])
    named = {(slots[0].menu[a].name, j): c for (a, j), c in slots[0].evidence.counts.items()}
    freq, _missing = frequency_vector(
        {ax.lower(): (named.get((ax, 0), 0), named.get((ax, 1), 0)) for ax in "XYZ"})
    return {
        "dist_to_frequency": _half_distance(state, freq),
        "dist_to_source": _half_distance(state, _source_point(slots[1], summaries[1])),
    }


def _z_marginal(slots, summaries, step: int) -> dict:
    # The trace distance of two states on the z axis, half their z gap:
    # the embedded interval broadcast and the ball agent's z marginal.
    ball = 0 if summaries[0].mean.size == 3 else 1
    c_ball = min(max(float(summaries[ball].mean[2]), -1.0), 1.0)
    embedded = REGULARIZERS["z_embedding"][2](summaries[1 - ball].mean)[2]
    return {"z_gap": 0.5 * abs(float(embedded) - c_ball)}


# Each metrics kind -> (the (slot 0, slot 1) kinds it reads, None for any; its
# function of the slots, their posterior summaries and the step).
METRICS = {
    "none": (None, lambda slots, summaries, step: {}),
    "coin_tomography": (("(interval agent, interval agent)",
                         "(interval agent, interval source)"), _coin_tomography),
    "qubit_tomography": (("(ball agent, ball agent)", "(ball agent, ball source)"),
                         _qubit_tomography),
    "pair_1d": (("(interval agent, interval agent)",), lambda slots, summaries, step: {
        "mean_gap": abs(summaries[0].mean[0] - summaries[1].mean[0])}),
    "pair_ball": (("(ball agent, ball agent)",), lambda slots, summaries, step: {
        "mean_trace_distance": _half_distance(_mean_state(summaries[0]),
                                              _mean_state(summaries[1]))}),
    "z_marginal": (("(ball agent, interval agent)", "(interval agent, ball agent)"),
                   _z_marginal),
}


# A RunSpec's field -> (check, message about its value ``v``); a config shares
# the first three.
RUN_FIELDS = {
    "seed": (is_int(0), "seed must be an integer >= 0, got {v!r}"),
    "n_steps": (is_int(0), "n_steps must be an integer >= 0, got {v!r}"),
    "mode": (one_of(MODES), "unknown interaction mode {v!r}"),
    "slots": (lambda v: len(v) == 2 and all(isinstance(s, (Agent, ExogenousSource)) for s in v),
              "exactly two slots, each an agent or a source, are supported"),
    "incoming_reg": (lambda v: len(v) == 2 and all(map(one_of(REGULARIZERS), v)),
                     "incoming_reg must name a regularization per slot, got {v!r}"),
    "metrics_kind": (one_of(METRICS), "unknown metrics kind {v!r}"),
}


@dataclass
class RunSpec:
    """A fully built scenario, ready to execute; building one raises one
    ``ValidationError`` that lists every violation of its rules."""

    scenario: str
    seed: int
    n_steps: int
    slots: tuple
    incoming_reg: tuple[str, str]
    mode: str = EXPECTATION
    metrics_kind: str = "none"
    config: dict = field(default_factory=dict)
    regularizers: tuple = field(init=False, repr=False)  # one map per slot

    def __post_init__(self):
        problems = [message.format(v=getattr(self, name))
                    for name, (check, message) in RUN_FIELDS.items()
                    if not check(getattr(self, name))]
        if not problems:
            kinds = []
            for slot in self.slots:
                if _is_agent(slot):
                    kinds.append((slot.id, slot.ensemble.region.space, "agent"))
                    continue
                own, space = source_rules(slot.point)
                problems += [f"source {slot.id!r}: {msg}" for msg in own]
                kinds.append((slot.id, space, "source"))
            problems += slot_problems(kinds, self.incoming_reg, self.scenario,
                                      self.metrics_kind)
        if problems:
            raise ValidationError("; ".join(problems))
        self.regularizers = tuple(REGULARIZERS[reg][2] for reg in self.incoming_reg)


def slot_problems(slots, regs, scenario, metrics_kind: str) -> list[str]:
    """Every violation of the slot rules (distinct ids, each agent's
    regularization maps the other slot's space onto its own, the metrics read
    the slots) by two slots given as (id, space, "agent" or "source"), the
    regularizations they receive by (an unknown one unchecked) and the metrics kind.
    A slot of space None (a malformed prior or point) has its id checked only."""
    (first, *_), (second, *_) = slots
    problems = [f"id {first!r} is used by more than one agent or source; "
                "ids must be distinct"] if first == second else []
    if any(space is None for _id, space, _role in slots):
        return problems
    for (slot_id, mine, role), (_id, other, _role), reg in zip(slots, slots[::-1], regs):
        if role == "source" or not one_of(REGULARIZERS)(reg):
            continue
        receiver, sender, _map = REGULARIZERS[reg]
        need = (receiver.space, sender.space) if receiver else (mine, mine)
        if need != (mine, other):
            problems.append(f"agent {slot_id!r}: regularization {reg!r} maps the {need[1]} "
                            f"onto the {need[0]}, not the {other} onto the {mine}")
    takes = METRICS[metrics_kind][0]
    got = "({} {}, {} {})".format(*slots[0][1:], *slots[1][1:])
    if takes is not None and got not in takes:
        problems.append(f"scenario {scenario!r} takes {' or '.join(takes)}, got {got}")
    return problems


def _is_agent(slot) -> bool:
    return isinstance(slot, Agent)


def source_rules(point) -> tuple[list[str], str | None]:
    """A source point's size and range, and its space (None when it breaks them).
    The slot rules match the space to the receiver's, so a point in range is a
    valid state for it."""
    region = region_with(dim=len(point))
    if region is None:
        return ["point must have 1 or 3 components"], None
    where = where_outside(np.asarray([point], dtype=float))
    return ([f"point outside {where}"], None) if where else ([], region.space)


def _summary_dict(agent: Agent) -> dict:
    s = posterior_summary(agent.ensemble)
    return {
        "mean": [float(x) for x in s.mean],
        "std": [float(x) for x in s.std],
        "semi_major": s.semi_major,
        "covariance": [[float(x) for x in row] for row in s.covariance],
        "axis_lengths": [float(x) for x in s.axis_lengths],
        "ess": s.ess,
    }


def _receive_and_update(agent: Agent, point, streams, step: int) -> tuple[str, int]:
    # ``point`` is the broadcast as Python floats, already mapped into the
    # agent's parameter space by its slot's regularizer.
    a = choose_action(agent, streams["choice"])
    evidence = agent.evidence
    q = outcome_probs(evidence.kernel[a], [1.0, *point])
    outcome = draw_outcome(q, streams["outcome"])
    try:
        ens = bayes_update(agent.ensemble, evidence, a, outcome)
    except ImpossibleOutcomeError as err:
        err.step = step
        err.agent_id = agent.id
        raise
    evidence.add(a, outcome)
    agent.ensemble = maybe_resample(ens, evidence, streams["resample"])
    return agent.menu[a].name, outcome


def run(spec: RunSpec, record_steps=None) -> Trace:
    """Execute a two-slot scenario and return its trace.

    ``record_steps`` is the set of steps whose records the trace keeps, the
    last step always among them; ``None`` keeps every step.  Grid snapshots
    and ``trace.final`` do not depend on it.

    Deterministic: identical (config, seed) produce identical traces, including
    every sampled outcome, and a record kept under ``record_steps`` equals the
    record of the same step in the full run.
    """
    slots = spec.slots
    streams = [agent_streams(spec.seed, i) for i in range(2)]
    for own in streams:  # an agent draws one outcome uniform per step
        own["outcome"] = UniformBlocks(own["outcome"], spec.n_steps)
    trace = Trace(spec.scenario, spec.seed, dict(spec.config), spec.mode)
    keep = None if record_steps is None else set(record_steps) | {spec.n_steps}
    agents = [s for s in slots if _is_agent(s)]

    # beliefs are immutable, so a snapshot keeps what a belief's ``curve``
    # gives (itself, whose grid weights emission reads), and the final belief
    # of an agent without a curve is kept as a cloud of read-only arrays
    def snapshot(step):
        for agent in agents:
            if (curve := agent.ensemble.curve()) is not None:
                trace.curves.setdefault(agent.id, []).append((step, curve))

    trace.initial = {s.id: _summary_dict(s) for s in agents}
    snapshot(0)
    snapshot_steps = _snapshot_steps(spec.n_steps)
    # Resolved once per run: the (sender, receiver, whether the sender is an
    # agent) triples whose receiver is an agent, in update order, and each
    # slot's broadcast, fixed as Python floats for a source.
    order = ((0, 1), (1, 0)) if spec.mode == PRIOR_TURNS else ((1, 0), (0, 1))
    pairs = tuple((sender, receiver, _is_agent(slots[sender])) for sender, receiver in order
                  if _is_agent(slots[receiver]))
    sent = [None if _is_agent(s) else tuple(s.point.tolist()) for s in slots]
    for step in range(1, spec.n_steps + 1):
        step_agents = _step(spec, pairs, sent, streams, step)
        if keep is None or step in keep:
            trace.records.append(_record(spec, slots, step_agents, step))
        if step in snapshot_steps:
            snapshot(step)

    trace.clouds = {s.id: (s.ensemble.points, s.ensemble.weights)
                    for s in agents if s.ensemble.curve() is None}
    trace.final = {
        "summaries": {s.id: _summary_dict(s) for s in agents},
        "outcome_counts": [
            {f"{s.menu[a].name}:{j}": c for (a, j), c in s.evidence.counts.items()}
            if _is_agent(s) else {} for s in slots],
        "last_metrics": trace.records[-1].metrics if trace.records else {},
    }
    return trace


def _record(spec, slots, step_agents, step) -> InteractionRecord:
    summaries = [posterior_summary(s.ensemble) if _is_agent(s) else None
                 for s in slots]
    # ``step_agents`` holds each agent's (action name, outcome), None for a source
    rec_agents = tuple(
        None if s is None else AgentStepRecord(
            slot.id, *taken, mean=tuple(float(x) for x in s.mean),
            std=tuple(float(x) for x in s.std), semi_major=s.semi_major, ess=s.ess)
        for slot, taken, s in zip(slots, step_agents, summaries))
    metrics = METRICS[spec.metrics_kind][1](slots, summaries, step)
    return InteractionRecord(step, rec_agents, {k: float(v) for k, v in metrics.items()})


def _step(spec, pairs, sent, streams, step):
    # Simultaneous modes take both broadcasts before either update, and slot 0
    # updates first (so it is the agent an ImpossibleOutcomeError names when
    # both outcomes are impossible).  Turn mode takes each broadcast as it is
    # sent: slot 0 broadcasts to slot 1, which updates, then slot 1 broadcasts
    # its refreshed beliefs back to slot 0.  A broadcast that no agent
    # receives (an agent's, sent to a source) is not computed.
    slots, mode = spec.slots, spec.mode
    if mode != PRIOR_TURNS:
        for sender, _receiver, live in pairs:
            if live:
                sent[sender] = (broadcast_point(slots[sender]) if mode == EXPECTATION
                                else _drawn_broadcast(slots[sender], streams[sender]))
    results = [None, None]
    for sender, receiver, live in pairs:
        if live and mode == PRIOR_TURNS:
            sent[sender] = _drawn_broadcast(slots[sender], streams[sender])
        results[receiver] = _receive_and_update(
            slots[receiver], spec.regularizers[receiver](sent[sender]), streams[receiver], step)
    return results


def _drawn_broadcast(agent: Agent, streams) -> list[float]:
    # The prior sampling modes' broadcast: a point drawn from the ensemble.
    ens = agent.ensemble
    return ens.points[draw_index(ens.weights, streams["broadcast"])].tolist()


def _snapshot_steps(n_steps: int) -> set[int]:
    quarters = {round(n_steps * k / 4) for k in range(1, 5)}
    return {s for s in quarters if s >= 1}
