"""Scenario registry, configuration handling, and the batch runner.

Configs are JSON documents with a flat schema:

    {
      "scenario": "coin_tomography",
      "seed": 42,
      "n_steps": 1000,
      "interaction": "expectation",
      "summary_interval": 10,
      "agents": [
        {"id": "agent", "postulate": "classical", "n_outcomes": 2,
         "prior": {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0},
         "menu": "flip", "utility": {"kind": "uniform"},
         "regularization": "none", "n_particles": null},
        {"id": "source", "source": true, "point": [0.75]}
      ],
      "out_dir": null
    }

``parse_config`` validates everything up front and reports the complete list
of violations at once.  Registry entries provide full default configs, so
``parse_config(emit_config(default))`` is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .agents import Action, Agent, UtilityFn
from .errors import ConfigError, ImpossibleOutcomeError, QBAgentsError, ValidationError
from .inference import (
    DEFAULT_BALL_PARTICLES,
    delta_ensemble,
    grid_ensemble,
    sample_uniform,
)
from .core_math import DEFAULT_GRID_POINTS
from .interaction import (
    EXPECTATION,
    MODES,
    REGULARIZERS,
    ExogenousSource,
    RunSpec,
    Trace,
    run,
)
from .postulate import (
    Interval,
    QubitBall,
    classical_postulate,
    phi_matrix,
    quantum_postulate,
    sqrt_phi,
)
from .quantum import conditional_matrix, pauli_povm, sic_d2
from .rng import stream


# ---------------------------------------------------------------------------
# Priors

def semicircle_pdf(theta):
    """Semicircular density centered at 1/2 with radius 1/2 (support [0, 1])."""
    t = np.asarray(theta, dtype=float)
    return np.sqrt(np.clip(0.25 - (t - 0.5) ** 2, 0.0, None))


def triangular_pdf(theta, peak: float = 0.7):
    """Triangular density on [0, 1] peaked at ``peak``."""
    t = np.asarray(theta, dtype=float)
    up = np.where(t <= peak, t / peak, 0.0)
    down = np.where(t > peak, (1.0 - t) / (1.0 - peak), 0.0)
    return up + down


PRIOR_KINDS = ("grid_uniform", "grid_pdf", "grid_beta", "uniform_ball",
               "delta", "two_sided_coin", "four_delta_xz")
GRID_PDFS = {"semicircle": semicircle_pdf, "triangular": triangular_pdf}

FOUR_DELTA_POINTS = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                     [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


def _prior_space(prior: dict) -> str:
    kind = prior.get("kind")
    if kind in ("grid_uniform", "grid_pdf", "grid_beta", "two_sided_coin"):
        return "interval"
    if kind in ("uniform_ball", "four_delta_xz"):
        return "ball"
    if kind == "delta":
        pts = _delta_points(prior)
        if pts is None:
            return "unknown"
        return "ball" if pts.shape[1] == 3 else "interval"
    return "unknown"


def _delta_points(prior: dict) -> np.ndarray | None:
    """A delta prior's points as an (n, 1) or (n, 3) array, or None unless
    they are a list of finite numbers or a list of 1- or 3-component lists of
    them."""
    pts = prior.get("points", [])
    if not isinstance(pts, (list, tuple)):
        return None
    if all(map(_is_number, pts)):
        return np.asarray(pts, dtype=float).reshape(-1, 1)
    if not all(isinstance(p, (list, tuple)) and all(map(_is_number, p)) for p in pts):
        return None
    if len({len(p) for p in pts}) != 1 or len(pts[0]) not in (1, 3):
        return None
    return np.asarray(pts, dtype=float)


def _build_ensemble(prior: dict, n_particles, init_rng):
    kind = prior["kind"]
    if kind == "grid_uniform":
        region = Interval(prior.get("lo", 0.0), prior.get("hi", 1.0))
        return grid_ensemble(region, n_particles or DEFAULT_GRID_POINTS)
    if kind == "grid_pdf":
        pdf = GRID_PDFS[prior["name"]]
        extra = {k: v for k, v in prior.items() if k not in ("kind", "name")}
        return grid_ensemble(Interval(), n_particles or DEFAULT_GRID_POINTS,
                             pdf=lambda t: pdf(t, **extra))
    if kind == "grid_beta":
        from .core_math import BetaParams, beta_pdf
        params = BetaParams(prior["alpha"], prior["beta"])
        return grid_ensemble(Interval(), n_particles or DEFAULT_GRID_POINTS,
                             pdf=lambda t: beta_pdf(t, params))
    if kind == "uniform_ball":
        return sample_uniform(QubitBall(), n_particles or DEFAULT_BALL_PARTICLES,
                              init_rng)
    if kind == "delta":
        pts = _delta_points(prior)
        weights = prior.get("weights") or [1.0 / len(pts)] * len(pts)
        region = QubitBall() if pts.shape[1] == 3 else Interval(0.0, 1.0)
        return delta_ensemble(pts, weights, region)
    if kind == "two_sided_coin":
        return delta_ensemble([[0.0], [1.0]], [0.5, 0.5], Interval(0.0, 1.0))
    if kind == "four_delta_xz":
        return delta_ensemble(FOUR_DELTA_POINTS, [0.25] * 4, QubitBall())
    raise ValidationError(f"unknown prior kind {kind!r}")


# ---------------------------------------------------------------------------
# Menus

def _pauli_actions(axes: str = "XYZ") -> tuple[Action, ...]:
    ref = sic_d2()
    return tuple(Action(ax, conditional_matrix(pauli_povm(ax), ref), ("+1", "-1"))
                 for ax in axes)


def _sharp_pauli_actions() -> tuple[Action, ...]:
    # Sharp two-outcome actions: Pauli conditional matrices pushed through the
    # principal square root of Phi.  Valid for a classical agent only.
    root = sqrt_phi(phi_matrix(sic_d2()))
    return tuple(Action(a.name, a.matrix @ root, a.outcomes)
                 for a in _pauli_actions())


def _menu(name: str) -> tuple[Action, ...]:
    if name == "flip":
        return (Action("flip", np.eye(2), ("heads", "tails")),)
    if name == "z_reference":
        return (Action("Z", np.eye(2), ("+1", "-1")),)
    if name == "paulis":
        return _pauli_actions()
    if name == "paulis_zx":
        return _pauli_actions("ZX")
    if name == "sharp_paulis":
        return _sharp_pauli_actions()
    if name == "sic_reference":
        ref = sic_d2()
        return (Action("sic", conditional_matrix(ref.effects, ref),
                       ("1", "2", "3", "4")),)
    raise ValidationError(f"unknown menu {name!r}")


MAX_PARTICLES = int(np.iinfo(np.intp).max)  # the largest array length numpy accepts

MENUS_BY_N = {
    2: ("flip", "z_reference"),
    4: ("paulis", "paulis_zx", "sharp_paulis", "sic_reference"),
}


# ---------------------------------------------------------------------------
# Config dataclasses

@dataclass(frozen=True)
class AgentSpec:
    id: str
    postulate: str
    n_outcomes: int
    prior: dict
    menu: str
    utility: dict = field(default_factory=lambda: {"kind": "uniform"})
    regularization: str = "none"
    n_particles: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SourceSpec:
    id: str
    point: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"id": self.id, "source": True, "point": list(self.point)}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int
    n_steps: int
    agents: tuple
    interaction: str = EXPECTATION
    summary_interval: int = 10
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "agents": [a.to_dict() for a in self.agents]}


CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}
SOURCE_KEYS = {"id", "source", "point"}
AGENT_KEYS = {f.name for f in fields(AgentSpec)} | {"source"}


def _shape_problems(data) -> list[str]:
    """What keeps a JSON document from being read as a config: a root, an
    ``agents`` list or a block that is not of its JSON type, and keys the
    schema does not know."""
    if not isinstance(data, dict):
        return ["config root must be a JSON object"]
    problems = [f"unknown config key {k!r}" for k in data if k not in CONFIG_KEYS]
    blocks = data.get("agents", [])
    if not isinstance(blocks, list):
        return problems + [f"agents must be a list of objects, got {blocks!r}"]
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            problems.append(f"agents[{i}] must be an object, got {block!r}")
            continue
        known = SOURCE_KEYS if block.get("source") else AGENT_KEYS
        problems += [f"agents[{i}]: unknown key {k!r}" for k in block if k not in known]
        problems += [f"agents[{i}]: {k} must be an object, got {block[k]!r}"
                     for k in ("prior", "utility")
                     if k in known and k in block and not isinstance(block[k], dict)]
    return problems


def config_from_dict(data: dict) -> ScenarioConfig:
    problems = _shape_problems(data)
    if problems:
        raise ConfigError(problems)
    agents = []
    for block in data.get("agents", []):
        if block.get("source"):
            point = block.get("point", [])
            agents.append(SourceSpec(block.get("id", "source"), tuple(point)
                                     if isinstance(point, (list, tuple)) else point))
        else:
            given = {k: v for k, v in block.items() if k != "source"}
            agents.append(AgentSpec(**{"id": "agent", "postulate": "", "n_outcomes": 0,
                                       "prior": {}, "menu": "", **given}))
    return ScenarioConfig(**{"scenario": "", "seed": 0, "n_steps": 0, **data,
                             "agents": tuple(agents)})


def emit_config(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON config; raises ``ConfigError`` carrying
    every violation found."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"invalid JSON: {err}"]) from err
    config = config_from_dict(data)
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    return config


def validate_config(config: ScenarioConfig) -> list[str]:
    """All violations in the config; empty when valid."""
    problems: list[str] = []
    if not isinstance(config.scenario, str) or config.scenario not in REGISTRY:
        problems.append(f"unknown scenario {config.scenario!r}")
    if config.out_dir is not None and not isinstance(config.out_dir, str):
        problems.append(f"out_dir must be a string or null, got {config.out_dir!r}")
    for key, least in (("seed", 0), ("n_steps", 0), ("summary_interval", 1)):
        value = getattr(config, key)
        if not _is_int_at_least(value, least):
            problems.append(f"{key} must be an integer >= {least}, got {value!r}")
    if config.interaction not in MODES:
        problems.append(f"unknown interaction mode {config.interaction!r}")
    if len(config.agents) != 2:
        problems.append(f"exactly 2 agent blocks required, got {len(config.agents)}")
        return problems
    ids = [block.id for block in config.agents if isinstance(block.id, str)]
    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        problems.append(f"id {dup!r} is used by more than one agent or source; "
                        "ids must be distinct")
    spaces = []
    for block in config.agents:
        if not isinstance(block.id, str):
            kind = "source" if isinstance(block, SourceSpec) else "agent"
            problems.append(f"{kind} id must be a string, got {block.id!r}")
        if isinstance(block, SourceSpec):
            point = block.point
            if not (isinstance(point, (list, tuple)) and all(map(_is_real, point))):
                shown = list(point) if isinstance(point, tuple) else point
                problems.append(f"source {block.id!r}: point must be a list of numbers, "
                                f"got {shown!r}")
                spaces.append("unknown")
                continue
            if len(block.point) not in (1, 3):
                problems.append(f"source {block.id!r}: point must have 1 or 3 components")
            elif not (0.0 <= block.point[0] <= 1.0 if len(block.point) == 1
                      else np.linalg.norm(block.point) <= 1.0 + 1e-9):
                problems.append(f"source {block.id!r}: point outside [0, 1] "
                                "or the Bloch ball")
            spaces.append("interval" if len(block.point) == 1 else "ball")
            continue
        spaces.append(_prior_space(block.prior))
        problems.extend(_validate_agent(block))
    for i, block in enumerate(config.agents):
        if isinstance(block, SourceSpec):
            continue
        reg = block.regularization
        other = spaces[1 - i]
        mine = spaces[i]
        if "unknown" in (mine, other):
            continue  # the malformed prior or point is reported already
        if reg == "z_projection" and (mine != "interval" or other != "ball"):
            problems.append(f"agent {block.id!r}: z_projection needs a scalar agent "
                            "receiving from a Bloch-ball agent")
        if reg == "z_embedding" and (mine != "ball" or other != "interval"):
            problems.append(f"agent {block.id!r}: z_embedding needs a Bloch-ball agent "
                            "receiving from a scalar agent")
        if reg == "none" and mine != other:
            problems.append(f"agent {block.id!r}: incompatible parameter spaces "
                            "require a regularization")
    return problems


def _validate_agent(block: AgentSpec) -> list[str]:
    problems = []
    pid = f"agent {block.id!r}"
    if block.postulate not in ("classical", "quantum"):
        problems.append(f"{pid}: unknown postulate {block.postulate!r}")
    n = block.n_outcomes
    if not _is_int_at_least(n, 2):
        problems.append(f"{pid}: n_outcomes must be an integer >= 2, got {n!r}")
        n = None
    if block.postulate == "quantum" and n is not None:
        root = math.isqrt(n)
        if root * root != n:
            problems.append(f"{pid}: N={n} is not the square of an integer")
        elif n != 4:
            problems.append(f"{pid}: only the 4-outcome qubit reference action is built in")
        if n != 4:
            n = None  # reported; no menu fits it either
    kind = block.prior.get("kind")
    if kind not in PRIOR_KINDS:
        problems.append(f"{pid}: unknown prior kind {kind!r}")
    else:
        problems.extend(f"{pid}: {msg}" for msg in _validate_prior(block))
    known_menu = block.menu in MENUS_BY_N[2] + MENUS_BY_N[4]
    if not known_menu:
        problems.append(f"{pid}: unknown menu {block.menu!r}")
    elif n is not None and block.menu not in MENUS_BY_N.get(n, ()):
        problems.append(f"{pid}: menu {block.menu!r} incompatible with N={n}")
    elif block.menu == "sharp_paulis" and block.postulate == "quantum":
        problems.append(f"{pid}: menu 'sharp_paulis' gives negative probabilities "
                        "under the quantum postulate")
    ukind = block.utility.get("kind")
    if ukind not in ("uniform", "table"):
        problems.append(f"{pid}: unknown utility kind {ukind!r}")
    elif ukind == "table":
        values = block.utility.get("values", {})
        if not isinstance(values, dict) or not values:
            problems.append(f"{pid}: utility table must be a nonempty mapping")
        else:
            sizes = {a.name: a.n_outcomes for a in _menu(block.menu)} if known_menu else {}
            for name, row in values.items():
                if not (isinstance(row, (list, tuple)) and all(map(_is_number, row))):
                    problems.append(f"{pid}: utility for action {name!r} must be a "
                                    "list of finite numbers")
                elif known_menu and name not in sizes:
                    problems.append(f"{pid}: utility for action {name!r}, which is "
                                    f"not on menu {block.menu!r}")
                elif known_menu and len(row) != sizes[name]:
                    problems.append(f"{pid}: utility for action {name!r} has "
                                    f"{len(row)} values, expected {sizes[name]}")
    if not isinstance(block.regularization, str) or block.regularization not in REGULARIZERS:
        problems.append(f"{pid}: unknown regularization {block.regularization!r}")
    if block.n_particles is not None and not _is_int_at_least(block.n_particles, 2):
        problems.append(f"{pid}: n_particles must be an integer >= 2, "
                        f"got {block.n_particles!r}")
    elif block.n_particles is not None and block.n_particles > MAX_PARTICLES:
        problems.append(f"{pid}: n_particles must be at most {MAX_PARTICLES}, "
                        f"got {block.n_particles!r}")
    return problems


def _is_int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_real(value) and math.isfinite(value)


def _validate_prior(block: AgentSpec) -> list[str]:
    prior = block.prior
    kind = prior["kind"]
    problems = []
    space = _prior_space(prior)
    if kind == "grid_uniform":
        lo, hi = prior.get("lo", 0.0), prior.get("hi", 1.0)
        if not (_is_number(lo) and _is_number(hi) and 0.0 <= lo < hi <= 1.0):
            problems.append(f"invalid interval [{lo}, {hi}]")
    if kind == "grid_pdf":
        name = prior.get("name")
        allowed = {"kind", "name", "peak"} if name == "triangular" else {"kind", "name"}
        extra = sorted(set(prior) - allowed)
        peak = prior.get("peak")
        if not isinstance(name, str) or name not in GRID_PDFS:
            problems.append(f"unknown grid pdf {name!r}")
        elif extra:
            problems.append(f"grid pdf {name!r}: unknown parameters {extra}")
        elif "peak" in prior and not (_is_number(peak) and 0.0 < peak < 1.0):
            problems.append(f"triangular peak must lie in (0, 1), got {peak!r}")
    if kind == "grid_beta" and not all(_is_number(v) and v > 0 for v in
                                       (prior.get("alpha", 0), prior.get("beta", 0))):
        problems.append("Beta parameters must be positive numbers")
    if kind == "delta":
        pts = _delta_points(prior)
        if pts is None:
            return [f"delta prior points must be a list of finite numbers or of 1- or "
                    f"3-component lists of them, got {prior.get('points')!r}"]
        if pts.size == 0:
            problems.append("delta prior needs at least one point")
        elif space == "ball":
            if np.any(np.linalg.norm(pts, axis=1) > 1.0 + 1e-9):
                problems.append("delta prior point outside the Bloch ball")
        elif np.any(pts < 0.0) or np.any(pts > 1.0):
            problems.append("delta prior point outside [0, 1]")
        problems.extend(_validate_delta_weights(prior.get("weights"), pts.shape[0]))
    if block.regularization == "support_restriction" and space != "ball":
        problems.append("support_restriction requires a prior supported inside "
                        "the Bloch-ball region")
    if block.postulate == "quantum" and space != "ball":
        problems.append(f"prior kind {kind!r} is not a valid quantum state density")
    if block.postulate == "classical" and block.n_outcomes == 2 and space != "interval":
        problems.append(f"prior kind {kind!r} needs a scalar parameter")
    return problems


def _validate_delta_weights(weights, n_points: int) -> list[str]:
    # Absent, null or empty weights mean equal weights (see ``_build_ensemble``).
    if weights is None or (isinstance(weights, (list, tuple)) and not weights):
        return []
    if not (isinstance(weights, (list, tuple)) and all(map(_is_number, weights))):
        return [f"delta prior weights must be a list of finite numbers, got {weights!r}"]
    if len(weights) != n_points:
        return [f"delta prior has {len(weights)} weights for {n_points} points"]
    if min(weights) < 0 or sum(weights) <= 0:
        return [f"delta prior weights must be nonnegative and not all zero, "
                f"got {weights!r}"]
    return []


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class RegistryEntry:
    description: str
    metrics_kind: str
    default: ScenarioConfig


def _agent(id, postulate, n, prior, menu, utility=None, reg="none", n_particles=None):
    return AgentSpec(id, postulate, n, prior, menu,
                     utility or {"kind": "uniform"}, reg, n_particles)


def _registry() -> dict[str, RegistryEntry]:
    ball = {"kind": "uniform_ball"}
    entries = {
        "coin_tomography": RegistryEntry(
            "One classical agent estimating the bias of coins from a theta=3/4 source",
            "coin_tomography",
            ScenarioConfig("coin_tomography", 42, 1000, (
                _agent("agent", "classical", 2,
                       {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}, "flip"),
                SourceSpec("source", (0.75,)),
            ))),
        "qubit_tomography": RegistryEntry(
            "One qubit agent taking random Pauli actions on systems from a |+> source",
            "qubit_tomography",
            ScenarioConfig("qubit_tomography", 42, 500, (
                _agent("agent", "quantum", 4, ball, "paulis"),
                SourceSpec("source", (1.0, 0.0, 0.0)),
            ))),
        "classical_pair": RegistryEntry(
            "Two coin-flipping agents, semicircular vs triangular initial priors",
            "pair_1d",
            ScenarioConfig("classical_pair", 42, 1000, (
                _agent("alice", "classical", 2,
                       {"kind": "grid_pdf", "name": "semicircle"}, "flip"),
                _agent("bob", "classical", 2,
                       {"kind": "grid_pdf", "name": "triangular", "peak": 0.7}, "flip"),
            ))),
        "classical_disjoint": RegistryEntry(
            "Two coin-flipping agents with disjoint uniform priors [0,1/3] and [2/3,1]",
            "pair_1d",
            ScenarioConfig("classical_disjoint", 42, 100, (
                _agent("alice", "classical", 2,
                       {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0 / 3.0}, "flip"),
                _agent("bob", "classical", 2,
                       {"kind": "grid_uniform", "lo": 2.0 / 3.0, "hi": 1.0}, "flip"),
            ))),
        "quantum_pair_flat": RegistryEntry(
            "Two qubit agents exchanging systems, random Pauli actions, flat utilities",
            "pair_ball",
            ScenarioConfig("quantum_pair_flat", 42, 100, (
                _agent("alice", "quantum", 4, ball, "paulis"),
                _agent("bob", "quantum", 4, ball, "paulis"),
            ))),
        "quantum_pair_biasedZ": RegistryEntry(
            "Two qubit agents; one values the Pauli Z outcomes at 0.98 and 1.02",
            "pair_ball",
            ScenarioConfig("quantum_pair_biasedZ", 42, 100, (
                _agent("alice", "quantum", 4, ball, "paulis"),
                _agent("bob", "quantum", 4, ball, "paulis",
                       {"kind": "table", "values": {"Z": [0.98, 1.02]}}),
            ))),
        "quinn_clark": RegistryEntry(
            "Qubit agent (reference action) vs a two-outcome classical agent on the z axis",
            "z_marginal",
            ScenarioConfig("quinn_clark", 42, 100, (
                _agent("quinn", "quantum", 4, ball, "sic_reference",
                       reg="z_embedding"),
                _agent("clark", "classical", 2,
                       {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}, "z_reference",
                       reg="z_projection"),
            ))),
        "quinn_clara_pauli": RegistryEntry(
            "Qubit agent vs a 4-outcome classical agent with the same Pauli actions",
            "pair_ball",
            ScenarioConfig("quinn_clara_pauli", 42, 100, (
                _agent("quinn", "quantum", 4, ball, "paulis"),
                _agent("clara", "classical", 4, ball, "paulis",
                       reg="support_restriction"),
            ))),
        "quinn_clara_sharp": RegistryEntry(
            "Qubit agent vs a 4-outcome classical agent with sharp non-quantum actions",
            "pair_ball",
            ScenarioConfig("quinn_clara_sharp", 42, 100, (
                _agent("quinn", "quantum", 4, ball, "paulis"),
                _agent("clara", "classical", 4, ball, "sharp_paulis",
                       reg="support_restriction"),
            ))),
        "prior_coins_simultaneous": RegistryEntry(
            "Belief polarization: two-sided-coin priors under simultaneous prior sampling",
            "pair_1d",
            ScenarioConfig("prior_coins_simultaneous", 42, 10, (
                _agent("alice", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
                _agent("bob", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
            ), interaction="prior_simultaneous")),
        "prior_coins_turns": RegistryEntry(
            "Two-sided-coin priors under turn-based prior sampling (always agree)",
            "pair_1d",
            ScenarioConfig("prior_coins_turns", 42, 10, (
                _agent("alice", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
                _agent("bob", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
            ), interaction="prior_turns")),
        "prior_qubits_turns": RegistryEntry(
            "Four-delta qubit priors, turn-based prior sampling over Z and X actions",
            "pair_ball",
            ScenarioConfig("prior_qubits_turns", 42, 20, (
                _agent("alice", "quantum", 4, {"kind": "four_delta_xz"}, "paulis_zx"),
                _agent("bob", "quantum", 4, {"kind": "four_delta_xz"}, "paulis_zx"),
            ), interaction="prior_turns")),
    }
    return entries


REGISTRY = _registry()


def default_config(scenario: str, seed: int = 42) -> ScenarioConfig:
    if scenario not in REGISTRY:
        raise ConfigError([f"unknown scenario {scenario!r}"])
    return replace(REGISTRY[scenario].default, seed=seed)


# ---------------------------------------------------------------------------
# Building and running

def build_runtime(config: ScenarioConfig) -> RunSpec:
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    entry = REGISTRY[config.scenario]
    slots = []
    regs = []
    for i, block in enumerate(config.agents):
        if isinstance(block, SourceSpec):
            slots.append(ExogenousSource(block.id, np.asarray(block.point)))
            regs.append("none")
            continue
        post = (quantum_postulate() if block.postulate == "quantum"
                else classical_postulate(block.n_outcomes))
        try:
            ensemble = _build_ensemble(block.prior, block.n_particles,
                                       stream(config.seed, "agent", i, "init"))
        except QBAgentsError:
            raise
        except (MemoryError, ValueError, IndexError) as err:
            # numpy's "array is too big" (ValueError; IndexError from linspace
            # near intp.max) or a MemoryError: a size no config check can know
            raise ConfigError([f"agent {block.id!r}: n_particles {block.n_particles} "
                               f"cannot be allocated ({type(err).__name__}: {err})"]
                              ) from err
        utility = UtilityFn()
        if block.utility.get("kind") == "table":
            utility = UtilityFn({name: tuple(float(v) for v in row)
                                 for name, row in block.utility["values"].items()})
        slots.append(Agent(block.id, post, ensemble, _menu(block.menu), utility))
        regs.append(block.regularization)
    return RunSpec(
        scenario=config.scenario,
        seed=config.seed,
        n_steps=config.n_steps,
        slots=tuple(slots),
        incoming_reg=tuple(regs),
        mode=config.interaction,
        metrics_kind=entry.metrics_kind,
        config=config.to_dict(),
    )


def run_config(config: ScenarioConfig) -> Trace:
    return run(build_runtime(config))


# ---------------------------------------------------------------------------
# Batch runner

@dataclass
class BatchResult:
    scenario: str
    master_seed: int
    n_seeds: int
    rows: list
    aggregates: dict

    def to_dict(self) -> dict:
        return asdict(self)


EARLY_STEP = 10


def batch(config: ScenarioConfig, n_seeds: int) -> BatchResult:
    """Run ``n_seeds`` replicas with seeds master, master+1, ... and aggregate.

    Per-seed failures (belief polarization) are recorded, not fatal; a
    ``ConfigError`` (an ensemble too big to allocate) is raised.  Each row
    carries the final metrics and the metrics at ``EARLY_STEP`` for trend
    comparisons; aggregates hold the median and quartiles of every numeric
    final metric across the successful seeds.  Only those two steps are
    recorded (see ``interaction.run``), so the rows are those that full runs
    of the same seeds give.
    """
    if n_seeds < 1:
        raise ValidationError("n_seeds must be at least 1")
    early_step = min(EARLY_STEP, config.n_steps)
    rows = []
    for i in range(n_seeds):
        seed = config.seed + i
        try:
            trace = run(build_runtime(replace(config, seed=seed)),
                        record_steps={early_step})
        except ConfigError:
            raise
        except ImpossibleOutcomeError as err:
            rows.append({"seed": seed, "error": "impossible_outcome",
                         "step": err.step, "agent": err.agent_id})
            continue
        except QBAgentsError as err:
            rows.append({"seed": seed, "error": type(err).__name__,
                         "message": str(err)})
            continue
        early = next((dict(rec.metrics) for rec in trace.records
                      if rec.step == early_step), {})
        rows.append({
            "seed": seed,
            "final_metrics": dict(trace.final["last_metrics"]),
            "early_metrics": early,
            "final_summaries": {
                aid: {"mean": s["mean"], "semi_major": s["semi_major"]}
                for aid, s in trace.final["summaries"].items()},
        })
    ok = [r for r in rows if "error" not in r]
    keys = sorted({k for r in ok for k in r["final_metrics"]})
    aggregates = {"n_errors": len(rows) - len(ok)}
    for key in keys:
        values = np.array([r["final_metrics"][key] for r in ok
                           if key in r["final_metrics"]])
        if values.size:
            aggregates[key] = {
                "median": float(np.median(values)),
                "q25": float(np.quantile(values, 0.25)),
                "q75": float(np.quantile(values, 0.75)),
            }
    return BatchResult(config.scenario, config.seed, n_seeds, rows, aggregates)
