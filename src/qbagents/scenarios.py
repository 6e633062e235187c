"""Scenario registry, configuration handling, and the batch runner.

Configs are flat JSON documents (``emit_config(default_config(name))`` prints
a registry default; README, "Configs", documents every key).  ``parse_config``
validates everything up front, driven by the field, prior and menu tables
(``FIELDS``, ``PRIORS``, ``MENUS``) and the slot rules a config shares with
``interaction.RunSpec`` (``interaction.slot_problems``), and reports the
complete list of violations at once.  Registry entries provide full default
configs, so ``parse_config(emit_config(default))`` is the identity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cache, partial

import numpy as np

from .agents import Action, Agent, UtilityFn
from .core_math import (
    DEFAULT_GRID_POINTS,
    PROB_TOL,
    BetaParams,
    beta_pdf,
    is_int,
    matmul,
    one_of,
)
from .errors import ConfigError, ImpossibleOutcomeError, QBAgentsError, ValidationError
from .inference import (
    DEFAULT_BALL_PARTICLES,
    BetaMixture,
    delta_ensemble,
    grid_ensemble,
    sample_uniform,
)
from .interaction import (
    EXPECTATION,
    REGULARIZERS,
    RUN_FIELDS,
    ExogenousSource,
    RunSpec,
    Trace,
    run,
    slot_problems,
    source_rules,
)
from .postulate import (
    Interval,
    QubitBall,
    classical_postulate,
    min_likelihood,
    phi_matrix,
    quantum_postulate,
    region_with,
    sqrt_phi,
    where_outside,
)
from .quantum import conditional_matrix, pauli_povm, sic_d2
from .rng import stream


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_real(value) and math.isfinite(value)


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


def triangular_pieces(peak: float = 0.7) -> tuple:
    """The triangular density as Beta pieces: 2 theta / peak on [0, peak] and
    2 (1 - theta) / (1 - peak) on [peak, 1]."""
    return ((math.log(2.0 / peak), 2.0, 1.0, 0.0, peak),
            (math.log(2.0 / (1.0 - peak)), 1.0, 2.0, peak, 1.0))


# grid pdf name -> (density, the parameters it takes, its Beta pieces)
GRID_PDFS = {
    "semicircle": (semicircle_pdf, (), lambda: ((0.0, 1.5, 1.5, 0.0, 1.0),)),
    "triangular": (triangular_pdf, ("peak",), triangular_pieces),
}


def _unknown_params(params: dict, allowed, label: str) -> list[str]:
    extra = sorted(set(params) - {"kind", *allowed})
    return [f"{label}: unknown parameters {extra}"] if extra else []


def _grid_uniform_problems(prior: dict) -> list[str]:
    lo, hi = prior.get("lo", 0.0), prior.get("hi", 1.0)
    if not (_is_number(lo) and _is_number(hi) and 0.0 <= lo < hi <= 1.0):
        return [f"invalid interval [{lo}, {hi}]"]
    return []


def _grid_pdf_problems(prior: dict) -> list[str]:
    name, peak = prior.get("name"), prior.get("peak")
    if not one_of(GRID_PDFS)(name):
        return [f"unknown grid pdf {name!r}"]
    extra = _unknown_params(prior, ("name", *GRID_PDFS[name][1]), f"grid pdf {name!r}")
    if not extra and "peak" in prior and not (_is_number(peak) and 0.0 < peak < 1.0):
        return [f"triangular peak must lie in (0, 1), got {peak!r}"]
    return extra


def _grid_beta_problems(prior: dict) -> list[str]:
    if not all(_is_number(v) and v > 0 for v in (prior.get("alpha"), prior.get("beta"))):
        return ["Beta parameters must be positive numbers"]
    return []


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


def _delta_problems(prior: dict) -> list[str]:
    pts, weights = _delta_points(prior), prior.get("weights")
    if pts is None:
        return [f"delta prior points must be a list of finite numbers or of 1- or "
                f"3-component lists of them, got {prior.get('points')!r}"]
    if pts.size == 0:
        return ["delta prior needs at least one point"]
    if where := where_outside(pts):
        return [f"delta prior point outside {where}"]
    # Absent, null or empty weights mean equal weights (see ``_delta_ensemble``).
    if weights is None or (isinstance(weights, (list, tuple)) and not weights):
        return []
    if not (isinstance(weights, (list, tuple)) and all(map(_is_number, weights))):
        return [f"delta prior weights must be a list of finite numbers, got {weights!r}"]
    if len(weights) != len(pts):
        return [f"delta prior has {len(weights)} weights for {len(pts)} points"]
    if min(weights) < 0 or sum(weights) <= 0:
        return [f"delta prior weights must be nonnegative and not all zero, got {weights!r}"]
    return []


def _delta_ensemble(prior: dict):
    pts = _delta_points(prior)
    weights = prior.get("weights") or [1.0 / len(pts)] * len(pts)
    return delta_ensemble(pts, weights, region_with(dim=pts.shape[1])())


def _grid(prior: dict, n: int | None, pdf=None):
    interval = Interval(prior.get("lo", 0.0), prior.get("hi", 1.0))
    ens = grid_ensemble(interval, n or DEFAULT_GRID_POINTS, pdf=pdf)
    theta = ens.points[:, 0]
    # theta and 1 - theta vanish at the ends: a grid weighted there alone is
    # left with no weight once both outcomes have been seen
    if not np.any((ens.weights > 0.0) & (theta > 0.0) & (theta < 1.0)):
        raise ValidationError("no grid point with prior weight lies inside (0, 1)")
    return ens


def _pdf_params(prior: dict) -> dict:
    return {k: prior[k] for k in GRID_PDFS[prior["name"]][1] if k in prior}


# The prior table: kind -> (the region of its points, None when a delta prior's
# points decide; the parameters it takes; the check of their values, which for a
# grid pdf covers its own parameters; the builder (prior, n_particles, init_rng);
# for a continuous 1-D prior, its density as Beta pieces (log c, alpha, beta, lo,
# hi), whose agents carry counts (``inference.BetaMixture``), else None).
PRIORS = {
    "grid_uniform": (Interval, ("lo", "hi"), _grid_uniform_problems,
                     lambda p, n, rng: _grid(p, n), lambda p: (
                         (0.0, 1.0, 1.0, float(p.get("lo", 0.0)), float(p.get("hi", 1.0))),)),
    "grid_pdf": (Interval, ("name", "peak"), _grid_pdf_problems,
                 lambda p, n, rng: _grid(p, n, partial(GRID_PDFS[p["name"]][0],
                                                       **_pdf_params(p))),
                 lambda p: GRID_PDFS[p["name"]][2](**_pdf_params(p))),
    "grid_beta": (Interval, ("alpha", "beta"), _grid_beta_problems,
                  lambda p, n, rng: _grid(p, n, partial(
                      beta_pdf, p=BetaParams(p["alpha"], p["beta"]))),
                  lambda p: ((0.0, float(p["alpha"]), float(p["beta"]), 0.0, 1.0),)),
    "uniform_ball": (QubitBall, (), lambda p: [], lambda p, n, rng: sample_uniform(
        QubitBall(), n or DEFAULT_BALL_PARTICLES, rng), None),
    "delta": (None, ("points", "weights"), _delta_problems,
              lambda p, n, rng: _delta_ensemble(p), None),
    "two_sided_coin": (Interval, (), lambda p: [],
                       lambda p, n, rng: _delta_ensemble({"points": [0.0, 1.0]}), None),
    "four_delta_xz": (QubitBall, (), lambda p: [], lambda p, n, rng: _delta_ensemble(
        {"points": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]}),
        None),
}
ATOM_PRIORS = ("delta", "two_sided_coin", "four_delta_xz")  # fixed atoms: no n_particles


# ---------------------------------------------------------------------------
# Menus, postulates and utilities

def _pauli_actions(axes: str) -> tuple[Action, ...]:
    ref = sic_d2()
    return tuple(Action(ax, conditional_matrix(pauli_povm(ax), ref), ("+1", "-1"))
                 for ax in axes)


# The menu table: name -> builder of its actions.  The outcome count N a menu
# fits is its actions' reference dimension.
MENUS = {
    "flip": lambda: (Action("flip", np.eye(2), ("heads", "tails")),),
    "z_reference": lambda: (Action("Z", np.eye(2), ("+1", "-1")),),
    "paulis": lambda: _pauli_actions("XYZ"),
    "paulis_zx": lambda: _pauli_actions("ZX"),
    # the Pauli matrices pushed through the principal square root of Phi
    "sharp_paulis": lambda: tuple(
        Action(a.name, matmul(a.matrix, sqrt_phi(phi_matrix(sic_d2()))), a.outcomes)
        for a in _menu("paulis")),
    "sic_reference": lambda: (Action("sic", conditional_matrix(sic_d2().effects, sic_d2()),
                                     ("1", "2", "3", "4")),),
}


@cache
def _menu(name: str) -> tuple[Action, ...]:
    """The named menu, built once and shared: actions are frozen, matrices read-only."""
    if name not in MENUS:
        raise ValidationError(f"unknown menu {name!r}")
    return MENUS[name]()


# one quantum postulate per process: it is frozen, and costly to build
POSTULATES = {"classical": classical_postulate, "quantum": cache(lambda n: quantum_postulate())}

UTILITIES = {"uniform": (), "table": ("values",)}  # kind -> the parameters it takes


@cache
def _quantum_lowest(name: str) -> float:
    """The least probability the menu gives a qubit state (``min_likelihood``)."""
    return min(min_likelihood(POSTULATES["quantum"](4), a.matrix) for a in _menu(name))


MAX_PARTICLES = int(np.iinfo(np.intp).max)  # the largest array length numpy accepts


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


@dataclass(frozen=True)
class SourceSpec:
    id: str
    point: list
    source: bool = True


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
        return {**asdict(self), "agents": [asdict(a) for a in self.agents]}


def _is_id(v) -> bool:
    """A nonempty string of ASCII letters, digits, ``_`` and ``-``: an id
    names CSV columns and files, so it may hold no comma, newline or path
    separator."""
    return isinstance(v, str) and re.fullmatch(r"[A-Za-z0-9_-]+", v) is not None


ID_MESSAGE = "id must be a nonempty string of letters, digits, '_' and '-', got {v!r}"

# The field table: a (check, message) per field of the config dataclasses.  A
# message is formatted with the value ``v`` and the block's name ``who``.
FIELDS = {
    ScenarioConfig: {
        "scenario": (lambda v: isinstance(v, str) and v in REGISTRY, "unknown scenario {v!r}"),
        "seed": RUN_FIELDS["seed"],
        "n_steps": RUN_FIELDS["n_steps"],
        "agents": (lambda v: len(v) == 2, "exactly 2 agent blocks required"),
        "interaction": RUN_FIELDS["mode"],
        "summary_interval": (is_int(1), "summary_interval must be an integer >= 1, got {v!r}"),
        "out_dir": (lambda v: v is None or isinstance(v, str),
                    "out_dir must be a string or null, got {v!r}"),
    },
    AgentSpec: {
        "id": (_is_id, "agent " + ID_MESSAGE),
        "postulate": (one_of(POSTULATES), "{who}: unknown postulate {v!r}"),
        "n_outcomes": (is_int(2), "{who}: n_outcomes must be an integer >= 2, got {v!r}"),
        "prior": (lambda v: one_of(PRIORS)(v.get("kind")), "{who}: unknown prior {v!r}"),
        "menu": (one_of(MENUS), "{who}: unknown menu {v!r}"),
        "utility": (lambda v: one_of(UTILITIES)(v.get("kind")),
                    "{who}: unknown utility {v!r}"),
        "regularization": (one_of(REGULARIZERS), "{who}: unknown regularization {v!r}"),
        "n_particles": (lambda v: v is None or is_int(2)(v),
                        "{who}: n_particles must be an integer >= 2, got {v!r}"),
    },
    SourceSpec: {
        "id": (_is_id, "source " + ID_MESSAGE),
        "point": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v)),
                  "{who}: point must be a list of numbers, got {v!r}"),
        "source": (lambda v: v is True, "{who}: source must be true, got {v!r}"),
    },
}


def _field_problems(spec, who: str = "") -> dict[str, str]:
    """The fields of a config, agent or source that fail their check -> message."""
    return {name: message.format(v=getattr(spec, name), who=who)
            for name, (check, message) in FIELDS[type(spec)].items()
            if not check(getattr(spec, name))}


def _key_problems(cls, block: dict, where: str, noun: str) -> list[str]:
    """A block's keys ``cls`` has no field for, and its fields without a default it lacks."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return ([f"{where}unknown {noun} {k!r}" for k in block if k not in FIELDS[cls]]
            + [f"{where}missing {noun} {k!r}" for k in required if k not in block])


def _shape_problems(data) -> list[str]:
    """What keeps a JSON document from being read as a config: a root, ``agents``
    list, block, ``prior`` or ``utility`` of the wrong JSON type, and unknown or
    missing keys.  A block with a ``source`` key is a source."""
    if not isinstance(data, dict):
        return ["config root must be a JSON object"]
    problems = _key_problems(ScenarioConfig, data, "", "config key")
    blocks = data.get("agents", [])
    if not isinstance(blocks, list):
        return problems + [f"agents must be a list of objects, got {blocks!r}"]
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            problems.append(f"agents[{i}] must be an object, got {block!r}")
            continue
        cls = SourceSpec if "source" in block else AgentSpec
        problems += _key_problems(cls, block, f"agents[{i}]: ", "key")
        problems += [f"agents[{i}]: {k} must be an object, got {block[k]!r}"
                     for k in ("prior", "utility")
                     if cls is AgentSpec and k in block and not isinstance(block[k], dict)]
    return problems


def emit_config(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON config; raises ``ConfigError`` carrying
    every violation found."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"invalid JSON: {err}"]) from err
    problems = _shape_problems(data)
    if problems:
        raise ConfigError(problems)
    config = ScenarioConfig(**{**data, "agents": tuple(
        (SourceSpec if "source" in block else AgentSpec)(**block) for block in data["agents"])})
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    return config


def validate_config(config: ScenarioConfig) -> list[str]:
    """All violations in the config; empty when valid."""
    bad = _field_problems(config)
    problems = list(bad.values())
    if "agents" in bad:
        return problems
    slots, regs = [], []
    for block in config.agents:
        role = "source" if isinstance(block, SourceSpec) else "agent"
        who = f"{role} {block.id!r}"
        bad_fields = _field_problems(block, who)
        if role == "agent":
            own, space = _agent_rules(block, bad_fields)
        else:
            own, space = ([], None) if "point" in bad_fields else source_rules(block.point)
        problems += [*bad_fields.values(), *(f"{who}: {msg}" for msg in own)]
        slots.append((block.id, space, role))
        regs.append(getattr(block, "regularization", None))
    # an unknown scenario has no metrics to read the slots
    kind = "none" if "scenario" in bad else REGISTRY[config.scenario].metrics_kind
    return problems + slot_problems(slots, regs, config.scenario, kind)


def _agent_rules(block: AgentSpec, bad: dict) -> tuple[list[str], str | None]:
    """The rules between an agent's sound fields, and its prior's space or None."""
    own = []
    n = None if "n_outcomes" in bad else block.n_outcomes
    if block.postulate == "quantum" and n is not None and n != 4:
        own.append(f"N={n} is not the square of an integer" if math.isqrt(n) ** 2 != n
                   else "only the 4-outcome qubit reference action is built in")
        n = None  # reported; no menu fits it either
    space = None
    if "prior" not in bad:
        kind = block.prior["kind"]
        region, params, check, *_rest = PRIORS[kind]
        found = check(block.prior) or _unknown_params(block.prior, params, f"prior {kind!r}")
        own += found
        if kind in ATOM_PRIORS and block.n_particles is not None and "n_particles" not in bad:
            own.append(f"prior kind {kind!r} has fixed atoms and takes no n_particles, "
                       f"got {block.n_particles!r}")
        if not found:
            space = (region or region_with(dim=_delta_points(block.prior).shape[1])).space
    if space and (need := region_with(ref_dim=n)) and need.space != space:
        own.append(f"prior kind {kind!r} lies in the {space}; N={n} needs the {need.space}")
    if "menu" not in bad and n is not None:
        if _menu(block.menu)[0].matrix.shape[1] != n:
            own.append(f"menu {block.menu!r} incompatible with N={n}")
        elif block.postulate == "quantum" and _quantum_lowest(block.menu) < -PROB_TOL:
            own.append(f"menu {block.menu!r} gives negative probabilities "
                       "under the quantum postulate")
    if "utility" not in bad:
        ukind = block.utility["kind"]
        own += _unknown_params(block.utility, UTILITIES[ukind], f"utility {ukind!r}")
        if ukind == "table":
            own += _utility_row_problems(block.utility.get("values"),
                                         None if "menu" in bad else block.menu)
    if "n_particles" not in bad and (block.n_particles or 0) > MAX_PARTICLES:
        own.append(f"n_particles must be at most {MAX_PARTICLES}, got {block.n_particles!r}")
    return own, space


def _utility_row_problems(values, menu: str | None) -> list[str]:
    """A utility table's rows as numbers and, when the menu is known, against it."""
    if not isinstance(values, dict) or not values:
        return ["utility table must be a nonempty mapping"]
    sizes = {a.name: a.n_outcomes for a in _menu(menu)} if menu else {}
    problems = []
    for name, row in values.items():
        if not (isinstance(row, (list, tuple)) and all(map(_is_number, row))):
            problems.append(f"utility for action {name!r} must be a list of finite numbers")
        elif menu and name not in sizes:
            problems.append(f"utility for action {name!r}, which is not on menu {menu!r}")
        elif menu and len(row) != sizes[name]:
            problems.append(f"utility for action {name!r} has {len(row)} values, "
                            f"expected {sizes[name]}")
    return problems


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class RegistryEntry:
    description: str
    metrics_kind: str
    default: ScenarioConfig


REGISTRY = {
    "coin_tomography": RegistryEntry(
        "One classical agent estimating the bias of coins from a theta=3/4 source",
        "coin_tomography",
        ScenarioConfig("coin_tomography", 42, 1000, (
            AgentSpec("agent", "classical", 2,
                      {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}, "flip"),
            SourceSpec("source", [0.75]),
        ))),
    "qubit_tomography": RegistryEntry(
        "One qubit agent taking random Pauli actions on systems from a |+> source",
        "qubit_tomography",
        ScenarioConfig("qubit_tomography", 42, 500, (
            AgentSpec("agent", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
            SourceSpec("source", [1.0, 0.0, 0.0]),
        ))),
    "classical_pair": RegistryEntry(
        "Two coin-flipping agents, semicircular vs triangular initial priors",
        "pair_1d",
        ScenarioConfig("classical_pair", 42, 1000, (
            AgentSpec("alice", "classical", 2,
                      {"kind": "grid_pdf", "name": "semicircle"}, "flip"),
            AgentSpec("bob", "classical", 2,
                      {"kind": "grid_pdf", "name": "triangular", "peak": 0.7}, "flip"),
        ))),
    "classical_disjoint": RegistryEntry(
        "Two coin-flipping agents with disjoint uniform priors [0,1/3] and [2/3,1]",
        "pair_1d",
        ScenarioConfig("classical_disjoint", 42, 100, (
            AgentSpec("alice", "classical", 2,
                      {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0 / 3.0}, "flip"),
            AgentSpec("bob", "classical", 2,
                      {"kind": "grid_uniform", "lo": 2.0 / 3.0, "hi": 1.0}, "flip"),
        ))),
    "quantum_pair_flat": RegistryEntry(
        "Two qubit agents exchanging systems, random Pauli actions, flat utilities",
        "pair_ball",
        ScenarioConfig("quantum_pair_flat", 42, 100, (
            AgentSpec("alice", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
            AgentSpec("bob", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
        ))),
    "quantum_pair_biasedZ": RegistryEntry(
        "Two qubit agents; one values the Pauli Z outcomes at 0.98 and 1.02",
        "pair_ball",
        ScenarioConfig("quantum_pair_biasedZ", 42, 100, (
            AgentSpec("alice", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
            AgentSpec("bob", "quantum", 4, {"kind": "uniform_ball"}, "paulis",
                      utility={"kind": "table", "values": {"Z": [0.98, 1.02]}}),
        ))),
    "quinn_clark": RegistryEntry(
        "Qubit agent (reference action) vs a two-outcome classical agent on the z axis",
        "z_marginal",
        ScenarioConfig("quinn_clark", 42, 100, (
            AgentSpec("quinn", "quantum", 4, {"kind": "uniform_ball"}, "sic_reference",
                      regularization="z_embedding"),
            AgentSpec("clark", "classical", 2,
                      {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}, "z_reference",
                      regularization="z_projection"),
        ))),
    "quinn_clara_pauli": RegistryEntry(
        "Qubit agent vs a 4-outcome classical agent with the same Pauli actions",
        "pair_ball",
        ScenarioConfig("quinn_clara_pauli", 42, 100, (
            AgentSpec("quinn", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
            AgentSpec("clara", "classical", 4, {"kind": "uniform_ball"}, "paulis",
                      regularization="support_restriction"),
        ))),
    "quinn_clara_sharp": RegistryEntry(
        "Qubit agent vs a 4-outcome classical agent with sharp non-quantum actions",
        "pair_ball",
        ScenarioConfig("quinn_clara_sharp", 42, 100, (
            AgentSpec("quinn", "quantum", 4, {"kind": "uniform_ball"}, "paulis"),
            AgentSpec("clara", "classical", 4, {"kind": "uniform_ball"}, "sharp_paulis",
                      regularization="support_restriction"),
        ))),
    "prior_coins_simultaneous": RegistryEntry(
        "Belief polarization: two-sided-coin priors under simultaneous prior sampling",
        "pair_1d",
        ScenarioConfig("prior_coins_simultaneous", 42, 10, (
            AgentSpec("alice", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
            AgentSpec("bob", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
        ), interaction="prior_simultaneous")),
    "prior_coins_turns": RegistryEntry(
        "Two-sided-coin priors under turn-based prior sampling (always agree)",
        "pair_1d",
        ScenarioConfig("prior_coins_turns", 42, 10, (
            AgentSpec("alice", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
            AgentSpec("bob", "classical", 2, {"kind": "two_sided_coin"}, "flip"),
        ), interaction="prior_turns")),
    "prior_qubits_turns": RegistryEntry(
        "Four-delta qubit priors, turn-based prior sampling over Z and X actions",
        "pair_ball",
        ScenarioConfig("prior_qubits_turns", 42, 20, (
            AgentSpec("alice", "quantum", 4, {"kind": "four_delta_xz"}, "paulis_zx"),
            AgentSpec("bob", "quantum", 4, {"kind": "four_delta_xz"}, "paulis_zx"),
        ), interaction="prior_turns")),
}


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
    slots = []
    for i, block in enumerate(config.agents):
        if isinstance(block, SourceSpec):
            slots.append(ExogenousSource(block.id, np.asarray(block.point)))
            continue
        *_, build, pieces = PRIORS[block.prior["kind"]]
        try:
            ensemble = build(block.prior, block.n_particles,
                             stream(config.seed, "agent", i, "init"))
        except QBAgentsError as err:  # such as a grid pdf that is zero at every grid point
            raise ConfigError([f"agent {block.id!r}: prior {block.prior['kind']!r} on "
                               f"n_particles {block.n_particles}: {err}"]) from err
        except (MemoryError, ValueError, IndexError) as err:
            # numpy's "array is too big" (ValueError; IndexError from linspace
            # near intp.max) or a MemoryError: a size no config check can know
            raise ConfigError([f"agent {block.id!r}: n_particles {block.n_particles} "
                               f"cannot be allocated ({type(err).__name__}: {err})"]
                              ) from err
        if pieces:
            ensemble = BetaMixture(ensemble, pieces(block.prior))
        utility = UtilityFn({name: tuple(float(v) for v in row)
                             for name, row in block.utility.get("values", {}).items()})
        slots.append(Agent(block.id, POSTULATES[block.postulate](block.n_outcomes),
                           ensemble, _menu(block.menu), utility))
    return RunSpec(
        scenario=config.scenario,
        seed=config.seed,
        n_steps=config.n_steps,
        slots=tuple(slots),
        incoming_reg=tuple(getattr(b, "regularization", "none") for b in config.agents),
        mode=config.interaction,
        metrics_kind=REGISTRY[config.scenario].metrics_kind,
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
