import json
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbagents.errors import ConfigError, ImpossibleOutcomeError
from qbagents.inference import DEFAULT_BALL_PARTICLES
from qbagents.interaction import MODES, REGULARIZERS
from qbagents.core_math import DEFAULT_GRID_POINTS
from qbagents.scenarios import (
    EARLY_STEP,
    FIELDS,
    GRID_PDFS,
    MENUS,
    POSTULATES,
    PRIORS,
    REGISTRY,
    UTILITIES,
    batch,
    build_runtime,
    default_config,
    emit_config,
    parse_config,
    run_config,
    validate_config,
)
from qbagents.trace_io import emit_plot_data, emit_trace

SMALL = {"n_steps": 3, "ball": 300, "grid": 301}


def small_config(name, seed=0):
    cfg = replace(default_config(name, seed=seed), n_steps=SMALL["n_steps"])
    agents = []
    for block in cfg.agents:
        if hasattr(block, "prior"):
            n = SMALL["grid"] if block.prior["kind"].startswith("grid") else SMALL["ball"]
            if block.prior["kind"] in ("two_sided_coin", "four_delta_xz", "delta"):
                n = None
            agents.append(replace(block, n_particles=n))
        else:
            agents.append(block)
    return replace(cfg, agents=tuple(agents))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_parse_emit_identity(self, name):
        cfg = REGISTRY[name].default
        assert parse_config(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_defaults_validate(self, name):
        assert validate_config(REGISTRY[name].default) == []


# (path into the coin_tomography config, value put there, the one violation)
SHAPE_HOLES = [
    (("agents", 0, "prior"), [1], "agents[0]: prior must be an object, got [1]"),
    (("agents", 0, "utility"), [1], "agents[0]: utility must be an object, got [1]"),
    (("agents",), 5, "agents must be a list of objects, got 5"),
    (("agents", 1), "x", "agents[1] must be an object, got 'x'"),
    (("scenario",), ["x"], "unknown scenario ['x']"),
    (("n_stepz",), 5, "unknown config key 'n_stepz'"),
    (("agents", 0, "colour"), "red", "agents[0]: unknown key 'colour'"),
    (("agents", 1, "menu"), "flip", "agents[1]: unknown key 'menu'"),
    (("out_dir",), 5, "out_dir must be a string or null, got 5"),
    (("agents", 0, "prior"), {"kind": "grid_pdf", "name": [1]},
     "agent 'agent': unknown grid pdf [1]"),
]

ABSENT = object()  # a value for ``config_with`` that deletes the key at the path

# every field without a dataclass default is required
SHAPE_HOLES += [((key,), ABSENT, f"missing config key {key!r}")
                for key in ("scenario", "seed", "n_steps", "agents")]
SHAPE_HOLES += [(("agents", slot, key), ABSENT, f"agents[{slot}]: missing key {key!r}")
                for slot, keys in ((0, ("id", "postulate", "n_outcomes", "prior", "menu")),
                                   (1, ("id", "point")))
                for key in keys]


# (path, value, the one violation) for values that pass the shape check but
# from which no runtime can be built
VALUE_HOLES = [
    (("agents", 0, "regularization"), ["none"],
     "agent 'agent': unknown regularization ['none']"),
    (("agents", 0, "regularization"), {}, "agent 'agent': unknown regularization {}"),
    (("agents", 0, "n_outcomes"), 3, "agent 'agent': menu 'flip' incompatible with N=3"),
    (("agents", 0, "n_outcomes"), 5, "agent 'agent': menu 'flip' incompatible with N=5"),
    (("agents", 0, "n_particles"), int(np.iinfo(np.intp).max) + 1,
     f"agent 'agent': n_particles must be at most {np.iinfo(np.intp).max}, "
     f"got {int(np.iinfo(np.intp).max) + 1}"),
    # parameters a prior or utility kind does not take
    (("agents", 0, "prior"), {"kind": "grid_uniform", "lo": 0.0, "hi_typo": 0.5},
     "agent 'agent': prior 'grid_uniform': unknown parameters ['hi_typo']"),
    (("agents", 0, "prior"), {"kind": "grid_beta", "alpha": 2.0, "beta": 3.0, "mode": 0.4},
     "agent 'agent': prior 'grid_beta': unknown parameters ['mode']"),
    (("agents", 0, "prior"), {"kind": "delta", "points": [0.5], "weight": [1.0]},
     "agent 'agent': prior 'delta': unknown parameters ['weight']"),
    (("agents", 0, "prior"), {"kind": "two_sided_coin", "p": 0.5},
     "agent 'agent': prior 'two_sided_coin': unknown parameters ['p']"),
    (("agents", 0, "utility"), {"kind": "uniform", "values": {"flip": [1.0, 2.0]}},
     "agent 'agent': utility 'uniform': unknown parameters ['values']"),
    # a source is marked by JSON true and nothing else
    (("agents", 1, "source"), "yes", "source 'source': source must be true, got 'yes'"),
    (("agents", 1, "source"), False, "source 'source': source must be true, got False"),
    (("agents", 1, "source"), 1, "source 'source': source must be true, got 1"),
    # the slots a scenario's metrics read
    (("scenario",), "classical_pair", "scenario 'classical_pair' takes "
     "(interval agent, interval agent), got (interval agent, interval source)"),
    (("scenario",), "qubit_tomography", "scenario 'qubit_tomography' takes "
     "(ball agent, ball agent) or (ball agent, ball source), "
     "got (interval agent, interval source)"),
    # a regularization maps between the spaces of the pair
    (("agents", 0, "regularization"), "z_projection", "agent 'agent': regularization "
     "'z_projection' maps the ball onto the interval, not the interval onto the interval"),
]


def config_with(path, value) -> str:
    """The coin_tomography config text with ``value`` put at ``path``."""
    data = json.loads(emit_config(default_config("coin_tomography", seed=1)))
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is ABSENT:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(data)


class TestValidation:
    @pytest.mark.parametrize("path,value,message", SHAPE_HOLES + VALUE_HOLES)
    def test_malformed_shape_is_one_config_error(self, path, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(config_with(path, value))
        assert err.value.violations == [message]

    def test_minimal_valid_config(self):
        cfg = default_config("coin_tomography", seed=42)
        assert parse_config(emit_config(cfg)).seed == 42

    def test_unknown_scenario(self):
        cfg = replace(default_config("coin_tomography"), scenario="unknown")
        with pytest.raises(ConfigError) as err:
            parse_config(emit_config(cfg))
        assert any("unknown scenario" in v for v in err.value.violations)

    def test_quantum_reference_must_be_square(self):
        data = json.loads(emit_config(default_config("qubit_tomography")))
        data["agents"][0]["n_outcomes"] = 2
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("N=2 is not the square of an integer" in v
                   for v in err.value.violations)

    def test_restricted_prior_outside_ball_rejected(self):
        data = json.loads(emit_config(default_config("quinn_clara_pauli")))
        data["agents"][1]["prior"] = {"kind": "delta", "points": [[1.2, 0.0, 0.0]]}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("outside the Bloch ball" in v for v in err.value.violations)

    def test_restriction_requires_ball_prior(self):
        data = json.loads(emit_config(default_config("quinn_clara_pauli")))
        data["agents"][1]["prior"] = {"kind": "grid_uniform", "lo": 0.0, "hi": 1.0}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("support_restriction" in v for v in err.value.violations)

    def test_quantum_sharp_menu_rejected(self):
        data = json.loads(emit_config(default_config("quinn_clara_sharp")))
        data["agents"][0]["menu"] = "sharp_paulis"
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("sharp_paulis" in v for v in err.value.violations)

    @pytest.mark.parametrize("point", [[1.5], [float("nan")], [0.0, 0.0, 1.2]])
    def test_source_point_outside_states_rejected(self, point):
        name = "coin_tomography" if len(point) == 1 else "qubit_tomography"
        data = json.loads(emit_config(default_config(name)))
        data["agents"][1]["point"] = point
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("point outside" in v for v in err.value.violations)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("path,value", [
        (("agents", 1, "point"), [1e300, 0.0, 0.0]),
        (("agents", 0, "prior"), {"kind": "delta", "points": [[0.0, -1e300, 1e300]]}),
    ])
    def test_huge_bloch_point_rejected_without_warning(self, path, value):
        # a numpy overflow warning would go to stderr before the CLI's JSON error
        data = json.loads(emit_config(default_config("qubit_tomography")))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("outside the Bloch ball" in v for v in err.value.violations)

    def test_negative_steps(self):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["n_steps"] = -1
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any("n_steps" in v for v in err.value.violations)

    @pytest.mark.parametrize("key,value", [("seed", -1), ("seed", 1.7), ("seed", "3"),
                                           ("n_steps", "10"), ("n_steps", True),
                                           ("n_steps", 2.0)])
    def test_seed_and_steps_must_be_nonnegative_integers(self, key, value):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [f"{key} must be an integer >= 0, got {value!r}"]

    @pytest.mark.parametrize("value", [0, "x", 2.7, True, 10.0])
    def test_summary_interval_must_be_positive_integer(self, value):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["summary_interval"] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [
            f"summary_interval must be an integer >= 1, got {value!r}"]

    @pytest.mark.parametrize("value", [2.5, 1, "5", True])
    def test_n_particles_must_be_integer_at_least_2(self, value):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][0]["n_particles"] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        agent = data["agents"][0]["id"]
        assert err.value.violations == [
            f"agent {agent!r}: n_particles must be an integer >= 2, got {value!r}"]

    @pytest.mark.parametrize("prior,message", [
        ({"kind": "grid_uniform", "lo": "a"}, "invalid interval [a, 1.0]"),
        ({"kind": "grid_uniform", "hi": None}, "invalid interval [0.0, None]"),
        ({"kind": "grid_uniform", "lo": 0.5, "hi": 0.5}, "invalid interval [0.5, 0.5]"),
        ({"kind": "grid_beta", "alpha": "a", "beta": 2.0},
         "Beta parameters must be positive numbers"),
    ])
    def test_interval_and_beta_prior_numbers_checked(self, prior, message):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][0]["prior"] = prior
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        agent = data["agents"][0]["id"]
        assert err.value.violations == [f"agent {agent!r}: {message}"]

    @pytest.mark.parametrize("values,message", [
        ({"W": [1.0, 2.0]}, "'W', which is not on menu 'paulis'"),
        ({"Z": [1.0, 2.0, 3.0]}, "'Z' has 3 values, expected 2"),
        ({"Z": 1.0}, "'Z' must be a list of finite numbers"),
        ({"Z": [1.0, None]}, "'Z' must be a list of finite numbers"),
    ])
    def test_utility_table_checked_against_menu(self, values, message):
        data = json.loads(emit_config(default_config("quantum_pair_biasedZ")))
        data["agents"][1]["utility"]["values"] = values
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [f"agent 'bob': utility for action {message}"]

    @pytest.mark.parametrize("slot,extra,message", [
        (0, {"peak": 0.5}, "grid pdf 'semicircle': unknown parameters ['peak']"),
        (1, {"width": 0.1}, "grid pdf 'triangular': unknown parameters ['width']"),
        (1, {"peak": 1.0}, "triangular peak must lie in (0, 1), got 1.0"),
        (1, {"peak": "high"}, "triangular peak must lie in (0, 1), got 'high'"),
    ])
    def test_grid_pdf_parameters_checked(self, slot, extra, message):
        data = json.loads(emit_config(default_config("classical_pair")))
        data["agents"][slot]["prior"].update(extra)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        agent = data["agents"][slot]["id"]
        assert err.value.violations == [f"agent {agent!r}: {message}"]

    @pytest.mark.parametrize("point,shown", [(["a"], "['a']"), (["0.5"], "['0.5']"),
                                             ([True], "[True]"), (0.5, "0.5")])
    def test_source_point_must_be_numbers(self, point, shown):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][1]["point"] = point
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [
            f"source 'source': point must be a list of numbers, got {shown}"]

    @pytest.mark.parametrize("slot,kind,value", [(0, "agent", [1]), (0, "agent", 7),
                                                 (1, "source", None)])
    def test_ids_must_be_strings(self, slot, kind, value):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][slot]["id"] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [f"{kind} id must be a string, got {value!r}"]

    @pytest.mark.parametrize("name,slot", [("coin_tomography", 1),
                                           ("classical_pair", 1)])
    def test_ids_must_be_distinct(self, name, slot):
        # a shared id would merge two blocks' summaries and curves in the trace
        data = json.loads(emit_config(default_config(name)))
        data["agents"][slot]["id"] = data["agents"][0]["id"]
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [
            f"id {data['agents'][0]['id']!r} is used by more than one agent or "
            "source; ids must be distinct"]

    @pytest.mark.parametrize("points", [["a"], [[0.1, "b", 0.2]], "0.5", 0.5, [True],
                                        [[0.0, 0.0, 1.0], [0.5]], [[0.2, 0.3]],
                                        [[[0.5]]], [float("nan")]])
    def test_delta_points_must_be_numbers(self, points):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][0]["prior"] = {"kind": "delta", "points": points}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [
            "agent 'agent': delta prior points must be a list of finite numbers or "
            f"of 1- or 3-component lists of them, got {points!r}"]

    @pytest.mark.parametrize("name,slot,postulate,n,menu", [
        ("classical_disjoint", 1, "classical", 4, "paulis"),
        ("quinn_clark", 1, "quantum", 4, "paulis"),
    ])
    def test_prior_space_must_fit_n_outcomes(self, name, slot, postulate, n, menu):
        # an agent's beliefs must be states of its postulate: a scalar for
        # N = 2, a Bloch vector for N = 4
        data = json.loads(emit_config(default_config(name)))
        data["agents"][slot].update(postulate=postulate, n_outcomes=n, menu=menu)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert (f"agent {data['agents'][slot]['id']!r}: prior kind 'grid_uniform' lies "
                "in the interval; N=4 needs the ball") in err.value.violations

    def test_malformed_prior_gives_no_regularization_violation(self):
        # clark's z_projection cannot be checked against a prior of no known
        # space; the prior's own violation is the only one
        data = json.loads(emit_config(default_config("quinn_clark")))
        data["agents"][1]["prior"] = {"kind": "delta", "points": ["a"]}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert len(err.value.violations) == 1
        assert "delta prior points" in err.value.violations[0]

    @pytest.mark.parametrize("points", [[0.2, 0.8], [[0.2], [0.8]]])
    def test_valid_delta_points_run(self, points):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["n_steps"] = 3
        data["agents"][0]["prior"] = {"kind": "delta", "points": points}
        trace = run_config(parse_config(json.dumps(data)))
        assert len(trace.records) == 3

    @pytest.mark.parametrize("value", ["two", 2.7, 2.0, 1, True, None, [2]])
    def test_n_outcomes_must_be_integer_at_least_2(self, value):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["agents"][0]["n_outcomes"] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [
            f"agent 'agent': n_outcomes must be an integer >= 2, got {value!r}"]

    @pytest.mark.parametrize("points,weights,message", [
        ([0.2, 0.8], [1.0], "delta prior has 1 weights for 2 points"),
        ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0, 1.0],
         "delta prior has 3 weights for 2 points"),
        ([0.2, 0.8], [-0.5, 1.5],
         "delta prior weights must be nonnegative and not all zero, got [-0.5, 1.5]"),
        ([0.2, 0.8], [0.0, 0.0],
         "delta prior weights must be nonnegative and not all zero, got [0.0, 0.0]"),
        ([0.2, 0.8], [1.0, "a"],
         "delta prior weights must be a list of finite numbers, got [1.0, 'a']"),
        ([0.2, 0.8], 1.0, "delta prior weights must be a list of finite numbers, got 1.0"),
    ])
    def test_delta_weights_checked(self, points, weights, message):
        name = "coin_tomography" if np.ndim(points) == 1 else "qubit_tomography"
        data = json.loads(emit_config(default_config(name)))
        data["agents"][0]["prior"] = {"kind": "delta", "points": points,
                                      "weights": weights}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert err.value.violations == [f"agent 'agent': {message}"]

    @pytest.mark.parametrize("weights", [None, [], [1, 3], [0.0, 2.5]])
    def test_valid_delta_weights_run(self, weights):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["n_steps"] = 3
        data["agents"][0]["prior"] = {"kind": "delta", "points": [0.2, 0.8],
                                      "weights": weights}
        trace = run_config(parse_config(json.dumps(data)))
        assert len(trace.records) == 3

    def test_all_violations_reported_at_once(self):
        data = json.loads(emit_config(default_config("coin_tomography")))
        data["scenario"] = "nope"
        data["n_steps"] = -5
        data["agents"][0]["menu"] = "juggle"
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert len(err.value.violations) >= 3

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")


class TestUnallocatableEnsemble:
    """An ``n_particles`` the config accepts but memory cannot hold fails in
    ``build_runtime`` as one ``ConfigError``.  Nothing is allocated for real:
    numpy refuses a byte count beyond ``intp`` before allocating, and the
    ``MemoryError`` is raised by a stand-in."""

    @staticmethod
    def sized(name, n):
        cfg = default_config(name, seed=1)
        return replace(cfg, agents=(replace(cfg.agents[0], n_particles=n),)
                       + cfg.agents[1:])

    @pytest.mark.parametrize("name", ["coin_tomography", "qubit_tomography"])
    @pytest.mark.parametrize("n", [2**62, int(np.iinfo(np.intp).max)])
    def test_byte_count_beyond_intp(self, name, n):
        cfg = self.sized(name, n)
        assert validate_config(cfg) == []
        with pytest.raises(ConfigError) as info:
            build_runtime(cfg)
        (violation,) = info.value.violations
        assert violation.startswith(f"agent 'agent': n_particles {n} cannot be allocated (")

    @pytest.mark.parametrize("name,builder", [("coin_tomography", "grid_ensemble"),
                                              ("qubit_tomography", "sample_uniform")])
    def test_memory_error(self, monkeypatch, name, builder):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(f"qbagents.scenarios.{builder}", out_of_memory)
        with pytest.raises(ConfigError) as info:
            build_runtime(self.sized(name, 2**40))
        assert info.value.violations == [
            "agent 'agent': n_particles 1099511627776 cannot be allocated "
            "(MemoryError: Unable to allocate 8.00 TiB)"]

    def test_batch_raises_it(self):
        with pytest.raises(ConfigError):
            batch(self.sized("coin_tomography", 2**62), 2)

    def test_grid_pdf_zero_at_every_point(self):
        # two grid points sit at 0 and 1, where the semicircle vanishes
        cfg = default_config("classical_pair", seed=1)
        cfg = replace(cfg, agents=(replace(cfg.agents[0], n_particles=2), cfg.agents[1]))
        assert validate_config(cfg) == []
        with pytest.raises(ConfigError) as info:
            build_runtime(cfg)
        assert info.value.violations == [
            "agent 'alice': prior 'grid_pdf' on n_particles 2: "
            "pdf is zero everywhere on the grid"]


class TestDefaults:
    def test_default_particle_counts(self):
        spec = build_runtime(default_config("qubit_tomography"))
        assert spec.slots[0].ensemble.n == DEFAULT_BALL_PARTICLES
        spec = build_runtime(default_config("coin_tomography"))
        assert spec.slots[0].ensemble.n == DEFAULT_GRID_POINTS
        assert spec.slots[0].ensemble.grid

    def test_clara_prior_restricted_to_ball(self):
        spec = build_runtime(default_config("quinn_clara_pauli"))
        clara = spec.slots[1]
        assert clara.postulate.kind == "classical"
        assert clara.postulate.n_outcomes == 4
        assert np.all(np.linalg.norm(clara.ensemble.points, axis=1) <= 1 + 1e-9)


class TestSmokeRuns:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_scenario_runs(self, name):
        cfg = small_config(name)
        try:
            trace = run_config(cfg)
        except ImpossibleOutcomeError:
            assert name.startswith("prior_")
            return
        assert len(trace.records) == SMALL["n_steps"]
        assert set(trace.final["summaries"]) == {
            b.id for b in cfg.agents if hasattr(b, "prior")}

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_default_config_runs_quickly(self, name):
        import time
        start = time.monotonic()
        try:
            run_config(default_config(name, seed=8))
        except ImpossibleOutcomeError:
            assert name.startswith("prior_")
        assert time.monotonic() - start < 60.0


class TestEmission:
    def test_curve_integrates_to_one(self, tmp_path):
        cfg = replace(default_config("coin_tomography", seed=1), n_steps=40)
        trace = run_config(cfg)
        paths = emit_plot_data(trace, str(tmp_path))
        rows = open(paths["curve:agent"]).read().strip().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert header[0] == "theta"
        for col in range(1, data.shape[1]):
            assert data[:, col].sum() == pytest.approx(1.0, abs=1e-6)

    def test_axes_cadence(self, tmp_path):
        cfg = replace(default_config("qubit_tomography", seed=1), n_steps=30)
        trace = run_config(cfg)
        paths = emit_plot_data(trace, str(tmp_path))
        rows = open(paths["axes:agent"]).read().strip().splitlines()[1:]
        steps = [int(r.split(",")[0]) for r in rows]
        assert steps == [10, 20, 30]

    def test_empty_trace_headers_only(self, tmp_path):
        cfg = replace(default_config("coin_tomography", seed=1), n_steps=0)
        trace = run_config(cfg)
        paths = emit_trace(trace, str(tmp_path))
        lines = open(paths["steps"]).read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("step,agent_action")

    def test_summary_json_loads(self, tmp_path):
        cfg = replace(default_config("classical_pair", seed=2), n_steps=5)
        paths = emit_trace(run_config(cfg), str(tmp_path))
        summary = json.load(open(paths["summary"]))
        assert summary["scenario"] == "classical_pair"
        assert summary["seed"] == 2
        assert "alice" in summary["final"]["summaries"]

    def test_steps_csv_17_digit_reproducibility(self, tmp_path):
        cfg = replace(default_config("quantum_pair_flat", seed=6), n_steps=10)
        p1 = emit_trace(run_config(cfg), str(tmp_path / "a"))
        p2 = emit_trace(run_config(cfg), str(tmp_path / "b"))
        assert open(p1["steps"]).read() == open(p2["steps"]).read()


class TestBatch:
    def test_single_seed_matches_single_run(self):
        cfg = replace(small_config("classical_pair", seed=21), n_steps=12)
        result = batch(cfg, 1)
        trace = run_config(cfg)
        assert result.rows[0]["final_metrics"] == trace.final["last_metrics"]
        assert result.aggregates["n_errors"] == 0

    @pytest.mark.parametrize("name,n_steps", [("classical_pair", 25),
                                              ("classical_pair", 4),
                                              ("quantum_pair_biasedZ", 15),
                                              ("prior_coins_simultaneous", 6)])
    def test_rows_equal_rows_of_full_runs(self, name, n_steps):
        cfg = replace(small_config(name, seed=31), n_steps=n_steps)
        result = batch(cfg, 4)
        for i, row in enumerate(result.rows):
            seed = cfg.seed + i
            try:
                trace = run_config(replace(cfg, seed=seed))
            except ImpossibleOutcomeError as err:
                assert row == {"seed": seed, "error": "impossible_outcome",
                               "step": err.step, "agent": err.agent_id}
                continue
            early = trace.records[min(EARLY_STEP, n_steps) - 1]
            assert row == {
                "seed": seed,
                "final_metrics": trace.final["last_metrics"],
                "early_metrics": early.metrics,
                "final_summaries": {
                    aid: {"mean": s["mean"], "semi_major": s["semi_major"]}
                    for aid, s in trace.final["summaries"].items()},
            }

    def test_errors_recorded_not_fatal(self):
        cfg = replace(default_config("prior_coins_simultaneous", seed=0), n_steps=5)
        result = batch(cfg, 30)
        errors = [r for r in result.rows if "error" in r]
        assert 0 < len(errors) < 30
        assert all(r["error"] == "impossible_outcome" for r in errors)
        assert result.aggregates["n_errors"] == len(errors)

    def test_quantum_flat_batch_converges(self):
        # pilot-calibrated threshold: the median final distance between the
        # two posterior means sits well under 0.2 at full scale
        cfg = default_config("quantum_pair_flat", seed=100)
        small = replace(small_config("quantum_pair_flat", seed=100), n_steps=100)
        result = batch(small, 10)
        assert result.aggregates["mean_trace_distance"]["median"] < 0.2


class TestCrossRegistry:
    """Every registry scenario paired with every other scenario's agents: the
    scenario's metrics read slots of a fixed kind, so a pairing either runs
    or is one ``ConfigError``, never a crash inside the run."""

    @pytest.mark.parametrize("scenario,agents_of", [
        (scenario, agents_of) for scenario in sorted(REGISTRY)
        for agents_of in sorted(REGISTRY) if agents_of != scenario])
    def test_pair_runs_or_is_rejected(self, scenario, agents_of):
        cfg = replace(small_config(agents_of), scenario=scenario)
        try:
            trace = run_config(cfg)
        except (ConfigError, ImpossibleOutcomeError):
            return
        assert len(trace.records) == SMALL["n_steps"]


def _paths(node, path=()):
    """The path of every key and list index in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


VOCABULARY = sorted({*REGISTRY, *PRIORS, *MENUS, *POSTULATES, *UTILITIES, *GRID_PDFS,
                     *MODES, *REGULARIZERS, "X", "Z", "source", "kind", ""})
# no value here allocates a large ensemble: 2**62 is refused by numpy before it
# allocates, and intp max + 1 by the config check
POOL = [None, True, False, *range(-3, 21), 2**62, int(np.iinfo(np.intp).max) + 1,
        0.0, 0.5, 1.0, -0.5, 1.5, 2.0, 1e300, float("inf"), float("-inf"), float("nan"),
        *VOCABULARY, [], [0.5], [1.0, 0.0, 0.0], [0.3, 0.3], [[0.2], [0.8]], ["a"], [[]],
        {}, {"kind": "uniform"}, {"kind": "uniform_ball"}, {"kind": "grid_uniform"},
        {"kind": "delta", "points": [0.5]}, {"kind": "delta", "points": [[0.0, 0.0, 1.0]]},
        {"kind": "table", "values": {"Z": [1.0, 2.0]}}, {"Z": [1.0, 2.0]},
        {"id": "x", "source": True, "point": [0.5]}, ABSENT]


@st.composite
def mutated_configs(draw) -> str:
    """A registry config at small ensemble sizes with one key, at any depth,
    set to a value from ``POOL`` (``ABSENT`` deletes it)."""
    cfg = small_config(draw(st.sampled_from(sorted(REGISTRY))))
    data = json.loads(emit_config(cfg))
    path = draw(st.sampled_from(list(_paths(data))))
    target = data
    for key in path[:-1]:
        target = target[key]
    value = draw(st.sampled_from(POOL))
    if value is ABSENT:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(data)


class TestMutatedConfigs:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(mutated_configs())
    def test_mutation_runs_or_is_one_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError as err:
            assert err.violations
            return
        cfg = replace(cfg, n_steps=min(cfg.n_steps, SMALL["n_steps"]))
        try:
            trace = run_config(cfg)
        except (ConfigError, ImpossibleOutcomeError):
            return
        assert len(trace.records) == cfg.n_steps


class TestSchemaGuard:
    """A new field, prior kind or menu cannot skip its check or its
    documentation."""

    @pytest.mark.parametrize("cls", list(FIELDS))
    def test_field_table_covers_the_dataclass(self, cls):
        assert list(FIELDS[cls]) == [f.name for f in fields(cls)]

    @pytest.mark.parametrize("name", sorted({*PRIORS, *MENUS}))
    def test_prior_kinds_and_menus_documented(self, name):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        section = re.search(r"^### Configs$(.*?)^### ", readme, re.S | re.M).group(1)
        assert f"`{name}`" in section
