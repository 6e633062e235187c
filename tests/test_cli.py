import json
import os
import tempfile
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings

from qbagents.cli import main
from qbagents.errors import ConfigError
from qbagents.scenarios import default_config, emit_config, parse_config
from test_scenarios import SHAPE_HOLES, VALUE_HOLES, config_with, mutated_configs


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name="coin_tomography", seed=3, n_steps=20, **kw):
    cfg = replace(default_config(name, seed=seed), n_steps=n_steps, **kw)
    path = tmp_path / "config.json"
    path.write_text(emit_config(cfg))
    return str(path)


def test_list_scenarios(runner):
    result = runner.invoke(main, ["list-scenarios"])
    assert result.exit_code == 0
    for name in ("coin_tomography", "qubit_tomography", "quinn_clark"):
        assert name in result.output


def test_run_emits_files(runner, tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "ok"
    assert os.path.exists(payload["paths"]["steps"])
    assert os.path.exists(payload["paths"]["summary"])


def test_run_env_var_out_dir(runner, tmp_path):
    cfg = write_config(tmp_path, seed=4, n_steps=5)
    out = tmp_path / "from_env"
    result = runner.invoke(main, ["run", cfg],
                           env={"QBAGENTS_OUT_DIR": str(out)})
    assert result.exit_code == 0, result.output
    assert out.is_dir()
    assert any(p.name.endswith("_steps.csv") for p in out.iterdir())


def test_run_rejects_bad_config(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "scenario": "nope", "seed": 1, "n_steps": 5,
        "agents": [
            {"id": "a", "postulate": "quantum", "n_outcomes": 2,
             "prior": {"kind": "uniform_ball"}, "menu": "paulis",
             "utility": {"kind": "uniform"}},
            {"id": "s", "source": True, "point": [0.5]},
        ]}))
    result = runner.invoke(main, ["run", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "config"
    assert any("N=2 is not the square of an integer" in v for v in err["violations"])


def test_run_rejects_quantum_sharp_menu(runner, tmp_path):
    cfg = default_config("quinn_clara_sharp", seed=1)
    cfg = replace(cfg, agents=(replace(cfg.agents[0], menu="sharp_paulis"),
                               cfg.agents[1]))
    path = tmp_path / "sharp.json"
    path.write_text(emit_config(cfg))
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert any("sharp_paulis" in v for v in err["violations"])


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
def test_config_holes_exit_2(runner, tmp_path, command):
    data = json.loads(emit_config(default_config("quantum_pair_biasedZ", seed=1)))
    data["seed"] = -1
    data["agents"][1]["utility"]["values"] = {"Z": 1.0}
    path = tmp_path / "holes.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, [command[0], str(path), *command[1:],
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["violations"] == [
        "seed must be an integer >= 0, got -1",
        "agent 'bob': utility for action 'Z' must be a list of finite numbers"]


def test_run_reports_polarization(runner, tmp_path):
    # seed chosen so the simultaneous two-sided-coin scenario polarizes
    for seed in range(10):
        cfg = write_config(tmp_path, name="prior_coins_simultaneous",
                           seed=seed, n_steps=5)
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "o")])
        if result.exit_code == 3:
            err = json.loads(result.stderr)
            assert err["error"] == "impossible_outcome"
            assert err["step"] == 2
            return
    pytest.fail("no polarizing seed found in 10 attempts")


def test_batch_writes_aggregates(runner, tmp_path):
    cfg = write_config(tmp_path, name="classical_disjoint", seed=5, n_steps=10)
    out = tmp_path / "batch"
    result = runner.invoke(main, ["batch", cfg, "--seeds", "3",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "ok"
    saved = json.load(open(payload["path"]))
    assert saved["n_seeds"] == 3
    assert len(saved["rows"]) == 3


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
def test_out_dir_that_is_a_file_is_io_error(runner, tmp_path, command):
    cfg = write_config(tmp_path, n_steps=3)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    result = runner.invoke(main, [command[0], cfg, *command[1:],
                                  "--out-dir", str(blocker)])
    assert result.exit_code == 1
    err = json.loads(result.stderr)
    assert err["error"] == "io"
    assert str(blocker) in err["message"]


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
def test_unallocatable_ensemble_exits_2(runner, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text(config_with(("agents", 0, "n_particles"), 2**62))
    result = runner.invoke(main, [command[0], str(path), *command[1:],
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "config"
    assert err["violations"][0].startswith(
        f"agent 'agent': n_particles {2**62} cannot be allocated (ValueError: ")
    assert not (tmp_path / "o").exists()


def test_verify_appendix_passes(runner):
    result = runner.invoke(main, ["verify-appendix", "--chi-max-n", "5",
                                  "--kdist-max-n", "3", "--pairs", "100"])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == 4
    assert "FAIL" not in result.output


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
@pytest.mark.parametrize("slot,key,value,message", [
    (None, "summary_interval", "x", "summary_interval must be an integer >= 1, got 'x'"),
    (None, "summary_interval", 2.7, "summary_interval must be an integer >= 1, got 2.7"),
    (0, "n_particles", 2.5, "agent 'agent': n_particles must be an integer >= 2, got 2.5"),
    (0, "prior", {"kind": "grid_uniform", "lo": "a"},
     "agent 'agent': invalid interval [a, 1.0]"),
    (1, "point", ["a"], "source 'source': point must be a list of numbers, got ['a']"),
    (1, "point", ["0.5"], "source 'source': point must be a list of numbers, got ['0.5']"),
    (0, "id", [1], "agent id must be a nonempty string of letters, digits, '_' and '-', "
                   "got [1]"),
    (0, "prior", {"kind": "delta", "points": [0.2, 0.8], "weights": [1.0]},
     "agent 'agent': delta prior has 1 weights for 2 points"),
    (0, "prior", {"kind": "delta", "points": [0.2, 0.8], "weights": [-0.5, 1.5]},
     "agent 'agent': delta prior weights must be nonnegative and not all zero, "
     "got [-0.5, 1.5]"),
    (0, "prior", {"kind": "delta", "points": ["a"]},
     "agent 'agent': delta prior points must be a list of finite numbers or of 1- "
     "or 3-component lists of them, got ['a']"),
    (0, "n_outcomes", "two", "agent 'agent': n_outcomes must be an integer >= 2, "
     "got 'two'"),
    (0, "n_outcomes", 2.7, "agent 'agent': n_outcomes must be an integer >= 2, got 2.7"),
    (1, "id", "agent", "id 'agent' is used by more than one agent or source; ids "
     "must be distinct"),
])
def test_type_holes_exit_2(runner, tmp_path, command, slot, key, value, message):
    data = json.loads(emit_config(default_config("coin_tomography", seed=1)))
    (data if slot is None else data["agents"][slot])[key] = value
    path = tmp_path / "holes.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, [command[0], str(path), *command[1:],
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["violations"] == [message]


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
def test_n_particles_of_atom_prior_exits_2(runner, tmp_path, command):
    data = json.loads(emit_config(default_config("prior_coins_turns", seed=1)))
    data["agents"][0]["n_particles"] = 5000
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, [command[0], str(path), *command[1:],
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["violations"] == [
        "agent 'alice': prior kind 'two_sided_coin' has fixed atoms and takes no "
        "n_particles, got 5000"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [["--pairs", "-3"], ["--pairs", "0"],
                                  ["--chi-max-n", "0"], ["--kdist-max-n", "0"],
                                  ["--seed", "-1"]])
def test_verify_appendix_rejects_bad_counts(runner, args):
    result = runner.invoke(main, ["verify-appendix", *args])
    assert result.exit_code == 2
    assert "PASS" not in result.output
    assert args[0] in result.output


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_batch_rejects_bad_seed_count(runner, tmp_path, seeds):
    result = runner.invoke(main, ["batch", write_config(tmp_path), "--seeds", seeds,
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "--seeds" in result.output
    assert not (tmp_path / "o").exists()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_configs())
def test_rejected_mutations_exit_2(text):
    try:
        parse_config(text)
    except ConfigError as err:
        violations = err.violations
    else:
        violations = None
    assume(violations is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text)
        result = CliRunner().invoke(main, ["run", path, "--out-dir", os.path.join(tmp, "o")])
    assert result.exit_code == 2
    assert json.loads(result.stderr) == {"error": "config", "violations": violations}


@pytest.mark.parametrize("command", [["run"], ["batch", "--seeds", "2"]])
@pytest.mark.parametrize("path,value,message", SHAPE_HOLES + VALUE_HOLES)
def test_shape_holes_exit_2(runner, tmp_path, command, path, value, message):
    config = tmp_path / "holes.json"
    config.write_text(config_with(path, value))
    result = runner.invoke(main, [command[0], str(config), *command[1:],
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["violations"] == [message]
