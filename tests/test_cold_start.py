"""Cold start: ``import qbagents`` loads numpy and not scipy.

scipy is loaded only where it is evaluated: ``scipy.special`` with its scalar
kernels ``scipy.special.cython_special`` at the first Beta function (the
truncated and triangular priors of the classical pairs, the appendix
battery), ``scipy.linalg`` in ``sqrt_phi``.  Each check runs in a fresh
interpreter, since the test session itself has scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """\
import sys
from dataclasses import replace
import qbagents
from qbagents import scenarios

def short(name, n_steps=5):
    return replace(scenarios.default_config(name, 7), n_steps=n_steps)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def child(body: str, tmp_path) -> str:
    """Run ``body`` after ``PRELUDE`` in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    assert child("print(scipy_modules())", tmp_path) == "[]"


@pytest.mark.parametrize("scenario",
                         ["qubit_tomography", "quantum_pair_biasedZ", "coin_tomography"])
def test_short_run_and_emission_load_no_scipy(tmp_path, scenario):
    body = f"""
from qbagents import trace_io
trace = scenarios.run_config(short({scenario!r}))
trace_io.emit_trace(trace, "out")
trace_io.emit_plot_data(trace, "out")
scenarios.batch(short({scenario!r}), 2)
print(scipy_modules())
"""
    assert child(body, tmp_path) == "[]"


def test_cli_run_loads_no_scipy(tmp_path):
    body = """
from qbagents.cli import main
with open("cfg.json", "w", encoding="utf8") as fh:
    fh.write(scenarios.emit_config(short("qubit_tomography")))
try:
    main(["run", "cfg.json", "--out-dir", "out"])
except SystemExit as done:
    assert not done.code, done.code
print(scipy_modules())
"""
    assert child(body, tmp_path) == "[]"
    assert any(tmp_path.joinpath("out").iterdir())


def test_classical_pair_step_loads_special(tmp_path):
    # the truncated prior evaluates incomplete Beta functions from its first
    # step, through the module ``core_math`` then binds in place of its stand-in
    body = """
from qbagents import core_math
before = "scipy.special" in sys.modules
scenarios.run_config(short("classical_pair", n_steps=1))
print(before, core_math.special is sys.modules.get("scipy.special"))
"""
    assert child(body, tmp_path) == "False True"


def test_classical_pair_build_loads_no_scipy(tmp_path):
    # the body the benchmark's set-up time measures: building the Beta-count
    # agents evaluates no Beta function
    body = """
scenarios.build_runtime(scenarios.parse_config(scenarios.emit_config(short("classical_pair"))))
print(scipy_modules())
"""
    assert child(body, tmp_path) == "[]"


def test_classical_pair_step_loads_both_special_modules(tmp_path):
    # the closed forms read only the scalar kernels, and the read that binds
    # them binds ``scipy.special`` too
    body = """
from qbagents import core_math
from qbagents.interaction import run
spec = scenarios.build_runtime(short("classical_pair", n_steps=1))
before = scipy_modules()
run(spec)
print(before, core_math.special is sys.modules.get("scipy.special"),
      core_math.scalar is sys.modules.get("scipy.special.cython_special"))
"""
    assert child(body, tmp_path) == "[] True True"


def test_sqrt_phi_loads_linalg(tmp_path):
    body = """
before = "scipy.linalg" in sys.modules
scenarios.build_runtime(short("quinn_clara_sharp"))
print(before, "scipy.linalg" in sys.modules)
"""
    assert child(body, tmp_path) == "False True"
