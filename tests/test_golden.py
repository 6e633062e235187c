"""Golden digests: the determinism contract as a byte-level oracle.

For every registry scenario and seeds 1-3, at ``n_steps = min(default, 200)``,
the sha256 of every file that ``emit_trace`` and ``emit_plot_data`` write is
pinned in ``golden_digests.json``.  Runs that polarize under prior sampling pin
the step and agent of their ``ImpossibleOutcomeError`` instead.  The same file
pins the ``emit_batch`` JSON of a 3-seed ``batch`` for each of ``BATCH_CASES``:
its early metrics, final summaries and error rows.  The cases cover a grid
pair, a particle pair with resample-move, polarizing delta priors under both
prior-sampling modes, prior sampling over 10,001 grid and 10,000 particle
weights, and a run shorter than ``EARLY_STEP``, whose early and final steps
coincide.  A change that alters any of these bytes changes behaviour and has
to say so.

The runs happen in the child processes of the environment matrix
(``digest_child.py``): at one BLAS thread and at two, and under the OpenBLAS
kernel this machine selects, the generic one and ``Haswell``.  Every row must
give the golden bytes, since no sum on a run path goes through BLAS or
LAPACK.  Other BLAS builds and other numpy builds were not tested; on such a
platform, compare with a known-good commit before trusting a mismatch.

Regenerate (only for a deliberate behaviour change), every digest or only the
named keys, leaving the others as they are:

    PYTHONPATH=src python tests/test_golden.py --write
    PYTHONPATH=src python tests/test_golden.py --write qubit_tomography/seed1 batch/classical_pair

The byte oracle beyond the suite writes the files themselves, one directory
per key (``impossible_outcome.json`` with the step, agent and message for a
run that polarizes); ``--full`` runs every registry scenario at its registry
size instead of at most ``MAX_STEPS`` steps.  Two checkouts are then compared
with one ``diff -r``:

    PYTHONPATH=src python tests/test_golden.py --emit DIR [--full]
"""

import os
import sys

BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy loads

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import pytest  # noqa: E402

import digest_child  # noqa: E402
from digest_child import BLAS_ROWS, output  # noqa: E402
from qbagents.agreement import mean_contraction_gap  # noqa: E402
from qbagents.errors import ImpossibleOutcomeError  # noqa: E402
from qbagents.inference import BetaMixture, grid_ensemble  # noqa: E402
from qbagents.postulate import Interval  # noqa: E402
from qbagents.scenarios import REGISTRY, batch, default_config, run_config  # noqa: E402
from qbagents.trace_io import emit_batch, emit_plot_data, emit_trace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_digests.json")
SEEDS = (1, 2, 3)
MAX_STEPS = 200
CASES = [(name, seed) for name in sorted(REGISTRY) for seed in SEEDS]
BATCH_STEPS = 20
GAP_SHAPES = (0.5, 1.0, 2.5, 7.0, 40.0)  # Beta(alpha, beta) count beliefs, 25, 625 pairs
# batch case -> (scenario, n_steps, prior given to both agents, or None to
# keep the registry's)
BATCH_CASES = {
    "classical_pair": ("classical_pair", BATCH_STEPS, None),
    "classical_pair/steps5": ("classical_pair", 5, None),
    "prior_coins_simultaneous": ("prior_coins_simultaneous", BATCH_STEPS, None),
    "prior_coins_simultaneous/semicircle": (
        "prior_coins_simultaneous", BATCH_STEPS, {"kind": "grid_pdf", "name": "semicircle"}),
    "prior_qubits_turns": ("prior_qubits_turns", BATCH_STEPS, None),
    "prior_qubits_turns/uniform_ball": (
        "prior_qubits_turns", BATCH_STEPS, {"kind": "uniform_ball"}),
    "quantum_pair_biasedZ": ("quantum_pair_biasedZ", BATCH_STEPS, None),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_case(scenario: str, seed: int, max_steps: int | None = MAX_STEPS):
    """The trace of one registry run at ``n_steps = min(default, max_steps)``
    (the default when ``max_steps`` is None), or the ``ImpossibleOutcomeError``
    that ended it."""
    cfg = default_config(scenario, seed)
    if max_steps is not None:
        cfg = replace(cfg, n_steps=min(cfg.n_steps, max_steps))
    try:
        return run_config(cfg)
    except ImpossibleOutcomeError as err:
        return err


def _emit(trace, out_dir: str) -> dict:
    paths = emit_trace(trace, out_dir)
    paths.update(emit_plot_data(trace, out_dir))
    return paths


def golden_record(scenario: str, seed: int, out_dir: str) -> dict:
    """{file name: sha256} of one run's emitted files, or its polarization point."""
    result = run_case(scenario, seed)
    if isinstance(result, ImpossibleOutcomeError):
        return {"impossible_outcome": {"step": result.step, "agent": result.agent_id}}
    return dict(sorted((os.path.basename(p), _sha256(p))
                       for p in _emit(result, out_dir).values()))


def batch_file(case: str, out_dir: str) -> str:
    """The path of the batch JSON of one of ``BATCH_CASES`` for seeds SEEDS,
    written under ``out_dir``."""
    scenario, n_steps, prior = BATCH_CASES[case]
    cfg = replace(default_config(scenario, SEEDS[0]), n_steps=n_steps)
    if prior is not None:
        cfg = replace(cfg, agents=tuple(replace(a, prior=prior) for a in cfg.agents))
    return emit_batch(batch(cfg, len(SEEDS)), out_dir)


def batch_digest(case: str, out_dir: str) -> str:
    """sha256 of the batch JSON of one of ``BATCH_CASES`` for seeds SEEDS."""
    return _sha256(batch_file(case, out_dir))


def emit_cases(out_dir: str, full: bool = False) -> None:
    """Write every case's files under ``out_dir``, one directory per golden
    key; with ``full``, the runs at registry size."""
    for name, seed in CASES:
        key_dir = os.path.join(out_dir, _key(name, seed))
        result = run_case(name, seed, None if full else MAX_STEPS)
        if isinstance(result, ImpossibleOutcomeError):
            os.makedirs(key_dir, exist_ok=True)
            with open(os.path.join(key_dir, "impossible_outcome.json"), "w",
                      encoding="utf8") as fh:
                json.dump({"step": result.step, "agent": result.agent_id,
                           "message": str(result)}, fh, sort_keys=True)
                fh.write("\n")
        else:
            _emit(result, key_dir)
    for case in BATCH_CASES:
        batch_file(case, os.path.join(out_dir, _batch_key(case)))


def _key(scenario: str, seed: int) -> str:
    return f"{scenario}/seed{seed}"


def _batch_key(case: str) -> str:
    return f"batch/{case}"


KEYS = [_key(name, seed) for name, seed in CASES] + [_batch_key(case) for case in BATCH_CASES]


def golden_table() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name, seed in CASES:
            key = _key(name, seed)
            table[key] = golden_record(name, seed, os.path.join(tmp, key))
        for case in BATCH_CASES:
            table[_batch_key(case)] = batch_digest(case, os.path.join(tmp, "batch"))
        return table


def gap_digest() -> str:
    """sha256 of ``mean_contraction_gap`` over 625 pairs of count beliefs."""
    prior = grid_ensemble(Interval(), 101)
    beliefs = [BetaMixture(prior, ((0.0, a, b, 0.0, 1.0),)) for a in GAP_SHAPES for b in GAP_SHAPES]
    gaps = [mean_contraction_gap(a, b) for a in beliefs for b in beliefs]
    return hashlib.sha256(repr(gaps).encode()).hexdigest()


def rewrite_golden(keys: list, path: str = GOLDEN_PATH, table=golden_table):
    """Replace the digests of ``keys`` in the file at ``path`` with those of
    ``table()``, leaving all others untouched; with no keys, write every
    digest afresh."""
    unknown = sorted(set(keys) - set(KEYS))
    if unknown:
        raise SystemExit(f"unknown golden keys: {unknown}")
    golden = {}
    if keys:
        with open(path, encoding="utf8") as fh:
            golden = json.load(fh)
    fresh = table()
    golden.update({key: fresh[key] for key in keys or KEYS})
    with open(path, "w", encoding="utf8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(KEYS)


def test_rewrite_replaces_only_the_named_keys(golden, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    named = ["quinn_clark/seed2", "batch/classical_pair"]
    rewrite_golden(named, str(path), table=lambda: {k: f"new {k}" for k in KEYS})
    rewritten = json.loads(path.read_text())
    assert {k for k in golden if rewritten[k] != golden[k]} == set(named)
    assert all(rewritten[k] == f"new {k}" for k in named)


def test_rewrite_rejects_unknown_keys(golden, tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    with pytest.raises(SystemExit, match="no_such_scenario/seed1"):
        rewrite_golden(["qubit_tomography/seed1", "no_such_scenario/seed1"], str(path),
                       table=lambda: {k: "new" for k in KEYS})
    assert json.loads(path.read_text()) == golden


def test_emit_writes_the_golden_bytes(golden, tmp_path, monkeypatch):
    cases = [("coin_tomography", 2), ("prior_coins_simultaneous", 1)]
    monkeypatch.setattr(sys.modules[__name__], "CASES", cases)
    monkeypatch.setattr(sys.modules[__name__], "BATCH_CASES",
                        {"classical_pair/steps5": BATCH_CASES["classical_pair/steps5"]})
    emit_cases(str(tmp_path))
    for name, seed in cases:
        key_dir = tmp_path / _key(name, seed)
        files = {p.name: _sha256(str(p)) for p in key_dir.iterdir()}
        expected = golden[_key(name, seed)]
        if "impossible_outcome" in expected:
            record = json.loads((key_dir / "impossible_outcome.json").read_text())
            assert {k: record[k] for k in ("step", "agent")} == expected["impossible_outcome"]
        else:
            assert files == expected
    (batch_json,) = (tmp_path / "batch" / "classical_pair" / "steps5").iterdir()
    assert _sha256(str(batch_json)) == golden["batch/classical_pair/steps5"]


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("env", BLAS_ROWS)
def test_bytes_match_golden(golden, env, key):
    assert output(env, *BLAS_ROWS)["golden"][key] == golden[key]


def test_gap_is_the_same_at_one_and_two_threads():
    assert output("default", *BLAS_ROWS)["gap"] == output("two_threads", *BLAS_ROWS)["gap"]


def test_a_row_runs_its_child_once(monkeypatch):
    first = output("default", *BLAS_ROWS)
    monkeypatch.setattr(digest_child, "_run_child", lambda row: pytest.fail(f"{row} ran again"))
    assert output("default", *BLAS_ROWS) is first


def test_rows_run_two_at_a_time(monkeypatch):
    running, peaks = [], []

    def child(row):
        running.append(row)
        peaks.append(len(running))
        time.sleep(0.05)
        running.remove(row)
        return {"row": row}

    rows = {f"r{k}": digest_child.Row({}, ()) for k in range(5)}
    monkeypatch.setattr(digest_child, "ENVIRONMENTS", {**rows, "off": digest_child.Row({}, (), "off")})
    monkeypatch.setattr(digest_child, "_outputs", {})
    monkeypatch.setattr(digest_child, "_run_child", child)
    assert output("r1", *rows, "off") == {"row": "r1"}
    assert max(peaks) == 2 and len(peaks) == len(rows) and not running
    assert output("r4") == {"row": "r4"} and len(peaks) == len(rows)
    with pytest.raises(pytest.skip.Exception, match="off"):
        output("off")


def test_a_failed_child_fails_each_call_with_its_stderr(monkeypatch):
    runs = []
    monkeypatch.setitem(digest_child.ENVIRONMENTS, "broken",
                        digest_child.Row({}, ("no_such_part",)))
    monkeypatch.setattr(digest_child, "_outputs", {})
    monkeypatch.setattr(digest_child, "_run_child",
                        lambda row, run=digest_child._run_child: runs.append(row) or run(row))
    for _ in range(2):
        with pytest.raises(digest_child.ChildFailed, match="(?s)Traceback.*'no_such_part'"):
            output("broken")
    assert runs == ["broken"]


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--write"]:
        rewrite_golden(args[1:])
    elif args[:1] == ["--emit"] and args[2:] in ([], ["--full"]) and len(args) > 1:
        emit_cases(args[1], full=args[2:] == ["--full"])
    else:
        raise SystemExit("usage: test_golden.py --write [KEY ...] | --emit DIR [--full]")
