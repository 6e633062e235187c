"""Self-tests of the benchmark: the output checks are live, tracing changes no
output bytes, and the metric names and BENCHMARK.json agree."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def qb():
    return bench_run.load_library()


def small_batch(qb, scenario, n_steps, n_particles=None):
    sc = qb.scenarios
    config = replace(sc.default_config(scenario, 7), n_steps=n_steps)
    if n_particles:
        config = replace(config, agents=tuple(replace(a, n_particles=n_particles)
                                              for a in config.agents))
    return sc.batch(config, 2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert per_layer == spans.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]


def test_pair_1d_check_rejects_corruption(qb):
    result = small_batch(qb, "classical_pair", 5)
    assert workloads.check_pair_1d(result) == {}
    gap = result.rows[0]["final_metrics"]
    gap["mean_gap"] += 1e-6
    assert list(workloads.check_pair_1d(result)) == [0]
    gap["mean_gap"] -= 1e-6
    result.rows[1]["final_summaries"]["alice"]["mean"] = [1.5]
    assert list(workloads.check_pair_1d(result)) == [1]
    result.rows[1] = {"seed": 8, "error": "impossible_outcome"}
    assert 1 in workloads.check_pair_1d(result)


def test_pair_ball_check_rejects_corruption(qb):
    result = small_batch(qb, "quantum_pair_biasedZ", 3, n_particles=200)
    assert workloads.check_pair_ball(result) == {}
    result.rows[0]["final_metrics"]["mean_trace_distance"] *= 1.01
    assert list(workloads.check_pair_ball(result)) == [0]
    result.rows[1]["final_summaries"]["bob"]["mean"] = [0.9, 0.9, 0.0]
    assert 1 in workloads.check_pair_ball(result)
    result.aggregates["n_errors"] = 1
    assert -1 in workloads.check_pair_ball(result)


def test_emitted_run_check_rejects_corruption(qb, tmp_path):
    sc, io = qb.scenarios, qb.trace_io
    n_grid = qb.core_math.DEFAULT_GRID_POINTS
    trace = sc.run_config(replace(sc.default_config("coin_tomography", 5), n_steps=10))
    steps = io.emit_trace(trace, str(tmp_path))["steps"]
    assert workloads.check_emitted_run(trace, steps, 10, n_grid) == []
    assert workloads.check_emitted_run(trace, steps, 11, n_grid) != []

    # A posterior mean perturbed in the trace no longer parses back.
    record = trace.records[3]
    learner = record.agents[0]
    moved = replace(learner, mean=(learner.mean[0] + 1e-9,))
    trace.records[3] = replace(record, agents=(moved,) + record.agents[1:])
    assert workloads.check_emitted_run(trace, steps, 10, n_grid) != []

    # Means moved in both the trace and the CSV break the conjugate check.
    far = replace(learner, mean=(learner.mean[0] + 0.2,))
    trace.records[3] = replace(record, agents=(far,) + record.agents[1:])
    steps = io.emit_trace(trace, str(tmp_path))["steps"]
    problems = workloads.check_emitted_run(trace, steps, 10, n_grid)
    assert problems and "conjugate" in problems[0]


def test_appendix_check_rejects_fail_row(qb):
    rows = qb.agreement.verify_appendix_claims(chi_max_n=3, kdist_max_n=2,
                                               n_beta_pairs=10)
    assert workloads.check_appendix(rows) == {}
    rows[2]["passed"] = False
    assert list(workloads.check_appendix(rows)) == [2]
    assert -1 in workloads.check_appendix(rows[:3])


def test_tracing_leaves_steps_csv_byte_identical(qb, tmp_path):
    workload = workloads.RunEmitShort(qb, 11, str(tmp_path))
    untraced = bench_run.run_op(workload, 0)[3]
    assert untraced.failed == 0
    first = list(workload.first_steps)

    originals = {name: getattr(qb.interaction, name)
                 for name in ("bayes_update", "choose_action", "sample_outcome")}
    recorder = spans.SpanRecorder(vars(qb))
    traced = bench_run.run_op(workload, 0, recorder)[3]
    # The check compares operation 0's steps CSVs with the untraced run's.
    assert traced.problems == {}
    assert workload.first_steps == first
    assert all(getattr(qb.interaction, n) is f for n, f in originals.items())

    table = recorder.layer_table()["layers"]
    assert table["trace_io.emit_trace"]["calls"] == 2
    assert table["inference.bayes_update"]["calls"] == 2 * workloads.SHORT_STEPS
    assert recorder.io_files > 0 and recorder.io_bytes > 0
    names, self_s = recorder.self_times()
    assert np.all(self_s > -1e-6)
    assert list(tmp_path.iterdir()) == []

    # Every per-layer metric is reported, with the unit BENCHMARK.json gives.
    sample = bench_run.Sample(1.0, 1.0, 0.01, traced)
    values, _table = spans.layer_metrics(recorder, [sample], [sample])
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in values.items()}


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "appendix_verify", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
