"""The CSV table writer against a per-cell reference, byte for byte.

Every CSV cell used to be written by its own ``f"{float(x):.17g}"`` call (and
``str`` for labels); ``trace_io`` now formats each table through one ``%`` row
template.  These tests keep the per-cell form as the reference: on values
chosen to stress the conversion, and on every file of full registry-length
runs, which go beyond the golden digests' 200-step cap.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from qbagents import trace_io
from qbagents.scenarios import default_config, run_config

TINY = float.fromhex("0x1p-1074")  # 5e-324, the smallest subnormal
ADVERSARIAL = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), -float("nan"),
    TINY, -TINY, 2 * TINY, 1e-320, 2.2250738585072009e-308,  # largest subnormal
    sys.float_info.min, sys.float_info.max, -sys.float_info.max,
    # %g turns to exponent form below 1e-4 and at 1e17 (17 digits)
    1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1), 1e-4,
    np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
    np.nextafter(1e16, 2e16), 1e17, np.nextafter(1e17, 0), np.nextafter(1e17, 2e17),
    0.1, 1 / 3, -2.5, 1e300, 1e-300, 12345678901234567.0,
]
INTS = [0, 1, -7, 2**53 + 1, 10**17, -(10**300)]


def cell(x) -> str:
    return f"{float(x):.17g}"


def reference_line(cells) -> str:
    return ",".join(map(cell, cells)) + "\n"


def reference_files(trace) -> dict[str, str]:
    """The files of ``emit_trace`` and ``emit_plot_data`` (bar the summary),
    one ``cell`` call per float cell."""
    files = {}
    records = trace.records
    metric_keys = sorted(records[0].metrics) if records else []
    lines = []
    for rec in records:
        cells = [str(rec.step)]
        for a in rec.agents:
            if a is not None:
                cells += [a.action, str(a.outcome)]
                cells += map(cell, [*a.mean, *a.std, a.semi_major, a.ess])
        lines.append(",".join(cells + [cell(rec.metrics[k]) for k in metric_keys]) + "\n")
    files["steps"] = "".join(lines)
    for aid, snapshots in trace.curves.items():
        grid = snapshots[0][1].points[:, 0]
        weights = [belief.weights for _s, belief in snapshots]
        files[f"curve:{aid}"] = "".join(
            reference_line([grid[i]] + [w[i] for w in weights])
            for i in range(grid.size))
    for aid, (points, weights) in trace.clouds.items():
        files[f"cloud:{aid}"] = "".join(
            reference_line([*points[i], weights[i]]) for i in range(len(weights)))
    interval = trace.config["summary_interval"]
    for k, a0 in enumerate(records[0].agents if records else ()):
        if a0 is None or len(a0.mean) != 3:
            continue
        rows = [(rec.step, rec.agents[k]) for rec in records]
        files[f"axes:{a0.agent_id}"] = "".join(
            f"{step}," + reference_line([a.semi_major, *a.std]) for step, a in rows
            if step % interval == 0 or step == len(records))
        files[f"path:{a0.agent_id}"] = "".join(
            f"{step}," + reference_line(a.mean) for step, a in rows)
    return files


def body(path) -> str:
    with open(path, encoding="utf8") as fh:
        return fh.read().split("\n", 1)[1]


class TestWriteTable:
    def test_adversarial_floats(self, tmp_path):
        rows = [tuple(ADVERSARIAL[i:] + ADVERSARIAL[:i]) for i in range(len(ADVERSARIAL))]
        header = [f"c{k}" for k in range(len(ADVERSARIAL))]
        path = trace_io.write_table(str(tmp_path / "t.csv"), header,
                                    [trace_io.FLOAT] * len(header), rows)
        with open(path, encoding="utf8") as fh:
            text = fh.read()
        assert text == ",".join(header) + "\n" + "".join(map(reference_line, rows))

    def test_numpy_and_int_cells(self, tmp_path):
        values = [np.float64(x) for x in ADVERSARIAL] + INTS
        assert all(type(v) is np.float64 for v in values[:len(ADVERSARIAL)])
        path = trace_io.write_table(str(tmp_path / "t.csv"), ["x"],
                                    [trace_io.FLOAT], [(v,) for v in values])
        assert body(path) == "".join(reference_line([v]) for v in values)

    def test_label_cells(self, tmp_path):
        rows = [(3, "Z", 1, 0.5), (np.int64(10), "paulis", np.int64(0), -0.0)]
        path = trace_io.write_table(str(tmp_path / "t.csv"), ["a", "b", "c", "d"],
                                    ["%s", "%s", "%s", trace_io.FLOAT], rows)
        assert body(path) == "3,Z,1,0.5\n10,paulis,0,-0\n"

    def test_random_bit_patterns(self, tmp_path):
        # every exponent, sign and NaN payload, as columns of a float table
        bits = np.random.default_rng(0).integers(0, 2**64, size=(4000, 5),
                                                 dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64)
        path = trace_io._float_table(str(tmp_path / "t.csv"), list("abcde"),
                                     table[:, :4], table[:, 4])
        assert body(path) == "".join(map(reference_line, table))


@pytest.mark.parametrize("scenario", ["classical_pair", "qubit_tomography"])
def test_registry_length_run_matches_reference(tmp_path, scenario):
    cfg = default_config(scenario, 1)
    assert cfg.n_steps == {"classical_pair": 1000, "qubit_tomography": 500}[scenario]
    trace = run_config(cfg)
    paths = trace_io.emit_trace(trace, str(tmp_path))
    paths.update(trace_io.emit_plot_data(trace, str(tmp_path)))
    expected = reference_files(trace)
    kinds = {"classical_pair": {"steps", "curve:alice", "curve:bob"},
             "qubit_tomography": {"steps", "cloud:agent", "axes:agent", "path:agent"}}
    assert set(expected) == kinds[scenario]
    for key, text in expected.items():
        assert body(paths[key]) == text, key


@pytest.mark.parametrize("scenario", ["coin_tomography", "qubit_tomography"])
def test_zero_step_run(tmp_path, scenario):
    trace = run_config(replace(default_config(scenario, 2), n_steps=0))
    paths = trace_io.emit_trace(trace, str(tmp_path))
    paths.update(trace_io.emit_plot_data(trace, str(tmp_path)))
    with open(paths["steps"], encoding="utf8") as fh:
        assert fh.read().count("\n") == 1  # the header alone
    if scenario == "coin_tomography":
        assert set(paths) == {"steps", "summary", "curve:agent"}
        with open(paths["curve:agent"], encoding="utf8") as fh:
            header, *rows = fh.read().splitlines()
        assert header == "theta,w_step0"
        assert len(rows) == trace.curves["agent"][0][1].n
        assert body(paths["curve:agent"]) == reference_files(trace)["curve:agent"]
    else:
        assert set(paths) == {"steps", "summary", "cloud:agent"}
    assert body(paths["steps"]) == reference_files(trace)["steps"] == ""
