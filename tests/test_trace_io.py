"""The CSV table writer against a per-cell reference, byte for byte.

Every CSV cell used to be written by its own ``f"{float(x):.17g}"`` call (and
``str`` for labels); ``trace_io.write_table`` now formats whole float columns
with array arithmetic and leaves only near-ties and non-finite cells to
``%``.  These tests keep the per-cell form as the reference: on values chosen
to stress the conversion (near-ties at every decimal exponent, both sides of
each notation switch, powers of ten), on random tables of every shape, with
the array path switched off, and on every file of full registry-length runs,
which go beyond the golden digests' 200-step cap.  They also check the power
table that the array path multiplies by.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.fixture
def array_path(monkeypatch):
    """Every float cell through the array path, however small the table."""
    monkeypatch.setattr(trace_io, "FEW_CELLS", 0)


@pytest.mark.usefixtures("array_path")
class TestWriteTable:
    def test_adversarial_floats(self, tmp_path):
        rows = [tuple(ADVERSARIAL[i:] + ADVERSARIAL[:i]) for i in range(len(ADVERSARIAL))]
        header = [f"c{k}" for k in range(len(ADVERSARIAL))]
        path = trace_io.write_table(str(tmp_path / "t.csv"), header,
                                    [np.array(col) for col in zip(*rows)])
        with open(path, encoding="utf8") as fh:
            text = fh.read()
        assert text == ",".join(header) + "\n" + "".join(map(reference_line, rows))

    def test_numpy_and_int_cells(self, tmp_path):
        values = [np.float64(x) for x in ADVERSARIAL] + INTS
        assert all(type(v) is np.float64 for v in values[:len(ADVERSARIAL)])
        path = trace_io.write_table(str(tmp_path / "t.csv"), ["x"],
                                    [np.array(values, dtype=float)])
        assert body(path) == "".join(reference_line([v]) for v in values)

    def test_label_cells(self, tmp_path):
        columns = [[3, np.int64(10)], ["Z", "paulis"], [1, np.int64(0)], np.array([0.5, -0.0])]
        path = trace_io.write_table(str(tmp_path / "t.csv"), ["a", "b", "c", "d"], columns)
        assert body(path) == "3,Z,1,0.5\n10,paulis,0,-0\n"

    def test_random_bit_patterns(self, tmp_path):
        # every exponent, sign and NaN payload, as columns of a float table
        bits = np.random.default_rng(0).integers(0, 2**64, size=(4000, 5),
                                                 dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64)
        path = trace_io.write_table(str(tmp_path / "t.csv"), list("abcde"), list(table.T))
        assert body(path) == "".join(map(reference_line, table))


def near_ties() -> np.ndarray:
    """Doubles next to the midpoints between consecutive 17-digit decimals:
    each 17-digit mantissa with a trailing 5 appended, at every decimal
    exponent of a double, parsed, with its neighbours on either side."""
    rng = np.random.default_rng(17)
    ties = []
    for exp in range(-324, 309):
        mantissas = ["10000000000000000", "99999999999999999", "12345678901234567",
                     *map(str, rng.integers(10**16, 2 * 10**16, 6)),
                     *map(str, rng.integers(10**16, 10**17, 3))]
        for m in mantissas:
            x = float(f"{m[0]}.{m[1:]}5e{exp}")
            ties += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return np.array(ties)


def powers_of_ten() -> np.ndarray:
    """Each power of ten in double range and its neighbours, where log10 may
    miss the decimal exponent by one and rounding may carry into it."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])


def write_and_read(tmp_path, columns) -> str:
    return body(trace_io.write_table(str(tmp_path / "t.csv"),
                                     [f"c{k}" for k in range(len(columns))], columns))


class TestExactness:
    @pytest.mark.parametrize("values", [near_ties, powers_of_ten])
    def test_matches_reference(self, tmp_path, values):
        x = values()
        assert write_and_read(tmp_path, [x, -x]) == "".join(
            reference_line(row) for row in zip(x, -x))

    def test_near_ties_reach_both_paths(self):
        tables = trace_io._tables()
        if tables is None:
            pytest.skip("np.longdouble has a short significand: every cell takes %")
        x = near_ties()
        _cells, slow = trace_io._fast_cells(x, tables)
        assert 0 < slow.size < x.size / 4

    def test_power_table_within_half_an_ulp(self):
        tables = trace_io._tables()
        if tables is None:
            pytest.skip("np.longdouble has a short significand: no power table")
        nmant = np.finfo(np.longdouble).nmant
        for k, p in zip(range(-trace_io._BIAS, trace_io._BIAS), tables.pow10):
            exact = Fraction(10) ** k
            log2 = exact.numerator.bit_length() - exact.denominator.bit_length()
            log2 -= Fraction(2) ** log2 > exact  # now 2^log2 <= 10^k < 2^(log2 + 1)
            ulp = Fraction(2) ** (log2 - nmant)
            assert abs(Fraction(*p.as_integer_ratio()) - exact) <= ulp / 2, k

    def test_percent_path_gives_the_same_bytes(self, tmp_path, monkeypatch):
        bits = np.random.default_rng(3).integers(0, 2**64, 5000, dtype=np.uint64)
        columns = [np.resize(ADVERSARIAL, 330), near_ties()[:330], bits.view(np.float64)[:330],
                   [str(k) for k in range(330)]]
        fast = write_and_read(tmp_path, columns)
        trace = run_config(replace(default_config("qubit_tomography", 4), n_steps=12))
        fast_files = emitted(tmp_path / "fast", trace)
        monkeypatch.setattr(trace_io, "_tables", lambda: None)
        assert write_and_read(tmp_path, columns) == fast
        assert emitted(tmp_path / "slow", trace) == fast_files

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_tables(self, tmp_path_factory, data):
        n_cols = data.draw(st.integers(1, 6), label="float columns")
        step = trace_io.BLOCK_CELLS // (n_cols + 1)
        n_rows = data.draw(st.sampled_from([0, 1, 2, 7, step - 1, step, step + 1, 2 * step + 1]),
                           label="rows")
        pool = data.draw(st.lists(st.floats(), min_size=1, max_size=40), label="values")
        table = np.resize(np.array(pool), (n_rows, n_cols))
        columns = [[f"r{i}" for i in range(n_rows)], *table.T]
        few = data.draw(st.sampled_from([trace_io.FEW_CELLS, 0]), label="FEW_CELLS")
        with patch.object(trace_io, "FEW_CELLS", few):
            text = write_and_read(tmp_path_factory.mktemp("t"), columns)
            floats_only = write_and_read(tmp_path_factory.mktemp("t"), list(table.T))
        assert text == "".join(f"r{i}," + reference_line(row) for i, row in enumerate(table))
        assert floats_only == "".join(map(reference_line, table))


def emitted(out_dir, trace) -> dict[str, bytes]:
    paths = trace_io.emit_trace(trace, str(out_dir))
    paths.update(trace_io.emit_plot_data(trace, str(out_dir)))
    files = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            files[key] = fh.read()
    return files


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
