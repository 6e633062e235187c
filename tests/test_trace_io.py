"""The CSV table writer against a per-cell reference, byte for byte.

Every CSV cell used to be written by its own ``f"{float(x):.17g}"`` call (and
``str`` for labels); ``trace_io.write_table`` now formats whole float columns
with array arithmetic and leaves only rounding ties, non-finite cells and
small tables to ``%``.  These tests keep the per-cell form as the reference:
on values chosen to stress the conversion (near-ties at every decimal
exponent, exact ties, cells next to a tie, both sides of each notation
switch, powers of ten, subnormals), on random tables of every shape, with the
array path switched off, under numpy's SIMD loops below AVX-512, and on every
file of full registry-length runs, which go beyond the golden digests'
200-step cap.  They also check the double-double power table that the array
path multiplies by, that exactly the ties, the non-finite cells and the
fixed cells from 10 up reach ``%``, that the widest cell of each layout fits
the 32-byte slot, and that a table's blocks, which reuse one set of work
arrays and one line buffer, leave no bytes of an earlier block or table
behind.
"""

import hashlib
import math
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digest_child import CELL_ROWS, SIMD_ROWS, disabled_targets, output
from qbagents import trace_io
from qbagents.scenarios import default_config, run_config

TINY = float.fromhex("0x1p-1074")  # 5e-324, the smallest subnormal
# The widest cell of each layout, with its length: exponent notation with a
# three-digit exponent, "0.000" and 17 digits, 17 integer digits (a "%" cell),
# the smallest subnormal, each with a sign, and -0.0
WIDEST = {-1.2345678901234567e-308: 24, -9.8765432109876537e+307: 24,
          -0.00012345678901234567: 23, -12345678901234567.0: 18, -TINY: 24, -0.0: 2}
ADVERSARIAL = [*WIDEST,
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

    def test_widest_cells_fit_the_slot(self, tmp_path):
        assert {x: len(cell(x)) for x in WIDEST} == WIDEST
        assert write_and_read(tmp_path, [np.array(list(WIDEST))]) == "".join(
            reference_line([x]) for x in WIDEST)
        bits = np.random.default_rng(0).integers(0, 2**64, 20000, dtype=np.uint64)
        cells = [*ADVERSARIAL, *bits.view(np.float64).tolist()]
        assert max(len(trace_io.FLOAT % x) for x in cells) == 24 <= trace_io._SLOT - 1

    def test_reused_buffers_leave_no_stale_bytes(self, tmp_path):
        # a table's blocks share their work arrays and line buffer: a first
        # block of 24-character cells and long labels, a short last block of
        # the shortest cells and labels; then a table of another width
        rng = np.random.default_rng(5)
        step = trace_io.BLOCK_CELLS // 2
        mantissas = rng.integers(10**15, 10**16, 4 * step) * 10 + rng.integers(1, 10, 4 * step)
        exponents = rng.integers(100, 308, 4 * step)
        wide = [x for x in (float(f"-{m // 10**16}.{m % 10**16:016d}e-{k}")
                            for m, k in zip(mantissas.tolist(), exponents.tolist()))
                if len(cell(x)) == 24][:2 * step]
        table = np.concatenate([np.reshape(wide, (step, 2)), np.resize([0.0, -0.0, 1e-05], (7, 2))])
        labels = ["L" * 30] * step + ["0"] * 7
        assert write_and_read(tmp_path, [labels, *table.T]) == "".join(
            f"{label}," + reference_line(row) for label, row in zip(labels, table))
        narrow = np.resize([1e-05, -0.0, 0.5, 7.0], (trace_io.BLOCK_CELLS // 5 + 3, 5))
        assert write_and_read(tmp_path, list(narrow.T)) == "".join(map(reference_line, narrow))

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


def exact_ties() -> np.ndarray:
    """Doubles whose D = |x| 10^(16-E) lies halfway between two integers:
    x = o / 2^(k+1) with o odd, D = 5^k o / 2, at each k = 16 - E from 1 to
    24, the only ones at which such an o below 2^53 exists."""
    ties = []
    for k in range(1, 25):
        odd = range(-(-2 * 10**16 // 5**k) | 1, min(-(-2 * 10**17 // 5**k), 2**53), 2)
        ties += [o / 2 ** (k + 1) for o in (odd[0], odd[len(odd) // 2], odd[-1])]
    return np.array([1234567890123456.75, 1234567890123456.25, *ties])


def tie_distance(x: float) -> Fraction:
    """|frac(D) - 1/2| for the exact D = |x| 10^(16-E) in [10^16, 10^17)."""
    d = abs(Fraction(x))
    d *= Fraction(10) ** (16 - len(str(d.numerator)) + len(str(d.denominator)))
    while d >= 10**17:
        d /= 10
    while d < 10**16:
        d *= 10
    return abs(d - math.floor(d) - Fraction(1, 2))


def next_to_ties(delta: float = 1e-14) -> np.ndarray:
    """Doubles whose D lies within ``delta`` of a tie, but not on it, where the
    power of ten is inexact.  At k = 16 - E, x = m 2^q with m in [2^52, 2^53)
    and q such that D = m 2^q 10^k = m A / B lies in [10^16, 10^17) (A / B in
    lowest terms); m A = t (mod B) for each t next to B / 2 gives m."""
    cells = []
    for k in [*range(-24, -19), *range(23, 28)]:
        q = math.floor(math.log2(1e17) - k * math.log2(10)) - 53
        power = Fraction(2) ** q * Fraction(10) ** k
        a, b = power.numerator, power.denominator
        inverse, found = pow(a, -1, b), []
        for t in sorted(range(b // 2 - 2000, b // 2 + 2001), key=lambda t: abs(2 * t - b)):
            m = t * inverse % b
            m += -(-(2**52 - m) // b) * b if m < 2**52 else 0
            if 2**52 <= m < 2**53 and 0 < abs(Fraction(t, b) - Fraction(1, 2)) < delta:
                found.append(math.ldexp(m, q))
            if len(found) == 6:
                break
        assert found, k
        cells += found
    assert all(0 < tie_distance(x) < delta for x in cells)
    return np.array(cells)


def wide_pool() -> np.ndarray:
    """Cells over the whole double range: log-uniform magnitudes from the
    smallest subnormal to the largest double, subnormal bit patterns, and
    cells on either side of the scaled exponents' edge."""
    rng = np.random.default_rng(29)
    magnitudes = np.exp(rng.uniform(-744.4, 709.7, 20000)) * rng.choice([-1, 1], 20000)
    subnormals = rng.integers(1, 2**52, 4000, dtype=np.uint64).view(np.float64)
    edge = 10.0 ** (trace_io._LIFT_BELOW + rng.uniform(-1, 1, 4000))
    return np.concatenate([magnitudes, subnormals, -subnormals, edge])


def percent_cells(x: np.ndarray) -> np.ndarray:
    """Whether the array path leaves each cell of ``x`` to ``%``."""
    work, slow = trace_io._Work.of(trace_io.BLOCK_CELLS), np.zeros(x.size, bool)
    for start in range(0, x.size, trace_io.BLOCK_CELLS):
        cells = x[start:start + trace_io.BLOCK_CELLS]
        slow[start + trace_io._fast_cells(cells, trace_io._tables(),
                                          work.block(cells.size))] = True
    return slow


def pool_digests() -> dict:
    """sha256 of the array path's bytes and of the reference's, for a pool of
    ADVERSARIAL, near_ties(), powers_of_ten(), exact ties, random bit patterns
    and the curve table of a registry-size ``classical_pair`` run; and the
    pool's cell count."""
    bits = np.random.default_rng(41).integers(0, 2**64, 20000, dtype=np.uint64)
    pool = np.concatenate([ADVERSARIAL, near_ties(), powers_of_ten(), exact_ties(),
                           bits.view(np.float64)])
    snapshots = run_config(default_config("classical_pair", 1)).curves["alice"]
    curve = np.column_stack([snapshots[0][1].points[:, 0], *(b.weights for _s, b in snapshots)])
    with tempfile.TemporaryDirectory() as tmp:
        array = write_and_read(tmp, [pool]) + write_and_read(tmp, list(curve.T))
    reference = "".join(map(reference_line, pool[:, None])) + "".join(map(reference_line, curve))
    return {"array": hashlib.sha256(array.encode()).hexdigest(),
            "reference": hashlib.sha256(reference.encode()).hexdigest(),
            "cells": pool.size + curve.size}


def write_and_read(directory, columns) -> str:
    return body(trace_io.write_table(f"{directory}/t.csv",
                                     [f"c{k}" for k in range(len(columns))], columns))


class TestExactness:
    @pytest.mark.parametrize("values", [near_ties, powers_of_ten, exact_ties, next_to_ties,
                                        wide_pool])
    def test_matches_reference(self, tmp_path, values):
        x = values()
        assert write_and_read(tmp_path, [x, -x]) == "".join(
            reference_line(row) for row in zip(x, -x))

    def test_exact_ties_take_percent_and_round_half_even(self, tmp_path):
        x = exact_ties()
        assert all(tie_distance(v) == 0 for v in x)
        assert percent_cells(x).all()
        assert write_and_read(tmp_path, [x[:2]]) == "1234567890123456.8\n1234567890123456.2\n"

    def test_cells_next_to_a_tie_take_percent(self):
        # |D - p - r| < 5e-15: cells this close to a tie are left to %
        x = next_to_ties()
        assert percent_cells(x).all()

    @pytest.mark.parametrize("values", [near_ties, powers_of_ten, wide_pool])
    def test_ties_non_finite_and_fixed_cells_from_10_take_percent(self, values):
        x = values()
        finite = np.isfinite(x)
        assert np.any(np.abs(x[finite]) < 10.0**trace_io._LIFT_BELOW)
        ties = np.array([v != 0 and math.isfinite(v) and tie_distance(v) < Fraction(1, 10**12)
                         for v in x.tolist()])
        text = [cell(v) for v in x.tolist()]
        from_10 = finite & np.array(["e" not in s and abs(float(s.split(".")[0])) >= 10
                                     for s in text])
        slow = percent_cells(x)
        assert from_10.any() and np.array_equal(slow, ties | ~finite | from_10)
        assert np.count_nonzero(slow & ~from_10) < x.size // 100

    def test_power_table_is_a_double_double(self):
        power = trace_io._tables().power
        assert power.shape == (5, len(trace_io._EXPONENTS))
        for e, scale, hi, hi_high, hi_low, lo in zip(trace_io._EXPONENTS, *power):
            lifted = e < trace_io._LIFT_BELOW
            assert scale == 2.0 ** (trace_io._LIFT if lifted else 0), e
            exact = Fraction(10) ** (16 - e) / Fraction(scale)
            assert hi == float(exact) and lo == float(exact - Fraction(hi)), e  # correctly rounded
            assert hi_high + hi_low == hi, e
            for half in filter(None, (hi_high, hi_low)):
                m = Fraction(half)
                m /= Fraction(2) ** math.floor(math.log2(abs(half)))
                assert (m * 2**25).denominator == 1, e  # 26 significant bits at most
        assert np.all(np.isfinite(power[1] * trace_io._VELTKAMP))

    def test_percent_path_gives_the_same_bytes(self, tmp_path, monkeypatch):
        bits = np.random.default_rng(3).integers(0, 2**64, 5000, dtype=np.uint64)
        columns = [np.resize(ADVERSARIAL, 330), near_ties()[:330], bits.view(np.float64)[:330],
                   [str(k) for k in range(330)]]
        monkeypatch.setattr(trace_io, "FEW_CELLS", 0)
        fast = write_and_read(tmp_path, columns)
        trace = run_config(replace(default_config("qubit_tomography", 4), n_steps=12))
        fast_files = emitted(tmp_path / "fast", trace)
        monkeypatch.setattr(trace_io, "FEW_CELLS", sys.maxsize)  # every table through %
        assert write_and_read(tmp_path, columns) == fast
        assert emitted(tmp_path / "slow", trace) == fast_files

    @pytest.mark.parametrize("row", CELL_ROWS)
    def test_bytes_hold_on_numpy_simd_loops(self, row):
        # E comes from np.log10, whose last bits follow the SIMD level; the
        # correction must keep them out of the bytes
        child = output(row, *SIMD_ROWS)
        assert not any(child["simd"].get(target) for target in disabled_targets(row))
        assert child["cells"]["array"] == child["cells"]["reference"]
        assert child["cells"]["cells"] > 100_000

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_tables(self, tmp_path_factory, data):
        n_cols = data.draw(st.integers(1, 6), label="float columns")
        step = trace_io.BLOCK_CELLS // n_cols  # rows per block: the label column is not counted
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
