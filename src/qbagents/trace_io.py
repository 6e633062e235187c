"""Trace persistence: per-step CSV, JSON summary, and plot-data files.

All floats are written with 17 significant digits so that reruns of the same
(config, seed) produce byte-identical files.  Every CSV goes through one
writer, ``write_table``, which takes a table's columns: float columns are
formatted from whole numpy arrays with the bytes of ``"%.17g" % x``, label
columns with ``str``.

Files emitted per run (prefix = scenario id):

* ``<prefix>_steps.csv``: one row per interaction with per-agent action,
  outcome, posterior mean and std components, ellipsoid semi-major axis, and
  the scenario metrics.
* ``<prefix>_summary.json``: config echo plus initial and final summaries.
* ``<prefix>_<agent>_curve.csv``: grid agents; posterior weights at snapshot
  steps (columns ``theta, w_step0, w_step...``).
* ``<prefix>_<agent>_cloud.csv``: ball agents; final particle cloud.
* ``<prefix>_<agent>_axes.csv``: ball agents; ellipsoid axis lengths every
  ``summary_interval`` steps.
* ``<prefix>_<agent>_path.csv``: ball agents; the walk of the posterior mean.

Float cells.  ``%.17g`` prints the correctly rounded 17-digit integer
``D ~ |x| 10^(16-E)`` in [10^16, 10^17), in fixed notation when
-4 <= E < 17 and in exponent notation otherwise, without trailing zeros.
CPython's ``dtoa`` needs bignum arithmetic for it, about 1 us a cell.  Here
``E`` is estimated from ``log10|x|`` and corrected once where ``D`` falls
outside [10^16, 10^17), so the SIMD rounding of ``np.log10`` never reaches
the bytes.  ``D`` is a double-double product in float64 alone, the same on
every IEEE platform: 10^(16-E) is tabled as ``hi + lo``, each correctly
rounded from exact integers; ``p = RN(|x| hi)`` and its exact error come
from Dekker's two-product (``|x|`` split by masking its low 26 bits, ``hi``
in Veltkamp halves); and ``r`` is that error plus ``|x| lo``.  Then
``p >= 2^53`` is an integer, ``|r| < 20`` and ``|D - p - r| < 5e-15`` (the
table's ``2^-106`` relative error and two roundings of values below 20), so
``rint(D) = p + rint(r)`` unless the fraction of ``r`` lies within ``1e-12``
of 1/2; a ``rint(D)`` of 10^17 carries into ``E``.  Cells below ``1e-270``,
subnormals included, are scaled by an exact ``2^256`` first, against
``10^(16-E) 2^-256`` in the table, so that every finite cell has an entry.
The cells within the band around a tie (in practice the exact ties, such as
1234567890123456.75) and the non-finite ones are formatted by ``"%.17g" %``
itself, and so is every cell of a table with under ``FEW_CELLS`` float
cells, where the array pass's fixed cost is larger.  The digits come from a
table of 4-digit chunks; each cell is laid out in a fixed-width ``uint8``
slot, with NUL bytes for absent characters, which ``bytes.translate``
deletes.  Tables are formatted in blocks of about ``BLOCK_CELLS`` cells,
which keeps the temporaries small.  (Dekker, "A floating-point technique
for extending the available precision", Numer. Math. 18, 224, 1971; Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019, on
fixed-precision conversion from a power table.)
"""

from __future__ import annotations

import json
import os
from functools import cache
from typing import NamedTuple

import numpy as np

from .interaction import Trace

FLOAT = "%.17g"  # the reference conversion, the bytes of f"{float(x):.17g}"
BLOCK_CELLS = 4096  # cells per array pass: a block of rows fits the caches
FEW_CELLS = 128  # a table with fewer float cells takes one "%" each: cheaper than the array pass
# The tables hold the decimal exponents e that log10 and its correction can
# reach, from below 5e-324 to above 1.8e308, at e + _BIAS.
_BIAS = 325
_EXPONENTS = range(-_BIAS, 310)
_LIFT_BELOW = -270  # cells with e below this are scaled by 2^_LIFT, so that 10^(16-e) fits
_LIFT = 256
_NEAR_TIE = 0.5 - 1e-12  # |r - rint(r)| above this: D may lie on either side of the tie
_HIGH_27 = np.uint64(2**64 - 2**26)  # a float64's sign, exponent and top 27 significant bits
_VELTKAMP = 2.0**27 + 1
# A float cell's slot: the integer part, then the fraction (five 32-bit words
# each, the 17 digits at bytes 3 ... 19 and masked to the digits shown), then
# "e+ddd" in an 8-byte word whose last byte is left for the separator.  The
# integer part's first bytes hold the sign, or the sign and "0.000"; the
# fraction's first byte holds the dot.
_SLOT = 48


class _Tables(NamedTuple):
    # by exponent e: the scale 2^s of the cells, and hi + lo = 2^-s 10^(16-e)
    # to about 2^-106 relative, hi in Veltkamp halves hi_high + hi_low of 26
    # significant bits each
    scale: np.ndarray
    hi: np.ndarray
    hi_high: np.ndarray
    hi_low: np.ndarray
    lo: np.ndarray
    head: np.ndarray  # (10,) uint32: the bytes "\0\0\0d" of a leading digit d
    quads: np.ndarray  # (10000,) uint32: the bytes "dddd" of 0000 ... 9999
    zeros: np.ndarray  # (10000,) intp: trailing zeros of 0000 ... 9999
    first: np.ndarray  # (21,) 20-byte masks: bytes 0 ... k-1 set
    dot: np.uint32  # the bytes ".\0\0\0"
    # by exponent e: the digits before the dot and their mask; the number of
    # digits shown beyond which the fraction starts with a dot (17, never,
    # where the "0.000" prefix holds the dot); the word "e+ddd", or blank
    ints: np.ndarray
    int_mask: np.ndarray
    dot_after: np.ndarray
    exponent: np.ndarray
    sign_prefix: np.ndarray  # by e, then by e again for negative cells


def _power(e: int) -> tuple[float, float, float]:
    """(2^s, hi, lo): hi + lo is 2^-s 10^(16-e), each correctly rounded from
    exact integers (hi of the value, lo of what hi leaves), s = _LIFT for e
    below _LIFT_BELOW and 0 otherwise."""
    s = _LIFT if e < _LIFT_BELOW else 0
    num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0) << s
    hi = num / den  # int / int is correctly rounded
    m, q = hi.as_integer_ratio()
    return 2.0**s, hi, (num * q - m * den) / (den * q)


def _words(strings, width: int, dtype) -> np.ndarray:
    """Each string NUL-padded to ``width`` bytes, read as one ``dtype`` word."""
    return np.frombuffer(b"".join(s.encode("latin1").ljust(width, b"\0") for s in strings),
                         dtype)


@cache
def _tables() -> _Tables:
    """The formatting tables, built at first use."""
    exps = _EXPONENTS
    scale, hi, lo = np.array([_power(e) for e in exps]).T
    hi_high = _VELTKAMP * hi
    hi_high -= hi_high - hi
    q = np.arange(10000)
    quads = 48 + np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    first = _words(["\xff" * k for k in range(21)], 20, "V20")
    # %.17g: fixed notation for -4 <= e < 17, "0.000" before the digits if e < 0
    ints = np.array([e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in exps])
    prefix = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in exps]
    return _Tables(
        scale=scale, hi=hi, hi_high=hi_high, hi_low=hi - hi_high, lo=lo,
        head=_words([f"\0\0\0{d}" for d in range(10)], 4, np.uint32),
        quads=quads.astype(np.uint8).view(np.uint32).ravel(),
        zeros=sum(q % 10**j == 0 for j in range(1, 5)),
        first=first,
        dot=_words(["."], 4, np.uint32)[0],
        ints=ints,
        int_mask=first[3 + ints],
        dot_after=np.where(ints > 0, ints, 17),
        exponent=_words(["" if -4 <= e < 17 else f"e{e:+03d}" for e in exps], 8, np.uint64),
        sign_prefix=_words(prefix + ["-" + p for p in prefix], 20, "V20"))


def _product(ax: np.ndarray, i: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """(p, r) with p + r = ax 10^(16-e) to within 5e-15, for the table rows
    ``i`` of the exponents e: p = RN(a hi) and r = (a hi - p) + a lo, where
    a = 2^s ax, by Dekker's two-product."""
    a = ax * t.scale.take(i)
    a_high = (a.view(np.uint64) & _HIGH_27).view(np.float64)  # 27 bits, a_low 26: exact
    a_low = a - a_high
    hi_high, hi_low = t.hi_high.take(i), t.hi_low.take(i)
    p = a * t.hi.take(i)
    r = a_high * hi_high - p  # each partial sum is exact in this order
    r += a_low * hi_high
    r += a_high * hi_low
    r += a_low * hi_low
    r += a * t.lo.take(i)
    return p, r


def _fast_cells(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the cells of ``x``, and the indices of those left to ``%``."""
    ax = np.abs(x)
    finite = np.isfinite(x)
    zero = ax == 0
    ax[~finite | zero] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    p, r = _product(ax, e + _BIAS, t)
    # log10 may miss by one next to a power of ten.  D is checked where p is
    # outside [10^16, 10^17) or within 64 of its ends (|r| < 20); there
    # p - 10^16 and p - 10^17 are exact or far from 0, so the signs below are
    # those of D - 10^16 and D - 10^17.
    off = np.flatnonzero((p < 1e16 + 64) | (p >= 1e17 - 64))
    if off.size:
        po, ro = p[off], r[off]
        eo = e[off] + ((po - 1e17) + ro >= 0) - ((po - 1e16) + ro < 0)
        p[off], r[off] = _product(ax[off], eo + _BIAS, t)
        e[off] = eo
    n = np.rint(r)
    slow = ~finite | (np.abs(r - n) > _NEAR_TIE)  # r - n is exact
    u = p.astype(np.int64) + n.astype(np.int64)  # p is an integer, at least 2^53
    carry = u == 10**17  # rounding reached 10^17: one digit more to the left
    u[carry] = 10**16
    e += carry
    u[zero] = 0
    e[zero] = 0
    e += _BIAS

    head, rest = np.divmod(u, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = [*np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    digits = np.stack([t.head.take(head), *(t.quads.take(q) for q in quads)], axis=1)
    tail = t.zeros.take(quads[3])  # trailing zeros of the 17 digits
    long_tail = np.flatnonzero(quads[3] == 0)
    if long_tail.size:
        more = head[long_tail] == 0
        for q in quads:
            q = q[long_tail]
            more = np.where(q == 0, more + 4, t.zeros.take(q))
        tail[long_tail] = more

    ints = t.ints.take(e)
    shown = np.maximum(17 - tail, ints)  # trailing zeros go, integer digits stay
    integer = digits & t.int_mask.take(e).view(np.uint32).reshape(-1, 5)
    fraction = digits & t.first.take(3 + shown).view(np.uint32).reshape(-1, 5)
    fraction ^= integer
    fraction[:, 0] |= np.where(shown > t.dot_after.take(e), t.dot, 0)
    sign_prefix = t.sign_prefix.take(e + len(_EXPONENTS) * np.signbit(x))
    integer |= sign_prefix.view(np.uint32).reshape(-1, 5)
    exponent = t.exponent.take(e).view(np.uint32).reshape(-1, 2)
    cells = np.concatenate([integer, fraction, exponent], axis=1)
    return cells.view(np.uint8), np.flatnonzero(slow)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(x.size, _SLOT) uint8: the bytes of ``FLOAT % v`` for each v in ``x``,
    NUL-padded, each slot's last byte left for the separator."""
    x = np.asarray(x, dtype=np.float64).ravel()
    cells, slow = _fast_cells(x, _tables())
    if slow.size:
        text = np.array([(FLOAT % v).encode() for v in x[slow].tolist()], f"S{_SLOT - 1}")
        cells[slow, :-1] = text.view(np.uint8).reshape(-1, _SLOT - 1)
    return cells


def _label_cells(labels) -> np.ndarray:
    """(len(labels), width) uint8: ``str`` of each label, NUL-padded, then a
    comma."""
    text = np.array([str(v).encode() for v in labels], dtype=bytes)
    cells = np.full((text.size, text.itemsize + 1), ord(","), np.uint8)
    cells[:, :-1] = text.view(np.uint8).reshape(text.size, text.itemsize)
    return cells


def _block(columns: list, is_float: list[bool]) -> bytes:
    """The CSV lines of one block of rows; label columns come as ``_label_cells``."""
    rows = len(columns[0])
    floats = [c for c, f in zip(columns, is_float) if f]
    if floats:
        cells = _float_cells(np.column_stack(floats)).reshape(rows, len(floats), _SLOT)
        cells[:, :, -1] = ord(",")
    if all(is_float):
        line = cells.reshape(rows, -1)
    else:
        slots = iter(cells.transpose(1, 0, 2) if floats else ())
        line = np.concatenate([next(slots) if f else col for col, f in zip(columns, is_float)],
                              axis=1)
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def write_table(path: str, header: list[str], columns: list) -> str:
    """Write ``header`` and then one line per row of ``columns``.

    A column that is a float numpy array is formatted cell by cell as
    ``FLOAT % x`` would; any other sequence is a label column, ``str`` per
    cell.  Every column has one cell per row."""
    is_float = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    n_rows = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if n_rows * sum(is_float) < FEW_CELLS:
            text = [[FLOAT % v for v in c.tolist()] if f else map(str, c)
                    for c, f in zip(columns, is_float)]
            fh.write("".join(",".join(row) + "\n" for row in zip(*text)).encode())
            return path
        columns = [c if f else _label_cells(c) for c, f in zip(columns, is_float)]
        step = max(1, BLOCK_CELLS // max(1, sum(is_float)))
        for start in range(0, n_rows, step):
            block = [c[start:start + step] for c in columns]
            fh.write(_block(block, is_float))
    return path


def _float_columns(rows: list, width: int) -> list[np.ndarray]:
    """The ``width`` columns of a list of float rows."""
    return list(np.array(rows, dtype=float).reshape(len(rows), width).T)


def _step_table(trace: Trace) -> tuple[list[str], list]:
    records = trace.records
    if records:
        slots = [(k, a.agent_id, len(a.mean))
                 for k, a in enumerate(records[0].agents) if a is not None]
    else:
        slots = [(None, aid, len(s["mean"])) for aid, s in trace.initial.items()]
    header, columns = ["step"], [[rec.step for rec in records]]
    for k, aid, dim in slots:
        header += [f"{aid}_action", f"{aid}_outcome"]
        header += [f"{aid}_mean_{j}" for j in range(dim)]
        header += [f"{aid}_std_{j}" for j in range(dim)]
        header += [f"{aid}_semi_major", f"{aid}_ess"]
        agents = [rec.agents[k] for rec in records]
        columns += [[a.action for a in agents], [a.outcome for a in agents]]
        columns += _float_columns([(*a.mean, *a.std, a.semi_major, a.ess) for a in agents],
                                  2 * dim + 2)
    metric_keys = sorted(records[0].metrics) if records else []
    header += metric_keys
    columns += _float_columns([[rec.metrics[key] for key in metric_keys] for rec in records],
                              len(metric_keys))
    return header, columns


def emit_trace(trace: Trace, out_dir: str) -> dict[str, str]:
    """Write the per-step CSV and the JSON summary; returns emitted paths."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, trace.scenario)
    paths = {"steps": write_table(f"{prefix}_steps.csv", *_step_table(trace))}
    summary = {
        "scenario": trace.scenario,
        "seed": trace.seed,
        "mode": trace.mode,
        "n_steps": len(trace.records),
        "config": trace.config,
        "initial": trace.initial,
        "final": trace.final,
    }
    paths["summary"] = f"{prefix}_summary.json"
    with open(paths["summary"], "w", encoding="utf8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return paths


def emit_plot_data(trace: Trace, out_dir: str) -> dict[str, str]:
    """Write curve, cloud, axes, and mean-path files; returns emitted paths."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, trace.scenario)
    interval = int(trace.config.get("summary_interval", 10) or 10)
    paths: dict[str, str] = {}

    for aid, snapshots in trace.curves.items():
        header = ["theta"] + [f"w_step{step}" for step, _b in snapshots]
        paths[f"curve:{aid}"] = write_table(
            f"{prefix}_{aid}_curve.csv", header,
            [snapshots[0][1].points[:, 0], *(b.weights for _s, b in snapshots)])

    for aid, (points, weights) in trace.clouds.items():
        header = [f"x_{k}" for k in range(points.shape[1])] + ["weight"]
        paths[f"cloud:{aid}"] = write_table(
            f"{prefix}_{aid}_cloud.csv", header, [*points.T, weights])

    n_steps = len(trace.records)
    for k, first in enumerate(trace.records[0].agents if trace.records else ()):
        if first is None or len(first.mean) != 3:
            continue
        aid = first.agent_id
        walk = [(rec.step, rec.agents[k]) for rec in trace.records]
        axes = [(step, a) for step, a in walk if step % interval == 0 or step == n_steps]
        paths[f"axes:{aid}"] = write_table(
            f"{prefix}_{aid}_axes.csv", ["step", "semi_major", "std_0", "std_1", "std_2"],
            [[step for step, _a in axes],
             *_float_columns([(a.semi_major, *a.std) for _s, a in axes], 4)])
        paths[f"path:{aid}"] = write_table(
            f"{prefix}_{aid}_path.csv", ["step", "mean_0", "mean_1", "mean_2"],
            [[step for step, _a in walk], *_float_columns([a.mean for _s, a in walk], 3)])
    return paths


def emit_batch(result, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result.scenario}_batch.json")
    with open(path, "w", encoding="utf8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
