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
``E`` is estimated from ``log10|x|`` and corrected once, and ``D`` is one
``np.longdouble`` product with a table of correctly rounded powers of ten.
With a 64-bit significand its two roundings leave an error below
``1e17 * eps ~ 0.011``, so ``rint(D)`` is the correctly rounded digit string
unless the fraction of ``D`` lies within that margin of 1/2; a ``rint(D)``
of 10^17 carries into ``E``.  Cells within the margin (about 2 % of random
ones) and the non-finite ones are formatted by ``"%.17g" %`` itself, and so
is every cell of a block under ``FEW_CELLS`` cells (the pass's fixed cost
is larger there) and every cell where ``np.longdouble`` has a shorter
significand.  The digits
come from a table of 4-digit chunks; each cell is laid out in a fixed-width
``uint8`` slot, with NUL bytes for absent characters, which
``bytes.translate`` deletes.  Tables are formatted in blocks of about
``BLOCK_CELLS`` cells, which keeps the temporaries small.  (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019, on
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
FEW_CELLS = 128  # below this many cells, one "%" each beats the array pass's fixed cost
_BIAS = 400  # the tables hold decimal exponents e in [-400, 400) at e + _BIAS
# A float cell's slot: the integer part, then the fraction (five 32-bit words
# each, the 17 digits at bytes 3 ... 19 and masked to the digits shown), then
# "e+ddd" in an 8-byte word whose last byte is left for the separator.  The
# integer part's first bytes hold the sign, or the sign and "0.000"; the
# fraction's first byte holds the dot.
_SLOT = 48


class _Tables(NamedTuple):
    pow10: np.ndarray  # longdouble 10^e, correctly rounded
    near_tie: np.longdouble  # 1/2 less the bound on the error of D
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


def _ten_to(k: int, bits: int) -> tuple[int, int]:
    """(m, e) with m 2^e = 10^k rounded half-even to ``bits`` significant bits."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    e = num.bit_length() - den.bit_length() - bits
    if (num << max(-e, 0)) >= (den << max(e, 0)) << bits:
        e += 1
    num, den = num << max(-e, 0), den << max(e, 0)
    m, r = divmod(num, den)
    m += 2 * r > den or (2 * r == den and m & 1)
    return (m >> 1, e + 1) if m >> bits else (m, e)


def _words(strings, width: int, dtype) -> np.ndarray:
    """Each string NUL-padded to ``width`` bytes, read as one ``dtype`` word."""
    return np.frombuffer(b"".join(s.encode("latin1").ljust(width, b"\0") for s in strings),
                         dtype)


@cache
def _tables() -> _Tables | None:
    """The formatting tables, built at first use; None where ``np.longdouble``
    has fewer than 64 significant bits, so that every cell takes ``%``."""
    info = np.finfo(np.longdouble)
    if info.nmant < 63:
        return None
    bits = info.nmant + 1
    exps = range(-_BIAS, _BIAS)
    m, exp2 = zip(*(_ten_to(e, bits) for e in exps))
    pow10 = np.zeros(len(m), np.longdouble)
    for shift in range(32 * ((bits - 1) // 32), -1, -32):  # exact 32-bit pieces
        pow10 = pow10 * 2**32 + np.array([v >> shift & 0xFFFFFFFF for v in m], np.longdouble)
    q = np.arange(10000)
    first = _words(["\xff" * k for k in range(21)], 20, "V20")
    # %.17g: fixed notation for -4 <= e < 17, "0.000" before the digits if e < 0
    ints = np.array([e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in exps])
    prefix = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in exps]
    return _Tables(
        pow10=np.ldexp(pow10, np.array(exp2)),
        near_tie=0.5 - np.longdouble(1e17) * info.eps,
        head=_words([f"\0\0\0{d}" for d in range(10)], 4, np.uint32),
        quads=_words([f"{v:04d}" for v in q], 4, np.uint32),
        zeros=sum(q % 10**j == 0 for j in range(1, 5)),
        first=first,
        dot=_words(["."], 4, np.uint32)[0],
        ints=ints,
        int_mask=first[3 + ints],
        dot_after=np.where(ints > 0, ints, 17),
        exponent=_words(["" if -4 <= e < 17 else f"e{e:+03d}" for e in exps], 8, np.uint64),
        sign_prefix=_words(prefix + ["-" + p for p in prefix], 20, "V20"))


def _fast_cells(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the cells of ``x``, and the indices of those left to ``%``."""
    ax = np.abs(x)
    finite = np.isfinite(x)
    zero = ax == 0
    ax[~finite | zero] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    big = ax.astype(np.longdouble)
    d = big * t.pow10.take(_BIAS + 16 - e)
    off = np.flatnonzero((d < 1e16) | (d >= 1e17))  # log10 missed by one
    e[off] += d[off] >= 1e17
    e[off] -= d[off] < 1e16
    d[off] = big[off] * t.pow10.take(_BIAS + 16 - e[off])
    n = np.rint(d)
    slow = ~finite | (np.abs((d - n).astype(np.float64)) >= t.near_tie)  # d - n is exact
    carry = n >= 1e17  # rounding reached 10^17: one digit more to the left
    n[carry] = 1e16
    e += carry
    u = n.astype(np.int64)
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
    integer |= t.sign_prefix.take(e + 2 * _BIAS * np.signbit(x)).view(np.uint32).reshape(-1, 5)
    exponent = t.exponent.take(e).view(np.uint32).reshape(-1, 2)
    cells = np.concatenate([integer, fraction, exponent], axis=1)
    return cells.view(np.uint8), np.flatnonzero(slow)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(x.size, _SLOT) uint8: the bytes of ``FLOAT % v`` for each v in ``x``,
    NUL-padded, each slot's last byte left for the separator."""
    x = np.asarray(x, dtype=np.float64).ravel()
    t = _tables()
    if t is None or x.size < FEW_CELLS:
        cells, slow = np.empty((x.size, _SLOT), np.uint8), np.arange(x.size)
    else:
        cells, slow = _fast_cells(x, t)
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
    columns = [c if f else _label_cells(c) for c, f in zip(columns, is_float)]
    n_rows = len(columns[0]) if columns else 0
    step = max(1, BLOCK_CELLS // max(1, sum(is_float)))
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            block = [c[start:start + step] for c in columns]
            fh.write(_block(block, is_float).decode())
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
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
