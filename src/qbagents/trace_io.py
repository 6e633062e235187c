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
cells, where the array pass's fixed cost is larger.

Slots.  Each float cell is laid out in a 32-byte slot of four ``uint64``
words, with NUL bytes for absent characters, which ``bytes.translate``
deletes; the longest cell, such as ``-1.2345678901234567e-308``, has 24
characters.  Word 0 holds the sign at byte 0 and, for fixed cells below 1,
the ``0.000`` prefix at bytes 1-5; the 17 digits lie at bytes 7-23, the
first at the top of word 0 and eight each in words 1 and 2, from a table of
4-digit chunks; word 3 holds ``e+ddd`` and, at byte 31, the separator.  The
integer digits move down one byte, which frees the byte after them for the
dot.  For a cell with at most one integer digit (all but the fixed cells
from 10 up) that is word 0 alone: word 0 is read whole from a table by the
cell's layout (its form and the digits shown) and leading digit, and words
1 and 2 are the digits under that layout's ``uint64`` masks.  The others
take the general masks, and their integer digits move by one byte shift of
the three digit words.  A table is formatted in blocks of about
``BLOCK_CELLS`` cells: each table allocates one buffer of work arrays and
one line buffer, sized for a block, and computes every block in place
(numpy ``out=``), label cells included, so that a block allocates little
beyond its output bytes.  (Dekker, "A floating-point technique for
extending the available precision", Numer. Math. 18, 224, 1971; Adams, "Ryu
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
FEW_CELLS = 250  # a table with fewer float cells takes one "%" each: cheaper than the array pass
# The tables hold the decimal exponents e that log10 and its correction can
# reach, from below 5e-324 to above 1.8e308, at e + _BIAS.
_BIAS = 325
_EXPONENTS = range(-_BIAS, 310)
_LIFT_BELOW = -270  # cells with e below this are scaled by 2^_LIFT, so that 10^(16-e) fits
_LIFT = 256
_NEAR_TIE = 0.5 - 1e-12  # |r - rint(r)| above this: D may lie on either side of the tie
_HIGH_27 = np.uint64(2**64 - 2**26)  # a float64's sign, exponent and top 27 significant bits
_VELTKAMP = 2.0**27 + 1
_SLOT = 32  # bytes of a float cell's slot: four uint64 words, the last byte the separator
_FIRST = 7  # the slot byte of the first digit
# A cell's form: 0-3 for "0." ... "0.000" before the digits, 4 for exponent
# notation, 5 + e for fixed notation with e = 0 ... 16.  From _SPILL on, the
# integer digits reach word 1.
_FORMS = 22
_SPILL = 6
_SHOWN = 18  # 0 ... 17: the digits up to the last nonzero one


def _form(e: int) -> int:
    return -e - 1 if -4 <= e < 0 else 5 + e if 0 <= e < 17 else 4


def _integer_digits(form: int) -> int:
    return 0 if form < 4 else 1 if form < _SPILL else form - 4


class _Tables(NamedTuple):
    # (5, len(_EXPONENTS)) by exponent e: the scale 2^s of the cells, and
    # hi + lo = 2^-s 10^(16-e) to about 2^-106 relative, hi in Veltkamp halves
    # hi_high + hi_low of 26 significant bits each
    power: np.ndarray
    quads: np.ndarray  # (10000,) uint64: the digits of 0000 ... 9999 at bytes 0-3
    zeros: np.ndarray  # (10000,) int64: 10 times the trailing zeros of 0000 ... 9999
    # by exponent e: 10 (18 form + 17), the lead table column of no digit
    # shown; word 3, "e+ddd" or blank, and the separator
    layout: np.ndarray
    exponent: np.ndarray
    # by layout c = 18 form + z, z the digits up to the last nonzero one:
    # (9, 18 _FORMS), the words' integer digit masks, shown fraction masks
    # and dot; and, at 10 c + d for a leading digit d, (3, 180 _FORMS) word 0
    # but the sign, then the fraction masks of words 1-2, for forms below
    # _SPILL (zero above)
    masks: np.ndarray
    lead: np.ndarray
    head: np.ndarray  # (10,) uint64: a leading digit at byte 7


def _power(e: int) -> tuple[float, float, float]:
    """(2^s, hi, lo): hi + lo is 2^-s 10^(16-e), each correctly rounded from
    exact integers (hi of the value, lo of what hi leaves), s = _LIFT for e
    below _LIFT_BELOW and 0 otherwise."""
    s = _LIFT if e < _LIFT_BELOW else 0
    num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0) << s
    hi = num / den  # int / int is correctly rounded
    m, q = hi.as_integer_ratio()
    return 2.0**s, hi, (num * q - m * den) / (den * q)


def _words(strings) -> np.ndarray:
    """Each string NUL-padded to 8 bytes, read as one ``uint64`` word."""
    return np.frombuffer(b"".join(s.encode("latin1").ljust(8, b"\0") for s in strings),
                         np.uint64)


def _layout_masks() -> np.ndarray:
    """(9, 18 _FORMS) uint64 by layout 18 form + z, z the digits up to the
    last nonzero one: the integer digit masks, the shown fraction masks and
    the dot of words 0-2."""
    k = np.repeat([_integer_digits(f) for f in range(_FORMS)], _SHOWN)[:, None]
    shown = np.maximum(np.tile(np.arange(_SHOWN), _FORMS)[:, None], k)
    byte = np.arange(24)  # the slot bytes of words 0-2
    integer = (_FIRST <= byte) & (byte < _FIRST + k)
    fraction = (_FIRST + k <= byte) & (byte < _FIRST + shown)
    dot = (byte == _FIRST - 1 + k) & (0 < k) & (k < shown)
    masks = np.concatenate([0xFF * integer, 0xFF * fraction, ord(".") * dot], axis=1)
    return masks.astype(np.uint8).view(np.uint64).T.copy()


@cache
def _tables() -> _Tables:
    """The formatting tables, built at first use."""
    exps = _EXPONENTS
    scale, hi, lo = np.array([_power(e) for e in exps]).T
    hi_high = _VELTKAMP * hi
    hi_high -= hi_high - hi
    q = np.arange(10000)
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = 48 + np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    masks = _layout_masks()
    integer, fraction, dot = masks[0], masks[3], masks[6]
    head = _words(["\0" * _FIRST + str(d) for d in range(10)])
    prefix = _words(["\0" + ("0." + "0" * f if f < 4 else "") for f in range(_FORMS)])
    lead = np.zeros((3, _FORMS * _SHOWN, 10), np.uint64)
    lead[0] = ((head & fraction[:, None]) | ((head & integer[:, None]) >> np.uint64(8))
               | dot[:, None] | prefix.repeat(_SHOWN)[:, None])
    lead[1:] = masks[4:6, :, None]
    lead[:, _SPILL * _SHOWN:] = 0
    return _Tables(
        power=np.array([scale, hi, hi_high, hi - hi_high, lo]),
        quads=quads.view(np.uint64).ravel(),
        zeros=10 * sum(q % 10**j == 0 for j in range(1, 5)),
        layout=10 * (_SHOWN * np.array([_form(e) for e in exps]) + _SHOWN - 1),
        exponent=_words([("" if -4 <= e < 17 else f"e{e:+03d}").ljust(7, "\0") + ","
                         for e in exps]),
        masks=masks, lead=lead.reshape(3, -1), head=head)


class _Work(NamedTuple):
    """The work arrays of blocks of up to ``size`` cells, reused for each
    block of a table: whole rows of ``size`` cells, all in one buffer."""

    x: np.ndarray  # the block's float cells, row by row
    floats: np.ndarray  # 12 rows, float64
    ints: np.ndarray  # 10 rows, int64
    digits: np.ndarray  # 2 rows, uint64: digit words 1 and 2
    words: np.ndarray  # 4 rows, uint64: the slots, a row per word
    flags: np.ndarray  # 4 rows, bool

    ROWS = (1, 12, 10, 2, 4, 4)
    TYPES = (np.float64, np.float64, np.int64, np.uint64, np.uint64, np.bool_)

    @classmethod
    def of(cls, size: int) -> _Work:
        ends = np.cumsum([0, *(np.dtype(dtype).itemsize * rows * size
                               for rows, dtype in zip(cls.ROWS, cls.TYPES))]).tolist()
        buffer = np.empty(ends[-1], np.uint8)
        return cls(*(buffer[a:b].view(dtype) for a, b, dtype in zip(ends, ends[1:], cls.TYPES)))

    def block(self, n: int) -> _Work:
        """The first ``n`` cells of each row, each row contiguous."""
        return _Work(*(a[:rows * n].reshape(rows, n) for a, rows in zip(self, self.ROWS)))


def _product(ax: np.ndarray, i: np.ndarray, t: _Tables,
             out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, r) with p + r = ax 10^(16-e) to within 5e-15, for the table rows
    ``i`` of the exponents e: p = RN(a hi) and r = (a hi - p) + a lo, where
    a = 2^s ax, by Dekker's two-product.  ``out`` is (9, ax.size) float64 of
    room, p and r among it."""
    p, r, a_high, a_low, *power = out
    a, hi, hi_high, hi_low, lo = power
    t.power.take(i, axis=1, out=out[4:], mode="wrap")
    a *= ax
    np.bitwise_and(a.view(np.uint64), _HIGH_27, out=a_high.view(np.uint64))  # 27 bits, a_low 26
    np.subtract(a, a_high, out=a_low)
    np.multiply(a, hi, out=p)
    np.multiply(a_high, hi_high, out=r)  # each partial sum is exact in this order
    r -= p
    r += np.multiply(a_low, hi_high, out=hi_high)
    r += np.multiply(a_high, hi_low, out=a_high)
    r += np.multiply(a_low, hi_low, out=hi_low)
    r += np.multiply(a, lo, out=lo)
    return p, r


def _fast_cells(x: np.ndarray, t: _Tables, w: _Work) -> np.ndarray:
    """Write the slots of the cells of ``x`` into ``w.words``, for ``w`` a
    ``_Work.block`` of ``x.size`` cells; return the indices of the cells left
    to ``%``."""
    ax, log, rounded = w.floats[:3]
    e, row, v, head, tail, index = w.ints[:6]
    quarters = w.ints[6:]
    q0, q2, q1, u = quarters  # u holds D, then what the quarters leave
    nonfinite, zero, flag, near = w.flags
    words, digits = w.words, w.digits
    np.abs(x, out=ax)
    np.logical_not(np.isfinite(x, out=flag), out=nonfinite)
    np.equal(ax, 0, out=zero)
    np.copyto(ax, 1.0, where=np.logical_or(nonfinite, zero, out=flag))
    np.copyto(e, np.floor(np.log10(ax, out=log), out=log), casting="unsafe")
    p, r = _product(ax, np.add(e, _BIAS, out=row), t, w.floats[3:])
    # log10 may miss by one next to a power of ten.  D is checked where p is
    # outside [10^16, 10^17) or within 64 of its ends (|r| < 20); there
    # p - 10^16 and p - 10^17 are exact or far from 0, so the signs below are
    # those of D - 10^16 and D - 10^17.
    np.greater_equal(p, 1e17 - 64, out=near)
    off = np.logical_or(np.less(p, 1e16 + 64, out=flag), near, out=flag).nonzero()[0]
    if off.size:
        po, ro = p[off], r[off]
        eo = e[off] + ((po - 1e17) + ro >= 0) - ((po - 1e16) + ro < 0)
        moved = eo != e[off]  # the others keep their p and r
        off, eo = off[moved], eo[moved]
        p[off], r[off] = _product(ax[off], eo + _BIAS, t, np.empty((9, off.size)))
        e[off] = eo
    np.rint(r, out=rounded)
    np.abs(np.subtract(r, rounded, out=log), out=log)  # r - rint(r) is exact
    slow = np.logical_or(nonfinite, np.greater(log, _NEAR_TIE, out=near), out=near).nonzero()[0]
    np.copyto(u, p, casting="unsafe")  # p is an integer, at least 2^53
    np.copyto(v, rounded, casting="unsafe")
    u += v
    np.equal(u, 10**17, out=flag)  # rounding reached 10^17: one digit more to the left
    np.copyto(u, 10**16, where=flag)
    e += flag
    np.copyto(u, 0, where=zero)
    np.copyto(e, 0, where=zero)
    np.add(e, _BIAS, out=row)

    # D = head 10^16 + q0 10^12 + q1 10^8 + q2 10^4 + q3; digit words 1 and 2
    # are q0 q1 and q2 q3 from the chunk table
    u -= np.multiply(np.floor_divide(u, 10**16, out=head), 10**16, out=v)
    u -= np.multiply(np.floor_divide(u, 10**8, out=q1), 10**8, out=v)
    q1 -= np.multiply(np.floor_divide(q1, 10**4, out=q0), 10**4, out=v)
    u -= np.multiply(np.floor_divide(u, 10**4, out=q2), 10**4, out=v)
    t.quads.take(quarters, out=words, mode="wrap")
    np.bitwise_or(words[:2], np.left_shift(words[2:], 32, out=words[2:]), out=digits)
    t.zeros.take(u, out=tail, mode="wrap")  # 10 times the trailing zeros of the 17 digits
    long_tail = np.equal(u, 0, out=flag).nonzero()[0]
    if long_tail.size:
        more = head[long_tail] == 0
        for q in (q0, q1, q2, u):
            q = q[long_tail]
            more = np.where(q == 0, more + 4, t.zeros.take(q) // 10)
        tail[long_tail] = 10 * more

    # words 0-2 from the lead table at 10 c + head, the layout c = 18 form
    # + z, with the digits shown, unless the integer digits reach word 1;
    # then the sign, and word 3
    np.add(np.subtract(t.layout.take(row, out=index, mode="wrap"), tail, out=index), head,
           out=index)
    t.lead.take(index, axis=1, out=words[:3], mode="wrap")
    words[1:3] &= digits
    spill = np.greater_equal(index, 10 * _SHOWN * _SPILL, out=flag).nonzero()[0]
    if spill.size:
        words[:3, spill] = _spilled(head[spill], digits[:, spill], index[spill] // 10, t)
    sign = np.right_shift(x.view(np.uint64), 63, out=words[3])
    words[0] |= np.multiply(sign, ord("-"), out=sign)
    t.exponent.take(row, out=words[3], mode="wrap")
    return slow


def _spilled(head: np.ndarray, digits: np.ndarray, layout: np.ndarray,
             t: _Tables) -> np.ndarray:
    """Words 0-2 of cells whose integer digits reach word 1: the digits
    shown, the integer ones moved down a byte by a shift of the 64-bit
    words, and the dot in the byte this frees."""
    masks = t.masks.take(layout, axis=1)
    spelled = np.empty((3, head.size), np.uint64)
    t.head.take(head, out=spelled[0])
    spelled[1:] = digits
    integer = spelled & masks[0:3]
    spelled &= masks[3:6]
    spelled |= masks[6:9]
    spelled |= integer >> np.uint64(8)
    spelled[:2] |= integer[1:] << np.uint64(56)
    return spelled


def _float_words(x: np.ndarray, t: _Tables, w: _Work) -> np.ndarray:
    """(4, x.size) uint64: the slots of ``FLOAT % v`` for each v in ``x``,
    NUL-padded, each slot's last byte the separator ",", a row per word;
    ``w`` is a ``_Work.block`` of ``x.size`` cells."""
    slow = _fast_cells(x, t, w)
    if slow.size:
        text = np.array([(FLOAT % v).encode() for v in x[slow].tolist()], f"S{_SLOT - 1}")
        cells = np.full((slow.size, _SLOT), ord(","), np.uint8)
        cells[:, :-1] = text.view(np.uint8).reshape(-1, _SLOT - 1)
        w.words[:, slow] = cells.view(np.uint64).T
    return w.words


def _label_words(labels) -> np.ndarray:
    """(len(labels), k) uint64: ``str`` of each label, NUL-padded to whole
    words, the last byte a comma."""
    text = np.array([str(v).encode() for v in labels], dtype=bytes)
    cells = np.zeros((text.size, 8 * (text.itemsize // 8 + 1)), np.uint8)
    cells[:, :text.itemsize] = text.view(np.uint8).reshape(text.size, text.itemsize)
    cells[:, -1] = ord(",")
    return cells.view(np.uint64)


def _lines(columns: list, is_float: list[bool], n_rows: int):
    """The CSV lines of the table, a block of rows at a time.  Each block is
    laid out in one line buffer of words, reused for every block: the label
    cells are copied in and the float slots written in."""
    floats = [c for c, f in zip(columns, is_float) if f]
    step = max(1, BLOCK_CELLS // max(1, len(floats)))
    rows = min(step, n_rows)
    cells = [None if f else _label_words(c) for c, f in zip(columns, is_float)]
    widths = [4 if f else c.shape[1] for c, f in zip(cells, is_float)]
    starts = np.cumsum([0, *widths]).tolist()
    buffer = bytearray(8 * rows * starts[-1])
    line = np.frombuffer(buffer, np.uint64).reshape(rows, starts[-1])
    runs = []  # [first float, floats, first word] of each run of adjacent float columns
    for k, (f, first) in enumerate(zip(is_float, starts)):
        if f and k and is_float[k - 1]:
            runs[-1][1] += 1
        elif f:
            runs.append([sum(is_float[:k]), 1, first])
    work, t = _Work.of(rows * len(floats)), _tables()
    w = work.block(rows * len(floats))
    for start in range(0, n_rows, step):
        if n_rows - start < rows:
            rows = n_rows - start
            w = work.block(rows * len(floats))
        x = w.x.reshape(rows, len(floats))
        for j, c in enumerate(floats):
            x[:, j] = c[start:start + rows]
        words = _float_words(w.x[0], t, w).reshape(4, rows, len(floats))
        for j, count, first in runs:
            slots = line[:rows, first:first + 4 * count].reshape(rows, count, 4)
            slots[...] = words[:, :, j:j + count].transpose(1, 2, 0)
        for c, first, width in zip(cells, starts, widths):
            if c is not None:
                line[:rows, first:first + width] = c[start:start + rows]
        line.view(np.uint8)[:rows, -1] = ord("\n")
        whole = buffer if rows == len(line) else line[:rows].tobytes()
        yield whole.translate(None, b"\0")


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
        for block in _lines(columns, is_float, n_rows):
            fh.write(block)
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
