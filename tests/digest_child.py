"""One matrix of environments for the determinism gates: each row fixes what
numpy starts with, and its child process emits the digests that the gates
compare over (row, key).

- **BLAS thread count** (``default`` and ``two_threads``).  The 1-D
  reductions (grid and delta-mixture means and variances) are plain
  ``einsum`` sums, count beliefs take their means in closed form, and the
  particle agents' sums go through no BLAS call, so every golden case and
  ``mean_contraction_gap`` of count beliefs give the same bytes with one BLAS
  thread as with two.
- **OpenBLAS kernel** (``default``, ``prescott`` and ``haswell``).  numpy's
  OpenBLAS is built for many CPUs (``DYNAMIC_ARCH``) and picks a kernel for
  the one it runs on; ``OPENBLAS_CORETYPE`` overrides the pick for one
  process.  Kernels round a product differently (FMA or not, another
  blocking), so bytes that went through a BLAS or LAPACK call would follow
  the CPU.  No sum on a run path takes one: the particle moments and
  likelihoods are fixed-order column sums, and Phi, its square root and the
  likelihood rows are Python-float products (``core_math.matmul`` and
  ``inverse``).  ``Prescott`` loads OpenBLAS's generic ``Katmai`` kernel.
  The kernel rows need numpy's own OpenBLAS with ``DYNAMIC_ARCH`` and a CPU
  that runs the Haswell kernel (AVX2 and FMA); elsewhere they are skipped.
  Other BLAS builds (MKL, Accelerate) are not covered.
- **numpy's SIMD loops** (``edge_law_below_avx512``,
  ``inner_law_below_avx512``, ``below_avx512`` and ``below_avx2``).  The bytes of a run still follow them (README,
  "Determinism"), but two things must not: the law of the exact refresh,
  whose Beta draws round through numpy's ``log``, ``exp`` and ``power`` loops
  (``test_exact_refresh.law_report``, below AVX-512), and float CSV cells,
  whose decimal exponent comes from ``np.log10``
  (``test_trace_io.pool_digests``, below AVX-512 and below AVX2).  The law
  report, about three times as long as a cell pool, is split between two
  rows of its own: its two edge vectors and its inner one take about as
  long, so the two law children run first, one per core, and a cell row
  follows each.
  A row is skipped where numpy dispatches to none of the targets it switches
  off.

``output(row, *with_rows)`` runs a row's child at most once per session, and
at most two children at a time (one per core); it returns only when every
child it started has ended, so none runs while other tests do.  The child is
this file run as a script, which prints the JSON of ``emit(parts)``:

    PYTHONPATH=src python tests/digest_child.py golden gap
"""

import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest

try:  # numpy's SIMD dispatch targets, and the CPU features it found (name: present)
    from numpy._core._multiarray_umath import __cpu_dispatch__ as DISPATCH
    from numpy._core._multiarray_umath import __cpu_features__ as CPU
except ImportError:
    DISPATCH, CPU = (), {}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Row(NamedTuple):
    env: dict  # variables set before numpy loads; None unsets one
    parts: tuple  # what the child emits (``emit``)
    skip: str | None = None  # why the row cannot run here


BLAS = np.__config__.CONFIG["Build Dependencies"]["blas"]
KERNEL_SKIP = (None if "openblas" in BLAS.get("name", "")
               and "DYNAMIC_ARCH" in BLAS.get("openblas configuration", "")
               and CPU.get("AVX2", False) and CPU.get("FMA3", False)
               else "needs numpy's OpenBLAS with DYNAMIC_ARCH on an AVX2 CPU")
DEFAULT_ENV = {**dict.fromkeys(THREAD_VARS, "1"), "OPENBLAS_CORETYPE": None,
               "NPY_DISABLE_CPU_FEATURES": None}


def _simd_row(disabled: str, parts: tuple) -> Row:
    on = any(target in DISPATCH and CPU.get(target, False) for target in disabled.split())
    return Row({**DEFAULT_ENV, "NPY_DISABLE_CPU_FEATURES": disabled}, parts,
               None if on else f"numpy dispatches to none of {disabled} here")


ENVIRONMENTS = {
    "default": Row(DEFAULT_ENV, ("golden", "gap")),
    "two_threads": Row({**DEFAULT_ENV, **dict.fromkeys(THREAD_VARS, "2")}, ("golden", "gap")),
    "prescott": Row({**DEFAULT_ENV, "OPENBLAS_CORETYPE": "Prescott"}, ("golden",), KERNEL_SKIP),
    "haswell": Row({**DEFAULT_ENV, "OPENBLAS_CORETYPE": "Haswell"}, ("golden",), KERNEL_SKIP),
    "edge_law_below_avx512": _simd_row("X86_V4 AVX512_ICL AVX512_SPR", ("edge_law",)),
    "inner_law_below_avx512": _simd_row("X86_V4 AVX512_ICL AVX512_SPR", ("inner_law",)),
    "below_avx512": _simd_row("X86_V4 AVX512_ICL AVX512_SPR", ("cells",)),
    "below_avx2": _simd_row("X86_V4 AVX512_ICL AVX512_SPR X86_V3", ("cells",)),
}
BLAS_ROWS = ("default", "two_threads", "prescott", "haswell")
CELL_ROWS = ("below_avx512", "below_avx2")
LAW_ROWS = ("edge_law_below_avx512", "inner_law_below_avx512")
# what a SIMD gate starts: the law rows, the longest, as the first two children
SIMD_ROWS = (*LAW_ROWS, *CELL_ROWS)


def disabled_targets(row: str) -> list[str]:
    """The SIMD targets a row switches off."""
    return ENVIRONMENTS[row].env["NPY_DISABLE_CPU_FEATURES"].split()


# part -> the function, module.name, whose result a child emits for it, and its arguments
PARTS = {"golden": ("test_golden.golden_table",), "gap": ("test_golden.gap_digest",),
         "edge_law": ("test_exact_refresh.law_report", "one_sided", "boundary_xz"),
         "inner_law": ("test_exact_refresh.law_report", "inner_source_3000"),
         "cells": ("test_trace_io.pool_digests",)}


def emit(parts) -> dict:
    """The result of each part's function (``PARTS``), and under ``simd`` the
    SIMD targets numpy dispatches to (target: enabled)."""
    out = {"simd": {target: CPU[target] for target in DISPATCH}}
    for part in parts:
        target, *args = PARTS[part]
        module, name = target.split(".")
        out[part] = getattr(importlib.import_module(module), name)(*args)
    return out


class ChildFailed(Exception):
    """A row's child exited with an error; the message holds its stderr."""


_outputs: dict = {}  # row -> its child's output, or the message of its failure


def _run_child(row: str) -> dict | str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    for var, value in ENVIRONMENTS[row].env.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    done = subprocess.run([sys.executable, os.path.abspath(__file__), *ENVIRONMENTS[row].parts],
                          env=env, capture_output=True, text=True, timeout=600)
    if done.returncode:
        return f"the {row} child exited with status {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout)


def output(row: str, *with_rows: str) -> dict:
    """The output of ``row``'s child (see ``emit``).  A row that cannot run
    here skips the caller.  The first call for a row runs its child, together
    with those of ``with_rows`` that have not run and can, two at a time;
    later calls return the same object.  A failed child raises
    ``ChildFailed`` at every call for its row."""
    if ENVIRONMENTS[row].skip:
        pytest.skip(ENVIRONMENTS[row].skip)
    todo = [r for r in dict.fromkeys((row, *with_rows))
            if r not in _outputs and not ENVIRONMENTS[r].skip]
    if todo:
        with ThreadPoolExecutor(2) as pool:
            _outputs.update(zip(todo, pool.map(_run_child, todo)))
    if isinstance(_outputs[row], str):
        raise ChildFailed(_outputs[row])
    return _outputs[row]


if __name__ == "__main__":
    json.dump(emit(sys.argv[1:]), sys.stdout, sort_keys=True)
