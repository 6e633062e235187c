"""Emitted bytes do not depend on the BLAS kernel.

numpy's OpenBLAS is built for many CPUs (``DYNAMIC_ARCH``) and picks a
kernel for the one it runs on; ``OPENBLAS_CORETYPE`` overrides the pick for
one process.  Kernels round a product differently (FMA or not, another
blocking), so bytes that went through a BLAS or LAPACK call would follow the
CPU.  No sum on a run path takes one: the particle moments and likelihoods
are fixed-order column sums, and Phi, its square root and the likelihood
rows are Python-float products (``core_math.matmul`` and ``inverse``).

Every golden case is emitted in child processes (``digest_child.py``, one
BLAS thread) under the kernel this machine selects, the generic one
(``Prescott`` loads OpenBLAS's ``Katmai`` kernel) and ``Haswell``, and each
must give the golden bytes.  The gate needs numpy's own OpenBLAS with
``DYNAMIC_ARCH``, and a CPU that runs the Haswell kernel (AVX2 and FMA);
elsewhere it is skipped.  Other BLAS builds (MKL, Accelerate) and other CPUs
are not covered.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from digest_child import child_digests, threads
from test_golden import BATCH_CASES, CASES, GOLDEN_PATH, KEYS

KERNELS = (None, "Prescott", "Haswell")


def _kernel_switchable() -> bool:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and cpu.get("AVX2", False) and cpu.get("FMA3", False))


pytestmark = pytest.mark.skipif(not _kernel_switchable(),
                                reason="needs numpy's OpenBLAS with DYNAMIC_ARCH on an AVX2 CPU")


@pytest.fixture(scope="module")
def digests():
    def emit(kernel):
        return child_digests({**threads(1), "OPENBLAS_CORETYPE": kernel}, CASES, BATCH_CASES)

    with ThreadPoolExecutor(2) as pool:  # two children at a time, one per core
        return dict(zip(KERNELS, pool.map(emit, KERNELS)))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", KEYS)
def test_every_kernel_gives_the_golden_bytes(digests, golden, key):
    assert {str(k): digests[k][key] for k in KERNELS} == {str(k): golden[key] for k in KERNELS}
