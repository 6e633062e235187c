"""Deterministic derivation of independent random streams from one master seed.

Every consumer of randomness in a run gets its own named stream (for an agent:
init, which builds its prior, and the run loop's choice, outcome, resample and
broadcast).  Each stream is keyed by ``SeedSequence((seed, *name path))``, so
distinct names give statistically independent sequences and the same (seed,
name path) always reproduces the same stream.  This isolation is what makes a
pair interaction with a delta source reproduce the single-agent run bit for
bit.

The bit generator follows the stream's name (``BULK_STREAMS``).  The streams
that fill particle arrays, ``init`` (the uniform-ball prior) and ``resample``
(the exact refresh and the Metropolis fallback), draw tens of thousands of
doubles per call, and there the bits are a large share of the work: 16,384
doubles take about 32 us from SFC64, 38 us from PCG64 and 79 us from Philox
(numpy 2.4, 2-core Xeon), so these two run on SFC64.  The per-step streams
(choice, outcome, broadcast) draw a few doubles a step, and stay on the
counter-based Philox generator, whose bytes the 1-D traces pin.  Independence
comes from ``SeedSequence`` hashing the key, whatever the generator.

The run loop draws its outcome uniforms in blocks (``UniformBlocks``):
``Generator.random(k)`` returns the doubles of k scalar ``random()`` calls, and
nothing else reads the outcome stream, so the draws are the same.

``draw_index`` is the weighted index draw of ``Generator.choice(p.size, p=p)``
without its checks of ``p``: the same cumulative sum, the same single
``random()`` from the stream, the same search, hence the same index and the
same stream state afterwards.  ``draw_outcome`` is the same draw over a few
Python floats, the outcome probabilities of one step.
"""

from __future__ import annotations

import zlib
from itertools import accumulate, chain

import numpy as np


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf8"))


# the stream names whose bit generator is SFC64 rather than Philox: the two
# streams that fill particle arrays (see the module docstring)
BULK_STREAMS = ("init", "resample")


def stream(master_seed: int, *path) -> np.random.Generator:
    """Return the named independent stream for ``(master_seed, *path)``: SFC64
    when the path ends in one of ``BULK_STREAMS``, Philox otherwise."""
    key = (int(master_seed),) + tuple(_token(p) for p in path)
    bits = np.random.SFC64 if path and path[-1] in BULK_STREAMS else np.random.Philox
    return np.random.Generator(bits(np.random.SeedSequence(key)))


def agent_streams(master_seed: int, slot: int) -> dict[str, np.random.Generator]:
    """The named streams the run loop draws from for the agent in the given
    slot; its prior's ``init`` stream is the build's (``build_runtime``)."""
    names = ("choice", "outcome", "resample", "broadcast")
    return {name: stream(master_seed, "agent", slot, name) for name in names}


UNIFORM_BLOCK = 1024  # the most doubles a ``UniformBlocks`` holds at once


class UniformBlocks:
    """The first ``n`` doubles of ``rng.random()``, drawn ``UNIFORM_BLOCK`` at a
    time: ``random()`` returns the next one, the value the next scalar
    ``rng.random()`` call would have returned, and raises ``StopIteration``
    after the n-th.  A block is drawn when the one before it runs out, so
    memory does not grow with n.  Stands in for ``rng`` where only
    ``random()`` reads it (``draw_outcome``)."""

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator, n: int):
        blocks = (rng.random(min(UNIFORM_BLOCK, n - start)).tolist()
                  for start in range(0, n, UNIFORM_BLOCK))
        self.random = chain.from_iterable(blocks).__next__


def draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probabilities ``p``, as ``rng.choice(p.size, p=p)``
    draws it but without validating ``p``: the caller guarantees a nonnegative
    vector that sums to one."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def draw_outcome(q, rng) -> int:
    """``draw_index`` over a few nonnegative Python floats ``q``, unnormalized,
    with one ``rng.random()`` (a ``Generator`` or ``UniformBlocks``), in its
    arithmetic: the running sums added left to right, each divided by
    the last, and the first index whose quotient exceeds one ``random()`` (the
    ``side="right"`` search, so a zero entry is never drawn)."""
    cdf = list(accumulate(q))
    u, i = rng.random(), 0
    while u >= cdf[i] / cdf[-1]:  # the last quotient is 1.0 > u
        i += 1
    return i
