"""Random qubit states and POVMs for the tests (criterion 1 and the Born-rule
and postulate checks).  No library code draws them."""

import numpy as np

from qbagents.core_math import readonly


def random_density(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Random full-rank density operator (Hilbert-Schmidt style)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return readonly(rho / rho.trace().real)


def random_povm(rng: np.random.Generator, d: int = 2,
                n_outcomes: int = 4) -> tuple[np.ndarray, ...]:
    """Random POVM built by normalizing positive operators to completeness."""
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    eigs, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1.0 / np.sqrt(eigs))) @ vecs.conj().T
    return tuple(readonly(inv_sqrt @ a @ inv_sqrt) for a in raw)
