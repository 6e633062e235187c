"""Finite-dimensional operator algebra for qubit agents and beyond.

Provides density operators, POVMs, the tetrahedral (SIC) reference action for
d = 2, Born-rule probabilities, conditional probability matrices, Bloch-ball
coordinates, trace distance, and the running-frequency operator used by the
tomography scenarios.

Index convention: ``conditional_matrix(effects, ref)[j, i] = tr(D_j rho_i)``,
the probability of outcome j of the measured action given that the reference
action produced outcome i (post-measurement state ``rho_i``).  Columns sum to
one because the effects form a POVM.  Each trace is one ``einsum`` of the two
operators, not a matrix product, whose BLAS kernel would round it by the CPU.

A run's metrics do not build operators: the trace distance of two qubit
operators (I + r.sigma)/2 and (I + s.sigma)/2 of unit trace is |r - s|/2,
positive or not (Nielsen and Chuang, section 9.2.1), so the run path reads
Bloch vectors, the frequency operator's through ``frequency_vector``.
``trace_distance``, ``bloch_to_density`` and ``frequency_operator`` stay for
the API and the tests.  ``sic_probs_from_bloch`` is the Bloch ball's
embedding: it is read when an agent is built, at the points that fix its
affine likelihood coefficients (``postulate.affine_rows``), and by the
checked outcome draw, never at the particles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_math import as_cond_prob_matrix, as_prob_vector, readonly
from .errors import DimensionMismatchError, ValidationError

OP_TOL = 1e-10
BALL_TOL = 1e-9  # slack on the Bloch radius, |r| <= 1 + BALL_TOL

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Bloch vectors of the four tetrahedral states, rows n_i with |n_i| = 1.
TETRA_VERTICES = readonly(np.array(
    [[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]], dtype=float) / math.sqrt(3))


def check_hermitian(m, *, tol: float = OP_TOL, name: str = "operator") -> np.ndarray:
    """Validate a square Hermitian matrix; returns a read-only complex copy."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name}: expected a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise ValidationError(f"{name}: not Hermitian within {tol}")
    return readonly(a.copy())


def check_density(m, *, name: str = "density operator") -> np.ndarray:
    """Validate positivity (min eigenvalue >= -OP_TOL) and unit trace."""
    a = check_hermitian(m, name=name)
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() < -OP_TOL:
        raise ValidationError(f"{name}: negative eigenvalue {eigs.min():.3e}")
    tr = a.trace().real
    if abs(tr - 1.0) > OP_TOL:
        raise ValidationError(f"{name}: trace {tr!r}, expected 1")
    return a


def check_povm(effects) -> tuple[np.ndarray, ...]:
    """Validate a POVM: positive semidefinite effects summing to the identity."""
    ops = tuple(check_hermitian(e, name=f"effect {k}")
                for k, e in enumerate(effects))
    if not ops:
        raise ValidationError("POVM: no effects")
    d = ops[0].shape[0]
    for k, e in enumerate(ops):
        if e.shape[0] != d:
            raise DimensionMismatchError("POVM: effects of mixed dimension")
        if np.linalg.eigvalsh(e).min() < -OP_TOL:
            raise ValidationError(f"POVM effect {k}: not positive semidefinite")
    total = sum(ops)
    if np.max(np.abs(total - np.eye(d))) > OP_TOL * max(1, len(ops)):
        raise ValidationError("POVM: effects do not sum to the identity")
    return ops


def born_probabilities(rho, effects) -> np.ndarray:
    """Outcome probabilities tr(rho D_j) of a POVM on a state."""
    r = np.asarray(rho, dtype=complex)
    probs = []
    for e in effects:
        e = np.asarray(e, dtype=complex)
        if e.shape != r.shape:
            raise DimensionMismatchError(
                f"state {r.shape} vs effect {e.shape}")
        probs.append(np.trace(r @ e).real)
    return as_prob_vector(probs, name="Born probabilities")


@dataclass(frozen=True)
class ReferenceAction:
    """A minimal informationally complete action: d*d effects plus the
    post-measurement states conditional probabilities are taken against."""

    effects: tuple[np.ndarray, ...]
    post_states: tuple[np.ndarray, ...]

    def __post_init__(self):
        effects = check_povm(self.effects)
        d = effects[0].shape[0]
        if len(effects) != d * d:
            raise ValidationError(
                f"reference action needs d^2 = {d * d} effects, got {len(effects)}")
        states = tuple(check_density(s, name=f"post state {k}")
                       for k, s in enumerate(self.post_states))
        if len(states) != len(effects):
            raise ValidationError("reference action: effect/state count mismatch")
        for group, label in ((effects, "effects"), (states, "post states")):
            flat = np.stack([op.ravel() for op in group])
            if np.linalg.matrix_rank(flat) < len(group):
                raise ValidationError(f"reference action: {label} not linearly independent")
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "post_states", states)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


@lru_cache(maxsize=1)
def sic_d2() -> ReferenceAction:
    """The qubit symmetric IC reference action.

    Effects are half the projectors onto four states forming a regular
    tetrahedron in the Bloch ball; post-measurement states are the projectors
    themselves.  Gram matrix of the effects is (2*delta_ij + 1)/12.
    """
    s3 = math.sqrt(3.0)
    psi1 = np.array([math.sqrt((3 + s3) / 6),
                     math.sqrt((3 - s3) / 6) * cmath.exp(1j * math.pi / 4)])
    kets = [psi1, PAULI_Z @ psi1, PAULI_X @ psi1, PAULI_X @ PAULI_Z @ psi1]
    projectors = tuple(np.outer(k, k.conj()) for k in kets)
    effects = tuple(0.5 * p for p in projectors)
    return ReferenceAction(effects, projectors)


def pauli_povm(axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Projector pair for a Pauli measurement; outcome 0 is the +1 eigenvalue."""
    sigma = PAULIS[axis.upper()]
    return (0.5 * (ID2 + sigma), 0.5 * (ID2 - sigma))


def conditional_matrix(effects, ref: ReferenceAction) -> np.ndarray:
    """Conditional probability matrix R[j, i] = tr(D_j rho_i) of an action
    against a reference action; column stochastic by POVM completeness.  Each
    trace is one ``einsum`` of the two operators, which no BLAS kernel
    rounds."""
    rows = []
    for e in effects:
        e = np.asarray(e, dtype=complex)
        if e.shape[0] != ref.dim:
            raise DimensionMismatchError(
                f"effect dimension {e.shape[0]} vs reference dimension {ref.dim}")
        rows.append([np.einsum("ab,ba->", e, s).real for s in ref.post_states])
    return as_cond_prob_matrix(rows)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of (a - b).

    Accepts any Hermitian operators, not only density operators, since the
    running-frequency operator may fail positivity.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shapes {am.shape} vs {bm.shape}")
    diff = check_hermitian(am - bm, tol=1e-8, name="difference")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def bloch_to_density(point) -> np.ndarray:
    """Map a Bloch point (a, b, c) with norm <= 1 to its qubit state."""
    p = np.asarray(point, dtype=float).ravel()
    if p.shape != (3,):
        raise DimensionMismatchError(f"Bloch point must have 3 components, got {p.shape}")
    if np.linalg.norm(p) > 1.0 + BALL_TOL:
        raise ValidationError(f"Bloch point outside the unit ball: |r| = {np.linalg.norm(p)!r}")
    a, b, c = p
    return readonly(0.5 * (ID2 + a * PAULI_X + b * PAULI_Y + c * PAULI_Z))


def density_to_bloch(rho) -> np.ndarray:
    """Pauli expectation values (a, b, c) of a qubit state."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 state, got {r.shape}")
    return readonly(np.array([np.trace(r @ PAULIS[ax]).real for ax in "XYZ"]))


def sic_probs_from_bloch(points: np.ndarray) -> np.ndarray:
    """Reference probabilities of the tetrahedral action for Bloch points.

    Affine map p_i = (1 + r . n_i) / 4, vectorized over leading axes.
    """
    out = np.asarray(points, dtype=float) @ TETRA_VERTICES.T
    out += 1.0
    out *= 0.25
    return out


def bloch_from_sic_probs(probs: np.ndarray) -> np.ndarray:
    """Inverse of ``sic_probs_from_bloch``: r = 3 * sum_i p_i n_i."""
    p = np.asarray(probs, dtype=float)
    return 3.0 * (p @ TETRA_VERTICES)


def frequency_vector(counts) -> tuple[list[float], tuple[str, ...]]:
    """The Bloch vector a of the running-frequency operator, a_k =
    (n_plus - n_minus) / (n_plus + n_minus) on each axis, as Python floats.

    ``counts`` maps axis names to (n_plus, n_minus).  Axes with no counts yet
    contribute a zero component and are reported in the second return value.
    |a| may exceed 1.
    """
    vec = [0.0, 0.0, 0.0]
    missing = []
    for k, axis in enumerate("xyz"):
        n_plus, n_minus = counts.get(axis, (0, 0))
        if n_plus < 0 or n_minus < 0:
            raise ValidationError("counts must be nonnegative")
        total = n_plus + n_minus
        if total == 0:
            missing.append(axis)
        else:
            vec[k] = (n_plus - n_minus) / total
    return vec, tuple(missing)


def frequency_operator(counts) -> tuple[np.ndarray, tuple[str, ...]]:
    """Running-frequency operator (I + a . sigma) / 2 from per-axis outcome
    counts, a = ``frequency_vector(counts)``, with the axes that have no
    counts yet.  The result is Hermitian but not necessarily positive
    semidefinite.
    """
    (a, b, c), missing = frequency_vector(counts)
    op = 0.5 * (ID2 + a * PAULI_X + b * PAULI_Y + c * PAULI_Z)
    return readonly(op), missing


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
