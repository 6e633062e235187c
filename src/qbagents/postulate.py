"""Physical postulates and physically valid regions.

A physical postulate fixes how an agent's probabilities ``q`` for an arbitrary
action follow from their probabilities ``p`` for a hypothetical reference
action, through the action's conditional probability matrix ``R``:

    q = R (Phi p)

The classical postulate has ``Phi = I`` (law of total probability form) and
its valid states are the whole reference simplex.  A quantum postulate derives
``Phi`` from a reference action as the inverse of the reference's own
conditional probability matrix, ``[Phi^-1]_{ij} = tr(E_i rho_j)``.  Quantum
``Phi`` is column quasistochastic (columns sum to one, some entries strictly
negative), and the valid states shrink to the reference probabilities of
actual density operators; for the built-in qubit SIC reference this is the
ball inscribed in the 4-outcome simplex.

Parameter regions
-----------------
Agents represent beliefs as densities over a parameter region.  Regions know
their space's name and sizes (``dim``, ``ref_dim``; see ``region_with``), how
to test membership, how to sample uniformly, and how to embed parameter
points into reference probability vectors:

* ``Interval(lo, hi)``: theta in [lo, hi], embedded as (theta, 1 - theta).
* ``QubitBall()``: Bloch points, embedded as tetrahedral SIC probabilities,
  so a quantum postulate whose reference action is not the built-in SIC
  (``sic_d2()``) has no region: ``ensemble_compatible`` is false, and
  ``min_likelihood`` and the point embeddings raise ``ValidationError``.

So likelihoods are affine in the centred coordinates r (2 theta - 1, or the
Bloch vector); ``axis_classes`` marks the exact updates, c0 (1 +- r_a).

Every likelihood at parameter points, on either region, is computed in that
affine form and no other way: the likelihood rows ``R[j] @ Phi``
(``likelihood_rows``) composed with the region's embedding (``affine_rows``)
give coefficients (c0, c_1, ..., c_dim) in the region's own coordinates r
(theta, or the Bloch vector), and ``affine_likelihoods`` takes ``c0 + c . r``
over the columns of the points, added left to right.  All three are sums in an
order this module fixes, never a BLAS call, so no likelihood's bytes depend
on the BLAS kernel the CPU selects.  The embeddings themselves (a region's
``to_ref_probs``, and ``ref_probs_of_points`` for a postulate) are read only
where a reference probability vector is wanted: by ``affine_rows`` at build
time, and by the checked outcome draw.  On the interval every registry row is
(1, 0) or (0, 1), whose coefficients are (0, 1) and (1, -1): theta and
1 - theta to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import PROB_TOL, as_prob_vector, dot, inverse, matmul, readonly
from .errors import DimensionMismatchError, RegionError, ValidationError
from .quantum import (
    BALL_TOL,
    OP_TOL,
    ReferenceAction,
    bloch_from_sic_probs,
    conditional_matrix,
    sic_d2,
    sic_probs_from_bloch,
)


@dataclass(frozen=True)
class Interval:
    """Sub-interval of [0, 1]; parameter is the probability of outcome 0."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValidationError(f"invalid interval [{self.lo}, {self.hi}]")

    space = "interval"
    dim = 1
    ref_dim = 2

    @property
    def name(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"

    def contains(self, points) -> np.ndarray:
        """Whether each point lies in [lo, hi] within ``PROB_TOL`` (NaN does not)."""
        t = np.asarray(points, dtype=float).reshape(-1)
        return (t >= self.lo - PROB_TOL) & (t <= self.hi + PROB_TOL)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, 1))

    def to_ref_probs(self, points) -> np.ndarray:
        t = np.asarray(points, dtype=float).reshape(-1, 1)
        return np.hstack([t, 1.0 - t])


@dataclass(frozen=True)
class QubitBall:
    """The unit Bloch ball, the valid states of the qubit SIC postulate."""

    space = "ball"
    dim = 3
    ref_dim = 4
    name = "the Bloch ball"

    def contains(self, points) -> np.ndarray:
        """Whether each point's norm is at most 1 + ``BALL_TOL``.  A norm that
        overflows is inf, outside, and raises no warning; NaN is outside."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        with np.errstate(over="ignore"):
            return np.sqrt(_squared_norms(pts)) <= 1.0 + BALL_TOL

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n uniform points, (n, 3) in F order: the particle layout, whose
        columns are contiguous."""
        direction = rng.normal(size=(n, 3))
        norm = np.sqrt(_squared_norms(direction))
        radius = rng.uniform(size=n) ** (1.0 / 3.0)
        out = np.empty((n, 3), order="F")
        for k in range(3):
            np.divide(direction[:, k], norm, out=out[:, k])
            out[:, k] *= radius
        return out

    def to_ref_probs(self, points) -> np.ndarray:
        return sic_probs_from_bloch(np.asarray(points, dtype=float).reshape(-1, 3))


def _squared_norms(pts: np.ndarray) -> np.ndarray:
    # x*x + y*y + z*z by columns, the order ``np.linalg.norm(pts, axis=1)``
    # sums its squares in, so its square root is that norm bit for bit
    x, y, z = pts.T
    return x * x + y * y + z * z


def region_with(**sizes):
    """The region class with the given ``dim`` or ``ref_dim``, or None."""
    return next((region for region in (Interval, QubitBall)
                 if all(getattr(region, k) == v for k, v in sizes.items())), None)


def where_outside(pts: np.ndarray) -> str | None:
    """The name of the whole region, [0, 1] or the Bloch ball, that (n, 1) or
    (n, 3) points leave, by its ``contains``, if some do."""
    region = region_with(dim=pts.shape[1])()
    return None if np.all(region.contains(pts)) else region.name


@dataclass(frozen=True)
class PhysicalPostulate:
    """The rule q = R (Phi p), classical (Phi = I) or quantum (Phi from a
    reference action)."""

    kind: str
    n_outcomes: int
    phi: np.ndarray
    ref: ReferenceAction | None = None

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise ValidationError(f"unknown postulate kind {self.kind!r}")
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (self.n_outcomes, self.n_outcomes):
            raise ValidationError(f"Phi shape {phi.shape} vs N = {self.n_outcomes}")
        col_sums = phi.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > 1e-9:
            raise ValidationError("Phi columns must sum to one")
        if self.kind == "classical":
            if np.max(np.abs(phi - np.eye(self.n_outcomes))) > 0:
                raise ValidationError("classical Phi must be exactly the identity")
        else:
            if self.ref is None:
                raise ValidationError("quantum postulate requires a reference action")
            if phi.min() >= 0:
                raise ValidationError("quantum Phi must contain a negative entry")
        object.__setattr__(self, "phi", readonly(phi.copy()))

    @property
    def is_quantum(self) -> bool:
        return self.kind == "quantum"


def classical_postulate(n_outcomes: int) -> PhysicalPostulate:
    """Law-of-total-probability postulate on n outcomes."""
    return PhysicalPostulate("classical", n_outcomes, np.eye(n_outcomes))


def phi_matrix(ref: ReferenceAction) -> np.ndarray:
    """Inverse of the reference action's own conditional probability matrix.

    ``[Phi^-1]_{ij} = tr(E_i rho_j)``; for the qubit SIC reference this gives
    Phi = 3 I - J/2 with J the all-ones matrix.
    """
    inv_phi = conditional_matrix(ref.effects, ref)
    if np.linalg.cond(inv_phi) > 1e12:
        raise ValidationError("reference conditional matrix is singular")
    phi = inverse(inv_phi)
    if np.max(np.abs(phi.sum(axis=0) - 1.0)) > 1e-9:
        raise ValidationError("Phi columns do not sum to one")
    return readonly(phi)


def quantum_postulate(ref: ReferenceAction | None = None) -> PhysicalPostulate:
    """Born-rule postulate for the given reference action (default: qubit SIC)."""
    if ref is None:
        ref = sic_d2()
    return PhysicalPostulate("quantum", ref.n_outcomes, phi_matrix(ref), ref)


SQRT_MAX_ITERATIONS = 100


def sqrt_phi(phi) -> np.ndarray:
    """Principal square root of Phi; requires a positive real spectrum.

    The Denman-Beavers iteration Y <- (Y + Z^-1)/2, Z <- (Z + Y^-1)/2 from
    Y = Phi, Z = I (Higham, *Functions of Matrices*, 2008, section 6.3), over
    ``core_math.inverse``, until Y stops moving beyond rounding: real
    throughout, and rounded the same under any BLAS kernel."""
    m = np.asarray(phi, dtype=float)
    eigs = np.linalg.eigvals(m)
    if np.any(np.abs(eigs.imag) > 1e-9) or np.any(eigs.real <= 0):
        raise ValidationError("Phi does not have a positive spectrum")
    root, z = m, np.eye(len(m))
    for _ in range(SQRT_MAX_ITERATIONS):
        last = root
        root, z = 0.5 * (root + inverse(z)), 0.5 * (z + inverse(root))
        if np.max(np.abs(root - last)) <= 1e-15 * np.max(np.abs(root)):
            break
    if np.max(np.abs(root @ root - m)) > 1e-10:
        raise ValidationError("square root verification failed")
    return readonly(root)


def is_valid_state(post: PhysicalPostulate, p) -> bool:
    """Whether a reference probability vector is compatible with the postulate.

    Classical: membership in the simplex.  Quantum: the vector must correspond
    to a positive semidefinite unit-trace operator; for the built-in qubit SIC
    this is equivalent to Bloch radius <= 1 within tolerance.
    """
    vec = np.asarray(p, dtype=float).ravel()
    if vec.size != post.n_outcomes:
        raise DimensionMismatchError(
            f"vector length {vec.size} vs N = {post.n_outcomes}")
    in_simplex = (vec.min() >= -PROB_TOL
                  and abs(vec.sum() - 1.0) <= PROB_TOL * vec.size)
    if not post.is_quantum or not in_simplex:
        return in_simplex
    if post.ref is sic_d2():
        return bool(np.linalg.norm(bloch_from_sic_probs(vec)) <= 1.0 + BALL_TOL)
    rho = _density_from_ref_probs(post, vec)
    return bool(np.linalg.eigvalsh(rho).min() >= -OP_TOL)


def _density_from_ref_probs(post: PhysicalPostulate, p: np.ndarray) -> np.ndarray:
    # rho = sum_i (Phi p)_i rho_i reproduces tr(rho E_k) = p(k).
    alpha = post.phi @ p
    return sum(a * s for a, s in zip(alpha, post.ref.post_states))


def apply_postulate(post: PhysicalPostulate, p, R) -> np.ndarray:
    """Outcome probabilities q = R (Phi p) for an action with conditional
    matrix R, given reference probabilities p.

    A checked boundary: it raises ``ValidationError`` for a p that is not a
    probability vector, ``RegionError`` when p is not a valid state for the
    postulate, and ``ValidationError`` when the result has a negative entry
    beyond tolerance (the conditional matrix is then not physically valid
    for this postulate).  The values are those of the unchecked kernel
    ``outcome_probs``, renormalized.
    """
    vec = as_prob_vector(p, name="reference probabilities")
    matrix = np.asarray(R, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != post.n_outcomes:
        raise DimensionMismatchError(
            f"conditional matrix shape {matrix.shape} vs N = {post.n_outcomes}")
    if not is_valid_state(post, vec):
        raise RegionError("reference probabilities outside the physically valid region")
    rows = likelihood_rows(post, matrix)
    lowest = float((rows @ vec).min())
    if lowest < -PROB_TOL:
        raise ValidationError(
            f"conditional matrix produced a negative probability ({lowest:.3e}); "
            "not physically valid for this postulate")
    return as_prob_vector(outcome_probs(rows.tolist(), vec.tolist()),
                          name="outcome probabilities")


def likelihood_rows(post: PhysicalPostulate, R) -> np.ndarray:
    """The likelihood rows ``R[j] @ Phi`` of an action, one per outcome, each
    entry a dot product added left to right (``core_math.matmul``)."""
    return readonly(matmul(R, post.phi))


def affine_rows(region, rows) -> tuple:
    """Each likelihood row composed with the region's affine embedding, as a
    tuple of Python floats (hashable, so a row can key a cache):
    (c0, c_1, ..., c_dim), the likelihood at r being ``c0 + c . r``
    (r = theta on the interval, the Bloch vector in the ball).  The embedding
    is read off the region at 0 and the unit vectors, and each coefficient is
    a dot product added left to right."""
    dim = region.dim
    affine = region.to_ref_probs(np.vstack([np.zeros(dim), np.eye(dim)]))
    affine[1:] -= affine[0]
    return tuple(map(tuple, matmul(rows, affine.T).tolist()))


def outcome_probs(rows, p) -> list[float]:
    """Outcome probabilities ``q_j = rows[j] . p`` over Python floats from
    likelihood rows ``R[j] @ Phi`` and reference probabilities p: the
    unchecked kernel of an outcome draw.  As in ``likelihoods``, values
    within ``LIKELIHOOD_DUST`` of zero are snapped to zero and negative ones
    clipped, so no outcome is drawn that the update treats as impossible.
    Each dot product adds left to right (``reduce``, not ``sum``, which
    compensates from Python 3.12 on); a coin's (1, theta) takes the same sum
    written out.
    """
    q = []
    if len(p) == 2:
        p0, p1 = p
        for r0, r1 in rows:
            v = 0.0 + r0 * p0 + r1 * p1
            q.append(v if v >= LIKELIHOOD_DUST else 0.0)
        return q
    for row in rows:
        v = dot(row, p)
        q.append(v if v >= LIKELIHOOD_DUST else 0.0)
    return q


def min_likelihood(post: PhysicalPostulate, R) -> float:
    """The smallest probability the action R assigns any outcome in any valid
    state of the postulate.

    Exact, because q = R (Phi p) is affine in the state.  Classical states
    fill the simplex, whose extreme points are its vertices, so the minimum
    is the smallest entry of R Phi (at the interval endpoints for a coin).
    Quantum states fill the Bloch ball, where outcome j has probability
    c0 + c . r (``affine_rows``), whose minimum is c0 - |c|.
    """
    rows = likelihood_rows(post, R)
    if not post.is_quantum:
        return float(rows.min())
    _check_sic(post)
    return min(c0 - math.hypot(*c) for c0, *c in affine_rows(QubitBall(), rows))


AXIS_TOL = 1e-9


def axis_classes(rows) -> tuple:
    """For each likelihood row ``R[j] @ Phi``: (axis, sign) when its
    likelihood is c0 (1 + sign r_axis), c0 > 0 and sign = +-1, in the region's
    centred coordinates r; else None.  Such an outcome is one more count
    (``BetaMixture.updated``, ``Evidence.axis_counts``).

    On the interval r = 2 theta - 1, and a row (p0, p1) gives
    p0 theta + p1 (1 - theta): (0, +1) when p1 = 0 < p0, (0, -1) when
    p0 = 0 < p1.  On the ball it gives c0 + c . r (``affine_rows``);
    quantum Pauli rows have |c| / c0 = 1 - 4e-16, so the ratio is compared
    within ``AXIS_TOL`` and snapped to +-1.  Classical Pauli rows (ratio
    1/3), classical sharp Pauli rows (1/sqrt(3)) and SIC rows give None.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[1] == 2:
        return tuple((0, 1) if p1 == 0.0 < p0 else (0, -1) if p0 == 0.0 < p1 else None
                     for p0, p1 in rows.tolist())
    out = []
    for c0, *c in affine_rows(QubitBall(), rows):
        k = np.array(c) / c0 if c0 > 0 else np.zeros(3)
        axis = int(np.argmax(np.abs(k)))
        aligned = np.all(np.abs(np.abs(k) - np.eye(3)[axis]) <= AXIS_TOL)
        out.append((axis, int(np.sign(k[axis]))) if aligned else None)
    return tuple(out)


def ref_probs_of_points(post: PhysicalPostulate, points) -> np.ndarray:
    """Embed parameter points into reference probability vectors by their
    region's ``to_ref_probs``: scalars with N = 2 become (theta, 1 - theta),
    Bloch points with N = 4 map through the tetrahedral SIC.  Raises
    ``DimensionMismatchError`` for points of any other size."""
    pts, region = _points_and_region(post, points)
    return region.to_ref_probs(pts)


def _points_and_region(post: PhysicalPostulate, points) -> tuple:
    # the points as rows, and the region of their size if its embedding fits
    # the postulate
    _check_sic(post)
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(1, -1) if pts.ndim < 2 else pts
    k, n = pts.shape[-1], post.n_outcomes
    region = region_with(dim=k)
    if region is None or region.ref_dim != n:
        raise DimensionMismatchError(
            f"cannot embed {k}-dimensional points into {n} reference outcomes")
    return pts, region()


LIKELIHOOD_DUST = 1e-12


def likelihoods(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``probs @ rows``: likelihoods from embedded reference probabilities and
    likelihood rows ``R[j] @ Phi`` (one row, or a matrix with one per column).

    Values within ``LIKELIHOOD_DUST`` of zero are snapped to exactly zero:
    cancellation in the quasiprobability form leaves order 1e-16 residue where
    the true likelihood vanishes, and a nominally dead hypothesis must not be
    resurrected by renormalization.  No run path calls it: it is the
    reference form that ``affine_likelihoods`` is tested against.
    """
    values = probs @ rows
    values[np.abs(values) < LIKELIHOOD_DUST] = 0.0
    return np.maximum(values, 0.0)


def affine_likelihoods(coeffs, points) -> np.ndarray:
    """The likelihood ``c0 + c . r`` at (n, dim) points from its
    ``affine_rows`` coefficients (c0, c_1, ..., c_dim): ``c_1 r_1 + c0``,
    then each further column's term, added left to right over the point
    columns, so no BLAS kernel rounds it.  As in ``likelihoods``, values
    within ``LIKELIHOOD_DUST`` of zero are snapped to zero and negative ones
    clipped: both are the values below the dust, set to 0.  Columns of an
    F-ordered point array (a particle ensemble's) are contiguous."""
    c0, c1, *rest = coeffs
    first, *others = np.asarray(points, dtype=float).T
    values = first * c1
    values += c0
    term = np.empty_like(values) if others else None
    for col, c in zip(others, rest):
        np.multiply(col, c, out=term)
        values += term
    np.copyto(values, 0.0, where=values < LIKELIHOOD_DUST)
    return values


def likelihood_values(post: PhysicalPostulate, R, j: int, points) -> np.ndarray:
    """Vectorized p(j | theta) over parameter points, scalars on the
    interval or Bloch points: ``affine_likelihoods`` of the outcome's
    ``affine_rows`` coefficients, the agents' kernel."""
    pts, region = _points_and_region(post, points)
    return affine_likelihoods(affine_rows(region, likelihood_rows(post, R))[j], pts)


def likelihood_matrix(post: PhysicalPostulate, R, points) -> np.ndarray:
    """All outcome likelihoods at once: (n_points, n_outcomes(R)), each
    column that of ``likelihood_values``."""
    pts, region = _points_and_region(post, points)
    return np.stack([affine_likelihoods(c, pts)
                     for c in affine_rows(region, likelihood_rows(post, R))], axis=1)


def ensemble_compatible(post: PhysicalPostulate, region) -> bool:
    """Whether beliefs over the region are valid states for the postulate:
    the region's embedding must give the postulate's reference probabilities,
    which for a quantum postulate holds only with the built-in qubit SIC
    reference (``sic_d2()``), through which ``QubitBall.to_ref_probs`` embeds
    every Bloch point."""
    return region.ref_dim == post.n_outcomes and (not post.is_quantum or post.ref is sic_d2())


def _check_sic(post: PhysicalPostulate):
    """Raise ``ValidationError`` for a quantum postulate whose reference
    action is not the qubit SIC, the one the Bloch ball embeds through."""
    if post.is_quantum and post.ref is not sic_d2():
        raise ValidationError("Bloch points embed through the qubit SIC, not this reference")
