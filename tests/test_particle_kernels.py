"""The Bloch-ball kernels work column by column.

``QubitBall.contains`` and ``sample`` give the bits of ``np.linalg.norm``
over rows, and ``sic_probs_from_bloch`` those of its affine expression.  The
moments of ``posterior_summary`` are fixed-order sums over the F-ordered
point columns, pinned here bit for bit, and its eigenvalues lie within 1e-15
of the trace of 50-digit values.  The likelihood ``ball_likelihoods`` adds
its affine terms left to right, within 4 ulp of the SIC route it replaced
and exactly zero where that route is.
"""

import warnings

import mpmath
import numpy as np
import pytest

from qbagents.inference import ParticleEnsemble, posterior_summary, sym3_eigenvalues
from qbagents.postulate import (
    LIKELIHOOD_DUST,
    QubitBall,
    affine_rows,
    ball_likelihoods,
    classical_postulate,
    likelihood_rows,
    likelihoods,
    quantum_postulate,
)
from qbagents.quantum import BALL_TOL, TETRA_VERTICES, sic_probs_from_bloch
from qbagents.scenarios import _menu

N = 100_000
ULP = np.spacing(1.0)


def _shells(rng, radii, per_radius=500):
    directions = rng.normal(size=(per_radius * len(radii), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * np.repeat(radii, per_radius)[:, None]


def bloch_points(rng, finite_only=False):
    """N points in and around the ball: a random body, shells at |r| = 1 and
    1 +- 1 ulp and at 1 + BALL_TOL +- 1 ulp, the axes, the origin, and unless
    ``finite_only`` entries that are NaN, inf, overflow or underflow when
    squared."""
    one, edge = 1.0, 1.0 + BALL_TOL
    radii = [one, np.nextafter(one, 0.0), np.nextafter(one, 2.0)]
    if not finite_only:
        radii += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)]
    special = [np.zeros(3), *np.eye(3), *-np.eye(3)]
    if not finite_only:
        special += [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
                    [np.inf, -np.inf, 0.0], [1e200, 0.0, 0.0], [1e-200, 1e-200, 1e-200],
                    [np.nan, np.nan, np.nan]]
    fixed = np.vstack([_shells(rng, radii), np.asarray(special, dtype=float)])
    body = rng.normal(size=(N - fixed.shape[0], 3))
    body *= rng.uniform(0.0, 1.0 if finite_only else 1.5, (body.shape[0], 1)) \
        / np.linalg.norm(body, axis=1, keepdims=True)
    return np.vstack([fixed, body])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_contains_matches_the_row_norm():
    pts = bloch_points(np.random.default_rng(11))
    with np.errstate(over="ignore"):
        reference = np.linalg.norm(pts, axis=1) <= 1.0 + BALL_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = QubitBall().contains(pts)
    assert np.array_equal(inside, reference)
    assert inside.any() and not inside.all()


def test_sample_matches_the_row_norm():
    n = N

    def reference(rng):
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
        return direction * radius

    got = QubitBall().sample(n, np.random.default_rng(12))
    assert np.array_equal(bits(got), bits(reference(np.random.default_rng(12))))


def test_posterior_summary_takes_fixed_order_column_sums():
    # the reference: the mean one einsum of the (3, n) column store, each
    # covariance entry one einsum of two contiguous columns, filled
    # symmetrically.  einsum's order depends on the layout: over a C-ordered
    # (n, 3) store the mean takes other bits.
    rng = np.random.default_rng(13)
    pts = bloch_points(rng, finite_only=True)
    w = rng.random(N) ** 4
    w[:10] = 0.0
    ens = ParticleEnsemble(pts, w / w.sum(), QubitBall())
    assert ens.points.flags.f_contiguous
    columns = np.array([ens.points[:, k] for k in range(3)])
    mean = np.einsum("ki,i->k", columns, ens.weights)
    centered = [col - m for col, m in zip(columns, mean)]
    cov = np.empty((3, 3))
    for k in range(3):
        for l in range(k, 3):
            cov[k, l] = cov[l, k] = np.einsum("i,i->", centered[k] * ens.weights, centered[l])
    summary = posterior_summary(ens)
    assert np.array_equal(bits(summary.mean), bits(mean))
    assert np.array_equal(bits(summary.covariance), bits(cov))
    assert summary.ess == ens.ess()
    # the moments of the parent's BLAS calls, to rounding
    assert np.allclose(summary.mean, ens.weights @ ens.points, rtol=0, atol=1e-15)
    assert np.allclose(summary.covariance, (np.asarray(centered) * ens.weights) @ np.asarray(
        centered).T, rtol=0, atol=1e-15)


def _rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def _covariances(rng):
    """Symmetric positive semidefinite 3 x 3 matrices: random ones, particle
    covariances, rotated spectra with double, triple and zero eigenvalues
    and a pair 1e-9 apart, diagonal ones and the zero matrix."""
    yield np.zeros((3, 3))
    for _ in range(120):
        g = rng.normal(size=(3, 3))
        yield g @ g.T * 10.0 ** rng.uniform(-8, 0)
        yield np.cov(rng.normal(size=(3, 40)) * rng.uniform(0.01, 1.0, (3, 1)))
        q = _rotation(rng)
        a, b = rng.uniform(0.0, 1.0, 2)
        for spectrum in ([a, a, b], [a, b, b], [a, a, a], [a, a * (1 + 1e-9), b],
                         [a, 0.0, 0.0], [a, b, 0.0]):
            yield q @ np.diag(spectrum) @ q.T
        yield np.diag(rng.uniform(0.0, 1.0, 3))
        yield np.diag([a, a, 0.0])


@mpmath.workdps(50)
def test_eigenvalues_match_mpmath():
    for m in _covariances(np.random.default_rng(15)):
        m = 0.5 * (m + m.T)
        got = sym3_eigenvalues(m.tolist())
        exact = mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)
        exact = sorted((exact[i] for i in range(3)), reverse=True)
        trace = float(np.trace(m))
        assert got == sorted(got, reverse=True)
        assert max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact)) <= 1e-15 * trace
        if not (m[0, 1] or m[0, 2] or m[1, 2]):
            assert got == sorted(np.diag(m).tolist(), reverse=True)


def test_axis_lengths_are_the_root_eigenvalues():
    rng = np.random.default_rng(16)
    pts = QubitBall().sample(5000, rng) * np.array([1.0, 0.3, 0.05])
    ens = ParticleEnsemble(pts, np.full(5000, 1 / 5000), QubitBall())
    summary = posterior_summary(ens)
    expected = np.sqrt(np.clip(np.linalg.eigvalsh(summary.covariance), 0.0, None))[::-1]
    assert np.allclose(summary.axis_lengths, expected, rtol=1e-14, atol=0)


# Every registry likelihood on the ball: (postulate, menu) pairs.
BALL_MENUS = [(quantum_postulate(), "paulis"), (quantum_postulate(), "sic_reference"),
              (classical_postulate(4), "paulis"), (classical_postulate(4), "sharp_paulis"),
              (classical_postulate(4), "sic_reference")]


def _rows(post, menu):
    """(likelihood row, its affine coefficients) of every outcome of the menu."""
    for action in _menu(menu):
        rows = likelihood_rows(post, action.matrix)
        yield from zip(rows, affine_rows(QubitBall(), rows))


def _zero_sets():
    """The points where quantum Pauli and SIC likelihoods vanish (the poles
    and the antipodes of the SIC vertices), and points whose likelihood
    there is about 1e-13, below the dust, or about 4e-12, above it."""
    poles = np.vstack([np.eye(3), -np.eye(3)])
    antipodes = -TETRA_VERTICES
    dust = np.vstack([poles, antipodes]) * (1 - 2e-13)
    above = np.vstack([poles, antipodes]) * (1 - 8e-12)
    return np.vstack([poles, antipodes, dust, above])


@pytest.mark.parametrize("post,menu", BALL_MENUS, ids=lambda v: getattr(v, "kind", v))
def test_ball_likelihoods_match_the_sic_route(post, menu):
    pts = np.vstack([bloch_points(np.random.default_rng(17), finite_only=True), _zero_sets()])
    probs = sic_probs_from_bloch(pts)
    for row, coeffs in _rows(post, menu):
        got = ball_likelihoods(coeffs, np.asfortranarray(pts))
        reference = likelihoods(probs, row)
        assert np.max(np.abs(got - reference)) <= 4 * ULP
        assert np.array_equal(got == 0.0, reference == 0.0)
        assert got.min() >= 0.0


def test_sharp_likelihoods_are_exactly_zero_on_their_zero_sets():
    pts = np.asfortranarray(_zero_sets())
    zero, dust, above = slice(0, 10), slice(10, 20), slice(20, 30)
    post = quantum_postulate()
    for menu in ("paulis", "sic_reference"):
        values = np.array([ball_likelihoods(c, pts) for _row, c in _rows(post, menu)])
        # each row vanishes at one point of its zero set, and within the dust
        # of it; 8e-12 inside, it is above the dust
        assert np.array_equal((values[:, zero] == 0.0).sum(axis=1), np.ones(len(values)))
        assert np.array_equal(values[:, zero] == 0.0, values[:, dust] == 0.0)
        near = values[:, above][values[:, zero] == 0.0]
        assert np.all(near > LIKELIHOOD_DUST) and np.all(near < 1e-11)


def test_ball_likelihoods_add_left_to_right():
    pts = np.asfortranarray(bloch_points(np.random.default_rng(18), finite_only=True))
    x, y, z = pts.T
    for post, menu in BALL_MENUS:
        for _row, (c0, cx, cy, cz) in _rows(post, menu):
            reference = ((c0 + cx * x) + cy * y) + cz * z
            reference[reference < LIKELIHOOD_DUST] = 0.0
            assert np.array_equal(bits(ball_likelihoods((c0, cx, cy, cz), pts)), bits(reference))


@pytest.mark.parametrize("shape", [(N, 3), (3,), (7, 2, 3)])
def test_sic_probs_match_the_affine_expression(shape):
    pts = bloch_points(np.random.default_rng(14))[:int(np.prod(shape)) // 3].reshape(shape)
    with np.errstate(invalid="ignore"):
        reference = (1.0 + pts @ TETRA_VERTICES.T) / 4.0
        got = sic_probs_from_bloch(pts)
    assert got.shape == reference.shape
    assert np.array_equal(bits(got), bits(reference))
