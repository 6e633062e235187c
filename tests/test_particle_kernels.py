"""The Bloch-ball kernels work column by column and give the bits of the
numpy expressions they replaced, which are kept here as the reference:
``QubitBall.contains`` and ``sample`` (``np.linalg.norm`` over rows), the
covariance of ``posterior_summary`` (centering and weighting by broadcasts)
and ``sic_probs_from_bloch``."""

import warnings

import numpy as np
import pytest

from qbagents.inference import ParticleEnsemble, posterior_summary
from qbagents.postulate import QubitBall
from qbagents.quantum import BALL_TOL, TETRA_VERTICES, sic_probs_from_bloch

N = 100_000


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


def test_posterior_summary_matches_the_broadcast_covariance():
    rng = np.random.default_rng(13)
    pts = bloch_points(rng, finite_only=True)
    w = rng.random(N) ** 4
    w[:10] = 0.0
    ens = ParticleEnsemble(pts, w / w.sum(), QubitBall())
    mean = ens.weights @ ens.points
    centered = ens.points - mean
    cov = (centered * ens.weights[:, None]).T @ centered
    cov = 0.5 * (cov + cov.T)
    summary = posterior_summary(ens)
    assert np.array_equal(bits(summary.mean), bits(mean))
    assert np.array_equal(bits(summary.covariance), bits(cov))


@pytest.mark.parametrize("shape", [(N, 3), (3,), (7, 2, 3)])
def test_sic_probs_match_the_affine_expression(shape):
    pts = bloch_points(np.random.default_rng(14))[:int(np.prod(shape)) // 3].reshape(shape)
    with np.errstate(invalid="ignore"):
        reference = (1.0 + pts @ TETRA_VERTICES.T) / 4.0
        got = sic_probs_from_bloch(pts)
    assert got.shape == reference.shape
    assert np.array_equal(bits(got), bits(reference))
