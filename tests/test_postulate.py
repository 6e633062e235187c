import math
import warnings
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from qbagents.errors import DimensionMismatchError, RegionError, ValidationError
from qbagents.inference import delta_ensemble, grid_ensemble
from qbagents.interaction import source_rules
from qbagents.postulate import (
    LIKELIHOOD_DUST,
    Interval,
    PhysicalPostulate,
    QubitBall,
    affine_likelihoods,
    affine_rows,
    apply_postulate,
    axis_classes,
    classical_postulate,
    ensemble_compatible,
    is_valid_state,
    likelihood_matrix,
    likelihood_rows,
    likelihood_values,
    likelihoods,
    min_likelihood,
    outcome_probs,
    phi_matrix,
    quantum_postulate,
    ref_probs_of_points,
    region_with,
    sqrt_phi,
    where_outside,
)
from qbagents.quantum import (
    ReferenceAction,
    bloch_to_density,
    born_probabilities,
    conditional_matrix,
    pauli_povm,
    sic_d2,
    sic_probs_from_bloch,
)
from random_quantum import random_density, random_povm

S3 = math.sqrt(3.0)
QUANTUM = quantum_postulate()
CLASSICAL2 = classical_postulate(2)
R_X = conditional_matrix(pauli_povm("X"), sic_d2())
PLUS_PROBS = np.array([3 + S3, 3 - S3, 3 + S3, 3 - S3]) / 12


class TestPhi:
    def test_sic_phi_golden(self):
        phi = phi_matrix(sic_d2())
        expected = 3 * np.eye(4) - 0.5 * np.ones((4, 4))
        assert np.max(np.abs(phi - expected)) < 1e-12

    def test_column_sums_one(self):
        assert np.allclose(phi_matrix(sic_d2()).sum(axis=0), 1.0, atol=1e-12)

    def test_inverse_relation(self):
        ref = sic_d2()
        phi = phi_matrix(ref)
        inv = conditional_matrix(ref.effects, ref)
        assert np.max(np.abs(phi @ inv - np.eye(4))) < 1e-12

    def test_quantum_phi_has_negative_entry(self):
        assert phi_matrix(sic_d2()).min() < 0

    def test_negative_entry_enforced_on_construction(self):
        with pytest.raises(ValidationError):
            PhysicalPostulate("quantum", 4, np.eye(4), sic_d2())

    def test_classical_phi_must_be_identity(self):
        with pytest.raises(ValidationError):
            PhysicalPostulate("classical", 2, np.array([[0.9, 0.1], [0.1, 0.9]]))


class TestSqrtPhi:
    def test_sic_sqrt_golden(self):
        # eigen-decomposition oracle: Phi has eigenvalue 1 on the uniform
        # vector and 3 on its complement, so sqrt = sqrt(3) I + (1-sqrt(3))/4 J
        phi = phi_matrix(sic_d2())
        eigvals, eigvecs = np.linalg.eigh(phi)
        oracle = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
        root = sqrt_phi(phi)
        assert np.max(np.abs(root - oracle)) < 1e-12
        expected = S3 * np.eye(4) + (1 - S3) / 4 * np.ones((4, 4))
        assert np.max(np.abs(root - expected)) < 1e-12

    def test_sharp_pauli_matrices(self):
        root = sqrt_phi(phi_matrix(sic_d2()))
        golden = {
            "X": np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float),
            "Y": np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=float),
            "Z": np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float),
        }
        for axis, expected in golden.items():
            product = conditional_matrix(pauli_povm(axis), sic_d2()) @ root
            assert np.max(np.abs(product - expected)) < 1e-12

    def test_identity(self):
        assert np.max(np.abs(sqrt_phi(np.eye(3)) - np.eye(3))) < 1e-12

    def test_nonpositive_spectrum_rejected(self):
        with pytest.raises(ValidationError):
            sqrt_phi(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestApplyPostulate:
    def test_plus_state_pauli_x(self):
        q = apply_postulate(QUANTUM, PLUS_PROBS, R_X)
        assert np.allclose(q, [1.0, 0.0], atol=1e-12)

    def test_center_pauli_x(self):
        # each (3 p_i - 1/2) = 1/4; dotting with the R_X rows gives 1/2
        q = apply_postulate(QUANTUM, [0.25] * 4, R_X)
        hand = np.array([(3 * 0.25 - 0.5) * R_X[j].sum() for j in range(2)])
        assert np.allclose(hand, 0.5, atol=1e-12)
        assert np.allclose(q, [0.5, 0.5], atol=1e-12)

    def test_classical_identity_action(self):
        p = [0.3, 0.7]
        q = apply_postulate(CLASSICAL2, p, np.eye(2))
        assert np.allclose(q, p, atol=0)

    def test_classical_is_plain_matrix_vector(self):
        rng = np.random.default_rng(0)
        post = classical_postulate(4)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            r = conditional_matrix(random_povm(rng, 2, 3), sic_d2())
            assert np.allclose(apply_postulate(post, p, r), r @ p, atol=1e-12)

    def test_region_violation(self):
        with pytest.raises(RegionError):
            apply_postulate(QUANTUM, [1.0, 0.0, 0.0, 0.0], R_X)

    def test_born_rule_equivalence_random(self):
        rng = np.random.default_rng(1)
        ref = sic_d2()
        for _ in range(300):
            rho = random_density(rng)
            povm = random_povm(rng, 2, int(rng.integers(2, 7)))
            p = born_probabilities(rho, ref.effects)
            via_postulate = apply_postulate(QUANTUM, p, conditional_matrix(povm, ref))
            direct = born_probabilities(rho, povm)
            assert np.max(np.abs(via_postulate - direct)) < 1e-10

    def test_qubit_form_direct_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rng.normal(size=3)
            r /= max(1.0, np.linalg.norm(r) * 1.001)
            p = sic_probs_from_bloch(r)
            direct = np.array([np.sum((3 * p - 0.5) * R_X[j]) for j in range(2)])
            q = apply_postulate(QUANTUM, p, R_X)
            assert np.max(np.abs(q - direct)) < 1e-12

    def test_born_equivalence_for_generic_reference(self):
        # the quasiprobability form holds for any reference action, not only
        # the symmetric one
        rng = np.random.default_rng(3)
        effects = random_povm(rng, 2, 4)
        states = tuple(np.asarray(e) / np.trace(e).real for e in effects)
        from qbagents.quantum import ReferenceAction
        ref = ReferenceAction(effects, states)
        post = quantum_postulate(ref)
        for _ in range(50):
            rho = random_density(rng)
            povm = random_povm(rng, 2, 3)
            p = born_probabilities(rho, ref.effects)
            q = apply_postulate(post, p, conditional_matrix(povm, ref))
            assert np.max(np.abs(q - born_probabilities(rho, povm))) < 1e-10


class TestOutcomeProbs:
    @pytest.mark.parametrize("size", [2, 4])
    def test_equals_the_left_to_right_sum(self, size):
        # coefficient rows as agents store them: a constant and a gradient,
        # here with signs and sizes that cancel to dust, and broadcasts (1, r)
        rng = np.random.default_rng(size)
        for _ in range(5_000):
            rows = rng.normal(size=(rng.integers(1, 5), size))
            rows[rng.random(rows.shape) < 0.2] = 0.0
            if rng.random() < 0.3:  # rows that cancel near zero at p
                rows[:, 0] = -(rows[:, 1:] @ rng.random(size - 1)) * (1 + 1e-13 * rng.normal())
            p = [1.0, *rng.uniform(-1.0, 1.0, size - 1).tolist()]
            rows = rows.tolist()
            reference = []
            for row in rows:
                v = reduce(add, map(mul, row, p), 0.0)
                reference.append(v if v >= LIKELIHOOD_DUST else 0.0)
            assert repr(outcome_probs(rows, p)) == repr(reference)


def _interval_points(kind):
    """(n, 1) points of the interval: the 10,001-point prior grid, the atoms
    {0, 1}, or random points."""
    if kind == "grid":
        return grid_ensemble(Interval(), 10_001).points
    if kind == "atoms":
        return np.array([[0.0], [1.0]])
    return np.random.default_rng(6).random((10_000, 1))


INTERVAL_POINTS = ["grid", "atoms", "random"]


class TestLikelihood:
    @pytest.mark.parametrize("theta", [0.3, 0.0, 1.0, 0.1 + 0.2])
    def test_classical_bernoulli(self, theta):
        assert likelihood_values(CLASSICAL2, np.eye(2), 0, theta)[0] == theta
        assert likelihood_values(CLASSICAL2, np.eye(2), 1, theta)[0] == 1.0 - theta
        assert (likelihood_matrix(CLASSICAL2, np.eye(2), theta).tolist()
                == [[theta, 1.0 - theta]])

    @pytest.mark.parametrize("kind", INTERVAL_POINTS)
    @pytest.mark.parametrize("row", [[1.0, 0.0], [0.0, 1.0]],
                             ids=["theta", "one_minus_theta"])
    def test_interval_kernel_is_the_embedded_product_to_the_bit(self, row, kind):
        # the registry's coin rows: theta and 1 - theta
        pts = _interval_points(kind)
        (coeffs,) = affine_rows(Interval(), [row])
        got = affine_likelihoods(coeffs, pts)
        reference = likelihoods(Interval().to_ref_probs(pts), np.array(row))
        assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("kind", INTERVAL_POINTS)
    def test_interval_kernel_matches_the_embedded_product(self, kind):
        pts = _interval_points(kind)
        probs = Interval().to_ref_probs(pts)
        rng = np.random.default_rng(7)
        for _ in range(200):
            top = rng.random(2)
            rows = likelihood_rows(CLASSICAL2, [top, 1.0 - top])  # column stochastic
            got = likelihood_matrix(CLASSICAL2, rows, pts)
            for j, coeffs in enumerate(affine_rows(Interval(), rows)):
                reference = likelihoods(probs, rows[j])
                assert np.max(np.abs(affine_likelihoods(coeffs, pts) - reference)) <= 1e-15
                assert np.array_equal(got[:, j], affine_likelihoods(coeffs, pts))

    @pytest.mark.parametrize("post,points", [
        (CLASSICAL2, [[0.3, 0.7]]),  # a reference vector, N = 2
        (CLASSICAL2, [0.3, 0.7]),
        (QUANTUM, [[0.25, 0.25, 0.25, 0.25]]),  # a reference vector, N = 4
        (classical_postulate(4), PLUS_PROBS),
        (CLASSICAL2, [[0.0, 0.0, 1.0]]),  # a Bloch point, N = 2
        (QUANTUM, [[0.5]]),  # a scalar, N = 4
    ], ids=["ref2", "ref2_flat", "ref4", "ref4_classical", "bloch_n2", "scalar_n4"])
    @pytest.mark.parametrize("call", ["values", "matrix", "ref_probs"])
    def test_points_of_another_size_are_refused(self, post, points, call):
        matrix = np.full((2, post.n_outcomes), 0.5)
        with pytest.raises(DimensionMismatchError):
            if call == "values":
                likelihood_values(post, matrix, 0, points)
            elif call == "matrix":
                likelihood_matrix(post, matrix, points)
            else:
                ref_probs_of_points(post, points)

    def test_quantum_eigenstate(self):
        assert likelihood_values(QUANTUM, R_X, 0, [1.0, 0.0, 0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_quantum_center(self):
        for axis in "XYZ":
            r = conditional_matrix(pauli_povm(axis), sic_d2())
            for j in (0, 1):
                assert likelihood_values(QUANTUM, r, j, [0.0, 0.0, 0.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 3))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True) * 1.001)
        like = likelihood_matrix(QUANTUM, R_X, pts)
        assert np.allclose(like.sum(axis=1), 1.0, atol=1e-12)


class TestMinLikelihood:
    def test_pauli_actions_touch_zero_on_the_ball(self):
        for axis in "XYZ":
            r = conditional_matrix(pauli_povm(axis), sic_d2())
            assert min_likelihood(QUANTUM, r) == pytest.approx(0.0, abs=1e-12)

    def test_sharp_actions_negative_for_quantum_only(self):
        root = sqrt_phi(phi_matrix(sic_d2()))
        sharp = conditional_matrix(pauli_povm("X"), sic_d2()) @ root
        assert min_likelihood(QUANTUM, sharp) < -0.1
        assert min_likelihood(classical_postulate(4), sharp) > -1e-12

    def test_exact_against_sampled_ball(self):
        # the analytic minimum bounds every sampled state and is attained on
        # the sphere
        rng = np.random.default_rng(5)
        root = sqrt_phi(phi_matrix(sic_d2()))
        pts = rng.normal(size=(200_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for axis in "XYZ":
            sharp = conditional_matrix(pauli_povm(axis), sic_d2()) @ root
            probs = sic_probs_from_bloch(pts)
            sampled = (probs @ (sharp @ QUANTUM.phi).T).min()
            exact = min_likelihood(QUANTUM, sharp)
            assert exact <= sampled + 1e-12
            assert sampled - exact < 1e-3

    def test_classical_interval_endpoints(self):
        assert min_likelihood(CLASSICAL2, [[0.9, 0.2], [0.1, 0.8]]) == pytest.approx(0.1)


class TestAxisClasses:
    """The one likelihood classifier: (axis, sign) for a likelihood
    c0 (1 + sign r_axis) in the region's centred coordinates, else None."""

    @pytest.mark.parametrize("rows,expected", [
        ([[1.0, 0.0]], ((0, 1),)),  # theta = (1 + r) / 2
        ([[0.0, 1.0]], ((0, -1),)),  # 1 - theta = (1 - r) / 2
        ([[0.5, 0.0], [0.0, 0.25]], ((0, 1), (0, -1))),  # positive multiples
        ([[0.75, 0.25], [0.25, 0.75]], (None, None)),  # a noisy coin
        ([[0.0, 0.0]], (None,)),  # all-zero
        ([[1.0, 1.0]], (None,)),  # constant
        ([[-1.0, 0.0], [0.0, -1.0]], (None, None)),  # not a positive multiple
    ], ids=["theta", "one_minus_theta", "multiples", "noisy", "zero", "constant",
            "negative"])
    def test_interval_rows(self, rows, expected):
        assert axis_classes(rows) == expected

    def test_coin_menus_count(self):
        assert axis_classes(np.eye(2) @ CLASSICAL2.phi) == ((0, 1), (0, -1))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_ball_rows(self, axis):
        rows = conditional_matrix(pauli_povm("XYZ"[axis]), sic_d2()) @ QUANTUM.phi
        assert axis_classes(rows) == ((axis, 1), (axis, -1))
        assert axis_classes(0.25 * rows) == ((axis, 1), (axis, -1))  # c0 scales out
        noisy = 0.9 * rows + 0.1 * rows[::-1]  # c0 (1 +- 0.8 r_axis)
        assert axis_classes(noisy) == (None, None)
        assert axis_classes(-rows) == (None, None)
        assert axis_classes(np.zeros((1, 4))) == (None,)


class TestValidity:
    def test_vertex_invalid_for_quantum(self):
        assert not is_valid_state(QUANTUM, [1.0, 0.0, 0.0, 0.0])

    def test_center_valid(self):
        assert is_valid_state(QUANTUM, [0.25] * 4)

    def test_vertex_valid_for_classical(self):
        assert is_valid_state(classical_postulate(4), [1.0, 0.0, 0.0, 0.0])

    def test_boundary_state_valid(self):
        assert is_valid_state(QUANTUM, PLUS_PROBS)


class TestRegions:
    def test_interval_membership(self):
        region = Interval(0.0, 1 / 3)
        assert region.contains([0.2])[0]
        assert not region.contains([0.5])[0]

    def test_ball_membership(self):
        ball = QubitBall()
        assert ball.contains([[0.5, 0.5, 0.5]])[0]
        assert not ball.contains([[1.0, 1.0, 1.0]])[0]

    @pytest.mark.parametrize("point", [[1.0000000005], [1.000001], [-5e-10], [-1e-8],
                                       [float("nan")], [float("inf")], [0.6, 0.8, 1e-5],
                                       [0.6, 0.8, 1e-4], [1e300, 0.0, 0.0],
                                       [0.0, -1e300, 1e300], [float("nan"), 0.0, 0.0]])
    def test_configs_and_ensembles_share_one_membership_rule(self, point):
        # a source point (the config's check) and a delta prior on the whole
        # region (the ensemble's) are accepted or refused together
        problems, _space = source_rules(point)
        region = region_with(dim=len(point))()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from a huge point
            try:
                delta_ensemble([point], [1.0], region)
                accepted = True
            except ValidationError:
                accepted = False
            assert where_outside(np.array([point])) == (None if accepted else region.name)
        assert (problems == []) is accepted

    def test_interval_embedding(self):
        p = Interval().to_ref_probs([0.3])
        assert np.allclose(p, [[0.3, 0.7]])

    def test_compatibility_table(self):
        assert ensemble_compatible(QUANTUM, QubitBall())
        assert not ensemble_compatible(QUANTUM, Interval())
        assert ensemble_compatible(CLASSICAL2, Interval())
        assert not ensemble_compatible(CLASSICAL2, QubitBall())
        assert ensemble_compatible(classical_postulate(4), QubitBall())


def generic_reference_postulate():
    """The quantum postulate of a random informationally complete reference,
    as in ``test_born_equivalence_for_generic_reference``."""
    effects = random_povm(np.random.default_rng(3), 2, 4)
    states = tuple(np.asarray(e) / np.trace(e).real for e in effects)
    return quantum_postulate(ReferenceAction(effects, states))


class TestNonSicReference:
    """The Bloch ball embeds a state through the qubit SIC, so it is no region
    for a quantum postulate with another reference action: with this one,
    the embedding gave the Pauli Z outcome 0.842 at r = (0, 0, 1), where the
    Born rule gives 1, and a least probability of -0.98 for Pauli Z."""

    def test_ball_incompatible(self):
        post = generic_reference_postulate()
        assert not ensemble_compatible(post, QubitBall())
        assert not ensemble_compatible(post, Interval())

    def test_points_not_embedded(self):
        post = generic_reference_postulate()
        rz = conditional_matrix(pauli_povm("Z"), post.ref)
        for call in (lambda: likelihood_values(post, rz, 0, [[0.0, 0.0, 1.0]]),
                     lambda: likelihood_matrix(post, rz, [[0.0, 0.0, 1.0]]),
                     lambda: ref_probs_of_points(post, [[0.0, 0.0, 1.0]])):
            with pytest.raises(ValidationError, match="qubit SIC"):
                call()

    def test_min_likelihood_refused(self):
        post = generic_reference_postulate()
        with pytest.raises(ValidationError, match="qubit SIC"):
            min_likelihood(post, conditional_matrix(pauli_povm("Z"), post.ref))
