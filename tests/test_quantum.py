import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbagents.errors import DimensionMismatchError, ValidationError
from qbagents.quantum import (
    ID2,
    PAULI_X,
    ReferenceAction,
    bloch_from_sic_probs,
    bloch_to_density,
    born_probabilities,
    check_density,
    conditional_matrix,
    density_to_bloch,
    frequency_operator,
    pauli_povm,
    sic_d2,
    sic_probs_from_bloch,
    trace_distance,
)
from random_quantum import random_density, random_povm

S3 = math.sqrt(3.0)
PLUS = bloch_to_density([1.0, 0.0, 0.0])


class TestSic:
    def test_gram_matrix(self):
        ref = sic_d2()
        gram = np.array([[np.trace(a @ b).real for b in ref.effects]
                         for a in ref.effects])
        expected = (2 * np.eye(4) + 1) / 12
        assert np.max(np.abs(gram - expected)) < 1e-12

    def test_completeness(self):
        total = sum(sic_d2().effects)
        assert np.max(np.abs(total - ID2)) < 1e-12

    def test_maximally_mixed_probabilities(self):
        p = born_probabilities(ID2 / 2, sic_d2().effects)
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_plus_state_probabilities(self):
        p = born_probabilities(PLUS, sic_d2().effects)
        expected = np.array([3 + S3, 3 - S3, 3 + S3, 3 - S3]) / 12
        assert np.max(np.abs(p - expected)) < 1e-12

    def test_post_states_are_pure_projectors(self):
        for s in sic_d2().post_states:
            check_density(s)
            assert np.max(np.abs(s @ s - s)) < 1e-12

    def test_affine_map_matches_operators(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.normal(size=3)
            r /= max(1.0, np.linalg.norm(r) * 1.01)
            direct = born_probabilities(bloch_to_density(r), sic_d2().effects)
            assert np.allclose(sic_probs_from_bloch(r), direct, atol=1e-12)
            assert np.allclose(bloch_from_sic_probs(direct), r, atol=1e-12)


class TestBorn:
    def test_eigenstate(self):
        assert np.allclose(born_probabilities(PLUS, pauli_povm("X")), [1.0, 0.0],
                           atol=1e-12)

    def test_mixed_state_linearity(self):
        rng = np.random.default_rng(1)
        povm = random_povm(rng, 2, 5)
        p = born_probabilities(ID2 / 2, povm)
        expected = [np.trace(e).real / 2 for e in povm]
        assert np.allclose(p, expected, atol=1e-12)

    def test_normalized_for_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rho = random_density(rng)
            povm = random_povm(rng, 2, int(rng.integers(2, 7)))
            p = born_probabilities(rho, povm)
            assert abs(p.sum() - 1.0) < 1e-12
            assert p.min() >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_probabilities(np.eye(3) / 3, pauli_povm("Z"))


class TestConditionalMatrix:
    def test_pauli_x_golden(self):
        r = conditional_matrix(pauli_povm("X"), sic_d2())
        expected = np.array([[3 + S3, 3 - S3, 3 + S3, 3 - S3],
                             [3 - S3, 3 + S3, 3 - S3, 3 + S3]]) / 6
        assert np.max(np.abs(r - expected)) < 1e-12

    def test_pauli_y_golden(self):
        r = conditional_matrix(pauli_povm("Y"), sic_d2())
        expected = np.array([[3 + S3, 3 - S3, 3 - S3, 3 + S3],
                             [3 - S3, 3 + S3, 3 + S3, 3 - S3]]) / 6
        assert np.max(np.abs(r - expected)) < 1e-12

    def test_pauli_z_golden(self):
        r = conditional_matrix(pauli_povm("Z"), sic_d2())
        expected = np.array([[3 + S3, 3 + S3, 3 - S3, 3 - S3],
                             [3 - S3, 3 - S3, 3 + S3, 3 + S3]]) / 6
        assert np.max(np.abs(r - expected)) < 1e-12

    def test_reference_self_conditional(self):
        ref = sic_d2()
        r = conditional_matrix(ref.effects, ref)
        oracle = np.array([[np.trace(e @ s).real for s in ref.post_states]
                           for e in ref.effects])
        assert np.allclose(r, oracle, atol=1e-15)
        assert np.max(np.abs(r - (2 * np.eye(4) + 1) / 6)) < 1e-12

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            povm = random_povm(rng, 2, int(rng.integers(2, 7)))
            r = conditional_matrix(povm, sic_d2())
            assert np.max(np.abs(r.sum(axis=0) - 1.0)) < 1e-12


class TestTraceDistance:
    def test_identical(self):
        rho = random_density(np.random.default_rng(4))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = bloch_to_density([0, 0, 1])
        one = bloch_to_density([0, 0, -1])
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        # difference diag(1/2, -1/2) has eigenvalues +-1/2
        zero = bloch_to_density([0, 0, 1])
        eigs = np.linalg.eigvalsh(zero - ID2 / 2)
        assert np.allclose(sorted(eigs), [-0.5, 0.5], atol=1e-12)
        assert trace_distance(zero, ID2 / 2) == pytest.approx(0.5, abs=1e-12)

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_density(rng) for _ in range(3))
            dab, dbc, dac = trace_distance(a, b), trace_distance(b, c), trace_distance(a, c)
            assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert dac <= dab + dbc + 1e-12
            assert 0 <= dab <= 1 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(ID2, np.eye(3))


class TestBloch:
    def test_center_is_maximally_mixed(self):
        assert np.max(np.abs(bloch_to_density([0, 0, 0]) - ID2 / 2)) == 0.0

    def test_x_axis_is_plus(self):
        plus = 0.5 * (ID2 + PAULI_X)
        assert np.max(np.abs(bloch_to_density([1, 0, 0]) - plus)) < 1e-15

    def test_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            bloch_to_density([1.0, 1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-1, 1) for _ in range(3)]))
    def test_round_trip(self, raw):
        r = np.array(raw)
        norm = np.linalg.norm(r)
        if norm > 1.0:
            r = r / (norm * (1 + 1e-12))
        back = density_to_bloch(bloch_to_density(r))
        assert np.max(np.abs(back - r)) < 1e-12


class TestFrequencyOperator:
    def test_balanced_counts_give_mixed_state(self):
        op, missing = frequency_operator({"x": (5, 5), "y": (2, 2), "z": (9, 9)})
        assert np.max(np.abs(op - ID2 / 2)) < 1e-15
        assert missing == ()

    def test_all_plus_x(self):
        op, missing = frequency_operator({"x": (7, 0)})
        assert np.max(np.abs(op - 0.5 * (ID2 + PAULI_X))) < 1e-15
        assert missing == ("y", "z")

    def test_nonpositive_accepted(self):
        op, _ = frequency_operator({"x": (1, 0), "y": (1, 0), "z": (1, 0)})
        eigs = np.linalg.eigvalsh(op)
        assert eigs.min() == pytest.approx((1 - S3) / 2, abs=1e-12)
        assert eigs.min() < 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            frequency_operator({"x": (-1, 2)})


class TestReferenceAction:
    def test_requires_d_squared_effects(self):
        ref = sic_d2()
        with pytest.raises(ValidationError):
            ReferenceAction(ref.effects[:3], ref.post_states[:3])

    def test_requires_linear_independence(self):
        e = [ID2 / 4] * 4
        s = [ID2 / 2] * 4
        with pytest.raises(ValidationError):
            ReferenceAction(e, s)
