import numpy as np
import pytest

from qbagents.core_math import DEFAULT_GRID_POINTS
from qbagents.inference import DEFAULT_BALL_PARTICLES
from qbagents.rng import draw_index, draw_outcome, stream
from qbagents.scenarios import semicircle_pdf


def _pair(seed):
    """Two generators in the same state."""
    return stream(seed, "draw"), stream(seed, "draw")


def _state(gen):
    """The generator's state with its arrays as lists, so states compare with ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(gen.bit_generator.state)


def _assert_same_draws(p, seed, draws=1):
    ours, theirs = _pair(seed)
    for _ in range(draws):
        assert draw_index(p, ours) == theirs.choice(p.size, p=p)
        assert _state(ours) == _state(theirs)


class TestDrawIndex:
    def test_matches_choice_on_random_vectors_with_zeros(self):
        gen = np.random.default_rng(7)
        for seed in range(2000):
            w = gen.random(gen.integers(1, 9))
            w[gen.random(w.size) < 0.3] = 0.0
            if not w.any():
                w[gen.integers(w.size)] = 1.0
            _assert_same_draws(w / w.sum(), seed)

    @pytest.mark.parametrize("n", [DEFAULT_GRID_POINTS, DEFAULT_BALL_PARTICLES])
    def test_matches_choice_on_ensemble_sized_weights(self, n):
        # Zero weight at both ends of the grid, as a semicircle prior has.
        w = semicircle_pdf(np.linspace(0.0, 1.0, n))
        _assert_same_draws(w / w.sum(), seed=n, draws=50)

    def test_certain_outcome_and_returns_int(self):
        ours, theirs = _pair(3)
        index = draw_index(np.array([0.0, 1.0, 0.0]), ours)
        assert type(index) is int and index == 1
        theirs.random()
        assert _state(ours) == _state(theirs)


class TestDrawOutcome:
    def test_one_random_per_draw_and_the_index_of_draw_index(self):
        gen = np.random.default_rng(8)
        for seed in range(2000):
            q = gen.random(gen.choice([2, 4]))
            q[gen.random(q.size) < 0.3] = 0.0
            if not q.any():
                q[gen.integers(q.size)] = 1.0
            ours, theirs = _pair(seed)
            twin = stream(seed, "draw")
            index = draw_outcome(q.tolist(), ours)
            assert index == draw_index(q / q.sum(), theirs)
            assert q[index] > 0
            twin.random()
            assert _state(ours) == _state(twin)

    def test_trailing_zero_with_rounded_partial_sums(self):
        # added left to right, 1 + 1e-16 + 1e-16 is 1; a compensated sum (the
        # builtin sum from Python 3.12 on) gives 1 + 2**-52, over which every
        # running sum is below 1, and a random() above that would fall
        # through to the zero
        class Fixed:
            def random(self):
                return 1.0 - 2.0 ** -53

        q = [1.0, 1e-16, 1e-16, 0.0]
        index = draw_outcome(q, Fixed())
        assert index == draw_index(np.array(q), Fixed()) == 0

    def test_returns_int(self):
        index = draw_outcome([0.0, 1.0, 0.0], stream(3, "draw"))
        assert index == 1 and type(index) is int
