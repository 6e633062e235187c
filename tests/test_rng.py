import numpy as np
import pytest

from qbagents import interaction, scenarios
from qbagents.core_math import DEFAULT_GRID_POINTS
from qbagents.errors import ImpossibleOutcomeError
from qbagents.inference import DEFAULT_BALL_PARTICLES
from qbagents.postulate import Interval
from qbagents.rng import agent_streams, draw_index, draw_outcome, stream
from qbagents.scenarios import REGISTRY, SourceSpec, default_config, run_config, semicircle_pdf


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


def _is_1d(name):
    return all(isinstance(block, SourceSpec)
               or scenarios.PRIORS[block.prior["kind"]][0] is Interval
               for block in REGISTRY[name].default.agents)


ONE_D_SCENARIOS = sorted(name for name in REGISTRY if _is_1d(name))


@pytest.fixture
def particle_streams(monkeypatch):
    """(key, generator) of every stream the build makes (``init``) and of
    each slot's ``resample`` stream that the run loop makes, as they are
    made."""
    made = []

    def recording_stream(*args):
        made.append((args, stream(*args)))
        return made[-1][1]

    def recording_agent_streams(seed, slot):
        own = agent_streams(seed, slot)
        made.append(((seed, "agent", slot, "resample"), own["resample"]))
        return own

    monkeypatch.setattr(scenarios, "stream", recording_stream)
    monkeypatch.setattr(interaction, "agent_streams", recording_agent_streams)
    return made


class TestStreamPolicy:
    """The streams that fill particle arrays run on SFC64, the per-step ones
    on Philox, and runs without particles leave the SFC64 streams as built."""

    def test_particle_streams_are_sfc64_and_step_streams_philox(self):
        own = agent_streams(5, 1)
        assert type(own["resample"].bit_generator) is np.random.SFC64
        for name in ("choice", "outcome", "broadcast"):
            assert type(own[name].bit_generator) is np.random.Philox
        assert type(stream(5, "draw").bit_generator) is np.random.Philox

    def test_build_draws_the_prior_from_an_sfc64_init_stream(self, particle_streams):
        scenarios.build_runtime(default_config("qubit_tomography", 5))
        (key, init), = particle_streams
        assert key == (5, "agent", 0, "init")
        assert type(init.bit_generator) is np.random.SFC64
        assert _state(init) != _state(stream(*key))

    def test_one_d_scenarios_are_the_coin_ones(self):
        assert ONE_D_SCENARIOS == ["classical_disjoint", "classical_pair", "coin_tomography",
                                   "prior_coins_simultaneous", "prior_coins_turns"]

    @pytest.mark.parametrize("name", ONE_D_SCENARIOS + ["prior_qubits_turns"])
    def test_runs_without_particles_leave_sfc64_streams_untouched(self, particle_streams, name):
        try:
            run_config(default_config(name, 7))
        except ImpossibleOutcomeError:  # polarization ends a prior-sampling run
            pass
        assert sum(key[-1] == "resample" for key, _ in particle_streams) == 2
        for key, gen in particle_streams:
            assert key[-1] in ("init", "resample")
            assert _state(gen) == _state(stream(*key)), key
