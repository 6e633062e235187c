import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbagents.agents import (
    Action,
    Agent,
    UtilityFn,
    broadcast_point,
    choose_action,
    expected_utility,
    predictive,
)
from qbagents.core_math import BetaParams, beta_pdf
from qbagents.errors import ValidationError
from qbagents.inference import (
    ParticleEnsemble,
    bayes_update,
    delta_ensemble,
    grid_ensemble,
    maybe_resample,
    sample_uniform,
)
from qbagents.postulate import (
    Interval,
    QubitBall,
    classical_postulate,
    likelihood_matrix,
    likelihood_values,
    quantum_postulate,
)
from qbagents.quantum import conditional_matrix, pauli_povm, sic_d2
from qbagents.scenarios import _menu

QUANTUM = quantum_postulate()
CLASSICAL2 = classical_postulate(2)


def pauli_menu():
    ref = sic_d2()
    return tuple(Action(ax, conditional_matrix(pauli_povm(ax), ref), ("+1", "-1"))
                 for ax in "XYZ")


def flip_menu():
    return (Action("flip", np.eye(2), ("heads", "tails")),)


def ball_agent(rng_seed=0, n=10_000, utility=None):
    ens = sample_uniform(QubitBall(), n, np.random.default_rng(rng_seed))
    return Agent("a", QUANTUM, ens, pauli_menu(), utility or UtilityFn())


class TestPredictive:
    def test_delta_eigenstate(self):
        ens = delta_ensemble([[1.0, 0.0, 0.0]], [1.0], QubitBall())
        agent = Agent("a", QUANTUM, ens, pauli_menu())
        q = predictive(agent, agent.action("X"))
        assert np.allclose(q, [1.0, 0.0], atol=1e-12)

    def test_uniform_ball_symmetric(self):
        agent = ball_agent(rng_seed=1, n=20_000)
        for ax in "XYZ":
            q = predictive(agent, agent.action(ax))
            assert np.allclose(q, 0.5, atol=0.02)

    def test_beta_grid_flip(self):
        params = BetaParams(772, 230)
        ens = grid_ensemble(Interval(), 10_001, pdf=lambda t: beta_pdf(t, params))
        agent = Agent("c", CLASSICAL2, ens, flip_menu())
        q = predictive(agent, agent.action("flip"))
        assert q[0] == pytest.approx(0.7705, abs=2e-4)
        assert q[1] == pytest.approx(0.2295, abs=2e-4)


    @pytest.mark.parametrize("make", ["ball", "grid"])
    def test_mean_likelihood_equals_ensemble_average(self, make):
        # linearity: the likelihood at the mean is the weighted average of
        # the likelihoods over the ensemble
        if make == "ball":
            agent = ball_agent(rng_seed=5, n=3000)
            agent.ensemble = bayes_update(agent.ensemble, QUANTUM,
                                          agent.action("X").matrix, 0)
        else:
            ens = grid_ensemble(Interval(), 10_001,
                                pdf=lambda t: beta_pdf(t, BetaParams(3, 5)))
            agent = Agent("c", CLASSICAL2, ens, flip_menu())
        ens = agent.ensemble
        for action in agent.menu:
            full = ens.weights @ likelihood_matrix(agent.postulate, action.matrix,
                                                   ens.points)
            assert np.allclose(predictive(agent, action), full, atol=1e-12, rtol=0)


def test_action_by_name():
    agent = ball_agent(n=10)
    for i, name in enumerate("XYZ"):
        assert agent.action(name) is agent.menu[i]
    with pytest.raises(ValidationError, match="agent 'a': no action named 'flip'"):
        agent.action("flip")


class TestExpectedUtility:
    def test_uniform_utility_is_one(self):
        agent = ball_agent(rng_seed=2, n=2000)
        for action in agent.menu:
            assert expected_utility(agent, action) == pytest.approx(1.0, abs=1e-12)

    def test_biased_z_balanced_predictive(self):
        # predictive (1/2, 1/2): expected utility 0.49 + 0.51 = 1.0
        ens = delta_ensemble([[0.0, 0.0, 0.0]], [1.0], QubitBall())
        agent = Agent("b", QUANTUM, ens, pauli_menu(),
                      UtilityFn({"Z": (0.98, 1.02)}))
        assert expected_utility(agent, agent.action("Z")) == pytest.approx(1.0, abs=1e-12)

    def test_biased_z_certain_plus(self):
        # predictive (1, 0) makes the z action worth 0.98 < 1, so avoided
        ens = delta_ensemble([[0.0, 0.0, 1.0]], [1.0], QubitBall())
        agent = Agent("b", QUANTUM, ens, pauli_menu(),
                      UtilityFn({"Z": (0.98, 1.02)}))
        assert expected_utility(agent, agent.action("Z")) == pytest.approx(0.98, abs=1e-12)
        assert expected_utility(agent, agent.action("X")) == pytest.approx(1.0, abs=1e-12)

    def test_rows_checked_once_at_build(self, monkeypatch):
        ens = delta_ensemble([[0.0, 0.0, 1.0]], [1.0], QubitBall())
        agent = Agent("b", QUANTUM, ens, pauli_menu(), UtilityFn({"Z": (0.98, 1.02)}))
        assert agent.utility_rows["Z"].tolist() == [0.98, 1.02]
        assert agent.utility_rows["X"].tolist() == [1.0, 1.0]

        def unchecked(*args):
            raise AssertionError("utility row looked up in a choice")

        monkeypatch.setattr(UtilityFn, "row", unchecked)
        assert expected_utility(agent, agent.action("Z")) == pytest.approx(0.98, abs=1e-12)


class TestChooseAction:
    def test_uniform_tie_frequencies(self):
        agent = ball_agent(rng_seed=3, n=500)
        rng = np.random.default_rng(30)
        counts = {"X": 0, "Y": 0, "Z": 0}
        n = 10_000
        for _ in range(n):
            counts[agent.menu[choose_action(agent, rng)].name] += 1
        sigma = np.sqrt(n * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - n / 3) < 3 * sigma

    def test_dominant_action_always_chosen(self):
        ens = delta_ensemble([[0.0, 0.0, -1.0]], [1.0], QubitBall())
        agent = Agent("b", QUANTUM, ens, pauli_menu(),
                      UtilityFn({"Z": (0.98, 1.02)}))
        rng = np.random.default_rng(31)
        assert all(agent.menu[choose_action(agent, rng)].name == "Z" for _ in range(100))

    def test_z_never_chosen_when_dominated(self):
        ens = delta_ensemble([[0.0, 0.0, 1.0]], [1.0], QubitBall())
        agent = Agent("b", QUANTUM, ens, pauli_menu(),
                      UtilityFn({"Z": (0.98, 1.02)}))
        rng = np.random.default_rng(32)
        assert all(agent.menu[choose_action(agent, rng)].name != "Z" for _ in range(200))

    def test_same_seed_same_choice(self):
        agent = ball_agent(rng_seed=4, n=200)
        a = [agent.menu[choose_action(agent, np.random.default_rng(77))].name for _ in range(1)]
        b = [agent.menu[choose_action(agent, np.random.default_rng(77))].name for _ in range(1)]
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(shift=st.floats(-5, 5), scale=st.floats(0.1, 10))
    def test_argmax_invariant_under_affine_utilities(self, shift, scale):
        ens = delta_ensemble([[0.3, -0.2, 0.4]], [1.0], QubitBall())
        base = {"X": (1.0, 0.7), "Y": (0.9, 0.9), "Z": (1.1, 0.2)}
        shifted = {k: tuple(scale * u + shift for u in v) for k, v in base.items()}
        tie_sets = []
        for table in (base, shifted):
            agent = Agent("b", QUANTUM, ens, pauli_menu(), UtilityFn(table))
            eus = np.array([expected_utility(agent, a) for a in agent.menu])
            tie_sets.append(frozenset(np.flatnonzero(eus >= eus.max() - 1e-9 * max(1, scale))))
        assert tie_sets[0] == tie_sets[1]


def _parent_choice(agent, rng):
    # the parent's choice: numpy utility rows dotted (BLAS) with the
    # predictive arrays, then argmax with ties within TIE_TOL
    if not agent.utility.table:
        return int(rng.integers(len(agent.menu)))
    utilities = np.array([float(agent.utility_rows[a.name] @ predictive(agent, a))
                          for a in agent.menu])
    tied = np.flatnonzero(utilities >= utilities.max() - 1e-12)
    return int(tied[0] if tied.size == 1 else tied[rng.integers(tied.size)])


class TestChoiceOnFloats:
    def test_choices_and_draws_equal_the_parent_choice(self):
        rng = np.random.default_rng(50)
        tables = [{"Z": (0.98, 1.02)}, {"X": (1.0, 0.7), "Y": (0.9, 0.9), "Z": (1.1, 0.2)},
                  {"X": (2.0, 0.0), "Z": (0.0, 2.0)}, {"Y": (1.0, 1.0)}]
        points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
        points += (QubitBall().sample(200, rng) * rng.uniform(0, 1, (200, 1))).tolist()
        for table in tables:
            for point in points:
                agent = Agent("b", QUANTUM, delta_ensemble([point], [1.0], QubitBall()),
                              pauli_menu(), UtilityFn(table))
                ours, theirs = np.random.default_rng(51), np.random.default_rng(51)
                for _ in range(3):
                    assert choose_action(agent, ours) == _parent_choice(agent, theirs)
                    assert ours.bit_generator.state == theirs.bit_generator.state

    def test_registry_choices_equal_the_parent_choice(self, monkeypatch):
        # every agent-step of the registry scenario with a utility table,
        # seeds 1-3, chosen by both rules from twin streams
        from qbagents import interaction
        from test_golden import run_case

        calls = []

        def both(agent, rng):
            twin = np.random.Generator(type(rng.bit_generator)())
            twin.bit_generator.state = rng.bit_generator.state
            expected = _parent_choice(agent, twin)
            got = choose_action(agent, rng)
            calls.append(bool(agent.utility.table))
            assert got == expected
            assert str(rng.bit_generator.state) == str(twin.bit_generator.state)
            return got

        monkeypatch.setattr(interaction, "choose_action", both)
        for seed in (1, 2, 3):
            run_case("quantum_pair_biasedZ", seed)
        assert len(calls) == 600 and sum(calls) == 300

    def test_no_numpy_array_on_the_choice_path(self, monkeypatch):
        # Z is the one maximizer at the -1 pole, so no tie-break is drawn
        agent = Agent("b", QUANTUM, delta_ensemble([[0.0, 0.0, -1.0]], [1.0], QubitBall()),
                      pauli_menu(), UtilityFn({"Z": (0.98, 1.02)}))
        agent.mean()
        rng = np.random.default_rng(52)

        def forbidden(*args, **kwargs):
            raise AssertionError("a numpy array on the choice path")

        monkeypatch.setattr(np, "array", forbidden)
        monkeypatch.setattr(np, "asarray", forbidden)
        assert choose_action(agent, rng) == 2


class TestChoiceStream:
    def test_single_action_menu_draws_nothing(self):
        agent = Agent("c", CLASSICAL2, grid_ensemble(Interval(), 101), flip_menu())
        rng = np.random.default_rng(40)
        before = rng.bit_generator.state
        assert agent.menu[choose_action(agent, rng)].name == "flip"
        assert rng.bit_generator.state == before

    def test_uniform_utility_draws_one_integer(self):
        agent = ball_agent(rng_seed=6, n=300)
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(20):
            name = agent.menu[choose_action(agent, rng)].name
            assert name == "XYZ"[twin.integers(3)]
            assert rng.bit_generator.state == twin.bit_generator.state


class TestLikelihoodCache:
    def test_cache_refreshes_after_resample_moves_particles(self):
        agent = ball_agent(rng_seed=7, n=500)
        action = agent.action("Z")
        rng = np.random.default_rng(42)
        moved = 0
        a = agent.menu.index(action)
        for _ in range(40):
            points = agent.ensemble.points
            ens = bayes_update(agent.ensemble, QUANTUM, action.matrix, 0,
                               agent.ensemble.likelihood(agent.evidence, a, 0))
            agent.counts[a, 0] = agent.counts.get((a, 0), 0) + 1
            agent.ensemble = maybe_resample(ens, agent.evidence, rng)
            if agent.ensemble.points is not points:
                moved += 1
                for j in (0, 1):
                    assert np.array_equal(
                        agent.ensemble.likelihood(agent.evidence, a, j),
                        likelihood_values(QUANTUM, action.matrix, j,
                                          agent.ensemble.points))
        assert moved > 0

    def test_grid_cache_matches_likelihood_values(self):
        agent = Agent("c", CLASSICAL2, grid_ensemble(Interval(), 1001), flip_menu())
        action = agent.menu[0]
        for j in (0, 1, 0):
            expected = likelihood_values(CLASSICAL2, action.matrix, j,
                                         agent.ensemble.points)
            assert np.array_equal(agent.ensemble.likelihood(agent.evidence, 0, j),
                                  expected)
            agent.ensemble = bayes_update(agent.ensemble, CLASSICAL2,
                                          action.matrix, j, expected)

    def test_assigning_an_ensemble_invalidates_caches(self):
        agent = Agent("c", CLASSICAL2, grid_ensemble(Interval(), 101), flip_menu())
        agent.ensemble.likelihood(agent.evidence, 0, 0)
        assert broadcast_point(agent)[0] == pytest.approx(0.5)
        agent.ensemble = delta_ensemble([[0.2], [0.9]], [0.5, 0.5], Interval())
        assert np.array_equal(agent.ensemble.likelihood(agent.evidence, 0, 0),
                              [0.2, 0.9])
        assert broadcast_point(agent)[0] == pytest.approx(0.55)

    def test_agents_sharing_a_prior_read_their_own_rows(self):
        # the likelihoods are kept with the point set, keyed by kernel row, so
        # two agents on one ensemble with different menus never read each
        # other's outcome j
        grid = grid_ensemble(Interval(), 11)
        flip = Agent("a", CLASSICAL2, grid, flip_menu())
        swapped = Agent("b", CLASSICAL2, grid, (Action("swap", np.eye(2)[::-1], ("t", "h")),))
        theta = grid.points[:, 0]
        for agent, first in ((flip, theta), (swapped, 1 - theta), (flip, theta)):
            for j, expected in enumerate((first, 1 - first)):
                assert np.allclose(agent.ensemble.likelihood(agent.evidence, 0, j), expected,
                                   rtol=0, atol=1e-15)


class TestAgentValidation:
    def test_menu_dimension_checked(self):
        ens = grid_ensemble(Interval(), 51)
        with pytest.raises(ValidationError):
            Agent("a", CLASSICAL2, ens, pauli_menu())

    def test_region_compatibility_checked(self):
        ens = grid_ensemble(Interval(), 51)
        with pytest.raises(ValidationError):
            Agent("a", QUANTUM, ens, pauli_menu())

    def test_empty_menu_rejected(self):
        ens = grid_ensemble(Interval(), 51)
        with pytest.raises(ValidationError):
            Agent("a", CLASSICAL2, ens, ())

    def test_duplicate_action_names_rejected(self):
        # the trace and the metrics name counts by action
        ens = grid_ensemble(Interval(), 51)
        with pytest.raises(ValidationError, match="distinct"):
            Agent("a", CLASSICAL2, ens, flip_menu() + flip_menu())

    def test_utility_row_length_checked(self):
        ens = grid_ensemble(Interval(), 51)
        with pytest.raises(ValidationError):
            Agent("a", CLASSICAL2, ens, flip_menu(),
                  UtilityFn({"flip": (1.0, 2.0, 3.0)}))

    def test_quantum_sharp_actions_rejected(self):
        # sharp Pauli matrices give negative probabilities on most of the ball
        ens = sample_uniform(QubitBall(), 100, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="negative probability"):
            Agent("q", QUANTUM, ens, _menu("sharp_paulis"))

    def test_classical_sharp_actions_accepted(self):
        ens = sample_uniform(QubitBall(), 100, np.random.default_rng(0))
        Agent("c", classical_postulate(4), ens, _menu("sharp_paulis"))

    def test_nonuniform_particle_prior_rejected(self):
        ens = sample_uniform(QubitBall(), 100, np.random.default_rng(1))
        w = np.linspace(1.0, 2.0, 100)
        skewed = ParticleEnsemble(ens.points, w / w.sum(), QubitBall())
        with pytest.raises(ValidationError, match="uniform"):
            Agent("a", QUANTUM, skewed, pauli_menu())

    def test_particle_prior_with_counts_rejected(self):
        # a refreshed cloud has equal weights again, but it has absorbed
        # evidence, so it is not the uniform prior
        agent = Agent("a", QUANTUM, sample_uniform(QubitBall(), 100,
                                                   np.random.default_rng(2)), pauli_menu())
        r_z = pauli_menu()[2].matrix
        ens = agent.ensemble
        while ens.ess() >= ens.n / 2:
            ens = bayes_update(ens, QUANTUM, r_z, 0)
            agent.counts[2, 0] = agent.counts.get((2, 0), 0) + 1
        seen = maybe_resample(ens, agent.evidence, np.random.default_rng(3))
        assert seen is not ens and np.ptp(seen.weights) == 0
        for prior in (ens, seen):
            with pytest.raises(ValidationError, match="uniform"):
                Agent("b", QUANTUM, prior, pauli_menu())

    def test_nonuniform_grid_and_atoms_accepted(self):
        ens = grid_ensemble(Interval(), 51, pdf=lambda t: beta_pdf(t, BetaParams(2, 5)))
        Agent("c", CLASSICAL2, ens, flip_menu())
        Agent("d", CLASSICAL2, delta_ensemble([[0.1], [0.8]], [0.3, 0.7], Interval()),
              flip_menu())

    def test_broadcast_is_posterior_mean(self):
        params = BetaParams(772, 230)
        ens = grid_ensemble(Interval(), 10_001, pdf=lambda t: beta_pdf(t, params))
        agent = Agent("c", CLASSICAL2, ens, flip_menu())
        assert broadcast_point(agent)[0] == pytest.approx(0.770459, abs=2e-4)
