import json
import os

import numpy as np
import pytest
from dataclasses import replace

from qbagents import interaction
from qbagents.agents import Action, Agent, broadcast_point
from qbagents.errors import ImpossibleOutcomeError, RegionError, ValidationError
from qbagents.core_math import BetaParams, beta_pdf
from qbagents.inference import delta_ensemble, grid_ensemble, sample_uniform
from qbagents.interaction import (
    EXPECTATION,
    PRIOR_SIMULTANEOUS,
    PRIOR_TURNS,
    ExogenousSource,
    RunSpec,
    regularize,
    run,
    sample_outcome,
)
from qbagents.postulate import (
    Interval,
    QubitBall,
    apply_postulate,
    classical_postulate,
    outcome_probs,
    quantum_postulate,
    ref_probs_of_points,
)
from qbagents.quantum import (
    bloch_to_density,
    conditional_matrix,
    frequency_operator,
    pauli_povm,
    sic_d2,
    trace_distance,
)
from qbagents.rng import UNIFORM_BLOCK, UniformBlocks, stream
from qbagents.scenarios import (
    REGISTRY,
    AgentSpec,
    _menu,
    build_runtime,
    default_config,
    run_config,
)

QUANTUM = quantum_postulate()
CLASSICAL2 = classical_postulate(2)


def flip_menu():
    return (Action("flip", np.eye(2), ("heads", "tails")),)


def coin_agent(name, pdf=None, n=2001):
    ens = grid_ensemble(Interval(), n, pdf=pdf)
    return Agent(name, CLASSICAL2, ens, flip_menu())


def pair_spec(slots, mode=EXPECTATION, n_steps=5, seed=0, metrics="pair_1d",
              regs=("none", "none")):
    return RunSpec(scenario="test", seed=seed, n_steps=n_steps, slots=tuple(slots),
                   incoming_reg=tuple(regs), mode=mode, metrics_kind=metrics)


class TestBroadcast:
    def test_delta(self):
        agent = Agent("a", CLASSICAL2,
                      delta_ensemble([[0.75]], [1.0], Interval()), flip_menu())
        assert broadcast_point(agent)[0] == 0.75

    def test_beta_grid(self):
        params = BetaParams(772, 230)
        agent = coin_agent("a", pdf=lambda t: beta_pdf(t, params), n=10_001)
        assert broadcast_point(agent)[0] == pytest.approx(0.770459, abs=2e-4)

    def test_uniform_ball(self):
        ens = sample_uniform(QubitBall(), 50_000, np.random.default_rng(0))
        agent = Agent("q", QUANTUM, ens,
                      (Action("X", conditional_matrix(pauli_povm("X"), sic_d2()),
                              ("+1", "-1")),))
        assert np.linalg.norm(broadcast_point(agent)) < 0.03


class TestRegularize:
    def test_z_projection(self):
        out = regularize("z_projection", np.array([0.3, -0.1, 0.5]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.75)

    def test_z_embedding(self):
        out = regularize("z_embedding", np.array([1.0]))
        assert np.allclose(out, [0.0, 0.0, 1.0])

    def test_identity_kinds(self):
        p = np.array([0.2])
        assert regularize("none", p) is p
        assert regularize("support_restriction", p) is p

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            regularize("project_everything", np.array([0.1]))

    def test_wrong_shapes(self):
        with pytest.raises(ValidationError):
            regularize("z_projection", np.array([0.1]))
        with pytest.raises(ValidationError):
            regularize("z_embedding", np.array([0.1, 0.2, 0.3]))


class TestSampleOutcome:
    def test_classical_flip_frequency(self):
        rng = np.random.default_rng(1)
        n = 10_000
        heads = sum(sample_outcome(CLASSICAL2, np.array([0.75]), np.eye(2),
                                   "none", rng) == 0 for _ in range(n))
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(heads - 0.75 * n) < 3 * sigma

    def test_projection_of_plus_state_is_balanced(self):
        # a Bloch broadcast at |+> projects to theta = 1/2 on the z axis
        rng = np.random.default_rng(2)
        n = 10_000
        heads = sum(sample_outcome(CLASSICAL2, np.array([1.0, 0.0, 0.0]), np.eye(2),
                                   "z_projection", rng) == 0 for _ in range(n))
        sigma = np.sqrt(n * 0.25)
        assert abs(heads - n / 2) < 3 * sigma

    def test_embedded_pole_gives_certain_z(self):
        rng = np.random.default_rng(3)
        r_z = conditional_matrix(pauli_povm("Z"), sic_d2())
        for _ in range(50):
            j = sample_outcome(QUANTUM, np.array([1.0]), r_z, "z_embedding", rng)
            assert j == 0

    def test_invalid_regularized_point(self):
        with pytest.raises(RegionError):
            sample_outcome(QUANTUM, np.array([1.2, 0.0, 0.0]),
                           conditional_matrix(pauli_povm("X"), sic_d2()),
                           "none", np.random.default_rng(4))


# (postulate, menu, region of the receiver) of every agent kind the registry
# builds, and for each region the regularizations a broadcast reaches it by,
# with the space the broadcast comes from
KERNEL_AGENTS = [(CLASSICAL2, "flip", "interval"), (CLASSICAL2, "z_reference", "interval"),
                 (QUANTUM, "paulis", "ball"), (QUANTUM, "paulis_zx", "ball"),
                 (QUANTUM, "sic_reference", "ball"),
                 (classical_postulate(4), "paulis", "ball"),
                 (classical_postulate(4), "paulis_zx", "ball"),
                 (classical_postulate(4), "sharp_paulis", "ball"),
                 (classical_postulate(4), "sic_reference", "ball")]
KERNEL_REGS = {"interval": [("none", "interval"), ("z_projection", "ball")],
               "ball": [("none", "ball"), ("support_restriction", "ball"),
                        ("z_embedding", "interval")]}


def _kernel_points(space, rng):
    """500 random valid states of a space plus its boundary points."""
    if space == "interval":
        return [np.array([t]) for t in [0.0, 0.5, 1.0, *rng.random(500)]]
    axes = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
    surface = [v / np.linalg.norm(v) for v in rng.normal(size=(20, 3))]
    return [np.zeros(3), *axes, *surface, *QubitBall().sample(500, rng)]


class TestOutcomeKernel:
    @pytest.mark.parametrize("post,menu,region", KERNEL_AGENTS)
    def test_kernel_equals_the_checked_postulate(self, post, menu, region):
        rng = np.random.default_rng(17)
        ens = (grid_ensemble(Interval(), 11) if region == "interval"
               else sample_uniform(QubitBall(), 10, rng))
        agent = Agent("a", post, ens, _menu(menu))
        for reg, space in KERNEL_REGS[region]:
            for x in _kernel_points(space, rng):
                point = regularize(reg, x)
                p = ref_probs_of_points(post, point)[0]
                for a, action in enumerate(agent.menu):
                    q = np.array(outcome_probs(agent.evidence.kernel[a],
                                               [1.0, *point.tolist()]))
                    checked = apply_postulate(post, p, action.matrix)
                    assert np.max(np.abs(q - checked)) <= 1e-15, (reg, x, action.name)
                    direct = action.matrix @ (post.phi @ p)
                    assert np.max(np.abs(q - np.maximum(direct, 0.0))) <= 1e-12
                    # dust where the probability vanishes is snapped to zero
                    assert np.all(q[np.abs(direct) < 1e-12] == 0.0)

    def test_sample_outcome_checks_the_kind(self):
        with pytest.raises(ValidationError):
            sample_outcome(CLASSICAL2, np.array([0.5]), np.eye(2), "project",
                           np.random.default_rng(5))


class TestSourceValidation:
    @pytest.mark.parametrize("point", [[1.5], [float("nan")], [0.7, 0.7]])
    def test_source_outside_valid_states_rejected_at_build(self, point):
        src = ExogenousSource("s", np.array(point))
        with pytest.raises(ValidationError):
            pair_spec([coin_agent("a", n=11), src], metrics="coin_tomography")

    def test_regularized_source_checked(self):
        # the scalar 1.0 embeds as the z pole, a valid state; a Bloch point
        # of norm 1.2 is not one
        qubit = Agent("q", QUANTUM, sample_uniform(QubitBall(), 50, np.random.default_rng(0)),
                      (Action("X", conditional_matrix(pauli_povm("X"), sic_d2()),
                              ("+1", "-1")),))
        pair_spec([ExogenousSource("s", np.array([1.0])), qubit],
                  regs=("none", "z_embedding"), metrics="none")
        with pytest.raises(ValidationError):
            pair_spec([ExogenousSource("s", np.array([1.2, 0.0, 0.0])), qubit],
                      metrics="none")


def ball_agent(name, postulate=QUANTUM, menu="paulis"):
    return Agent(name, postulate, sample_uniform(QubitBall(), 50, np.random.default_rng(0)),
                 _menu(menu))


SHARED = coin_agent("a", n=11)
# (slots, the other pair_spec arguments, the rule the one ValidationError names)
SPEC_HOLES = {
    "duplicate_ids": ([coin_agent("a", n=11), coin_agent("a", n=11)], {},
                      "id 'a' is used by more than one agent or source"),
    "same_agent_twice": ([SHARED, SHARED], {}, "id 'a' is used by more than one"),
    "slot_not_agent_or_source": ([coin_agent("a", n=11), None], {},
                                 "exactly two slots, each an agent or a source"),
    "seed_negative": (None, {"seed": -1}, "seed must be an integer >= 0, got -1"),
    "seed_float": (None, {"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
    "seed_bool": (None, {"seed": True}, "seed must be an integer >= 0, got True"),
    "steps_bool": (None, {"n_steps": True}, "n_steps must be an integer >= 0, got True"),
    "steps_float": (None, {"n_steps": 2.5}, "n_steps must be an integer >= 0, got 2.5"),
    "steps_negative": (None, {"n_steps": -1}, "n_steps must be an integer >= 0, got -1"),
    "one_regularization": (None, {"regs": ("none",)},
                           "incoming_reg must name a regularization per slot"),
    "three_regularizations": (None, {"regs": ("none",) * 3},
                              "incoming_reg must name a regularization per slot"),
    "unknown_metrics": (None, {"metrics": "pair_3d"}, "unknown metrics kind 'pair_3d'"),
    "interval_agents_pair_ball": (None, {"metrics": "pair_ball"},
                                  "takes \\(ball agent, ball agent\\), got \\(interval agent, "
                                  "interval agent\\)"),
    "quinn_clark_unregularized": (
        [ball_agent("quinn", menu="sic_reference"), coin_agent("clark", n=11)],
        {"metrics": "z_marginal"}, "agent 'quinn': regularization 'none' maps the ball "
        "onto the ball, not the interval onto the ball"),
    "quinn_clark_swapped": (
        [ball_agent("quinn", menu="sic_reference"), coin_agent("clark", n=11)],
        {"metrics": "z_marginal", "regs": ("z_projection", "z_embedding")},
        "agent 'quinn': regularization 'z_projection' maps the ball onto the interval"),
    "source_outside_ball_for_clara": (
        [ball_agent("clara", classical_postulate(4)),
         ExogenousSource("s", np.array([1.2, 0.0, 0.0]))],
        {"metrics": "qubit_tomography"}, "source 's': point outside the Bloch ball"),
}


class TestRunSpecRules:
    """A ``RunSpec`` built directly checks the rules a config's does: each
    mismatch is one ``ValidationError`` naming its rule, before any step."""

    @pytest.mark.parametrize("slots,kwargs,rule", SPEC_HOLES.values(), ids=SPEC_HOLES)
    def test_mismatched_spec_is_one_validation_error(self, slots, kwargs, rule):
        slots = slots or [coin_agent("a", n=11), coin_agent("b", n=11)]
        with pytest.raises(ValidationError, match=rule) as info:
            pair_spec(slots, **kwargs)
        assert type(info.value) is ValidationError


class TestExpectationSteps:
    def test_two_certain_agents_stay_certain(self):
        a = Agent("a", CLASSICAL2, delta_ensemble([[1.0]], [1.0], Interval()), flip_menu())
        b = Agent("b", CLASSICAL2, delta_ensemble([[1.0]], [1.0], Interval()), flip_menu())
        trace = run(pair_spec([a, b], n_steps=20))
        for rec in trace.records:
            assert rec.agents[0].outcome == 0
            assert rec.agents[1].outcome == 0
            assert rec.agents[0].mean == (1.0,)
            assert rec.agents[1].mean == (1.0,)

    def test_swap_symmetry(self):
        # identically configured agents: swapping the labels leaves every
        # number in the records unchanged, since streams attach to slots
        t1 = run(pair_spec([coin_agent("a"), coin_agent("b")], n_steps=15, seed=9))
        t2 = run(pair_spec([coin_agent("b"), coin_agent("a")], n_steps=15, seed=9))
        for r1, r2 in zip(t1.records, t2.records):
            for i in range(2):
                assert r1.agents[i].outcome == r2.agents[i].outcome
                assert r1.agents[i].mean == r2.agents[i].mean
                assert r1.agents[i].action == r2.agents[i].action
            assert r1.metrics == r2.metrics

    def test_zero_steps(self):
        a = coin_agent("a")
        b = coin_agent("b")
        trace = run(pair_spec([a, b], n_steps=0))
        assert trace.records == []
        assert set(trace.final["summaries"]) == {"a", "b"}
        assert trace.initial["a"]["mean"][0] == pytest.approx(0.5, abs=1e-9)

    def test_run_determinism(self):
        cfg = replace(default_config("quantum_pair_flat", seed=13), n_steps=25)
        t1 = run_config(cfg)
        t2 = run_config(cfg)
        assert t1.records == t2.records

    def test_exogenous_limit_bit_exact(self):
        cfg = replace(default_config("coin_tomography", seed=99), n_steps=150)
        against_source = run_config(cfg)
        spec = build_runtime(cfg)
        delta_agent = Agent("source", CLASSICAL2,
                            delta_ensemble([[0.75]], [1.0], Interval()), flip_menu())
        spec_pair = RunSpec(scenario=cfg.scenario, seed=cfg.seed, n_steps=cfg.n_steps,
                            slots=(spec.slots[0], delta_agent),
                            incoming_reg=("none", "none"),
                            metrics_kind="coin_tomography", config=cfg.to_dict())
        against_delta = run(spec_pair)
        for r1, r2 in zip(against_source.records, against_delta.records):
            assert r1.agents[0] == r2.agents[0]
            assert r1.metrics == r2.metrics


class TestPriorSampling:
    def two_sided(self, name):
        return Agent(name, CLASSICAL2,
                     delta_ensemble([[0.0], [1.0]], [0.5, 0.5], Interval()),
                     flip_menu())

    def test_simultaneous_polarization_frequency(self):
        errors = 0
        n = 200
        for seed in range(n):
            slots = [self.two_sided("a"), self.two_sided("b")]
            try:
                run(pair_spec(slots, mode=PRIOR_SIMULTANEOUS, n_steps=5, seed=seed))
            except ImpossibleOutcomeError as err:
                errors += 1
                assert err.step == 2
        sigma = np.sqrt(n * 0.25)
        assert abs(errors - n / 2) < 3 * sigma

    @pytest.mark.parametrize("first,second", [("heads", "tails"), ("tails", "heads")])
    def test_simultaneous_step_updates_slot_0_first(self, first, second):
        # Each agent is certain of the opposite coin, so both draw an impossible
        # outcome in step 1; the error names whichever agent sits in slot 0.
        def certain(name):
            theta = 1.0 if name == "heads" else 0.0
            return Agent(name, CLASSICAL2, delta_ensemble([[theta]], [1.0], Interval()),
                         flip_menu())

        slots = [certain(first), certain(second)]
        with pytest.raises(ImpossibleOutcomeError) as info:
            run(pair_spec(slots, mode=PRIOR_SIMULTANEOUS, n_steps=3))
        assert (info.value.step, info.value.agent_id) == (1, first)

    def test_turn_based_agrees_after_one_round(self):
        for seed in range(100):
            slots = [self.two_sided("a"), self.two_sided("b")]
            trace = run(pair_spec(slots, mode=PRIOR_TURNS, n_steps=1, seed=seed))
            fa = trace.final["summaries"]["a"]
            fb = trace.final["summaries"]["b"]
            assert fa["mean"] == fb["mean"]
            assert fa["std"][0] == 0.0
            assert fb["std"][0] == 0.0

    def test_four_delta_polarization_reachable(self):
        polarized = 0
        for seed in range(60):
            cfg = replace(default_config("prior_qubits_turns"), seed=seed, n_steps=50)
            spec = build_runtime(cfg)
            try:
                run(spec)
            except ImpossibleOutcomeError:
                polarized += 1
                continue
            supports = [frozenset(map(tuple, s.ensemble.points[s.ensemble.weights > 0]))
                        for s in spec.slots]
            if not supports[0] & supports[1]:
                polarized += 1
        assert polarized > 0

    def test_expectation_sampling_never_impossible_with_interior_support(self):
        a = coin_agent("a", pdf=lambda t: beta_pdf(t, BetaParams(2, 2)))
        b = coin_agent("b", pdf=lambda t: beta_pdf(t, BetaParams(3, 1)))
        trace = run(pair_spec([a, b], n_steps=300, seed=5))
        assert len(trace.records) == 300


class TestSourceSlot:
    def test_source_never_consumes_agent_streams(self):
        src = ExogenousSource("s", np.array([0.75]))
        a = coin_agent("a", n=501)
        t1 = run(pair_spec([a, src], n_steps=30, seed=3, metrics="coin_tomography"))
        outcomes = [r.agents[0].outcome for r in t1.records]
        heads = outcomes.count(0)
        assert 10 <= heads <= 30
        assert t1.records[-1].metrics["running_frequency"] == heads / 30


def _small_config(name, seed, n_steps, prior=None):
    """A registry config at ``n_steps`` with small ensembles (301-point grids,
    400 particles) and, optionally, ``prior`` for both agents."""
    cfg = replace(default_config(name, seed), n_steps=n_steps)
    agents = []
    for block in cfg.agents:
        if isinstance(block, AgentSpec):
            block = replace(block, prior=prior or block.prior)
            kind = block.prior["kind"]
            n = 301 if kind.startswith("grid") else 400 if kind == "uniform_ball" else None
            block = replace(block, n_particles=n)
        agents.append(block)
    return replace(cfg, agents=tuple(agents))


RECORD_CASES = [("classical_pair", None), ("coin_tomography", None),
                ("quantum_pair_biasedZ", None), ("quinn_clark", None),
                ("prior_qubits_turns", {"kind": "uniform_ball"})]


class TestRecordSteps:
    @pytest.mark.parametrize("steps", [set(), {1}, {3, 10, 17}, {20}])
    @pytest.mark.parametrize("name,prior", RECORD_CASES)
    def test_kept_records_equal_full_run(self, name, prior, steps):
        n_steps = 20
        cfg = _small_config(name, seed=5, n_steps=n_steps, prior=prior)
        full = run(build_runtime(cfg))
        part = run(build_runtime(cfg), record_steps=steps)
        assert [r.step for r in part.records] == sorted(steps | {n_steps})
        for rec in part.records:
            assert rec == full.records[rec.step - 1]
        assert part.final == full.final
        assert part.initial == full.initial
        assert part.curves.keys() == full.curves.keys()
        for aid, snaps in part.curves.items():
            for (s1, b1), (s2, b2) in zip(snaps, full.curves[aid], strict=True):
                assert s1 == s2 and np.array_equal(b1.points, b2.points)
                assert np.array_equal(b1.weights, b2.weights)
        assert part.clouds.keys() == full.clouds.keys()
        for aid, (pts, w) in part.clouds.items():
            assert np.array_equal(pts, full.clouds[aid][0])
            assert np.array_equal(w, full.clouds[aid][1])

    def test_zero_steps_keep_nothing(self):
        trace = run(pair_spec([coin_agent("a"), coin_agent("b")], n_steps=0),
                    record_steps={1})
        assert trace.records == []
        assert trace.final["last_metrics"] == {}

    def test_unrecorded_steps_are_not_summarized(self, monkeypatch):
        calls = []
        original = interaction.posterior_summary

        def counting(ens):
            calls.append(ens)
            return original(ens)

        monkeypatch.setattr(interaction, "posterior_summary", counting)
        run(build_runtime(_small_config("classical_pair", seed=1, n_steps=30)),
            record_steps={10})
        # Two agents, summarized at the start, at steps 10 and 30, and at the end.
        assert len(calls) == 8


def _golden_polarizations():
    """(scenario, seed, {"step", "agent"}) of every golden run that ends in an
    ``ImpossibleOutcomeError``."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
    with open(path, encoding="utf8") as fh:
        golden = json.load(fh)
    out = []
    for key, record in sorted(golden.items()):
        if isinstance(record, dict) and "impossible_outcome" in record:
            scenario, seed = key.split("/seed")
            out.append((scenario, int(seed), record["impossible_outcome"]))
    return out


def _scalar_draws(monkeypatch):
    # the run's outcome uniforms from scalar ``random()`` calls of the stream
    monkeypatch.setattr(interaction, "UniformBlocks", lambda rng, n: rng)


class TestUniformBlocks:
    @pytest.mark.parametrize("n", [0, 1, UNIFORM_BLOCK - 1, UNIFORM_BLOCK,
                                   UNIFORM_BLOCK + 1, 2 * UNIFORM_BLOCK + 1])
    def test_blocks_yield_the_scalar_draws(self, n):
        blocks = UniformBlocks(stream(7, "agent", 0, "outcome"), n)
        scalar = stream(7, "agent", 0, "outcome")
        assert [blocks.random() for _ in range(n)] == [scalar.random() for _ in range(n)]
        with pytest.raises(StopIteration):
            blocks.random()

    def test_blocks_are_drawn_as_they_are_needed(self):
        sizes = []

        class Recording:
            def __init__(self):
                self.rng = np.random.default_rng(3)

            def random(self, k):
                sizes.append(k)
                return self.rng.random(k)

        blocks = UniformBlocks(Recording(), 2 * UNIFORM_BLOCK + 1)
        assert sizes == []
        blocks.random()
        assert sizes == [UNIFORM_BLOCK]
        for _ in range(2 * UNIFORM_BLOCK):
            blocks.random()
        assert sizes == [UNIFORM_BLOCK, UNIFORM_BLOCK, 1]

    @pytest.mark.parametrize("scenario,seed,where", _golden_polarizations())
    def test_polarization_stops_where_scalar_draws_stop(self, scenario, seed, where,
                                                        monkeypatch):
        errors = []
        for scalar in (False, True):
            if scalar:
                _scalar_draws(monkeypatch)
            with pytest.raises(ImpossibleOutcomeError) as err:
                run_config(default_config(scenario, seed))
            errors.append((err.value.step, err.value.agent_id, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (where["step"], where["agent"])

    def test_run_across_a_block_edge_equals_scalar_draws(self, monkeypatch):
        n_steps = UNIFORM_BLOCK + 6
        cfg = replace(default_config("coin_tomography", 4), n_steps=n_steps)
        steps = {1, UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1}
        blocks = run(build_runtime(cfg), record_steps=steps)
        _scalar_draws(monkeypatch)
        scalar = run(build_runtime(cfg), record_steps=steps)
        assert blocks.records == scalar.records
        assert blocks.final == scalar.final


class TestBlochMetrics:
    """Every ball metric is half the distance between two Bloch vectors, the
    trace distance of the qubit operators they give.  Checked against
    ``trace_distance`` (``eigvalsh``) of those operators on every recorded
    step of every registry scenario whose metrics read a ball agent, seeds
    1-3: within 1e-14 relative, or within 4 ulp of 1 where the distance is
    small, since the operator route's entries are (1 +- r_z)/2 and lose the
    digits of r_z - s_z that the vector route keeps."""

    @staticmethod
    def _state(mean):
        r = np.asarray(mean, dtype=float)
        norm = np.linalg.norm(r)
        return bloch_to_density(r / norm if norm > 1.0 else r)

    def _reference(self, kind, config, counts, rec) -> dict:
        a, b = rec.agents
        if kind == "pair_ball":
            return {"mean_trace_distance": trace_distance(self._state(a.mean),
                                                          self._state(b.mean))}
        if kind == "z_marginal":
            ball, coin = (a, b) if len(a.mean) == 3 else (b, a)
            z = np.clip(ball.mean[2], -1.0, 1.0)
            return {"z_gap": trace_distance(bloch_to_density([0.0, 0.0, 2 * coin.mean[0] - 1]),
                                            bloch_to_density([0.0, 0.0, z]))}
        counts[a.action, a.outcome] = counts.get((a.action, a.outcome), 0) + 1
        freq, _missing = frequency_operator(
            {ax.lower(): (counts.get((ax, 0), 0), counts.get((ax, 1), 0)) for ax in "XYZ"})
        source = config.agents[1].point if b is None else b.mean
        state = self._state(a.mean)
        return {"dist_to_frequency": trace_distance(state, freq),
                "dist_to_source": trace_distance(state, bloch_to_density(source))}

    @pytest.mark.parametrize("scenario", sorted(
        name for name, sc in REGISTRY.items()
        if sc.metrics_kind in ("qubit_tomography", "pair_ball", "z_marginal")))
    def test_metrics_match_the_operator_trace_distance(self, scenario):
        from test_golden import run_case

        kind = REGISTRY[scenario].metrics_kind
        checked = 0
        for seed in (1, 2, 3):
            trace = run_case(scenario, seed)
            if isinstance(trace, ImpossibleOutcomeError):
                continue
            config, counts = default_config(scenario, seed), {}
            for rec in trace.records:
                reference = self._reference(kind, config, counts, rec)
                assert rec.metrics.keys() == reference.keys()
                for name, value in reference.items():
                    assert (abs(rec.metrics[name] - value)
                            <= max(1e-14 * value, 4 * np.spacing(1.0))), (seed, rec.step, name)
                checked += 1
        assert checked > 0
