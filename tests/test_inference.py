import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qbagents.core_math import BetaParams, beta_mean, beta_posterior
from qbagents.errors import ImpossibleOutcomeError, ValidationError
from qbagents.agents import Action, Agent
from qbagents.inference import (
    BetaMixture,
    Evidence,
    ParticleEnsemble,
    bayes_update,
    log_posterior_density,
    delta_ensemble,
    grid_ensemble,
    maybe_resample,
    posterior_summary,
    sample_uniform,
)
from qbagents.postulate import (
    Interval,
    QubitBall,
    affine_rows,
    axis_classes,
    classical_postulate,
    likelihood_rows,
    likelihood_values,
    quantum_postulate,
)
from qbagents.quantum import conditional_matrix, pauli_povm, sic_d2

CLASSICAL2 = classical_postulate(2)
CLASSICAL4 = classical_postulate(4)
QUANTUM = quantum_postulate()
FLIP = np.eye(2)
PAULI = {ax: conditional_matrix(pauli_povm(ax), sic_d2()) for ax in "XYZ"}
# the record of a coin agent whose one action reads outcome 0 as heads
COIN = Evidence.of(CLASSICAL2, Interval(), (FLIP,))


def flip(ens, j):
    """The belief after outcome j of the coin flip."""
    return bayes_update(ens, COIN, 0, j)


def pauli_agent(post, n, rng):
    """An agent with the X, Y, Z menu on n uniform Bloch particles."""
    menu = tuple(Action(ax, PAULI[ax], ("+1", "-1")) for ax in "XYZ")
    return Agent("a", post, sample_uniform(QubitBall(), n, rng), menu)


def observe(agent, name, j):
    """Outcome j of the named action, as the run loop takes it: the update,
    then the count in the agent's evidence."""
    a = [action.name for action in agent.menu].index(name)
    agent.ensemble = bayes_update(agent.ensemble, agent.evidence, a, j)
    agent.evidence.add(a, j)


class FreeSpace:
    """Unbounded 3-D region for synthetic-moment tests."""

    dim = 3
    ref_dim = 4

    def contains(self, points):
        return np.ones(np.asarray(points).reshape(-1, 3).shape[0], dtype=bool)


class TestSampling:
    def test_ball_mean_near_center(self):
        ens = sample_uniform(QubitBall(), 100_000, np.random.default_rng(0))
        mean = ens.weights @ ens.points
        assert np.linalg.norm(mean) < 0.02

    def test_interval_respects_bounds(self):
        ens = sample_uniform(Interval(0.0, 1 / 3), 10_000, np.random.default_rng(1))
        assert ens.points.max() <= 1 / 3
        assert ens.points.min() >= 0.0

    def test_single_particle(self):
        ens = sample_uniform(QubitBall(), 1, np.random.default_rng(2))
        assert ens.n == 1
        assert ens.weights[0] == 1.0

    def test_rejects_zero_particles(self):
        with pytest.raises(ValidationError):
            sample_uniform(QubitBall(), 0, np.random.default_rng(3))

    def test_particles_outside_region_rejected(self):
        with pytest.raises(ValidationError):
            ParticleEnsemble([[2.0, 0.0, 0.0]], [1.0], QubitBall())


class TestBayesUpdate:
    def test_delta_unchanged(self):
        ens = delta_ensemble([[0.75]], [1.0], Interval())
        out = flip(ens, 0)
        assert out.weights[0] == 1.0
        assert np.array_equal(out.points, ens.points)

    def test_grid_heads_matches_conjugate(self):
        ens = grid_ensemble(Interval(), 101)
        out = flip(ens, 0)
        theta = ens.points[:, 0]
        expected = theta / theta.sum()
        assert np.max(np.abs(out.weights - expected)) < 1e-12

    def test_updates_commute(self):
        ens = grid_ensemble(Interval(), 501)
        heads_then_tails = flip(flip(ens, 0), 1)
        tails_then_heads = flip(flip(ens, 1), 0)
        assert np.max(np.abs(heads_then_tails.weights - tails_then_heads.weights)) < 1e-12

    def test_update_leaves_its_argument_alone(self):
        ens = grid_ensemble(Interval(), 101)
        before = ens.weights.copy()
        out = flip(ens, 0)
        assert out is not ens and out.points is ens.points
        assert out.posterior and not ens.posterior
        assert np.array_equal(ens.weights, before)

    def test_impossible_outcome(self):
        ens = delta_ensemble([[0.0]], [1.0], Interval())
        with pytest.raises(ImpossibleOutcomeError):
            flip(ens, 0)

    def test_support_never_grows(self):
        ens = delta_ensemble([[0.0], [1.0]], [0.5, 0.5], Interval())
        out = flip(ens, 0)
        assert out.weights[0] == 0.0
        again = flip(out, 0)
        assert again.weights[0] == 0.0

    def test_conjugacy_oracle_random_sequences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            ens = grid_ensemble(Interval(), 10_001)
            outcomes = rng.integers(0, 2, size=60)
            prior = BetaParams(1, 1)
            for j in outcomes:
                ens = flip(ens, int(j))
            heads = int(np.sum(outcomes == 0))
            analytic = beta_mean(beta_posterior(prior, heads, len(outcomes) - heads))
            particle_mean = float(ens.weights @ ens.points[:, 0])
            assert abs(particle_mean - analytic) < 3 / np.sqrt(ens.n)

    def test_region_membership_preserved(self):
        rng = np.random.default_rng(5)
        agent = pauli_agent(QUANTUM, 2000, rng)
        for j in (0, 1, 0):
            observe(agent, "X", j)
            agent.ensemble = maybe_resample(agent.ensemble, agent.evidence, rng)
            assert np.all(agent.ensemble.region.contains(agent.ensemble.points))


class TestPosteriorSummary:
    def test_delta_zero_covariance(self):
        s = posterior_summary(delta_ensemble([[0.2, 0.1, -0.3]], [1.0], QubitBall()))
        assert np.max(np.abs(s.covariance)) == 0.0
        assert np.max(s.axis_lengths) == 0.0

    def test_uniform_ball_isotropic(self):
        # second moment of the uniform unit ball is 1/5 per axis; oracle from
        # an independent million-point draw
        oracle_rng = np.random.default_rng(100)
        pts = QubitBall().sample(1_000_000, oracle_rng)
        oracle = pts.var(axis=0)
        assert np.allclose(oracle, 0.2, atol=2e-3)
        ens = sample_uniform(QubitBall(), 200_000, np.random.default_rng(6))
        s = posterior_summary(ens)
        assert np.allclose(np.diag(s.covariance), 0.2, atol=5e-3)
        assert np.max(s.axis_lengths) - np.min(s.axis_lengths) < 5e-3

    def test_synthetic_axis_lengths(self):
        # covariance diag(4, 1, 0) must give ellipsoid axes (2, 1, 0)
        a = 2 * np.sqrt(2)
        b = np.sqrt(2)
        points = [[a, 0, 0], [-a, 0, 0], [0, b, 0], [0, -b, 0]]
        ens = ParticleEnsemble(points, [0.25] * 4, FreeSpace())
        s = posterior_summary(ens)
        assert np.allclose(np.diag(s.covariance), [4.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(s.axis_lengths, [2.0, 1.0, 0.0], atol=1e-12)

    def test_grid_summary_std(self):
        ens = grid_ensemble(Interval(), 10_001)
        s = posterior_summary(ens)
        assert s.mean[0] == pytest.approx(0.5, abs=1e-9)
        assert s.std[0] == pytest.approx(np.sqrt(1 / 12), abs=1e-4)


class TestEvidence:
    def test_counts_keyed_by_menu_index_and_outcome_in_first_seen_order(self):
        agent = pauli_agent(QUANTUM, 50, np.random.default_rng(13))
        for ax, j in (("Z", 1), ("X", 0), ("Z", 1), ("Z", 0), ("X", 0)):
            observe(agent, ax, j)
        assert list(agent.evidence.counts.items()) == [((2, 1), 2), ((0, 0), 2), ((2, 0), 1)]
        # R[j] @ Phi with each entry added left to right, and the kernel the
        # agent's likelihoods are computed from, those rows on the ball
        phi = QUANTUM.phi.tolist()
        for a, ax in enumerate("XYZ"):
            rows = [[0.0 + r[0] * phi[0][k] + r[1] * phi[1][k] + r[2] * phi[2][k]
                     + r[3] * phi[3][k] for k in range(4)] for r in PAULI[ax].tolist()]
            assert likelihood_rows(QUANTUM, PAULI[ax]).tolist() == rows
            assert agent.evidence.kernel[a] == affine_rows(QubitBall(), rows)
            assert agent.evidence.axes[a] == axis_classes(rows)

    def test_log_density_matches_per_observation_sum(self):
        # reference: the sum over observed cells of count * log(likelihood),
        # in first-seen order, each likelihood computed from scratch
        rng = np.random.default_rng(14)
        agent = pauli_agent(QUANTUM, 400, rng)
        cells = {}
        for _ in range(30):
            ax, j = "XYZ"[rng.integers(3)], int(rng.integers(2))
            observe(agent, ax, j)
            cells[ax, j] = cells.get((ax, j), 0) + 1
        pts = QubitBall().sample(1000, rng) * 1.05
        reference = np.zeros(len(pts))
        with np.errstate(divide="ignore"):
            for (ax, j), count in cells.items():
                reference += count * np.log(likelihood_values(QUANTUM, PAULI[ax], j, pts))
        reference[np.linalg.norm(pts, axis=1) > 1.0 + 1e-9] = -np.inf
        assert np.array_equal(log_posterior_density(agent.ensemble, pts, agent.evidence),
                              reference)


class TestResampleMove:
    def test_equal_weights_identity(self):
        ens = sample_uniform(QubitBall(), 500, np.random.default_rng(7))
        assert maybe_resample(ens, Evidence(), np.random.default_rng(8)) is ens

    def test_grid_identity(self):
        ens = grid_ensemble(Interval(), 101)
        skewed = flip(ens, 0)
        for _ in range(40):
            skewed = flip(skewed, 0)
        assert maybe_resample(skewed, Evidence(), np.random.default_rng(9)) is skewed

    def test_degenerate_weights_restore_ess(self):
        rng = np.random.default_rng(10)
        ens = sample_uniform(QubitBall(), 400, rng)
        w = np.full(400, 1e-9)
        w[7] = 1.0
        w /= w.sum()
        ens = ParticleEnsemble(ens.points, w, QubitBall())
        out = maybe_resample(ens, Evidence(), rng)
        assert out.ess() >= out.n / 2

    def test_moments_preserved(self):
        # repeated resample-move trials keep mean and covariance within MC
        # error; classical Pauli evidence (1 + r_z / 3), because quantum Pauli
        # evidence takes the exact refresh (tests/test_exact_refresh.py)
        agent = pauli_agent(CLASSICAL4, 4000, np.random.default_rng(11))
        ens = agent.ensemble
        for _ in range(25):
            observe(agent, "Z", 0)
            ens = agent.ensemble
            if ens.ess() < ens.n / 2:
                break
        assert ens.ess() < ens.n / 2  # the move step triggers
        target = posterior_summary(ens)
        means, covs = [], []
        for trial in range(30):
            out = maybe_resample(ens, agent.evidence, np.random.default_rng(200 + trial))
            assert out.ess() == pytest.approx(out.n)
            s = posterior_summary(out)
            means.append(s.mean)
            covs.append(np.diag(s.covariance))
        means = np.array(means)
        covs = np.array(covs)
        se_mean = means.std(axis=0, ddof=1) / np.sqrt(len(means))
        se_cov = covs.std(axis=0, ddof=1) / np.sqrt(len(covs))
        assert np.all(np.abs(means.mean(axis=0) - target.mean) < 3 * se_mean + 1e-3)
        assert np.all(np.abs(covs.mean(axis=0) - np.diag(target.covariance))
                      < 3 * se_cov + 1e-3)

    def test_atoms_never_move(self):
        ens = delta_ensemble([[0.0], [1.0]], [0.999, 0.001], Interval())
        out = maybe_resample(ens, Evidence(), np.random.default_rng(12))
        assert out is ens


class TestTomographyConsistency:
    def test_posterior_contracts_toward_source(self):
        # scaled-down version of the full acceptance run: outcomes drawn from
        # a fixed source state, random Pauli each step
        from qbagents.postulate import likelihood_values

        source = np.array([1.0, 0.0, 0.0])
        d30, d200 = [], []
        for seed in range(5):
            streams = np.random.default_rng(1000 + seed)
            agent = pauli_agent(QUANTUM, 2000, np.random.default_rng(seed))
            for step in range(1, 201):
                ax = "XYZ"[streams.integers(3)]
                p0 = float(likelihood_values(QUANTUM, PAULI[ax], 0, source)[0])
                j = 0 if streams.uniform() < p0 else 1
                observe(agent, ax, j)
                agent.ensemble = ens = maybe_resample(agent.ensemble, agent.evidence, streams)
                if step == 30:
                    d30.append(np.linalg.norm(ens.weights @ ens.points - source))
            d200.append(np.linalg.norm(ens.weights @ ens.points - source))
        assert np.median(d200) < np.median(d30)


SRC = Path(__file__).resolve().parents[1] / "src" / "qbagents"
BELIEF_CLASSES = {"BetaMixture", "ParticleEnsemble"}
# The agreement analysis tells count beliefs from ``BetaParams`` operands
# there, off the step path: (module, function, what is read).
AGREEMENT_SITES = {("agreement.py", "_mean_of", "isinstance"),
                   ("agreement.py", "expected_posterior", "isinstance")}


def belief_kind_reads(path: Path) -> list[tuple]:
    """(enclosing function or class, line, what) of every ``isinstance``
    against a belief class and every ``.grid`` or ``.atoms`` read in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if names & BELIEF_CLASSES:
                found.append((scope, node.lineno, "isinstance"))
        if (isinstance(node, ast.Attribute) and node.attr in ("grid", "atoms")
                and isinstance(node.ctx, ast.Load)):
            found.append((scope, node.lineno, "." + node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_inference_asks_which_belief_kind():
    # Each belief kind owns its update, refresh, likelihood form, mean,
    # summary, agent check and plot data, so no other module asks an agent's
    # belief which kind it is.
    outside = {(path.name, scope, what) for path in sorted(SRC.glob("*.py"))
               if path.name != "inference.py"
               for scope, _line, what in belief_kind_reads(path)}
    assert outside <= AGREEMENT_SITES, sorted(outside - AGREEMENT_SITES)
    # the walk does see such reads where they belong
    assert {what for _s, _l, what in belief_kind_reads(SRC / "inference.py")} >= {
        ".grid", ".atoms"}


def count_writes(path: Path) -> list[tuple]:
    """(enclosing function, line) of every store into, or mutating call on, an
    attribute named ``counts`` in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        target = None
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")):
            target = node.func.value
        if isinstance(target, ast.Attribute) and target.attr == "counts":
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_the_step_path_reads_the_agent_through_its_evidence():
    # the evidence is the agent's one record of observations: ``Evidence.add``
    # alone writes its counts, the agent keeps no copy of them, and the step
    # hands a belief only (evidence, menu index, outcome)
    writes = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
              for scope, _line in count_writes(path)]
    assert writes == [("inference.py", "add")]
    agent = pauli_agent(QUANTUM, 10, np.random.default_rng(15))
    assert not {"counts", "kernel_rows", "utility_rows"} & set(vars(agent))
    for kind in (ParticleEnsemble, BetaMixture):
        assert list(inspect.signature(kind.updated).parameters) == ["self", "evidence", "a", "j"]
    step = next(node for node in ast.walk(ast.parse((SRC / "interaction.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "_receive_and_update")
    assert not {node.attr for node in ast.walk(step) if isinstance(node, ast.Attribute)} & {
        "postulate", "matrix"}
