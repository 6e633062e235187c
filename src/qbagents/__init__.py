"""Interacting Bayesian agents with classical or quantum physical postulates.

The building blocks: validated probability machinery (``core_math``), qubit
operator algebra and the tetrahedral reference action (``quantum``), physical
postulates and valid regions (``postulate``), particle and grid inference
(``inference``), expected-utility agents (``agents``), the pairwise
interaction engine (``interaction``), closed-form agreement analysis
(``agreement``), and the scenario registry with its batch runner
(``scenarios``).
"""

from .agents import Action, Agent, UtilityFn, broadcast_point, choose_action, expected_utility, predictive
from .agreement import (
    ExpectedPosterior,
    chi,
    expected_posterior,
    kolmogorov_contraction_check,
    mean_contraction_gap,
    verify_appendix_claims,
)
from .core_math import (
    BetaParams,
    beta_mean,
    beta_posterior,
    kolmogorov_distance,
    regularized_incomplete_beta,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ImpossibleOutcomeError,
    QBAgentsError,
    RegionError,
    ValidationError,
)
from .inference import (
    BetaMixture,
    Evidence,
    ParticleEnsemble,
    PosteriorSummary,
    bayes_update,
    delta_ensemble,
    grid_ensemble,
    maybe_resample,
    posterior_summary,
    sample_uniform,
)
from .interaction import (
    ExogenousSource,
    InteractionRecord,
    RunSpec,
    Trace,
    regularize,
    run,
    sample_outcome,
)
from .postulate import (
    Interval,
    PhysicalPostulate,
    QubitBall,
    apply_postulate,
    classical_postulate,
    is_valid_state,
    phi_matrix,
    quantum_postulate,
    sqrt_phi,
)
from .quantum import (
    ReferenceAction,
    bloch_to_density,
    born_probabilities,
    conditional_matrix,
    density_to_bloch,
    frequency_operator,
    pauli_povm,
    sic_d2,
    trace_distance,
)
from .scenarios import (
    REGISTRY,
    BatchResult,
    ScenarioConfig,
    batch,
    default_config,
    emit_config,
    parse_config,
    run_config,
)

__version__ = "0.1.0"
