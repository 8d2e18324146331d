"""Discrete-event simulator for distributed tree-network formation and
peer-to-peer energy redistribution among computationally weak agents."""

from .core import (
    DistributionKind,
    EnergyState,
    NodeKind,
    NodeState,
    Population,
    TreeNetwork,
    check_distribution,
    classify,
)
from .energy import (
    DepthTarget,
    IdealEnergyTable,
    IdealTarget,
    KappaTransfer,
    LambdaExchange,
    LossModel,
    RandExchange,
    compute_ideal_energies,
    depth_target,
    parse_energy_protocol,
    sample_beta,
)
from .errors import ConfigError, DomainError, InvariantError, ReplayMismatch
from .estimation import apply_estimation_rules, estimation_stabilized, true_depths
from .formation import (
    FormationProtocol,
    apply_formation_rule,
    is_formation_complete,
    load_snapshot,
    snapshot_digest,
    snapshot_lines,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    build_population,
    replay_trace,
    run_experiment,
    run_single,
)
from .metrics import (
    ConvergenceReport,
    MetricRun,
    distribution_distance,
    energy_distance,
    line_potential,
)
from .runner import simulate
from .scheduler import (
    InteractionTrace,
    RandomScheduler,
    ScriptedScheduler,
    derive_run_seed,
    make_rng,
    read_trace,
    sample_pair,
    write_trace,
)

__version__ = "0.1.0"
