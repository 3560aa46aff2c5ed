"""Two-sided streaming-market toolkit.

Static logit equilibria, coupled viewer/quality dynamics, welfare
accounting with promotion-share optimization, an agent-based platform
simulation with policy interventions, evaluation metrics, and an
experiment harness with a CLI (``headfx``).
"""

from .core import (
    MarketState,
    PlatformParams,
    StreamerParams,
    TrafficAllocation,
    audience_quality_sensitivity,
    choice_probabilities,
    cost,
    deterministic_utility,
    streamer_profit,
)
from .equilibrium import (
    EquilibriumResult,
    FixedPointConfig,
    enumerate_equilibria,
    find_critical_beta,
    solve_joint_equilibrium,
)
from .dynamics import (
    IntegratorConfig,
    StabilityReport,
    Trajectory,
    assess_stability,
    hhi,
    integrate,
    jacobian,
    path_dependence_experiment,
    phase_portrait,
)
from .abm import (
    PolicyIntervention,
    RoundRecord,
    SimConfig,
    apply_policy,
    init_platform,
    run_round,
    simulate,
)
from .metrics import (
    MetricsSummary,
    gini,
    quality_improvement,
    summarize,
    top_k_share,
    viewer_mobility,
)
from .welfare import (
    AllocationSolution,
    WelfareBreakdown,
    optimize_allocation,
    simplex_project,
    total_welfare,
)
from .harness import (
    ScenarioSpec,
    SweepSpec,
    ab_compare,
    make_scenario,
    parse_config,
    parse_instance,
    run_scenario,
    sensitivity_sweep,
)

__version__ = "0.1.0"
