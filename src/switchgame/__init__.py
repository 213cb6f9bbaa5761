"""Solver and verifier for two-player zero-sum switching games on a 1-D state.

Computes the descending (hard floor, penalized ceiling) and ascending
(hard ceiling, penalized floor) approximations of the coupled
double-obstacle value system by monotone implicit finite differences,
checks that the two meet, and validates the values against a simulated
switching game with explicit feedback saddle strategies.
"""

from .expressions import (
    EvalContext,
    ExpressionTree,
    evaluate,
    free_variables,
    parse_expression,
    to_source,
)
from .model import (
    AssumptionReport,
    DiffusionCoefficients,
    DriverTable,
    ModeSets,
    ProblemSpec,
    SwitchCostTable,
    TerminalTable,
    ceiling,
    check_separation,
    cost_array,
    floor,
    run_all_checks,
    validate_consistency,
    validate_costs,
    validate_triangle,
)
from .grid import Grid, GeneratorStencil, build_grid, discretize_generator
from .simulate import MomentEstimate, PathBundle, SimParams, moment_estimate, simulate_paths
from .solver import (
    PenaltySchedule,
    SolveReport,
    ValueField,
    barrier_respect_check,
    decomposition_check,
    solve_clamped,
    solve_maxmin,
    solve_minmax,
    solve_single_obstacle,
    sup_gap,
)
from .game import (
    GameReport,
    PayoffEstimate,
    SwitchingStrategy,
    default_challengers,
    deterministic_dp_oracle,
    never_switch,
    oracle_optimal_strategies,
    payoff_estimate,
    saddle_strategy_player1,
    saddle_strategy_player2,
    verify_saddle,
    verify_saddle_from_fields,
)
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
