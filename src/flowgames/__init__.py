"""Equilibria, obedient outcome design, and information structures for
anonymous routing-style games with a continuum of players."""

from .atomic import (
    AtomicGame,
    ConvergenceRow,
    SymmetricBCE,
    bce_to_profile_distribution,
    check_bce_bruteforce,
    construct_eps_bce,
    convergence_run,
    flow_of_profile,
    wasserstein_outcome_distance,
)
from .checks import (
    AveragingReport,
    CheckReport,
    check_bce_flowlevel,
    check_bcwe,
    check_cbcwe,
    check_ccwe,
    check_cwe,
    check_sbcwe,
    obedience_rows,
    sbcwe_from_bcwe,
)
from .design import (
    DesignerProblem,
    LPSolution,
    SupportBoundReport,
    build_grid,
    ccwe_grid_gap,
    social_cost_expr,
    solve_program_p,
    support_bound_check,
)
from .gamefile import (
    GameFileError,
    format_flow_literal,
    format_quantity,
    parse_game_file,
    parse_outcome_file,
    write_game_file,
    write_outcome_file,
)
from .infostruct import (
    InformationStructure,
    StrategyProfile,
    UniquenessProbeReport,
    aggregate_flow,
    bwe_cost_uniqueness_probe,
    bwe_violation,
    direct_structure_from_bcwe,
    outcome_of_strategies,
    solve_bwe,
    validate_strategies,
)
from .lp import Certificate, exact_solve
from .model import (
    CongestionSpec,
    CostExpr,
    CostParseError,
    EvaluationError,
    FlowProfile,
    GameSpec,
    Outcome,
    Population,
    congestion_to_game,
    eval_cost,
    flow_linf,
    format_expr,
    load_profile,
    parse_cost,
    parse_rational,
    social_cost,
    uniform_flow,
    validate_game,
    vertex_flow,
)
from .wardrop import (
    WESolveResult,
    enumerate_we_grid,
    grid_flows,
    potential_value,
    solve_we_br,
    solve_we_multistart,
    solve_we_potential,
    verify_we,
)

__version__ = "0.1.0"
