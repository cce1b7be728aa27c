"""Chain control sets of linear control systems on low-dimensional Lie groups."""

from .errors import IntegratorBudgetError, NotHyperbolicError, ValidationError
from .algebra import NilpotentAlgebra, bch_dynkin, preset_structure, quotient_by_central
from .spectral import (
    GradedBlocks,
    SpectralSplit,
    block_decompose,
    check_derivation,
    decay_constants,
)
from .group import (
    ConjugationMap,
    RhoAction,
    SemidirectGroup,
    validate_linear_flow,
)
from .lcs import (
    ControlFunction,
    ControlRange,
    LinearControlSystem,
    Trajectory,
    cross_check_residual,
    flow_identity_residuals,
    integrate,
    integrate_runs,
    triangular_solve,
)
from .chains import (
    ChainControlSetApprox,
    ChainGraph,
    GridWindow,
    LevelBounds,
    build_chain_graph,
    central_fiber_nodes,
    decay_certificate,
    estimate_source_constants,
    extract_chain_sets,
    level_extents,
    theoretical_bound,
)
from .config import (
    RunConfig,
    build_system,
    build_window,
    dump_config,
    parse_config,
    preset_config,
)
from .verify import acceptance_report, run_battery

__version__ = "0.1.0"

__all__ = [
    "NilpotentAlgebra",
    "bch_dynkin",
    "preset_structure",
    "quotient_by_central",
    "GradedBlocks",
    "SpectralSplit",
    "block_decompose",
    "check_derivation",
    "decay_constants",
    "ConjugationMap",
    "RhoAction",
    "SemidirectGroup",
    "validate_linear_flow",
    "ControlFunction",
    "ControlRange",
    "LinearControlSystem",
    "Trajectory",
    "cross_check_residual",
    "flow_identity_residuals",
    "integrate",
    "integrate_runs",
    "triangular_solve",
    "ChainControlSetApprox",
    "ChainGraph",
    "GridWindow",
    "LevelBounds",
    "build_chain_graph",
    "central_fiber_nodes",
    "decay_certificate",
    "estimate_source_constants",
    "extract_chain_sets",
    "level_extents",
    "theoretical_bound",
    "RunConfig",
    "build_system",
    "build_window",
    "dump_config",
    "parse_config",
    "preset_config",
    "acceptance_report",
    "run_battery",
    "ValidationError",
    "NotHyperbolicError",
    "IntegratorBudgetError",
]
