"""Nonnegative low-rank eigenpair approximation for matrix-valued operators.

The package computes the rightmost eigenpair of positivity-preserving
linear operators on matrices, constraining the eigenmatrix to be
entrywise nonnegative and of low rank.  It ships the factored
sphere-flow integrator (``rneg_solve``), dense and factored operator
types for Markov transition grids and Metzler growth-diffusion
operators, classical baselines (power iteration, truncated SVD, HALS
NMF, projector-splitting integrator), and a benchmark harness with a
small CLI (``python -m nneig``).
"""

from .matcore import (
    FactorPair,
    StationaryDirectionError,
    frobenius_inner,
    min_norm_direction,
    project_feasible_direction,
    thin_qr,
)
from .operators import (
    HadamardGrowthOperator,
    LinearMatrixOperator,
    MarkovGridOperator,
    SeparableGrowthOperator,
    flow_field,
    grid_points,
    load_operator,
    neumann_laplacian,
    operator_from_dict,
    operator_to_dict,
    rayleigh_value,
    save_operator,
    vectorize_operator,
)
from .markovgrid import (
    BlockGridSpec,
    GridValidationReport,
    RandomGridSpec,
    demo_clustered_walk,
    demo_path_walk,
    generate_block_grid,
    generate_random_grid,
    rank_one_stationary,
    stationary_vector,
    validate_grid,
)
from .lowrank import NMFResult, SVDTriple, best_scaled_error, nmf, truncated_svd
from .solvers import (
    EigenReport,
    PSIState,
    SolverError,
    krylov_reference,
    power_reference,
    psi_solve,
    residual,
    rneg_solve,
)
from .bench import (
    CSV_HEADER,
    ExperimentConfig,
    MetricsRow,
    aggregate,
    emit_csv,
    emit_text,
    evaluate_against_reference,
    negcount,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BlockGridSpec",
    "CSV_HEADER",
    "EigenReport",
    "ExperimentConfig",
    "FactorPair",
    "GridValidationReport",
    "HadamardGrowthOperator",
    "LinearMatrixOperator",
    "MarkovGridOperator",
    "MetricsRow",
    "NMFResult",
    "PSIState",
    "RandomGridSpec",
    "SVDTriple",
    "SeparableGrowthOperator",
    "SolverError",
    "StationaryDirectionError",
    "aggregate",
    "best_scaled_error",
    "demo_clustered_walk",
    "demo_path_walk",
    "emit_csv",
    "emit_text",
    "evaluate_against_reference",
    "flow_field",
    "frobenius_inner",
    "generate_block_grid",
    "generate_random_grid",
    "grid_points",
    "krylov_reference",
    "load_operator",
    "min_norm_direction",
    "negcount",
    "neumann_laplacian",
    "nmf",
    "operator_from_dict",
    "operator_to_dict",
    "power_reference",
    "project_feasible_direction",
    "psi_solve",
    "rank_one_stationary",
    "rayleigh_value",
    "residual",
    "rneg_solve",
    "run_experiment",
    "save_operator",
    "stationary_vector",
    "thin_qr",
    "truncated_svd",
    "validate_grid",
    "vectorize_operator",
    "__version__",
]
