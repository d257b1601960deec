"""Piecewise-linear solver for alpha-dissipative Hunter-Saxton solutions.

The pipeline: project an initial datum onto a uniform grid (projection),
lift the projected pair to characteristic coordinates (lagrangian), evolve
in closed form between wave-breaking events while removing the fraction
alpha of concentrating energy at each event (evolution), and push the result
back to a wave profile with its energy measure (pushforward).  Reference
solutions, error metrics, and the convergence-study harness support the
accompanying verification suite.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    CorruptStateError,
    MassMismatchError,
    NumericError,
)
from .eulerian import (
    EnergyMeasure,
    EulerianSolution,
    InitialDatum,
    PiecewiseConstant,
    PiecewiseLinear,
    eval_cumulative,
    make_multipeakon,
)
from .evolution import EventSchedule, events, evolve, total_energy
from .harness import (
    EocReport,
    ExperimentConfig,
    config_from_dict,
    dx_of_level,
    load_config,
    run_eoc,
    run_measure_rates,
    run_solve,
    write_solution_csv,
)
from .lagrangian import LagrangianState, breaking_time, to_lagrangian
from .metrics import (
    BesovEstimate,
    besov_seminorm,
    default_h_grid,
    l2_diff,
    linf_diff,
    linf_diff_sampled,
    w1,
)
from .projection import (
    ProjectedDatum,
    ProjectionConfig,
    SignRule,
    default_window,
    project,
    projection_error,
)
from .pushforward import eval_F, eval_u, to_eulerian
from .reference import (
    CosineFamily,
    CuspFamily,
    ReferenceProfile,
    ReferenceSolution,
    cosine_datum,
    cusp_datum,
    multipeakon_datum,
    multipeakon_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericError",
    "ConsistencyError",
    "MassMismatchError",
    "CorruptStateError",
    "PiecewiseLinear",
    "PiecewiseConstant",
    "EnergyMeasure",
    "InitialDatum",
    "EulerianSolution",
    "make_multipeakon",
    "eval_cumulative",
    "SignRule",
    "ProjectionConfig",
    "ProjectedDatum",
    "default_window",
    "project",
    "projection_error",
    "LagrangianState",
    "breaking_time",
    "to_lagrangian",
    "EventSchedule",
    "events",
    "evolve",
    "total_energy",
    "to_eulerian",
    "eval_u",
    "eval_F",
    "linf_diff",
    "linf_diff_sampled",
    "l2_diff",
    "w1",
    "BesovEstimate",
    "besov_seminorm",
    "default_h_grid",
    "ReferenceSolution",
    "ReferenceProfile",
    "CosineFamily",
    "CuspFamily",
    "multipeakon_exact",
    "multipeakon_datum",
    "cosine_datum",
    "cusp_datum",
    "ExperimentConfig",
    "EocReport",
    "load_config",
    "config_from_dict",
    "run_solve",
    "run_eoc",
    "run_measure_rates",
    "write_solution_csv",
    "dx_of_level",
    "__version__",
]
