"""Piecewise-linear solver for alpha-dissipative Hunter-Saxton solutions.

The pipeline: project an initial datum onto a uniform grid (projection),
lift the projected pair to characteristic coordinates (lagrangian), evolve
in closed form between wave-breaking events while removing the fraction
alpha of concentrating energy at each event (evolution), and push the result
back to a wave profile with its energy measure (pushforward).  Reference
solutions, the Wasserstein-1 energy distance (metrics) and the
convergence-study harness measure the scheme's errors.  The evaluators and
estimators that only the verification suite uses (the scalar reference
evaluators by root finding, L² and sampled sup distances, the Besov seminorm
of the datum's slope, the projection error) live in its ``tests/oracles.py``.
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
from .lagrangian import LagrangianState, to_lagrangian
from .metrics import w1
from .projection import (
    ProjectedDatum,
    ProjectionConfig,
    SignRule,
    default_window,
    project,
)
from .pushforward import to_eulerian
from .reference import (
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
    "LagrangianState",
    "to_lagrangian",
    "EventSchedule",
    "events",
    "evolve",
    "total_energy",
    "to_eulerian",
    "w1",
    "ReferenceSolution",
    "ReferenceProfile",
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
