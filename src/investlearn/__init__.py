"""Solver and validator for irreversible investment under learning.

A firm expands capacity irreversibly while learning, from noisy demand,
whether an unknown binary state favors investment.  The package solves the
free boundary of the associated singular control problem, assembles the
candidate value surface, validates it by PDE residuals and Monte Carlo,
and solves the finite-expansion (ladder) variant, cross-checked by an
independent finite-difference solve of its stopping problems.
"""

__version__ = "0.1.0"

from .boundary import (
    BoundaryCurve,
    IntegrationError,
    load_curve,
    save_curve,
    solve_boundary,
)
from .config import RunConfig, load_config
from .discrete import (
    DiscreteLadder,
    check_discrete_monotone,
    discrete_verification_suite,
    ladder_from_spec,
    solve_ladder,
    value_iteration_oracle,
)
from .model import (
    ConfigError,
    HyperbolicGamma,
    LinearNoise,
    ModelParams,
    RateSpec,
    SqrtExpansion,
    Tabulated,
    check_conditions,
    fundamental_G,
    gamma,
    rho,
    spec_from_dict,
    stopping_threshold_c,
    stopping_value_v,
    zero_level_B,
)
from .simulate import (
    SimConfig,
    SimResult,
    filter_calibration,
    sample_trajectory,
    simulate_strategies,
    stop_at_c_reference,
)
from .value import ValueSurface, verify_surface

__all__ = [
    "__version__",
    "BoundaryCurve",
    "ConfigError",
    "DiscreteLadder",
    "HyperbolicGamma",
    "IntegrationError",
    "LinearNoise",
    "ModelParams",
    "RateSpec",
    "RunConfig",
    "SimConfig",
    "SimResult",
    "SqrtExpansion",
    "Tabulated",
    "ValueSurface",
    "check_conditions",
    "check_discrete_monotone",
    "discrete_verification_suite",
    "filter_calibration",
    "fundamental_G",
    "gamma",
    "ladder_from_spec",
    "load_config",
    "load_curve",
    "rho",
    "sample_trajectory",
    "save_curve",
    "simulate_strategies",
    "solve_boundary",
    "solve_ladder",
    "spec_from_dict",
    "stop_at_c_reference",
    "stopping_threshold_c",
    "stopping_value_v",
    "value_iteration_oracle",
    "verify_surface",
    "zero_level_B",
]
