"""Multistage risk-averse stochastic linear programming toolkit.

A numpy/scipy library for multistage linear recourse problems whose stage
objectives are averaged spectral risk measures (convex combinations of CVaR
levels induced by a random preference parameter), or their distributionally
robust counterparts over moment ambiguity sets. Problems are solved by
stochastic dual dynamic programming with deterministic, convergent lower and
upper bounds; small instances can be cross-checked against exact extensive
form oracles.
"""

from .risk import (
    ArsrmWeights,
    CvarDualWeights,
    DiscreteDistribution,
    PreferenceDistribution,
    StepSpectrum,
    UnsupportedConfigurationError,
    arsrm,
    arsrm_via_combination,
    arsrm_weights,
    combination_spectrum,
    cvar,
    cvar_dual_weights,
    cvar_variational,
    project_spectrum,
    quantile,
    srm,
)
from .scenario import (
    RngStream,
    ScenarioLattice,
    StageRealization,
    build_lognormal_lattice,
    build_preference_voronoi,
    preset_preference,
)
from .lp import LpError, LpModel, LpSolution, RecourseError, solve_arrays
from .extensive import (
    cost_to_go_oracle,
    dr_cost_to_go_oracle,
    extensive_form_dr,
    extensive_form_marsrm,
)
from .sddp import TrainOptions, TrainReport, train
from .dr import MomentAmbiguitySet, dr_train, worst_case_arsrm
from .benchmark import (
    AssetInstanceConfig,
    build_asset_instance,
    compare_modes,
    step_spectrum_error_bound,
    wealth_phi_integrals,
)

__version__ = "0.1.0"

__all__ = [
    "ArsrmWeights",
    "AssetInstanceConfig",
    "CvarDualWeights",
    "DiscreteDistribution",
    "LpError",
    "LpModel",
    "LpSolution",
    "MomentAmbiguitySet",
    "PreferenceDistribution",
    "RecourseError",
    "RngStream",
    "ScenarioLattice",
    "StageRealization",
    "StepSpectrum",
    "TrainOptions",
    "TrainReport",
    "UnsupportedConfigurationError",
    "arsrm",
    "arsrm_via_combination",
    "arsrm_weights",
    "build_asset_instance",
    "build_lognormal_lattice",
    "build_preference_voronoi",
    "combination_spectrum",
    "compare_modes",
    "cost_to_go_oracle",
    "cvar",
    "cvar_dual_weights",
    "cvar_variational",
    "dr_cost_to_go_oracle",
    "dr_train",
    "extensive_form_dr",
    "extensive_form_marsrm",
    "preset_preference",
    "project_spectrum",
    "quantile",
    "solve_arrays",
    "srm",
    "step_spectrum_error_bound",
    "train",
    "wealth_phi_integrals",
    "worst_case_arsrm",
]
