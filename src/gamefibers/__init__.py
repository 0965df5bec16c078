"""Finite normal-form games: exact payoff evaluation, level-set geometry,
and equilibria.

The ``games`` and ``gamedoc`` names are imported with the package.  The
``affine``, ``fibers`` and ``equilibria`` modules, and the names they export,
are imported on first use (PEP 562), so a program pays for them only when it
reaches them.
"""

import importlib

from .games import (
    MAX_PROFILES,
    TAU_EVAL,
    TAU_SIMPLEX,
    Defect,
    GameSpec,
    StrategyProfile,
    deviation_payoffs,
    embed_profile,
    expected_payoff,
    is_zero_sum,
    profile_probability,
    project_to_simplex,
    pure_profile,
    random_interior_profile,
    reduce_profile,
    total_payoff,
    uniform_profile,
    unilateral_replace,
    validate_game,
)
from .gamedoc import (
    GameFormatError,
    builtin_game,
    format_number,
    parse_game,
    random_game,
    write_game,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_PROFILES",
    "TAU_EVAL",
    "TAU_SIMPLEX",
    "AffineLevelSet",
    "AffineRepresentation",
    "Defect",
    "EquilibriumReport",
    "FiberPath",
    "FiberReport",
    "GameFormatError",
    "GameSpec",
    "StrategyProfile",
    "affine_level_set",
    "best_response_gap",
    "builtin_game",
    "deviation_payoffs",
    "embed_profile",
    "expected_payoff",
    "extract_affine",
    "fiber_report",
    "find_equilibrium",
    "format_number",
    "generic_rank",
    "is_jointly_affine",
    "is_zero_sum",
    "nash_map",
    "nullspace",
    "numerical_rank",
    "parse_game",
    "payoff_jacobian",
    "profile_probability",
    "project_to_simplex",
    "pure_equilibria",
    "pure_profile",
    "random_game",
    "random_interior_profile",
    "reduce_profile",
    "simplex_interval",
    "support_enumeration",
    "total_payoff",
    "trace_fiber",
    "uniform_profile",
    "unilateral_replace",
    "validate_game",
    "verify_equilibrium",
    "write_game",
]

# the modules imported on first use, with the names of __all__ they export
_LAZY = {
    "affine": ("AffineLevelSet", "AffineRepresentation", "affine_level_set", "extract_affine",
               "is_jointly_affine", "simplex_interval"),
    "fibers": ("FiberPath", "FiberReport", "fiber_report", "generic_rank", "nullspace",
               "numerical_rank", "payoff_jacobian", "trace_fiber"),
    "equilibria": ("EquilibriumReport", "best_response_gap", "find_equilibrium", "nash_map",
                   "pure_equilibria", "support_enumeration", "verify_equilibrium"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value    # later lookups skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys() | _HOME.keys())
