"""Growth-rate prices of games, least-squares prices over cones, and tooling."""

import importlib
import types

from .core import (
    BasisError,
    ConeBasis,
    DimensionMismatch,
    Game,
    GameFile,
    GameFileError,
    InvariantViolation,
    LogDomainViolation,
    Mix,
    OutcomeSpace,
    PricingError,
    Rate,
    SeriesGame,
    TruncationError,
    combine,
    constant_series,
    expectation,
    fair_coin,
    geometric_mean,
    harmonic_mean,
    load_game_file,
    mix_game,
    parse_game_file,
    st_petersburg,
    variance,
)
from .pricer import (
    KappaContext,
    PriceResult,
    REGIME_FULL,
    REGIME_INTERIOR,
    expected_log_growth,
    max_proportion,
    optimal_proportion,
    price_general,
    price_series,
    price_two_outcome_fair,
    truncate_series,
)

__version__ = "0.1.0"

# Names from the solver modules, imported on first use (PEP 562), so that
# `import gameprice` compiles only core and pricer; none of these modules
# loads numpy.
_LAZY = {
    "lsq": (
        "LsSolution",
        "big_L",
        "check_constant_mix",
        "check_linear_pricing",
        "cone_coordinates",
        "in_cone",
        "least_squares_prices",
        "ls_ratio",
        "price_in_cone",
        "reduce_to_basis",
    ),
    "portfolio": (
        "FundComparison",
        "ParityReport",
        "compare_mean_variance",
        "joint_space",
        "one_fund_weight",
        "put_call_parity",
    ),
    "simulate": (
        "SimConfig",
        "SimReport",
        "simulate_growth",
        "sweep_proportion",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}
_LAZY_MODULES = ("lsq", "portfolio", "reference", "simulate")

# the public names: the eager imports above and the lazy ones
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + list(_LAZY_NAMES)
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound on first access, so later lookups never reach __getattr__
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_MODULES})
