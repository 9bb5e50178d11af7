"""tvpriv: exact utility-privacy trade-offs for finite-alphabet data
release, with average total-variation distance as the privacy measure.

All information quantities are in bits (log base 2).

``import tvpriv`` loads no submodule: each exported name, and each
submodule, is imported on first access (PEP 562).  The names are looked
up in their submodule on every access and never stored here, so a
rebinding of the submodule's attribute is seen through the package.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "leakage", "lp", "probability", "regions", "suites",
               "threats", "tolerances", "tradeoff")

# exported name -> (submodule, attribute)
_EXPORTS = {
    **{name: ("leakage", name) for name in (
        "LeakageReport", "MarkovChain", "SlackResult", "avg_pnorm_leakage",
        "avg_tv_leakage", "bounds_from_tv", "is_linkage_consistent",
        "is_postprocessing_consistent", "leakage_report", "lp_linkage_slack",
        "max_info_leakage", "maximal_leakage", "mutual_information",
        "tv_distance")},
    **{name: ("lp", name) for name in (
        "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LpProblem", "LpSolution")},
    "lp_feasible": ("lp", "feasible"),
    "lp_solve": ("lp", "solve"),
    **{name: ("probability", name) for name in (
        "Channel", "DimensionMismatch", "JointSource", "Mechanism",
        "NegativeEntry", "Pmf", "SumNotOne", "ZeroMassSymbol", "bayes_invert",
        "compose", "entropy")},
    **{name: ("regions", name) for name in (
        "LinearForm", "Region", "SPointSet", "TooManyForms",
        "build_linear_forms", "enumerate_regions", "enumerate_spoints",
        "f_value", "region_extreme_points")},
    **{name: ("threats", name) for name in (
        "CostFunction", "CostKind", "EmptyMenu", "ThreatReport",
        "inference_gain", "optimal_belief")},
    **{name: ("tradeoff", name) for name in (
        "EmptySupport", "MissingYValues", "NotBinary", "TradeoffPoint",
        "TradeoffSolution", "UtilityKind", "mechanism_from_weights",
        "mi_binary", "mi_tradeoff_bounds", "mmse_binary", "perr_binary",
        "solve_tradeoff", "sweep_curve", "t_xy")},
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
