"""The package's public names and the immutability of its value types."""

import importlib

import numpy as np
import pytest

import tvpriv
from tvpriv import (Channel, JointSource, LeakageReport, Mechanism, Pmf,
                    TradeoffPoint, solve_tradeoff)

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "leakage": ["LeakageReport", "MarkovChain", "SlackResult",
                "avg_pnorm_leakage", "avg_tv_leakage", "bounds_from_tv",
                "is_linkage_consistent", "is_postprocessing_consistent",
                "leakage_report", "lp_linkage_slack", "max_info_leakage",
                "maximal_leakage", "mutual_information", "tv_distance"],
    "lp": ["INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LpProblem", "LpSolution"],
    "probability": ["Channel", "DimensionMismatch", "JointSource", "Mechanism",
                    "NegativeEntry", "Pmf", "SumNotOne", "ZeroMassSymbol",
                    "bayes_invert", "compose", "entropy"],
    "regions": ["LinearForm", "Region", "SPointSet", "TooManyForms",
                "build_linear_forms", "enumerate_regions", "enumerate_spoints",
                "f_value", "region_extreme_points"],
    "threats": ["CostFunction", "CostKind", "EmptyMenu", "ThreatReport",
                "inference_gain", "optimal_belief"],
    "tradeoff": ["EmptySupport", "MissingYValues", "NotBinary", "TradeoffPoint",
                 "TradeoffSolution", "UtilityKind", "mechanism_from_weights",
                 "mi_binary", "mi_tradeoff_bounds", "mmse_binary",
                 "perr_binary", "solve_tradeoff", "sweep_curve", "t_xy"],
}
TARGETS = {name: (module, name) for module, names in PUBLIC.items()
           for name in names}
TARGETS.update(lp_feasible=("lp", "feasible"), lp_solve=("lp", "solve"))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_public_name_is_the_submodule_object(name):
    module, attr = TARGETS[name]
    namespace = {}
    exec(f"from tvpriv import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"tvpriv.{module}"), attr)
    assert name in dir(tvpriv)
    # looked up afresh on each access, so a rebinding in the submodule shows
    assert name not in vars(tvpriv)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        tvpriv.no_such_name
    with pytest.raises(ImportError):
        exec("from tvpriv import no_such_name", {})


def value_types():
    src = JointSource(Pmf(np.array([1 / 3, 2 / 3])),
                      Channel(np.array([[0.5, 0.3], [0.3, 0.2], [0.2, 0.5]])))
    sol = solve_tradeoff(src, "mutual_information", 0.05)
    return {
        "Pmf": (src.p_y, "probs"),
        "Channel": (src.channel_x_given_y, "matrix"),
        "JointSource": (src, "y_values"),
        "Mechanism": (sol.mechanism, "u_labels"),
        "TradeoffSolution": (sol, "utility_value"),
        "TradeoffPoint": (TradeoffPoint(0.0, 1.0, 0.0), "utility_value"),
        "LeakageReport": (LeakageReport(*range(7)), "t_leakage"),
    }


@pytest.mark.parametrize("kind", ["Pmf", "Channel", "JointSource", "Mechanism",
                                  "TradeoffSolution", "TradeoffPoint",
                                  "LeakageReport"])
def test_values_are_immutable(kind):
    value, field = value_types()[kind]
    before = getattr(value, field)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is before
    assert type(value).__name__ in repr(value)
