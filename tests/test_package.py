"""The package's public names and the immutability of its value types."""

import copy
import importlib
import pickle

import numpy as np
import pytest

import tvpriv
from tvpriv import (Channel, CostFunction, JointSource, LeakageReport,
                    LpProblem, MarkovChain, Mechanism, Pmf, TradeoffPoint,
                    build_linear_forms, compose, enumerate_regions,
                    enumerate_spoints, inference_gain, is_linkage_consistent,
                    leakage_report, lp_solve, solve_tradeoff, sweep_curve)
from tvpriv._value import Value

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


def every_value():
    """One instance of each exported value type, built by the library."""
    src = JointSource(Pmf(np.array([1 / 3, 2 / 3])),
                      Channel(np.array([[0.5, 0.3], [0.3, 0.2], [0.2, 0.5]])),
                      y_values=np.array([1.0, 0.0]))
    sol = solve_tradeoff(src, "mmse", 0.05)
    p_u, p_x_given_u, _ = compose(sol.mechanism, src)
    forms = build_linear_forms(src)
    chain = MarkovChain(src.p_y, src.channel_x_given_y, Channel(np.eye(3)))
    problem = LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    lp_sol = lp_solve(problem)
    lp_sol.dual  # cached in the instance's __dict__, which must survive too
    return [src.p_y, src.channel_x_given_y, src, sol.mechanism, sol,
            sweep_curve(src, "mmse", 3)[1],
            leakage_report(p_u, p_x_given_u, src.marginal_x()),
            chain, is_linkage_consistent(chain), problem, lp_sol, forms[0],
            enumerate_regions(forms, src.p_y)[0], enumerate_spoints(src),
            CostFunction.finite_menu([src.p_y]),
            inference_gain(CostFunction.brier(), p_u, p_x_given_u,
                           src.marginal_x())]


def same_bits(a, b) -> bool:
    """Equal type and, recursively, equal fields bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Value):
        names = [n for n in type(a).__slots__ if n != "__dict__"]
        return (same_bits([getattr(a, n) for n in names],
                          [getattr(b, n) for n in names])
                and same_bits(getattr(a, "__dict__", {}),
                              getattr(b, "__dict__", {})))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return a.keys() == b.keys() and same_bits(list(a.values()),
                                                   list(b.values()))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def test_every_exported_value_type_is_covered():
    exported = {getattr(tvpriv, name) for name in tvpriv.__all__}
    value_classes = {t for t in exported
                     if isinstance(t, type) and issubclass(t, Value)}
    assert {type(v) for v in every_value()} == value_classes


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_values_survive_pickle_and_copy(round_trip):
    for value in every_value():
        again = round_trip(value)
        assert same_bits(value, again), type(value).__name__
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(again, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(again, field)
