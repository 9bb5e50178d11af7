"""The package's public names and the immutability of its value types."""

import copy
import importlib
import pickle

import numpy as np
import pytest

import tvpriv
from tvpriv import (INFEASIBLE, Channel, CostFunction, CostKind, JointSource,
                    LeakageReport, LpProblem, LpSolution, MarkovChain,
                    Mechanism, Pmf, ThreatReport, TradeoffPoint,
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
        names = type(a)._fields
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


def arrays_in(value):
    """Every ndarray reachable from ``value`` through fields, cached
    attributes, tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Value):
        yield from arrays_in([getattr(value, n) for n in value._fields])
        yield from arrays_in(getattr(value, "__dict__", {}))
    elif isinstance(value, dict):
        yield from arrays_in(list(value.values()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def named_arrays(values):
    """Arrays the walk must reach, some of them held only by another value."""
    by_type = {type(v).__name__: v for v in values}
    lp_sol = by_type["LpSolution"]
    return [lp_sol.dual, lp_sol._final_basis[0].a, by_type["Region"].a_tilde,
            by_type["LinearForm"].coeffs, by_type["SPointSet"].f_values,
            by_type["LpProblem"].a_eq]


def test_array_fields_are_read_only():
    values = every_value()
    arrays = [a for value in values for a in arrays_in(value)]
    assert not any(a.flags.writeable for a in arrays)
    assert {id(a) for a in named_arrays(values)} <= {id(a) for a in arrays}


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_values_survive_pickle_and_copy(round_trip):
    values = every_value()
    copies = [round_trip(value) for value in values]
    for value, again in zip(values, copies):
        assert same_bits(value, again), type(value).__name__
        assert not any(a.flags.writeable for a in arrays_in(again)), \
            type(value).__name__
        field = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(again, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(again, field)
    arrays = {id(a) for again in copies for a in arrays_in(again)}
    assert {id(a) for a in named_arrays(copies)} <= arrays
    assert not any(a.flags.writeable for a in named_arrays(copies))


def test_fields_are_the_slots_in_order():
    assert Pmf._fields == ("probs",)
    assert TradeoffPoint._fields == ("epsilon", "utility_value", "achieved_t")
    assert LpSolution._fields == ("status", "weights", "value", "basis",
                                  "_final_basis")
    assert repr(TradeoffPoint(0.5, 1.0, 0.25)) == (
        "TradeoffPoint(epsilon=0.5, utility_value=1.0, achieved_t=0.25)")


def test_caller_arrays_stay_writeable():
    probs = np.array([0.25, 0.75])
    c, a, b = np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    labels = np.array([1.0, 0.0])
    y_values = np.array([1.0, 0.0])
    pmf = Pmf(probs)
    problem = LpProblem(c=c, a_eq=a, b_eq=b)
    mech = Mechanism(Channel(np.eye(2)), labels)
    src = JointSource(pmf, Channel(np.eye(2)), y_values)
    for array in (probs, c, a, b, labels, y_values):
        assert array.flags.writeable
    for field in (pmf.probs, problem.c, problem.a_eq, problem.b_eq,
                  mech.u_labels, src.y_values):
        assert not field.flags.writeable
    # a float array is stored as a read-only view of the caller's array
    assert np.shares_memory(problem.a_eq, a)
    assert lp_solve(problem).status == "optimal"


def test_keyword_construction():
    point = TradeoffPoint(epsilon=0.5, utility_value=1.0, achieved_t=0.25)
    assert same_bits(point, TradeoffPoint(0.5, 1.0, 0.25))
    assert same_bits(point, TradeoffPoint(0.5, achieved_t=0.25,
                                          utility_value=1.0))
    sol = LpSolution(status=INFEASIBLE)
    assert (sol.status, sol.weights, sol.value, sol.basis, sol.dual) == (
        INFEASIBLE, None, None, (), None)
    assert LpSolution("optimal", value=1.5).value == 1.5
    cost = CostFunction(kind=CostKind.LOG_LOSS)
    assert (cost.kind, cost.menu, cost.bound_l) == (CostKind.LOG_LOSS, None,
                                                    float("inf"))
    assert CostFunction(CostKind.BRIER, bound_l=2.0).bound_l == 2.0
    rep = ThreatReport(c0_star=1.0, expected_cu_star=0.75, delta_c=0.25)
    assert (rep.bound_4lt, rep.slack, rep.mi_identity_gap) == (None, None, None)
    assert ThreatReport(1.0, 0.75, 0.25, slack=0.5).slack == 0.5


@pytest.mark.parametrize("build", [
    lambda: TradeoffPoint(0.5, 1.0),
    lambda: TradeoffPoint(0.5, 1.0, 0.25, 0.0),
    lambda: TradeoffPoint(),
    lambda: TradeoffPoint(0.5, 1.0, 0.25, extra=0.0),
    lambda: TradeoffPoint(0.5, 1.0, 0.25, epsilon=0.5),
    lambda: TradeoffPoint(epsilon=0.5, achieved_t=0.25),
    lambda: LeakageReport(*range(6)),
    lambda: LpSolution(),
    lambda: LpSolution(INFEASIBLE, extra=0.0),
    lambda: CostFunction(CostKind.BRIER, None, 2.0, 0.0),
    lambda: ThreatReport(1.0, 0.75),
    lambda: Pmf([0.5, 0.5], menu=None),
], ids=["too-few", "too-many", "none", "unknown-keyword", "repeated-keyword",
        "missing-keyword", "report-too-few", "default-none", "default-keyword",
        "default-too-many", "report-defaults-too-few", "validating-keyword"])
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
