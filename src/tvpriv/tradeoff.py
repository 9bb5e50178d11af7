"""Exact utility-privacy trade-offs under a total-variation leakage budget.

Given a source (p_Y, P_{X|Y}), a utility kind and a leakage budget eps,
the optimal release mechanism maximizes utility of U about Y subject to
T(X;U) <= eps.  For binary Y all three utilities admit closed forms; in
general the problem reduces to a linear program whose columns are the
sign-region extreme points of the data simplex:

    minimize    sum_i w_i phi(s_i)
    subject to  sum_i w_i f(s_i) <= eps     (privacy budget)
                sum_i w_i s_i     = p_Y     (marginal consistency)
                w >= 0

with phi the per-posterior cost of the chosen utility.  A basic optimal
solution has at most |Y|+1 nonzero weights, which is exactly the release
alphabet bound, and the mechanism is read off as p_U(u_i) = w_i,
p_{Y|u_i} = s_i.

Budgets are clamped to [0, T(X;Y)]: beyond T(X;Y) releasing Y itself is
feasible, so larger requests change nothing and are not errors.
"""

from __future__ import annotations

import enum

import numpy as np

from . import lp
from ._value import Value
from .leakage import LOG2E, avg_tv_leakage, mutual_information
from .probability import Channel, JointSource, Mechanism, entropy
from .regions import SPointSet, enumerate_spoints
from .tolerances import INDEPENDENCE_TOL, SUPPORT_TOL


class MissingYValues(ValueError):
    """Squared-error utility requires numeric y_values on the source."""


class NotBinary(ValueError):
    """Operation defined only for binary data alphabets."""


class EmptySupport(ValueError):
    """A weight vector with no mass cannot define a mechanism."""


class UtilityKind(str, enum.Enum):
    MUTUAL_INFORMATION = "mutual_information"
    MMSE = "mmse"
    ERROR_PROBABILITY = "error_probability"


def t_xy(src: JointSource) -> float:
    """T(X;Y): the leakage of releasing Y itself, and the useful budget cap."""
    return avg_tv_leakage(src.p_y, src.channel_x_given_y, src.marginal_x())


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def mi_binary(p: float, delta_l1: float, eps: float) -> float:
    """Closed-form best I(Y;U) for binary Y under budget eps.

    ``delta_l1`` is the L1 distance between the two conditional columns
    of P_{X|Y}; zero means X is independent of Y and the budget is
    vacuous, so the full entropy H_b(p) is achievable.
    """
    h = binary_entropy(p)
    scale = p * (1 - p) * delta_l1
    if scale <= 0.0:
        return h
    return min(1.0, eps / scale) * h


def mmse_binary(p: float, delta_l1: float, eps: float,
                y1: float, y2: float) -> float:
    """Closed-form best MMSE for binary Y with values (y1, y2)."""
    if delta_l1 <= 0.0:
        return 0.0
    return max(0.0, p * (1 - p) - eps / delta_l1) * (y1 - y2) ** 2


def perr_binary(p: float, delta_l1: float, eps: float) -> float:
    """Closed-form best error probability for binary Y."""
    if delta_l1 <= 0.0:
        return 0.0
    return min(p, 1 - p) * max(0.0, 1.0 - eps / (p * (1 - p) * delta_l1))


class TradeoffSolution(Value):
    """One solved budget point: value, optimal mechanism, achieved leakage,
    at the effective (clamped) budget ``epsilon``."""

    __slots__ = ("epsilon", "epsilon_requested", "utility_value", "mechanism",
                 "achieved_t")


class TradeoffPoint(Value):
    __slots__ = ("epsilon", "utility_value", "achieved_t")


def _phi(kind: UtilityKind, cols: np.ndarray, src: JointSource) -> np.ndarray:
    """Per-posterior objective costs phi(s_i) of the columns of ``cols``."""
    if kind == UtilityKind.MUTUAL_INFORMATION:
        return np.array([entropy(cols[:, i]) for i in range(cols.shape[1])])
    if kind == UtilityKind.MMSE:
        yv = src.y_values
        mean = yv @ cols
        return yv ** 2 @ cols - mean ** 2
    if kind == UtilityKind.ERROR_PROBABILITY:
        return -cols.max(axis=0)
    raise ValueError(f"unknown utility kind {kind!r}")


def _value_from_lp(kind: UtilityKind, lp_value: float, h_y: float) -> float:
    if kind == UtilityKind.MUTUAL_INFORMATION:
        return h_y - lp_value
    if kind == UtilityKind.MMSE:
        return lp_value
    return 1.0 + lp_value


def mechanism_from_weights(weights: np.ndarray, spoints: SPointSet,
                           src: JointSource, kind: UtilityKind) -> Mechanism:
    """Assemble the release channel from optimal support weights.

    Support points become U symbols with p_U(u_i) = w_i and posterior
    p_{Y|u_i} = s_i, so p_{U|Y}(u_i|y) = w_i s_i(y) / p_Y(y).  Labels:
    the conditional mean of Y for squared error (which attains the MMSE
    lower bound with equality), the posterior mode index for error
    probability (ties to the lowest index), none for mutual information.

    A point becomes a U symbol when some entry of its p_{U|Y} row exceeds
    ``SUPPORT_TOL``.  Its weight alone does not decide: a Y symbol with
    p_Y(y) below the tolerance may be carried only by points of smaller
    weight, and dropping them would leave that column empty.
    """
    weights = np.asarray(weights, dtype=float)
    spread = (spoints.as_matrix() * weights).T / src.p_y.probs  # K x |Y|
    support = np.flatnonzero((spread > SUPPORT_TOL).any(axis=1))
    if support.size == 0:
        raise EmptySupport("no support point carries mass above the support tolerance")
    w = weights[support]
    w = w / w.sum()
    cols = spoints.as_matrix()[:, support]           # |Y| x |U|
    channel_u_given_y = (cols * w).T / src.p_y.probs  # |U| x |Y|
    # marginal consistency makes columns stochastic up to LP tolerance
    channel_u_given_y /= channel_u_given_y.sum(axis=0)

    labels = None
    if kind == UtilityKind.MMSE:
        labels = src.y_values @ cols
    elif kind == UtilityKind.ERROR_PROBABILITY:
        labels = np.argmax(cols, axis=0).astype(float)
    return Mechanism(Channel(channel_u_given_y), labels)


class _TradeoffLp(Value):
    """The budget-independent part of the trade-off LP for one source and
    utility.  ``form`` holds the LP's rows, budget row last; it is None
    when no retained form costs leakage."""

    __slots__ = ("kind", "spoints", "p_y", "t_cap", "h_y", "form")

    def clamp(self, eps: float) -> float:
        return min(max(float(eps), 0.0), self.t_cap)


def _prepare_lp(src: JointSource, kind: UtilityKind,
                spoints: SPointSet | None = None) -> _TradeoffLp:
    kind = UtilityKind(kind)
    if kind == UtilityKind.MMSE and src.y_values is None:
        raise MissingYValues("mmse utility needs y_values on the source")
    t_cap = t_xy(src)
    if spoints is None:
        spoints = enumerate_spoints(src)
    form = None
    f_values = spoints.f_values
    if f_values.size and np.any(f_values > 0):
        cols = spoints.as_matrix()
        # the budget entry of b_ub is set per solve by ``_solve_lp``
        form = lp.standard_form(lp.LpProblem(
            c=_phi(kind, cols, src), a_eq=cols, b_eq=src.p_y.probs,
            a_ub=f_values[None, :], b_ub=np.zeros(1)))
    return _TradeoffLp(kind, spoints, src.p_y.probs, t_cap,
                       entropy(src.p_y), form)


def _solve_lp(prep: _TradeoffLp,
              eps_eff: float) -> tuple[float, float, np.ndarray | None]:
    """Solve at one clamped budget: ``(utility value, achieved T, weights)``.

    Without a costly form (X independent of Y) any release is free, so
    the value is that of releasing Y itself and ``weights`` is None.
    """
    if prep.form is None:
        full = prep.h_y if prep.kind == UtilityKind.MUTUAL_INFORMATION else 0.0
        return full, 0.0, None
    sol = prep.form.solve(np.append(prep.p_y, eps_eff))
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"trade-off LP returned status {sol.status!r}")
    value = _value_from_lp(prep.kind, sol.value, prep.h_y)
    return value, float(np.dot(sol.weights, prep.spoints.f_values)), sol.weights


def solve_tradeoff(src: JointSource, kind: UtilityKind, eps: float,
                   spoints: SPointSet | None = None) -> TradeoffSolution:
    """Solve one budget point exactly; see the module docstring for the LP."""
    if np.isnan(eps):
        raise ValueError("budget eps must be a number, got nan")
    prep = _prepare_lp(src, kind, spoints)
    eps_eff = prep.clamp(eps)
    value, achieved, weights = _solve_lp(prep, eps_eff)
    if weights is None:
        # X independent of Y: any release is free, so release Y itself
        labels = None
        if prep.kind == UtilityKind.MMSE:
            labels = src.y_values
        elif prep.kind == UtilityKind.ERROR_PROBABILITY:
            labels = np.arange(src.n_y, dtype=float)
        mech = Mechanism.identity(src.n_y, labels)
    else:
        mech = mechanism_from_weights(weights, prep.spoints, src, prep.kind)
    return TradeoffSolution(eps_eff, float(eps), value, mech, achieved)


def sweep_curve(src: JointSource, kind: UtilityKind,
                grid_size: int) -> list[TradeoffPoint]:
    """Solve an even budget grid over [0, T(X;Y)] and return the curve.

    One LP is built per curve: the support set, costs and the LP's
    standard form are computed once, and each grid point sets only the
    budget entry of the right-hand side.  Every point is a cold solve from
    the same initial tableau, so it equals ``solve_tradeoff`` at the same
    budget exactly; no mechanism is assembled and no duals are computed.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    prep = _prepare_lp(src, kind)
    points = []
    for j in range(grid_size):
        eps = prep.t_cap * j / (grid_size - 1)
        value, achieved, _ = _solve_lp(prep, prep.clamp(eps))
        points.append(TradeoffPoint(eps, value, achieved))
    return points


def mi_tradeoff_bounds(src: JointSource, eps_mi: float):
    """Bounds on the trade-off when mutual information is the privacy
    measure, for binary Y.

    Returns ``(lower, upper_linear, upper_tv)`` for a budget
    I(X;U) <= eps_mi:

    * lower        = H(Y) eps_mi / I(X;Y)      (chord of the region)
    * upper_linear = eps_mi + H(Y|X)           (linear outer bound)
    * upper_tv     = the closed-form total-variation trade-off evaluated
      at the leakage level sqrt(eps_mi / (2 log2 e)), valid because that
      level of total variation is implied by the mutual-information
      budget; it beats the linear bound at small eps_mi.
    """
    if src.n_y != 2:
        raise NotBinary("mutual-information trade-off bounds need |Y| = 2")
    p = float(src.p_y.probs[0])
    cols = src.channel_x_given_y.matrix
    delta_l1 = float(np.abs(cols[:, 0] - cols[:, 1]).sum())
    h_y = entropy(src.p_y)
    i_xy = mutual_information(src.p_y, src.channel_x_given_y, src.marginal_x())
    lower = h_y if i_xy <= INDEPENDENCE_TOL else h_y * eps_mi / i_xy
    upper_linear = eps_mi + (h_y - i_xy)
    upper_tv = mi_binary(p, delta_l1, float(np.sqrt(eps_mi / (2.0 * LOG2E))))
    return lower, upper_linear, upper_tv
