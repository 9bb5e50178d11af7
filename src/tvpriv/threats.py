"""Inference threat model: how much does observing U improve an attacker
who bets on the secret X against a cost function?

The attacker picks a belief q over X minimizing expected cost before any
observation, then re-optimizes per realization u.  The average gain
delta_c = c0* - E_U[c_U*] quantifies the improvement, is never negative,
and for any cost bounded by L satisfies delta_c <= 4 L T(X;U).  Only
cost families with exactly computable minimizers are supported: log-loss
and the quadratic (Brier) score are both minimized by the posterior
itself, and finite belief menus are scanned exhaustively.  Log-loss is
unbounded, so no 4LT bound is reported for it; its gain instead equals
I(X;U) exactly, which the report carries as an identity check.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._value import Value
from .leakage import avg_tv_leakage, mutual_information
from .probability import Channel, Pmf, entropy


class EmptyMenu(ValueError):
    """A finite-menu cost needs at least one belief in the menu."""


class CostKind(str, enum.Enum):
    LOG_LOSS = "log_loss"
    BRIER = "brier"
    FINITE_MENU = "finite_menu"


def _brier_expected(p: np.ndarray, q: np.ndarray) -> float:
    # E_p[ sum_x' (1{X=x'} - q(x'))^2 ] = 1 - 2 p.q + q.q
    return float(1.0 - 2.0 * np.dot(p, q) + np.dot(q, q))


class CostFunction(Value):
    """An inference cost C(x, q) with its bound L = sup |C| when finite.

    Brier over the closed simplex is bounded by 2, attained by a point
    mass off the true symbol.  Finite menus inherit the Brier score but
    restrict the attacker to the listed beliefs; L is the enumerated
    maximum over menu x alphabet.  Log-loss is unbounded.
    """

    __slots__ = ("kind", "menu", "bound_l")

    def __init__(self, kind: CostKind, menu: tuple[Pmf, ...] | None = None,
                 bound_l: float = math.inf):
        Value.__init__(self, kind, menu, bound_l)

    @classmethod
    def log_loss(cls) -> "CostFunction":
        return cls(CostKind.LOG_LOSS, None, math.inf)

    @classmethod
    def brier(cls) -> "CostFunction":
        return cls(CostKind.BRIER, None, 2.0)

    @classmethod
    def finite_menu(cls, menu) -> "CostFunction":
        menu = tuple(menu)
        if not menu:
            raise EmptyMenu("finite-menu cost requires a non-empty menu")
        n = len(menu[0])
        big = 0.0
        for q in menu:
            for x in range(n):
                e = np.zeros(n)
                e[x] = 1.0
                big = max(big, abs(float(((e - q.probs) ** 2).sum())))
        return cls(CostKind.FINITE_MENU, menu, big)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.bound_l)


def optimal_belief(cost: CostFunction, p: Pmf) -> tuple[Pmf, float]:
    """The belief minimizing expected cost under p, and its value.

    Log-loss and Brier are uniquely minimized by q = p (values H(p) and
    1 - sum p^2); finite menus are scanned with ties broken to the
    lowest menu index.
    """
    if cost.kind == CostKind.LOG_LOSS:
        return p, entropy(p)
    if cost.kind == CostKind.BRIER:
        return p, _brier_expected(p.probs, p.probs)
    if not cost.menu:
        raise EmptyMenu("finite-menu cost requires a non-empty menu")
    values = [_brier_expected(p.probs, q.probs) for q in cost.menu]
    best = int(np.argmin(values))
    return cost.menu[best], float(values[best])


class ThreatReport(Value):
    """Attacker's optimal costs before/after observing U and the gain.

    ``bound_4lt`` and ``slack`` are present only for bounded costs;
    ``mi_identity_gap`` is present only for log-loss, where the gain
    must coincide with I(X;U).  ``__slots__`` lists the fields in report
    order.
    """

    __slots__ = ("c0_star", "expected_cu_star", "delta_c", "bound_4lt", "slack",
                 "mi_identity_gap")

    def __init__(self, c0_star: float, expected_cu_star: float, delta_c: float,
                 bound_4lt: float | None = None, slack: float | None = None,
                 mi_identity_gap: float | None = None):
        Value.__init__(self, c0_star, expected_cu_star, delta_c, bound_4lt,
                       slack, mi_identity_gap)


def inference_gain(cost: CostFunction, p_u: Pmf, p_x_given_u: Channel,
                   p_x: Pmf) -> ThreatReport:
    """Compute the attacker's average inference gain and its 4LT bound."""
    _, c0 = optimal_belief(cost, p_x)
    expected = 0.0
    for j in range(len(p_u)):
        _, cu = optimal_belief(cost, Pmf(p_x_given_u.column(j)))
        expected += float(p_u.probs[j]) * cu
    delta = c0 - expected

    bound = slack = mi_gap = None
    if cost.bounded:
        t = avg_tv_leakage(p_u, p_x_given_u, p_x)
        bound = 4.0 * cost.bound_l * t
        slack = bound - delta
    if cost.kind == CostKind.LOG_LOSS:
        mi_gap = delta - mutual_information(p_u, p_x_given_u, p_x)
    return ThreatReport(c0, expected, delta, bound, slack, mi_gap)
