"""Privacy-leakage measures for a released variable U about a secret X.

The central quantity is the average total variation distance between the
posterior p_{X|u} and the prior p_X, weighted by p_U.  Alongside it this
module computes mutual information, maximal leakage and maximum (worst
realization) information leakage, the closed-form bounds that tie all of
them to the total-variation leakage, and the post-processing / linkage
predicates that justify total variation as a privacy measure.

All logarithms are base 2; every information quantity is in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import (Channel, DimensionMismatch, Pmf, bayes_invert,
                          entropy)
from .tolerances import CHAIN_TOL

LOG2E = float(np.log2(np.e))


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance, half the L1 distance between two pmfs."""
    if len(p) != len(q):
        raise DimensionMismatch(f"alphabet sizes {len(p)} != {len(q)}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def avg_tv_leakage(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> float:
    """Average posterior-vs-prior total variation, weighted by p_U.

    Zero exactly when X and U are independent; never reaches 1 when p_x
    is strictly positive.
    """
    _check_dims(p_u, p_x_given_u, p_x)
    diffs = np.abs(p_x_given_u.matrix - p_x.probs[:, None]).sum(axis=0)
    return 0.5 * float(np.dot(p_u.probs, diffs))


def mutual_information(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> float:
    """I(X;U) in bits as the p_U-average of KL(p_{X|u} || p_X).

    Posterior zeros contribute nothing; prior zeros cannot occur because
    sources keep strictly positive marginals.
    """
    _check_dims(p_u, p_x_given_u, p_x)
    post = p_x_given_u.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(post > 0, post * np.log2(post / p_x.probs[:, None]), 0.0)
    return float(np.dot(p_u.probs, terms.sum(axis=0)))


def maximal_leakage(p_u_given_x: Channel) -> float:
    """log2 of the summed column-wise maxima of p_{U|X}.

    Measures the multiplicative gain in guessing any randomized function
    of X after observing U.  The maximum runs over all of X because the
    prior is strictly positive by source construction.
    """
    return float(np.log2(p_u_given_x.matrix.max(axis=1).sum()))


def max_info_leakage(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> float:
    """H(X) minus the smallest posterior entropy over realizations of U."""
    _check_dims(p_u, p_x_given_u, p_x)
    posterior_h = min(entropy(p_x_given_u.column(j)) for j in range(len(p_u)))
    return entropy(p_x) - posterior_h


def bounds_from_tv(t: float, p_x: Pmf) -> tuple[float, float, float]:
    """Closed-form bounds implied by a total-variation leakage level t.

    Returns ``(mi_lower, ml_upper, ml_lower)``:

    * mi_lower  = 2 log2(e) t^2            <= I(X;U)   (Pinsker + Jensen)
    * ml_upper  = log2(1 + t / min_x p(x)) >= maximal leakage
    * ml_lower  = log2(1 + t / ((|X|-1) max_x p(x))) <= maximal leakage
    """
    mi_lower = 2.0 * LOG2E * t * t
    ml_upper = float(np.log2(1.0 + t / p_x.probs.min()))
    n = len(p_x)
    if n == 1:
        ml_lower = 0.0
    else:
        ml_lower = float(np.log2(1.0 + t / ((n - 1) * p_x.probs.max())))
    return mi_lower, ml_upper, ml_lower


@dataclass(frozen=True)
class LeakageReport:
    """All leakage measures of one (p_U, p_{X|U}, p_X) triple, plus the
    bound chain they must satisfy."""

    t_leakage: float
    mutual_info_bits: float
    maximal_leakage_bits: float
    max_info_leakage_bits: float
    bound_mi_lower: float
    bound_ml_upper: float
    bound_ml_lower: float

    @property
    def slack_mi_lower(self) -> float:
        return self.mutual_info_bits - self.bound_mi_lower

    @property
    def slack_ml_upper(self) -> float:
        return self.bound_ml_upper - self.maximal_leakage_bits

    @property
    def slack_ml_lower(self) -> float:
        return self.maximal_leakage_bits - self.bound_ml_lower


def leakage_report(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> LeakageReport:
    """Compute every measure and the bound chain for one composed pair."""
    t = avg_tv_leakage(p_u, p_x_given_u, p_x)
    mi = mutual_information(p_u, p_x_given_u, p_x)
    ml = maximal_leakage(bayes_invert(p_u, p_x_given_u, p_x))
    istar = max_info_leakage(p_u, p_x_given_u, p_x)
    lo, up, lo_ml = bounds_from_tv(t, p_x)
    return LeakageReport(t, mi, ml, istar, lo, up, lo_ml)


# ---------------------------------------------------------------------------
# Markov chains A - B - C: post-processing and linkage predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovChain:
    """A chain A - B - C parametrized as (p_C, p_{B|C}, p_{A|B}).

    The factorization p(a,b,c) = p(a|b) p(b|c) p(c) is Markov by
    construction, which is what the consistency predicates assume.
    """

    p_c: Pmf
    channel_b_given_c: Channel
    channel_a_given_b: Channel

    def __post_init__(self):
        if self.channel_b_given_c.n_inputs != len(self.p_c):
            raise DimensionMismatch("p_{B|C} width must equal |C|")
        if self.channel_a_given_b.n_inputs != self.channel_b_given_c.n_outputs:
            raise DimensionMismatch("p_{A|B} width must equal |B|")

    def p_b(self) -> Pmf:
        return Pmf(self.channel_b_given_c.matrix @ self.p_c.probs)

    def p_a(self) -> Pmf:
        return Pmf(self.channel_a_given_b.matrix @ self.p_b().probs)

    def channel_a_given_c(self) -> Channel:
        return Channel(self.channel_a_given_b.matrix @ self.channel_b_given_c.matrix)


def avg_pnorm_leakage(p_w: Pmf, channel_v_given_w: Channel, p_v: Pmf,
                      order: float) -> float:
    """p_W-averaged L^p distance between posterior and prior of V.

    For ``order`` in (0,1) this uses the non-subadditive quantity
    (sum |x_i|^p)^(1/p), which is not a norm; it exists to demonstrate
    that only the L1 average satisfies the linkage inequality.
    """
    diff = np.abs(channel_v_given_w.matrix - p_v.probs[:, None])
    if np.isinf(order):
        dists = diff.max(axis=0)
    else:
        dists = (diff ** order).sum(axis=0) ** (1.0 / order)
    return float(np.dot(p_w.probs, dists))


@dataclass(frozen=True)
class SlackResult:
    """Outcome of an inequality check: truth value plus the signed slack."""

    ok: bool
    slack: float

    def __bool__(self) -> bool:
        return self.ok


def is_postprocessing_consistent(chain: MarkovChain) -> SlackResult:
    """Check T(A;B) >= T(A;C): further processing cannot leak more."""
    p_b, p_a = chain.p_b(), chain.p_a()
    t_ab = avg_tv_leakage(p_b, chain.channel_a_given_b, p_a)
    t_ac = avg_tv_leakage(chain.p_c, chain.channel_a_given_c(), p_a)
    slack = t_ab - t_ac
    return SlackResult(slack >= -CHAIN_TOL, slack)


def is_linkage_consistent(chain: MarkovChain) -> SlackResult:
    """Check T(B;C) >= T(A;C): leakage about a secondary latent variable
    is bounded by leakage about the primary one."""
    p_b, p_a = chain.p_b(), chain.p_a()
    t_bc = avg_tv_leakage(chain.p_c, chain.channel_b_given_c, p_b)
    t_ac = avg_tv_leakage(chain.p_c, chain.channel_a_given_c(), p_a)
    slack = t_bc - t_ac
    return SlackResult(slack >= -CHAIN_TOL, slack)


def lp_linkage_slack(chain: MarkovChain, order: float) -> float:
    """Linkage slack of the L^p-averaged analogue of the leakage measure.

    Negative values witness a linkage violation; this happens for every
    order other than 1 on suitable chains.
    """
    p_b, p_a = chain.p_b(), chain.p_a()
    j_bc = avg_pnorm_leakage(chain.p_c, chain.channel_b_given_c, p_b, order)
    j_ac = avg_pnorm_leakage(chain.p_c, chain.channel_a_given_c(), p_a, order)
    return j_bc - j_ac


def _check_dims(p_u: Pmf, p_x_given_u: Channel, p_x: Pmf) -> None:
    if p_x_given_u.n_inputs != len(p_u):
        raise DimensionMismatch(
            f"channel has {p_x_given_u.n_inputs} columns, p_u has {len(p_u)}")
    if p_x_given_u.n_outputs != len(p_x):
        raise DimensionMismatch(
            f"channel has {p_x_given_u.n_outputs} rows, p_x has {len(p_x)}")
