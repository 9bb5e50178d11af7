"""Correctness oracles for the benchmark, written apart from the library.

Nothing here imports ``tvpriv``: every quantity is recomputed with plain
numpy from the source (p_Y, P_{X|Y}) and the library's returned outputs,
and optimal values are re-derived by an LP solved with scipy/HiGHS.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  Tolerances are absolute and stated per check.
"""

from __future__ import annotations

import itertools

import numpy as np

T_TOL = 1e-8          # achieved leakage may exceed the budget by this much
VALUE_TOL = 1e-8      # utility recomputed from a mechanism vs reported value
LP_TOL = 1e-6         # reported optimum vs the independent LP optimum
SHAPE_TOL = 1e-9      # monotonicity and second differences of a curve
VERTEX_TOL = 1e-7     # coordinates of support points vs arrangement vertices


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def privacy_cost(P: np.ndarray, p_y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f(s) = 1/2 ||P_{X|Y} (s - p_Y)||_1 for posteriors s stacked as columns."""
    return 0.5 * np.abs(P @ (s - p_y[:, None])).sum(axis=0)


def t_xy(P: np.ndarray, p_y: np.ndarray) -> float:
    """T(X;Y) = sum_y p(y) TV(P_{X|y}, p_X): the leakage of releasing Y."""
    p_x = P @ p_y
    return 0.5 * float(p_y @ np.abs(P - p_x[:, None]).sum(axis=0))


def posterior_cost(kind: str, s: np.ndarray, y_values) -> np.ndarray:
    """Per-posterior cost whose p_U-average the optimal release minimises:
    H(Y|u) for mi, Var(Y|u) for mmse, 1 - max_y p(y|u) for perr."""
    if kind == "mi":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(s > 0, -s * np.log2(s), 0.0)
        return terms.sum(axis=0)
    if kind == "mmse":
        y = np.asarray(y_values, dtype=float)
        return (y ** 2) @ s - (y @ s) ** 2
    if kind == "perr":
        return 1.0 - s.max(axis=0)
    raise ValueError(f"unknown utility {kind!r}")


def utility_from_cost(kind: str, cost: float, p_y: np.ndarray) -> float:
    return entropy_bits(p_y) - cost if kind == "mi" else cost


# ---------------------------------------------------------------------------
# binary closed forms
# ---------------------------------------------------------------------------

def binary_closed_form(kind: str, P: np.ndarray, p_y: np.ndarray, eps: float,
                       y_values=None) -> float:
    """The paper's closed forms for |Y| = 2.

    With p = p_Y(0) and delta = ||P_{X|0} - P_{X|1}||_1, a posterior
    (q, 1-q) costs f = delta |q - p| / 2 and T(X;Y) = p (1-p) delta.  The
    optimum spends the budget on posteriors at q in {0, 1} and keeps the
    rest at p, so every utility is affine in eps up to T(X;Y):

        I(Y;U)   = H_b(p) min(1, eps / T(X;Y))
        MMSE     = (y_0 - y_1)^2 max(0, p (1-p) - eps / delta)
        Pr{Y!=U} = min(p, 1-p) max(0, 1 - eps / T(X;Y))
    """
    p = float(p_y[0])
    delta = float(np.abs(P[:, 0] - P[:, 1]).sum())
    full = p * (1.0 - p) * delta
    if kind == "mi":
        h = entropy_bits([p, 1.0 - p])
        return h if full <= 0 else h * min(1.0, eps / full)
    if kind == "mmse":
        if delta <= 0:
            return 0.0
        y0, y1 = (float(v) for v in y_values)
        return (y0 - y1) ** 2 * max(0.0, p * (1.0 - p) - eps / delta)
    if kind == "perr":
        if delta <= 0:
            return 0.0
        return min(p, 1.0 - p) * max(0.0, 1.0 - eps / full)
    raise ValueError(f"unknown utility {kind!r}")


# ---------------------------------------------------------------------------
# arrangement vertices and the independent LP
# ---------------------------------------------------------------------------

def _dedup_columns(points: np.ndarray, tol: float) -> np.ndarray:
    """Keep the first of every group of columns within ``tol`` (max-abs)."""
    if points.shape[1] == 0:
        return points
    dist = np.abs(points[:, :, None] - points[:, None, :]).max(axis=0)
    keep = np.ones(points.shape[1], dtype=bool)
    for i in range(points.shape[1]):
        if keep[i]:
            keep[i + 1:] &= dist[i, i + 1:] > tol
    return points[:, keep]


def arrangement_vertices(P: np.ndarray, p_y: np.ndarray) -> np.ndarray:
    """Vertices of {r_i . (x - p_Y) = 0} and {x_j = 0} inside the simplex.

    Every vertex is the solution of sum(x) = 1 with n-1 of those
    hyperplanes tight.  The privacy cost is affine between them and every
    posterior cost is concave, so an optimal release only needs these
    points.  Returns them as columns (|Y| x K).
    """
    n = p_y.size
    planes = [(row, float(row @ p_y)) for row in P]
    planes += [(np.eye(n)[j], 0.0) for j in range(n)]
    points = []
    for combo in itertools.combinations(range(len(planes)), n - 1):
        a = np.vstack([np.ones(n)] + [planes[i][0] for i in combo])
        b = np.array([1.0] + [planes[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if x.min() < -1e-10:
            continue
        x = np.clip(x, 0.0, None)
        points.append(x / x.sum())
    return _dedup_columns(np.array(points).T, 1e-9)


def oracle_columns(P: np.ndarray, p_y: np.ndarray, rng: np.random.Generator,
                   samples: int = 200) -> np.ndarray:
    """Candidate posteriors for the independent LP: a seeded Dirichlet
    sample of the simplex, p_Y, the simplex vertices and the arrangement
    vertices.  Without the last block the LP only bounds the optimum from
    one side; with it the LP is exact."""
    n = p_y.size
    sample = rng.dirichlet(np.ones(n), size=samples).T
    return np.hstack([sample, p_y[:, None], np.eye(n),
                      arrangement_vertices(P, p_y)])


def lp_optimum(kind: str, P: np.ndarray, p_y: np.ndarray, eps: float,
               columns: np.ndarray, y_values=None) -> float:
    """Best utility over releases whose posteriors are the given columns."""
    from scipy.optimize import linprog

    res = linprog(posterior_cost(kind, columns, y_values),
                  A_ub=privacy_cost(P, p_y, columns)[None, :], b_ub=[eps],
                  A_eq=columns, b_eq=p_y, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return utility_from_cost(kind, float(res.fun), p_y)


def check_optimum(kind: str, reported: float, oracle: float) -> list[str]:
    """The sampled posteriors never beat the reported optimum, and with the
    arrangement vertices included the two agree."""
    better = oracle - reported if kind == "mi" else reported - oracle
    if better > LP_TOL:
        return [f"{kind}: oracle LP beats reported optimum by {better:.3e}"]
    if better < -LP_TOL:
        return [f"{kind}: reported optimum beats the exact oracle LP by {-better:.3e}"]
    return []


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------

def release_stats(kind: str, P: np.ndarray, p_y: np.ndarray,
                  m_u_given_y: np.ndarray, labels, y_values) -> tuple[float, float]:
    """(T(X;U), utility) of a release channel p_{U|Y}, by plain numpy.

    The utility uses the mechanism's own labels when it has them: the
    estimate of Y for mmse and the guessed Y index for perr.
    """
    joint = m_u_given_y * p_y                       # p(u, y)
    p_u = joint.sum(axis=1)
    keep = p_u > 0
    joint, p_u = joint[keep], p_u[keep]
    post_y = joint / p_u[:, None]                   # rows p_{Y|u}
    p_x = P @ p_y
    post_x = post_y @ P.T                           # rows p_{X|u}
    t = 0.5 * float(p_u @ np.abs(post_x - p_x).sum(axis=1))
    if kind == "mi":
        util = entropy_bits(p_y) - sum(pu * entropy_bits(row)
                                       for pu, row in zip(p_u, post_y))
    elif kind == "mmse":
        y = np.asarray(y_values, dtype=float)
        est = (post_y @ y if labels is None
               else np.asarray(labels, dtype=float)[keep])
        util = float((joint * (y[None, :] - est[:, None]) ** 2).sum())
    elif kind == "perr":
        if labels is None:
            util = 1.0 - float(joint.max(axis=1).sum())
        else:
            guess = np.asarray(labels, dtype=float)[keep].astype(int)
            util = 1.0 - float(joint[np.arange(guess.size), guess].sum())
    else:
        raise ValueError(f"unknown utility {kind!r}")
    return t, float(util)


def check_mechanism(kind: str, P: np.ndarray, p_y: np.ndarray, eps: float,
                    m_u_given_y: np.ndarray, labels, y_values,
                    reported_value: float, reported_t: float) -> list[str]:
    """Leakage within budget, utility and leakage as reported, |U| <= |Y|+1."""
    problems = []
    m = np.asarray(m_u_given_y, dtype=float)
    if m.shape[0] > p_y.size + 1:
        problems.append(f"{kind}: |U| = {m.shape[0]} exceeds |Y|+1 = {p_y.size + 1}")
    if np.any(m < 0) or np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-9:
        problems.append(f"{kind}: p_U|Y is not column-stochastic")
        return problems
    t, util = release_stats(kind, P, p_y, m, labels, y_values)
    if t > eps + T_TOL:
        problems.append(f"{kind}: T(X;U) = {t:.12g} exceeds budget {eps:.12g}")
    if abs(t - reported_t) > T_TOL:
        problems.append(f"{kind}: recomputed T {t:.12g} != reported {reported_t:.12g}")
    if abs(util - reported_value) > VALUE_TOL:
        problems.append(f"{kind}: recomputed utility {util:.12g} != "
                        f"reported {reported_value:.12g}")
    return problems


def check_support(points: np.ndarray, P: np.ndarray, p_y: np.ndarray) -> list[str]:
    """The support set (columns) equals the arrangement vertices."""
    want = arrangement_vertices(P, p_y)
    if points.shape[1] != want.shape[1]:
        return [f"support set has {points.shape[1]} points, "
                f"arrangement has {want.shape[1]} vertices"]
    for x in points.T:
        if np.min(np.max(np.abs(want - x[:, None]), axis=0)) > VERTEX_TOL:
            return [f"support point {np.round(x, 6).tolist()} is not an arrangement vertex"]
    return []


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def check_curve(kind: str, P: np.ndarray, p_y: np.ndarray, eps: np.ndarray,
                values: np.ndarray, achieved: np.ndarray, y_values=None) -> list[str]:
    """Shape, endpoints, budgets and (for binary Y) closed-form agreement.

    mi is nondecreasing and concave in eps, mmse and perr nonincreasing
    and convex.  The grid ends at T(X;Y), where releasing Y is feasible,
    so mi reaches H(Y) and the other two reach 0.
    """
    problems = []
    eps, values, achieved = (np.asarray(a, dtype=float) for a in (eps, values, achieved))
    cap = t_xy(P, p_y)
    if np.any(np.diff(eps) <= 0):
        problems.append(f"{kind}: budgets not strictly increasing")
    if np.any(achieved > eps + T_TOL):
        j = int(np.argmax(achieved - eps))
        problems.append(f"{kind}: achieved T {achieved[j]:.12g} over budget {eps[j]:.12g}")
    sign = 1.0 if kind == "mi" else -1.0
    steps = sign * np.diff(values)
    if steps.size and steps.min() < -SHAPE_TOL:
        problems.append(f"{kind}: curve not monotone (step {steps.min():.3e})")
    # second differences on a possibly uneven grid: slopes must not rise (mi)
    slopes = np.diff(values) / np.diff(eps)
    bends = sign * np.diff(slopes) * np.diff(eps)[1:]
    if bends.size and bends.max() > SHAPE_TOL:
        problems.append(f"{kind}: curve not {'concave' if sign > 0 else 'convex'} "
                        f"(bend {bends.max():.3e})")
    if abs(eps[-1] - cap) > 1e-9 * max(1.0, cap):
        problems.append(f"{kind}: last budget {eps[-1]:.12g} != T(X;Y) {cap:.12g}")
    end = entropy_bits(p_y) if kind == "mi" else 0.0
    if abs(values[-1] - end) > VALUE_TOL:
        problems.append(f"{kind}: value at T(X;Y) is {values[-1]:.12g}, "
                        f"expected {end:.12g}")
    if p_y.size == 2:
        closed = np.array([binary_closed_form(kind, P, p_y, e, y_values) for e in eps])
        gap = np.max(np.abs(closed - values))
        if gap > VALUE_TOL:
            problems.append(f"{kind}: binary closed form differs by {gap:.3e}")
    return problems
