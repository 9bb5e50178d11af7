"""The two-phase Bland simplex as ``tvpriv.lp`` ran it before its one
tableau and its scale-relative pivot test: the bitwise reference that
``test_lp.eager_solve`` solves with.  Kept verbatim; do not tidy it.
"""

import numpy as np

from tvpriv.lp import OPTIMAL, UNBOUNDED
from tvpriv.tolerances import FEAS_TOL, PIVOT_TOL


def _bland_simplex(tab: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Run primal simplex on a tableau whose last row holds reduced costs.

    Entering: lowest-index column with reduced cost < -PIVOT_TOL.
    Leaving: min-ratio row, ties broken by lowest basic-variable index.
    """
    m = tab.shape[0] - 1
    max_iter = 50000
    for _ in range(max_iter):
        red = tab[-1, :n_cols]
        enter = -1
        for j in range(n_cols):
            if red[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        col = tab[:m, enter]
        best_ratio, leave = None, -1
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = tab[i, -1] / col[i]
                if (best_ratio is None or ratio < best_ratio - PIVOT_TOL
                        or (abs(ratio - best_ratio) <= PIVOT_TOL
                            and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        piv = tab[leave, enter]
        tab[leave, :] /= piv
        for i in range(tab.shape[0]):
            if i != leave and tab[i, enter] != 0.0:
                tab[i, :] -= tab[i, enter] * tab[leave, :]
        basis[leave] = enter
    raise RuntimeError("simplex iteration limit exceeded")


def _phase_one(a: np.ndarray, b: np.ndarray):
    """Find a feasible basis with artificial variables.

    Returns (tableau-rows, basis, kept_row_indices) or None if infeasible.
    Redundant rows (artificial stuck in the basis at zero with no real
    pivot available) are dropped.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))
    # phase-1 objective: minimize the sum of artificials
    tab[-1, :] = -tab[:m, :].sum(axis=0)
    tab[-1, n:n + m] = 0.0

    status = _bland_simplex(tab, basis, n + m)
    if status != OPTIMAL or tab[-1, -1] < -FEAS_TOL:
        return None

    # drive remaining artificials out of the basis or drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tab[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                keep[i] = False
                continue
            piv = tab[i, pivot_col]
            tab[i, :] /= piv
            for r in range(tab.shape[0]):
                if r != i and tab[r, pivot_col] != 0.0:
                    tab[r, :] -= tab[r, pivot_col] * tab[i, :]
            basis[i] = pivot_col

    rows = [i for i in range(m) if keep[i]]
    body = np.hstack([tab[rows, :n], tab[rows, -1:]])
    kept_basis = [basis[i] for i in rows]
    kept_original = [int(i) for i in np.nonzero(keep)[0]]
    return body, kept_basis, kept_original
