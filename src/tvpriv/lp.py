"""A small dense linear-program solver returning basic optimal solutions.

Minimizes ``c . x`` subject to ``A_eq x = b_eq``, ``A_ub x <= b_ub`` and
``x >= 0`` with a two-phase primal simplex using Bland's anti-cycling
pivot rule.  Bland's rule guarantees termination without perturbation
machinery and is deterministic, so identical problems always return the
identical basis.  Instances produced in this package have at most a few
hundred columns, where a dense tableau is the simplest correct choice.

A problem's constraints are put in standard form once, by
:func:`standard_form`; :meth:`StandardForm.solve` then runs the simplex
for any right-hand side from the same initial tableau, so a caller that
varies only ``b`` (a trade-off curve varies its budget entry) builds and
validates the matrices once and gets the pivots, and bits, of
:func:`solve`.  Dual multipliers are solved from the final basis only
when ``LpSolution.dual`` is first read.

The solver reports infeasible and unbounded outcomes as statuses, not
exceptions: a zero privacy budget combined with incompatible marginal
constraints must surface as an ordinary infeasible result to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tolerances import FEAS_TOL, PIVOT_TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c", c)
        for name in ("a_eq", "a_ub"):
            a = getattr(self, name)
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                if a.shape[1] != c.size:
                    raise ValueError(f"{name} has {a.shape[1]} columns, expected {c.size}")
                object.__setattr__(self, name, a)
        for aname, bname in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
            a, b = getattr(self, aname), getattr(self, bname)
            if (a is None) != (b is None):
                raise ValueError(f"{aname} and {bname} must be given together")
            if b is not None:
                b = np.atleast_1d(np.asarray(b, dtype=float))
                if b.size != a.shape[0]:
                    raise ValueError(f"{bname} has {b.size} rows, expected {a.shape[0]}")
                object.__setattr__(self, bname, b)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    """A basic solution: nonzeros are confined to the (independent) basis."""

    status: str
    weights: np.ndarray | None = None
    value: float | None = None
    basis: tuple[int, ...] = ()
    # (form, kept rows, basic column of each kept row) for ``dual``
    _final_basis: tuple | None = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.status == OPTIMAL

    @cached_property
    def dual(self) -> np.ndarray | None:
        """One multiplier per original row (eq rows first), or None.

        Solved from the final basis on first read: B^T y = c_B over the
        original (unflipped) rows phase one kept, zero for dropped
        redundant rows.  None unless optimal, or if B is singular.
        """
        if self._final_basis is None:
            return None
        form, kept_rows, basis = self._final_basis
        y = np.zeros(form.a.shape[0])
        bmat = form.a[kept_rows][:, basis]
        try:
            y[kept_rows] = np.linalg.solve(bmat.T, form.c[np.array(basis, dtype=int)])
        except np.linalg.LinAlgError:
            return None
        return y


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


@dataclass(frozen=True)
class StandardForm:
    """One problem's constraints as ``A x = b, x >= 0``, right-hand side apart.

    Rows are the equality rows, then the inequality rows with one slack
    column each; ``c`` is zero on the slacks.  Built once by
    :func:`standard_form`, it solves any right-hand side ``b`` (``b_eq``
    then ``b_ub``) from the same initial tableau, so equal inputs pivot
    identically to :func:`solve`.
    """

    a: np.ndarray
    c: np.ndarray
    n_struct: int

    def solve(self, b) -> LpSolution:
        """Solve to a basic optimal solution (deterministic Bland pivoting)."""
        a, c, n_struct = self.a, self.c, self.n_struct
        m, n = a.shape
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({m},)")

        if m == 0:
            # only x >= 0 remains; bounded iff c >= 0, optimum at the origin
            if np.any(c < -PIVOT_TOL):
                return LpSolution(status=UNBOUNDED)
            x = np.zeros(n)
            return LpSolution(OPTIMAL, x[:n_struct], 0.0, (), (self, [], []))

        phase1 = _phase_one(a, b)
        if phase1 is None:
            return LpSolution(status=INFEASIBLE)
        body, basis, kept_rows = phase1
        mk = body.shape[0]

        tab = np.zeros((mk + 1, n + 1))
        tab[:mk, :] = body
        tab[-1, :n] = c
        for i, bi in enumerate(basis):
            if c[bi] != 0.0:
                tab[-1, :] -= c[bi] * tab[i, :]

        status = _bland_simplex(tab, basis, n)
        if status != OPTIMAL:
            return LpSolution(status=UNBOUNDED)

        x = np.zeros(n)
        for i, bi in enumerate(basis):
            x[bi] = max(tab[i, -1], 0.0)
        value = float(np.dot(c, x))
        return LpSolution(OPTIMAL, x[:n_struct], value, tuple(sorted(basis)),
                          (self, kept_rows, basis))


def standard_form(p: LpProblem) -> StandardForm:
    """Append slacks for the <= block."""
    blocks = []
    n = p.n_vars
    n_ub = 0 if p.a_ub is None else p.a_ub.shape[0]
    if p.a_eq is not None:
        blocks.append(np.hstack([p.a_eq, np.zeros((p.a_eq.shape[0], n_ub))]))
    if p.a_ub is not None:
        blocks.append(np.hstack([p.a_ub, np.eye(n_ub)]))
    a = np.vstack(blocks) if blocks else np.zeros((0, n))
    return StandardForm(a, np.concatenate([p.c, np.zeros(n_ub)]), n)


def _rhs(p: LpProblem) -> np.ndarray:
    parts = [b for b in (p.b_eq, p.b_ub) if b is not None]
    return np.concatenate(parts) if parts else np.zeros(0)


def solve(p: LpProblem) -> LpSolution:
    """Solve to a basic optimal solution (deterministic Bland pivoting)."""
    return standard_form(p).solve(_rhs(p))


def feasible(p: LpProblem) -> bool:
    """Phase-one feasibility test: does any x >= 0 satisfy the constraints?

    Unused by the library; kept while the benchmark tracer binds it by name.
    """
    a = standard_form(p).a
    if a.shape[0] == 0:
        return True
    return _phase_one(a, _rhs(p)) is not None
