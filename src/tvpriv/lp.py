"""A small dense linear-program solver returning basic optimal solutions.

Minimizes ``c . x`` subject to ``A_eq x = b_eq``, ``A_ub x <= b_ub`` and
``x >= 0`` with a two-phase primal simplex using Bland's anti-cycling
pivot rule (Bland 1977).  Bland's rule guarantees termination without
perturbation machinery and is deterministic, so identical problems
always return the identical basis.  A row may leave the basis only if
its entry in the entering column exceeds ``PIVOT_TOL`` times that
column's scale (Harris 1973), so a tiny entry next to a large one is
never pivoted on.

Each solve builds one tableau ``[sign*A | I | sign*b]`` with a cost row.
Phase one minimises the artificial columns' sum; phase two overwrites
the cost row and prices only the structural columns, pivoting in the
same tableau.  The tableau stays dense because of what this package
asks of it: a trade-off curve's LPs have 3-4 rows, 4-9 columns, 3-4
phase-one pivots and no phase-two pivot, and a revised simplex that
re-solved its basis every iteration ran those curves 2.4-3.2 times
slower.  The widest LPs have |Y| + 1 rows and one column per support
point: 729 columns for a (7, 7) source, 2,211 for an (8, 8) one.

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

from functools import cached_property

import numpy as np

from ._value import Value, _frozen
from .tolerances import FEAS_TOL, PIVOT_TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpProblem(Value):
    """min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0."""

    __slots__ = ("c", "a_eq", "b_eq", "a_ub", "b_ub")

    def __init__(self, c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        fields = {"c": c, "a_eq": a_eq, "b_eq": b_eq, "a_ub": a_ub, "b_ub": b_ub}
        for name in ("a_eq", "a_ub"):
            a = fields[name]
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                if a.shape[1] != c.size:
                    raise ValueError(f"{name} has {a.shape[1]} columns, expected {c.size}")
                fields[name] = a
        for aname, bname in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
            a, b = fields[aname], fields[bname]
            if (a is None) != (b is None):
                raise ValueError(f"{aname} and {bname} must be given together")
            if b is not None:
                b = np.atleast_1d(np.asarray(b, dtype=float))
                if b.size != a.shape[0]:
                    raise ValueError(f"{bname} has {b.size} rows, expected {a.shape[0]}")
                fields[bname] = b
        Value.__init__(self, **fields)

    @property
    def n_vars(self) -> int:
        return self.c.size


class LpSolution(Value):
    """A basic solution: nonzeros are confined to the (independent) basis."""

    # ``_final_basis`` is (form, kept rows, basic column of each kept row),
    # from which ``dual`` is solved; ``__dict__`` holds ``dual`` once read
    __slots__ = ("status", "weights", "value", "basis", "_final_basis", "__dict__")

    def __init__(self, status: str, weights: np.ndarray | None = None,
                 value: float | None = None, basis: tuple[int, ...] = (),
                 _final_basis: tuple | None = None):
        Value.__init__(self, status, weights, value, basis, _final_basis)

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
        return _frozen(y)


def _pivot(tab: np.ndarray, r: int, q: int) -> None:
    """Pivot on entry (r, q): divide row r by it, then clear column q from
    every other row."""
    tab[r] /= tab[r, q]
    row = tab[r]
    for i, f in enumerate(tab[:, q].tolist()):
        if i != r and f != 0.0:
            tab[i] -= f * row


def _bland(tab: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Run primal simplex on a tableau whose last row holds reduced costs.

    Entering: lowest-index column of the first ``n_cols`` with reduced
    cost < -PIVOT_TOL.  Leaving: min-ratio row among entries above
    PIVOT_TOL times the column's scale, ties broken by lowest
    basic-variable index.
    """
    m = tab.shape[0] - 1
    for _ in range(50000):
        negative = (tab[m, :n_cols] < -PIVOT_TOL).nonzero()[0]
        if negative.size == 0:
            return OPTIMAL
        q = int(negative[0])
        col = tab[:m, q].tolist()
        threshold = PIVOT_TOL * max([1.0, *map(abs, col)])
        best_ratio, leave = None, -1
        for i, (entry, rhs) in enumerate(zip(col, tab[:m, -1].tolist())):
            if entry > threshold:
                ratio = rhs / entry
                if (best_ratio is None or ratio < best_ratio - PIVOT_TOL
                        or (abs(ratio - best_ratio) <= PIVOT_TOL
                            and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, leave, q)
        basis[leave] = q
    raise RuntimeError("simplex iteration limit exceeded")


class StandardForm(Value):
    """One problem's constraints as ``A x = b, x >= 0``, right-hand side apart.

    Rows are the equality rows, then the inequality rows with one slack
    column each after the ``n_struct`` structural ones; ``c`` is zero on
    the slacks.  Built once by :func:`standard_form`, it solves any
    right-hand side ``b`` (``b_eq`` then ``b_ub``) from the same initial
    tableau, so equal inputs pivot identically to :func:`solve`.
    """

    __slots__ = ("a", "c", "n_struct")

    def solve(self, b) -> LpSolution:
        """Solve to a basic optimal solution (deterministic Bland pivoting)."""
        a, c, n_struct = self.a, self.c, self.n_struct
        m, n = a.shape
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({m},)")

        # one tableau [sign*A | I | sign*b]; phase one minimises the sum
        # of the artificial columns n:n+m
        sign = np.where(b < 0, -1.0, 1.0)
        tab = np.zeros((m + 1, n + m + 1))
        tab[:m, :n] = a * sign[:, None]
        tab[:m, n:n + m] = np.eye(m)
        tab[:m, -1] = b * sign
        tab[m] = -tab[:m].sum(axis=0)
        tab[m, n:n + m] = 0.0
        basis = list(range(n, n + m))
        if _bland(tab, basis, n + m) != OPTIMAL or tab[m, -1] < -FEAS_TOL:
            return LpSolution(status=INFEASIBLE)

        # drive artificials out of the basis; a row with no structural
        # pivot is redundant and dropped
        kept = []
        for i in range(m):
            if basis[i] >= n:
                pivots = (np.abs(tab[i, :n]) > PIVOT_TOL).nonzero()[0]
                if pivots.size == 0:
                    continue
                basis[i] = int(pivots[0])
                _pivot(tab, i, basis[i])
            kept.append(i)
        if len(kept) < m:
            tab = tab[kept + [m]]
            basis = [basis[i] for i in kept]

        # phase two prices the structural columns only
        mk = len(kept)
        tab[mk] = 0.0
        tab[mk, :n] = c
        for i, bi in enumerate(basis):
            if c[bi] != 0.0:
                tab[mk] -= c[bi] * tab[i]
        if _bland(tab, basis, n) != OPTIMAL:
            return LpSolution(status=UNBOUNDED)

        x = np.zeros(n)
        for i, bi in enumerate(basis):
            x[bi] = max(tab[i, -1], 0.0)
        value = float(np.dot(c, x))
        return LpSolution(OPTIMAL, _frozen(x)[:n_struct], value,
                          tuple(sorted(basis)), (self, kept, basis))


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
    """Does any x >= 0 satisfy the constraints?

    Unused by the library; kept while the benchmark tracer binds it by name.
    """
    return standard_form(p).solve(_rhs(p)).status != INFEASIBLE
