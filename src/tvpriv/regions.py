"""Sign-pattern regions of the privacy cost on the data simplex.

For a source (p_Y, P_{X|Y}) the per-release privacy cost of putting a
posterior x = p_{Y|u} on the simplex is

    f(x) = (1/2) * || P_{X|Y} (x - p_Y) ||_1,

a piecewise-affine convex function.  Fixing the sign of every term
r_i . (x - p_Y) partitions the simplex into at most 2^m polytopes on
which f is affine, and the optimal release mechanism only ever needs
posteriors drawn from the extreme points of those polytopes.  This
module enumerates the regions and their extreme points via basic
feasible solutions of the slack-augmented equality systems.  Each
region's candidate bases are gathered into stacked batches of at most
about ``_BATCH_BYTES`` of matrices, and every batch gets one rank test
and one solve; numpy runs the same LAPACK routine on each matrix of a
stack, so the points are bitwise those of a one-basis-at-a-time loop.

Enumeration cost is Theta(2^m * C(n+m, m+1)) and grows exponentially in
the number of secret symbols, so hard caps reject oversized inputs
instead of silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .probability import JointSource, Pmf
from .tolerances import (DEDUP_TOL, DIRECTION_TOL, MEMBERSHIP_TOL, RANK_TOL,
                         ZERO_FORM_TOL)

FORM_CAP = 20
Y_CAP = 10
# one batch of candidate bases holds about this many bytes of matrices, so
# memory stays bounded at the caps (m = 20, |Y| = 10: C(30, 21) ~ 14M bases)
_BATCH_BYTES = 1 << 20


class TooManyForms(ValueError):
    """More sign terms than the enumeration cap allows."""


class DegenerateSystem(RuntimeError):
    """A region misses p_Y or has no independent basis (internal bug)."""


@dataclass(frozen=True)
class LinearForm:
    """One signed term of the cost: value(x) = coeffs . x + offset.

    Built from row r of P_{X|Y} as coeffs = r, offset = -r . p_Y, so the
    value is r . (x - p_Y).  ``row`` records the source row.
    """

    coeffs: np.ndarray
    offset: float
    row: int

    def value(self, x) -> float:
        return float(np.dot(self.coeffs, x) + self.offset)


def build_linear_forms(src: JointSource) -> list[LinearForm]:
    """One form per row of P_{X|Y}, dropping rows that vanish on the simplex.

    A row with equal entries gives r . (x - p_Y) = 0 for every simplex
    point; keeping it would double the region count without adding a
    constraint.  Dropped rows are recoverable from the surviving ``row``
    indices.
    """
    forms = []
    for i in range(src.n_x):
        r = src.channel_x_given_y.matrix[i]
        if r.max() - r.min() <= ZERO_FORM_TOL:
            continue
        forms.append(LinearForm(r.copy(), -float(np.dot(r, src.p_y.probs)), i))
    return forms


def f_value(forms: list[LinearForm], x) -> float:
    """The privacy cost (1/2) sum_i |form_i(x)| of a simplex point."""
    return 0.5 * sum(abs(f.value(x)) for f in forms)


@dataclass(frozen=True)
class Region:
    """One sign-pattern polytope {x in simplex : A_tilde x <= b_tilde}.

    ``sign_pattern`` has one entry per retained form; the cost restricted
    to the region is the affine function sum_i sign_i * form_i(x) / 2.
    Regions produced by ``enumerate_regions`` are certified to contain p_Y.
    """

    sign_pattern: tuple[int, ...]
    a_tilde: np.ndarray
    b_tilde: np.ndarray

    @property
    def n_constraints(self) -> int:
        return self.a_tilde.shape[0]

    @property
    def dim(self) -> int:
        return self.a_tilde.shape[1]

    def contains(self, x) -> bool:
        return self.membership_slack(x) >= -MEMBERSHIP_TOL

    def membership_slack(self, x) -> float:
        """Smallest slack over all constraints; negative means outside."""
        x = np.asarray(x, dtype=float)
        slacks = [float((self.b_tilde - self.a_tilde @ x).min(initial=np.inf)),
                  float(x.min()), -abs(float(x.sum()) - 1.0)]
        return min(slacks)


def _direction_groups(forms: list[LinearForm]) -> list[list[int]]:
    """Group forms whose coefficient vectors are positive multiples.

    Grouped forms always share a sign, so sign enumeration runs over one
    representative per group.  Probability rows are nonnegative, hence
    negative proportionality cannot occur; forms that merely coincide up
    to sign on the simplex (without proportional coefficients) stay
    distinct, preserving the full formal region presentation.
    """
    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    for idx, form in enumerate(forms):
        v = form.coeffs
        placed = False
        for g, rep in enumerate(reps):
            scale = np.dot(rep, v) / np.dot(rep, rep)
            if scale > 0 and np.max(np.abs(v - scale * rep)) <= DIRECTION_TOL:
                groups[g].append(idx)
                placed = True
                break
        if not placed:
            groups.append([idx])
            reps.append(v)
    return groups


def enumerate_regions(forms: list[LinearForm], p_y: Pmf) -> list[Region]:
    """All sign-pattern regions, in lexicographic pattern order.

    Every pattern's region is nonempty because it contains p_Y (all forms
    vanish there); p_Y is checked as each region's certificate.
    """
    m = len(forms)
    if m > FORM_CAP:
        raise TooManyForms(f"{m} retained forms exceed the cap of {FORM_CAP}")
    n = len(p_y)
    if n > Y_CAP:
        raise TooManyForms(f"|Y| = {n} exceeds the cap of {Y_CAP}")

    groups = _direction_groups(forms)
    regions = []
    for rep_signs in itertools.product((1, -1), repeat=len(groups)):
        signs = [0] * m
        for g, s in zip(groups, rep_signs):
            for idx in g:
                signs[idx] = s
        # sign * form(x) >= 0  <=>  -sign * coeffs . x <= sign * offset
        a_tilde = np.array([-s * f.coeffs for s, f in zip(signs, forms)])
        b_tilde = np.array([s * f.offset for s, f in zip(signs, forms)])
        # reshape keeps a_tilde (0, n) when no form is retained
        region = Region(tuple(signs), a_tilde.reshape(m, n), b_tilde)
        if not region.contains(p_y.probs):
            raise DegenerateSystem(f"region {region.sign_pattern} misses p_Y")
        regions.append(region)
    return regions


def _first_seen_rows(rows: np.ndarray) -> list[int]:
    """Indices of the rows an in-order dedup keeps.

    A row is dropped when it lies within ``DEDUP_TOL`` in max-abs
    distance of an earlier kept row, so first-seen coordinates win.
    """
    kept: list[int] = []
    for i, row in enumerate(rows):
        if not kept or np.abs(rows[kept] - row).max(axis=1).min() > DEDUP_TOL:
            kept.append(i)
    return kept


def region_extreme_points(region: Region) -> list[Pmf]:
    """Extreme points of a region via basic feasible solutions.

    Slack variables turn A x <= b into equalities; together with the
    simplex equality the augmented system A' x' = b', x' >= 0 has full
    row rank, and its basic feasible solutions (invertible column bases
    with nonnegative solution) project exactly onto the region vertices.

    The (m+1)-column subsets are taken in ``itertools.combinations``
    order, in batches of about ``_BATCH_BYTES`` of stacked basis
    matrices; each batch gets one rank test and one solve over its
    full-rank members.  Points keep that order and are deduplicated
    first-seen.
    """
    m, n = region.n_constraints, region.dim
    k = m + 1
    aug = np.zeros((k, n + m))
    aug[:m, :n] = region.a_tilde
    aug[:m, n:] = np.eye(m)
    aug[m, :n] = 1.0
    rhs = np.concatenate([region.b_tilde, [1.0]])

    batch = max(1, _BATCH_BYTES // (8 * k * k))
    subsets = itertools.combinations(range(n + m), k)
    points = [np.empty((0, n))]
    found_basis = False
    while True:
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, batch)),
            dtype=np.intp).reshape(-1, k)
        if not len(cols):
            break
        stack = aug[:, cols].transpose(1, 0, 2)   # stack[b] = aug[:, cols[b]]
        full = np.linalg.matrix_rank(stack, tol=RANK_TOL) == k
        found_basis = found_basis or bool(full.any())
        cols = cols[full]
        # a (1, k, 1) right-hand side means one column per system on every
        # numpy version; a 1-D one broadcasts only from numpy 2 on
        sols = np.linalg.solve(stack[full], rhs[None, :, None])[:, :, 0]
        feasible = sols.min(axis=1) >= -DEDUP_TOL
        x = np.zeros((int(feasible.sum()), n + m))
        np.put_along_axis(x, cols[feasible], sols[feasible], axis=1)
        pts = np.clip(x[:, :n], 0.0, None)
        points.append(pts / pts.sum(axis=1, keepdims=True))
    if not found_basis:
        raise DegenerateSystem("no independent column basis in region system")
    points = np.concatenate(points)
    return [Pmf(points[i]) for i in _first_seen_rows(points)]


@dataclass(frozen=True)
class SPointSet:
    """The deduplicated union of all regions' extreme points.

    Points keep the order in which the regions, taken in pattern order,
    first produce them; near-duplicates keep the first-seen coordinates.
    ``f_values[k]`` caches the privacy cost at point k, and
    ``dropped_rows`` lists the rows of P_{X|Y} that gave no form.
    """

    points: list[Pmf]
    f_values: np.ndarray
    dropped_rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)

    def as_matrix(self) -> np.ndarray:
        """Points stacked as columns (|Y| x K), for LP assembly."""
        return np.array([p.probs for p in self.points]).T


def enumerate_spoints(src: JointSource) -> SPointSet:
    """Build the sufficient support set for optimal release posteriors."""
    forms = build_linear_forms(src)
    regions = enumerate_regions(forms, src.p_y)
    return merge_extreme_points(
        src, forms, [region_extreme_points(region) for region in regions])


def merge_extreme_points(src: JointSource, forms: list[LinearForm],
                         region_points: list[list[Pmf]]) -> SPointSet:
    """The support set from each region's extreme points, in region order.

    For callers that also need the per-region points, so that each
    region's points are computed once.
    """
    kept_rows = {f.row for f in forms}
    dropped = tuple(i for i in range(src.n_x) if i not in kept_rows)
    raw = [pt for pts in region_points for pt in pts]
    points = [raw[k] for k in _first_seen_rows(np.array([p.probs for p in raw]))]
    fvals = np.array([f_value(forms, p.probs) for p in points])
    return SPointSet(points, fvals, dropped)
