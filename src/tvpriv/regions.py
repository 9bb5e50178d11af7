"""Sign-pattern regions of the privacy cost on the data simplex.

For a source (p_Y, P_{X|Y}) the per-release privacy cost of putting a
posterior x = p_{Y|u} on the simplex is

    f(x) = (1/2) * || P_{X|Y} (x - p_Y) ||_1,

a piecewise-affine convex function.  Fixing the sign of every term
r_i . (x - p_Y) partitions the simplex into at most 2^m polytopes on
which f is affine, and the optimal release mechanism only ever needs
posteriors drawn from the extreme points of those polytopes.  This
module enumerates the regions and their extreme points via basic
feasible solutions of the slack-augmented equality systems.  Points
travel as one read-only (K, |Y|) float array, one simplex point per row,
from ``extreme_points`` to the LP's columns.  The
candidate bases are gathered into stacked batches of at most about
``_BATCH_BYTES`` of matrices.  A region's sign pattern does not change
which bases are singular, so every batch gets one rank test for all
regions and one solve per region; numpy runs the same LAPACK routine on
each matrix of a stack, so the points are bitwise those of a
one-basis-at-a-time loop.

Enumeration costs C(n+m, m+1) rank tests per source plus, in each of up
to 2^m regions, one solve per full-rank basis.  That grows exponentially
in the number of secret symbols, so hard caps reject oversized inputs
instead of silently truncating.  Each region's points, and then their
union, are deduplicated in first-seen order at the cost of two sorts plus
the near pairs (``_first_seen_rows``), where comparing each raw point
with every kept one cost O(raw x kept).
"""

from __future__ import annotations

import itertools

import numpy as np

from ._value import Value, _frozen
from .probability import JointSource, Pmf
from .tolerances import (DEDUP_TOL, DIRECTION_TOL, MEMBERSHIP_TOL, RANK_TOL,
                         ZERO_FORM_TOL)

FORM_CAP = 20
Y_CAP = 10
# one batch of candidate bases holds about this many bytes of matrices, so
# memory stays bounded at the caps (m = 20, |Y| = 10: C(30, 21) ~ 14M bases)
_BATCH_BYTES = 1 << 20
# ends each cap's error message, which the CLI prints as it is
_REFUSAL = ("the region count grows exponentially with the number of secret "
            "symbols, refusing to enumerate")


class TooManyForms(ValueError):
    """More sign terms than the enumeration cap allows."""


class DegenerateSystem(RuntimeError):
    """A region misses p_Y or has no independent basis (internal bug)."""


class LinearForm(Value):
    """One signed term of the cost: coeffs . x + offset.

    Built from row r of P_{X|Y} as coeffs = r, offset = -r . p_Y, so the
    value is r . (x - p_Y).  ``row`` records the source row.
    """

    __slots__ = ("coeffs", "offset", "row")


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


def f_value(forms: list[LinearForm], x) -> float | np.ndarray:
    """The privacy cost (1/2) sum_i |form_i(x)| of a simplex point, or of
    each row of a (K, |Y|) stack of them.

    BLAS multiplies one point by another kernel than a stack, so a point's
    cost may differ from its row's in the last bit.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.array([f.coeffs for f in forms]).reshape(len(forms), x.shape[-1])
    terms = np.abs(x @ coeffs.T + np.array([f.offset for f in forms]))
    # added form by form: a .sum(axis=-1) reorders the additions from eight
    # forms on, which would move the bits of f_values and so of the LP
    total = np.zeros(x.shape[:-1])
    for term in terms.T:
        total = total + term
    return 0.5 * total


class Region(Value):
    """One sign-pattern polytope {x in simplex : A_tilde x <= b_tilde}.

    ``sign_pattern`` has one entry per retained form; the cost restricted
    to the region is the affine function sum_i sign_i * form_i(x) / 2.
    Regions produced by ``enumerate_regions`` are certified to contain p_Y.
    """

    __slots__ = ("sign_pattern", "a_tilde", "b_tilde")

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
        raise TooManyForms(f"{m} retained forms exceed the cap of {FORM_CAP}; "
                           f"{_REFUSAL}")
    n = len(p_y)
    if n > Y_CAP:
        raise TooManyForms(f"|Y| = {n} exceeds the cap of {Y_CAP}; {_REFUSAL}")

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
    """Indices of the rows an in-order dedup keeps, in increasing order.

    A row is dropped when it lies within ``DEDUP_TOL`` in max-abs
    distance of an earlier kept row, so first-seen coordinates win.  The
    rows are finite with entries of magnitude at most 1, as probability
    rows are.

    The result is exactly that of scanning the rows in order against
    every kept row, which costs O(rows x kept); this costs one lexsort,
    one sort and a check of each pair of distinct rows that share a
    projection window, nearly all of which are near pairs:
      * a row equal to an earlier one is always dropped: that one is
        either kept, or dropped by a kept row just as close to both, so
        one stable lexsort leaves each distinct row's first occurrence;
      * rows within ``DEDUP_TOL`` of each other differ by at most
        ``DEDUP_TOL * |w|_1`` along w, so sorting the distinct rows by
        ``rows @ w`` and pairing those within twice that (the factor
        absorbs the projection's rounding) finds every near pair, each
        then confirmed by the max-abs distance.  With w_j = sqrt(j + 2)
        rows that share coordinates, as facet points do, still spread
        apart; any w would be exact, a worse one only pairs more rows;
      * a row is dropped iff a confirmed earlier neighbour is kept,
        settled in order of the later index.
    """
    n_rows = len(rows)
    if n_rows < 2:
        return list(range(n_rows))
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(n_rows, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.sort(order[new])
    distinct = rows[first]
    weights = np.sqrt(np.arange(2.0, rows.shape[1] + 2.0))
    proj = distinct @ weights
    by = np.argsort(proj)
    proj = proj[by]
    width = 2.0 * DEDUP_TOL * float(weights.sum())
    # span[a] sorted positions b > a have proj[b] - proj[a] <= width
    span = (np.searchsorted(proj, proj + width, side="right")
            - np.arange(1, len(proj) + 1))
    if not span.any():
        return first.tolist()
    # each a once per partner, and b = a + 1, ..., a + span[a] beside it
    a = np.repeat(np.arange(len(proj)), span)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(span) - span, span)
    lo, hi = np.minimum(by[a], by[b]), np.maximum(by[a], by[b])
    near = np.abs(distinct[lo] - distinct[hi]).max(axis=1) <= DEDUP_TOL
    dropped: set[int] = set()
    # (later, earlier) positions in first, by later position
    for j, i in sorted(zip(hi[near].tolist(), lo[near].tolist())):
        if i not in dropped:
            dropped.add(j)
    kept = first.tolist()
    return [kept[k] for k in range(len(kept)) if k not in dropped]


def _augmented(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The slack-augmented system [A I; 1 0] x' = [b; 1] of a region."""
    m, n = region.n_constraints, region.dim
    aug = np.zeros((m + 1, n + m))
    aug[:m, :n] = region.a_tilde
    aug[:m, n:] = np.eye(m)
    aug[m, :n] = 1.0
    return aug, np.concatenate([region.b_tilde, [1.0]])


def _subset_batches(n_cols: int, k: int):
    """The k-column subsets in ``itertools.combinations`` order, as (B, k)
    index arrays of about ``_BATCH_BYTES`` of k x k matrices each."""
    batch = max(1, _BATCH_BYTES // (8 * k * k))
    subsets = itertools.combinations(range(n_cols), k)
    while True:
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, batch)),
            dtype=np.intp).reshape(-1, k)
        if not len(cols):
            return
        yield cols


def extreme_points(regions: list[Region]) -> list[np.ndarray]:
    """Extreme points of each region of one source, in region order.

    Each region's points are one read-only (K, |Y|) array, a point per row.

    Slack variables turn A x <= b into equalities; together with the
    simplex equality the augmented system A' x' = b', x' >= 0 has full
    row rank, and its basic feasible solutions (invertible column bases
    with nonnegative solution) project exactly onto the region vertices.

    The regions must share their forms up to sign, as the regions of
    ``enumerate_regions`` do.  Flipping a form's sign negates one row of
    A' and leaves its slack column, so A' changes by a row and a column
    scaled by -1 and no column subset changes rank: each batch of
    (m+1)-column subsets gets one rank test, on the first region, and
    every region solves that batch's full-rank subsets.  Each region's
    points keep ``itertools.combinations`` order and are deduplicated
    first-seen.
    """
    if not regions:
        return []
    m, n = regions[0].n_constraints, regions[0].dim
    k = m + 1
    aug0, _ = _augmented(regions[0])
    points = [[np.empty((0, n))] for _ in regions]
    found_basis = False
    for cols in _subset_batches(n + m, k):
        # stack[b] = aug[:, cols[b]]
        full = np.linalg.matrix_rank(aug0[:, cols].transpose(1, 0, 2),
                                     tol=RANK_TOL) == k
        found_basis = found_basis or bool(full.any())
        cols = cols[full]
        for region, pts in zip(regions, points):
            aug, rhs = _augmented(region)
            # a (1, k, 1) right-hand side means one column per system on
            # every numpy version; a 1-D one broadcasts only from numpy 2 on
            sols = np.linalg.solve(aug[:, cols].transpose(1, 0, 2),
                                   rhs[None, :, None])[:, :, 0]
            feasible = sols.min(axis=1) >= -DEDUP_TOL
            x = np.zeros((int(feasible.sum()), n + m))
            np.put_along_axis(x, cols[feasible], sols[feasible], axis=1)
            p = np.clip(x[:, :n], 0.0, None)
            pts.append(p / p.sum(axis=1, keepdims=True))
    if not found_basis:
        raise DegenerateSystem("no independent column basis in region system")
    out = []
    for pts in points:
        rows = np.concatenate(pts)
        kept = rows[_first_seen_rows(rows)]
        # each row sums to 1 only up to rounding; dividing once more by its
        # sum keeps the bits that the support set and the LP were pinned at
        out.append(_frozen(kept / kept.sum(axis=1, keepdims=True)))
    return out


def region_extreme_points(region: Region) -> np.ndarray:
    """Extreme points of one region: the one-region case of ``extreme_points``."""
    return extreme_points([region])[0]


class SPointSet(Value):
    """The deduplicated union of all regions' extreme points.

    ``points`` is one read-only (K, |Y|) array, a point per row.  Points
    keep the order in which the regions, taken in pattern order, first
    produce them; near-duplicates keep the first-seen coordinates.
    ``f_values[k]`` caches the privacy cost at point k, and
    ``dropped_rows`` lists the rows of P_{X|Y} that gave no form.
    """

    __slots__ = ("points", "f_values", "dropped_rows")

    def __len__(self) -> int:
        return len(self.points)

    def as_matrix(self) -> np.ndarray:
        """Points as columns (|Y| x K), for LP assembly."""
        return self.points.T


def enumerate_spoints(src: JointSource) -> SPointSet:
    """Build the sufficient support set for optimal release posteriors."""
    forms = build_linear_forms(src)
    regions = enumerate_regions(forms, src.p_y)
    return merge_extreme_points(src, forms, extreme_points(regions))


def merge_extreme_points(src: JointSource, forms: list[LinearForm],
                         region_points: list[np.ndarray]) -> SPointSet:
    """The support set from each region's extreme points, in region order.

    For callers that also need the per-region points, so that each
    region's points are computed once.
    """
    kept_rows = {f.row for f in forms}
    dropped = tuple(i for i in range(src.n_x) if i not in kept_rows)
    raw = np.concatenate(region_points)
    points = raw[_first_seen_rows(raw)]
    return SPointSet(points, f_value(forms, points), dropped)
