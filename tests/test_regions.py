import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tvpriv import (Channel, JointSource, LinearForm, Pmf, TooManyForms,
                    build_linear_forms, enumerate_regions, enumerate_spoints,
                    f_value, region_extreme_points)
from tvpriv import regions as regions_module
from tvpriv.regions import (DegenerateSystem, Region, _first_seen_rows,
                            extreme_points)
from tvpriv.tolerances import DEDUP_TOL, PROB_ATOL, RANK_TOL

from conftest import random_source


def binary_split_source(p=0.3):
    return JointSource(Pmf(np.array([p, 1 - p])), Channel(np.eye(2)))


def same_point_set(points, expected, tol=1e-9):
    points = [np.asarray(p) for p in points]
    expected = [np.asarray(e) for e in expected]
    if len(points) != len(expected):
        return False
    return all(any(np.max(np.abs(p - e)) <= tol for p in points)
               for e in expected)


def pairwise_first_seen(rows):
    """Reference dedup: scan the rows in order and keep a row unless it
    lies within ``DEDUP_TOL`` in max-abs distance of a row kept before it."""
    kept = []
    for i, row in enumerate(rows):
        if not kept or not (np.abs(rows[kept] - row).max(axis=1) <= DEDUP_TOL).any():
            kept.append(i)
    return kept


def per_basis_extreme_points(region):
    """Reference loop: one rank test and one solve per column subset.

    Returns the points as rows, in the order ``region_extreme_points``
    must return them, and the number of rank-deficient subsets.
    """
    m, n = region.n_constraints, region.dim
    aug = np.zeros((m + 1, n + m))
    aug[:m, :n] = region.a_tilde
    aug[:m, n:] = np.eye(m)
    aug[m, :n] = 1.0
    rhs = np.concatenate([region.b_tilde, [1.0]])

    points = []
    singular = 0
    for cols in itertools.combinations(range(n + m), m + 1):
        sub = aug[:, cols]
        if np.linalg.matrix_rank(sub, tol=RANK_TOL) < m + 1:
            singular += 1
            continue
        sol = np.linalg.solve(sub, rhs)
        if sol.min() < -DEDUP_TOL:
            continue
        x = np.zeros(n + m)
        x[list(cols)] = sol
        point = np.clip(x[:n], 0.0, None)
        points.append(point / point.sum())
    kept = [Pmf(points[k]).probs for k in pairwise_first_seen(np.array(points))]
    return np.array(kept), singular


class TestBuildLinearForms:
    def test_uniform_row_dropped(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        assert [f.row for f in forms] == [0, 1]
        assert np.allclose(forms[0].coeffs, [2 / 3, 1 / 3, 0.0])
        assert forms[0].offset == pytest.approx(-1 / 3, abs=1e-12)
        assert np.allclose(forms[1].coeffs, [0.0, 1 / 3, 2 / 3])
        assert forms[1].offset == pytest.approx(-1 / 3, abs=1e-12)

    def test_identity_binary(self):
        src = binary_split_source(0.3)
        forms = build_linear_forms(src)
        assert len(forms) == 2
        # x1 - p and x2 - (1 - p)
        assert np.allclose(forms[0].coeffs, [1.0, 0.0])
        assert forms[0].offset == pytest.approx(-0.3, abs=1e-12)
        assert np.allclose(forms[1].coeffs, [0.0, 1.0])
        assert forms[1].offset == pytest.approx(-0.7, abs=1e-12)

    def test_all_rows_dropped_when_independent(self, independent_source):
        assert build_linear_forms(independent_source) == []

    def test_form_cap(self):
        rng = np.random.default_rng(0)
        matrix = rng.dirichlet(np.ones(21), size=2).T
        src = JointSource(Pmf(np.array([0.5, 0.5])), Channel(matrix))
        forms = build_linear_forms(src)
        assert len(forms) == 21
        with pytest.raises(TooManyForms):
            enumerate_regions(forms, src.p_y)

    def test_alphabet_cap(self):
        n = 11
        src = JointSource(Pmf(np.ones(n) / n), Channel(np.eye(n)))
        forms = build_linear_forms(src)
        with pytest.raises(TooManyForms):
            enumerate_regions(forms, src.p_y)


class TestFValue:
    def test_zero_at_prior(self, uniform3_source, binary_source):
        for src in (uniform3_source, binary_source):
            forms = build_linear_forms(src)
            assert f_value(forms, src.p_y.probs) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_privacy_free_extreme_point(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        assert f_value(forms, np.array([0.0, 1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12)

    def test_unit_vertex(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        assert f_value(forms, np.array([1.0, 0.0, 0.0])) == pytest.approx(
            1 / 3, abs=1e-12)

    def test_stack_equals_per_form_sum_bitwise(self, uniform3_source):
        # f_values, the LP's budget row, keep the bits of this sum; the
        # (9, 3) source's nine forms pass numpy's pairwise-summation block
        rng = np.random.default_rng(139)
        sources = shared_basis_sources(uniform3_source) + [random_source(rng, 9, 3)]
        for src in sources:
            forms = build_linear_forms(src)
            points = enumerate_spoints(src).points
            want = [0.5 * sum(abs(float(np.dot(f.coeffs, x) + f.offset))
                              for f in forms) for x in points]
            assert f_value(forms, points).tolist() == want


class TestEnumerateRegions:
    def test_four_printed_systems(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        regions = enumerate_regions(forms, uniform3_source.p_y)
        assert len(regions) == 4
        printed = [
            (np.array([[-2.0, -1.0, 0.0], [0.0, -1.0, -2.0]]),
             np.array([-1.0, -1.0])),
            (np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]]),
             np.array([1.0, 1.0])),
            (np.array([[-2.0, -1.0, 0.0], [0.0, 1.0, 2.0]]),
             np.array([-1.0, 1.0])),
            (np.array([[2.0, 1.0, 0.0], [0.0, -1.0, -2.0]]),
             np.array([1.0, -1.0])),
        ]

        def normalize(a, b):
            rows = []
            for row, rhs in zip(a, b):
                scale = np.max(np.abs(row))
                rows.append(tuple(np.round(np.append(row / scale, rhs / scale),
                                           9)))
            return tuple(sorted(rows))

        got = {normalize(r.a_tilde, r.b_tilde) for r in regions}
        expected = {normalize(a, b) for a, b in printed}
        assert got == expected

    def test_single_form_splits_binary_simplex(self):
        p_y = Pmf(np.array([0.3, 0.7]))
        form = LinearForm(np.array([1.0, 0.0]), -0.3, 0)
        regions = enumerate_regions([form], p_y)
        assert len(regions) == 2
        halves = []
        for r in regions:
            pts = {tuple(np.round(p, 9)) for p in region_extreme_points(r)}
            halves.append(pts)
        assert {(0.3, 0.7), (1.0, 0.0)} in halves
        assert {(0.3, 0.7), (0.0, 1.0)} in halves

    def test_reflected_form_pair_keeps_formal_patterns(self):
        src = JointSource(Pmf(np.array([0.3, 0.7])),
                          Channel(np.array([[0.8, 0.2], [0.2, 0.8]])))
        forms = build_linear_forms(src)
        regions = enumerate_regions(forms, src.p_y)
        # the two rows reflect one hyperplane x1 = p but are formally
        # distinct, so four sign patterns survive (two are the split line)
        assert len(regions) == 4
        full = [r for r in regions
                if np.any(f_value(forms, region_extreme_points(r)) > 1e-9)]
        assert len(full) == 2

    def test_one_region_when_independent(self, independent_source):
        regions = enumerate_regions([], independent_source.p_y)
        assert len(regions) == 1
        assert regions[0].sign_pattern == ()

    def test_duplicate_rows_share_one_sign(self):
        src = JointSource(Pmf(np.array([0.5, 0.5])),
                          Channel(np.array([[0.4, 0.1], [0.4, 0.1],
                                            [0.2, 0.8]])))
        forms = build_linear_forms(src)
        assert len(forms) == 3
        regions = enumerate_regions(forms, src.p_y)
        # the two identical rows are one direction, so patterns span two
        # representatives, and the duplicates always carry the same sign
        assert len(regions) == 4
        for r in regions:
            assert r.sign_pattern[0] == r.sign_pattern[1]
            assert r.n_constraints == 3

    def test_lexicographic_order(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        regions = enumerate_regions(forms, uniform3_source.p_y)
        patterns = [r.sign_pattern for r in regions]
        assert patterns == [(1, 1), (1, -1), (-1, 1), (-1, -1)]


class TestRegionExtremePoints:
    def test_degenerate_segment(self, uniform3_source):
        forms = build_linear_forms(uniform3_source)
        regions = enumerate_regions(forms, uniform3_source.p_y)
        seg = next(r for r in regions if r.sign_pattern == (1, 1))
        pts = sorted(region_extreme_points(seg).tolist())
        assert np.allclose(pts[0], [0.0, 1.0, 0.0], atol=1e-9)
        assert np.allclose(pts[1], [0.5, 0.0, 0.5], atol=1e-9)

    def test_constraint_free_region_membership(self):
        region = Region((), np.zeros((0, 3)), np.zeros(0))
        # only the simplex constraints bind: the equality's slack is 0
        assert region.membership_slack([0.2, 0.3, 0.5]) == pytest.approx(
            0.0, abs=1e-15)
        assert region.contains([0.2, 0.3, 0.5])
        assert region.membership_slack([-0.1, 0.6, 0.5]) == pytest.approx(-0.1)
        assert not region.contains([-0.1, 0.6, 0.5])
        assert not region.contains([0.2, 0.3, 0.6])

    def test_whole_simplex_gives_unit_vectors(self):
        region = Region((), np.zeros((0, 4)), np.zeros(0))
        pts = region_extreme_points(region)
        got = sorted(tuple(np.round(p, 9)) for p in pts)
        expected = sorted(tuple(row) for row in np.eye(4))
        assert got == expected

    def test_binary_split_halves(self):
        src = binary_split_source(0.3)
        forms = build_linear_forms(src)
        regions = enumerate_regions(forms, src.p_y)
        union = set()
        for r in regions:
            for p in region_extreme_points(r):
                union.add(tuple(np.round(p, 9)))
        assert union == {(0.3, 0.7), (1.0, 0.0), (0.0, 1.0)}


class TestBatchedBases:
    def _regions(self, uniform3_source, shapes):
        rng = np.random.default_rng(131)
        out = [Region((), np.zeros((0, 4)), np.zeros(0))]
        forms = build_linear_forms(uniform3_source)
        out += [r for r in enumerate_regions(forms, uniform3_source.p_y)
                if r.sign_pattern == (1, 1)]
        for nx, ny in shapes:
            src = random_source(rng, nx, ny)
            out += enumerate_regions(build_linear_forms(src), src.p_y)
        return out

    def _assert_matches_loop(self, regions):
        singular = 0
        for region in regions:
            want, n_singular = per_basis_extreme_points(region)
            singular += n_singular
            got = region_extreme_points(region)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert singular > 0

    def test_bitwise_equal_to_per_basis_loop(self, uniform3_source):
        self._assert_matches_loop(
            self._regions(uniform3_source, [(4, 4), (5, 5), (6, 6)]))

    @pytest.mark.parametrize("batch_bytes", [1, 600])
    def test_small_batches(self, uniform3_source, monkeypatch, batch_bytes):
        # 1 byte means one subset per batch, so the degenerate segment runs
        # batches with no full-rank subset; 600 bytes gives 3 to 75 subsets
        monkeypatch.setattr(regions_module, "_BATCH_BYTES", batch_bytes)
        self._assert_matches_loop(self._regions(uniform3_source, [(4, 4)]))

    def test_no_basis_raises(self, monkeypatch):
        monkeypatch.setattr(regions_module, "_BATCH_BYTES", 1)
        region = Region((), np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(DegenerateSystem):
            region_extreme_points(region)
        with pytest.raises(DegenerateSystem):
            extreme_points([region, region])


def proportional_and_constant_source():
    """Rows 0 and 1 are proportional, row 2 is constant (so dropped)."""
    r0 = np.array([0.2, 0.4, 0.1, 0.3])
    rows = [r0, 0.5 * r0, np.full(4, 0.3)]
    return JointSource(Pmf(np.array([0.1, 0.2, 0.3, 0.4])),
                       Channel(np.vstack(rows + [1.0 - sum(rows)])))


def shared_basis_sources(uniform3_source):
    """Seeded (4,4), (5,5), (6,6) sources, uniform3, and a source with a
    proportional and a constant row."""
    rng = np.random.default_rng(137)
    sources = [random_source(rng, nx, ny) for nx, ny in [(4, 4), (5, 5), (6, 6)]]
    return sources + [uniform3_source, proportional_and_constant_source()]


def source_regions(uniform3_source):
    """Each of ``shared_basis_sources``' region lists."""
    return [enumerate_regions(build_linear_forms(src), src.p_y)
            for src in shared_basis_sources(uniform3_source)]


def rank_masks(region):
    """The region's own full-rank mask of each batch of column subsets."""
    aug, _ = regions_module._augmented(region)
    k, n_cols = aug.shape
    return [np.linalg.matrix_rank(aug[:, cols].transpose(1, 0, 2), tol=RANK_TOL) == k
            for cols in regions_module._subset_batches(n_cols, k)]


def batch_count(region):
    """How many batches one region's column subsets make."""
    m, n = region.n_constraints, region.dim
    k = m + 1
    per_batch = max(1, regions_module._BATCH_BYTES // (8 * k * k))
    return math.ceil(math.comb(n + m, k) / per_batch)


class TestSharedBases:
    """One rank test per batch of column subsets, shared by every region."""

    def test_shared_mask_is_each_regions_own(self, uniform3_source):
        singular = 0
        for regions in source_regions(uniform3_source):
            shared = rank_masks(regions[0])
            singular += sum(int((~mask).sum()) for mask in shared)
            for region in regions[1:]:
                own = rank_masks(region)
                assert len(own) == len(shared)
                assert all(np.array_equal(a, b) for a, b in zip(own, shared))
        assert singular > 0

    @pytest.mark.slow
    def test_points_equal_per_basis_loop(self, uniform3_source, monkeypatch):
        every = source_regions(uniform3_source)
        want = [[per_basis_extreme_points(r)[0] for r in regions]
                for regions in every]
        for batch_bytes in [regions_module._BATCH_BYTES, 1, 600]:
            monkeypatch.setattr(regions_module, "_BATCH_BYTES", batch_bytes)
            for regions, expected in zip(every, want):
                got = extreme_points(regions)
                assert len(got) == len(regions)
                for pts, exp in zip(got, expected):
                    assert pts.shape == exp.shape
                    assert np.array_equal(pts, exp)

    # 16 KiB batches split the (6,6) regions' 792 subsets into 20 batches
    @pytest.mark.parametrize("batch_bytes", [None, 1 << 14])
    def test_one_rank_test_per_batch(self, uniform3_source, monkeypatch,
                                     batch_bytes):
        if batch_bytes is not None:
            monkeypatch.setattr(regions_module, "_BATCH_BYTES", batch_bytes)
        calls = []
        original = np.linalg.matrix_rank

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        n_regions, batches = set(), set()
        for src in shared_basis_sources(uniform3_source):
            regions = enumerate_regions(build_linear_forms(src), src.p_y)
            n_regions.add(len(regions))
            batches.add(batch_count(regions[0]))
            calls.clear()
            enumerate_spoints(src)
            assert len(calls) == batch_count(regions[0])
        assert len(n_regions) > 2
        assert max(batches) > 1 if batch_bytes else max(batches) == 1


def facet_points(rng, count, width):
    """Simplex points with about half their coordinates exactly 0."""
    pts = rng.dirichlet(np.ones(width), size=count)
    pts[rng.random((count, width)) < 0.5] = 0.0
    pts[pts.sum(axis=1) == 0.0, 0] = 1.0
    return pts / pts.sum(axis=1, keepdims=True)


def near_copies(rng, base, count, offsets):
    """``count`` rows drawn from ``base``, each coordinate moved by one of
    ``offsets`` (in units of ``DEDUP_TOL``) with probability 1/3."""
    rows = base[rng.integers(0, len(base), size=count)]
    moves = rng.choice(offsets, size=rows.shape) * DEDUP_TOL
    return rows + np.where(rng.random(rows.shape) < 1 / 3, moves, 0.0)


# in units of DEDUP_TOL; 1e-7 of it is rounding-sized
OFFSETS = [0.0, 1e-7, -1e-7, 0.5, -0.5, 0.95, -0.95, 1.0, -1.0, 1.5, -1.5,
           3.0, -3.0]


def dedup_family():
    """Seeded inputs for the dedup: (name, rows)."""
    rng = np.random.default_rng(149)
    for width in range(1, 11):
        yield f"empty-{width}", np.empty((0, width))
        yield f"one-{width}", rng.dirichlet(np.ones(width))[None]
        for case in range(6):
            base = facet_points(rng, int(rng.integers(1, 15)), width)
            rows = near_copies(rng, base, int(rng.integers(2, 80)), OFFSETS)
            yield f"facets-{width}-{case}", rows
            # whole rows moved: near pairs then differ by up to DEDUP_TOL
            # times the weight sum along a positive projection
            picks = base[rng.integers(0, len(base), size=len(rows))]
            shifts = rng.choice(OFFSETS, size=(len(rows), 1)) * DEDUP_TOL
            yield f"shifted-{width}-{case}", picks + shifts
            # exact repeats of rows that are themselves dropped or kept
            yield f"repeats-{width}-{case}", rows[rng.integers(0, len(rows),
                                                                size=len(rows))]
    # a chain a, b, c, ... along one coordinate, 0.6 DEDUP_TOL apart, so
    # neighbours are near and rows two apart are not; each order
    chain = np.tile([0.25, 0.25, 0.5], (7, 1))
    chain[:, 0] += 0.6 * DEDUP_TOL * np.arange(7)
    yield "chain", chain
    yield "chain-reversed", chain[::-1]
    yield "chain-shuffled", chain[rng.permutation(7)]
    # the size of a (6,6) merge: ~300 points, each seen about six times
    base = facet_points(rng, 300, 6)
    yield "merge-sized", near_copies(rng, base, 2000, [0.0, 1e-7, 0.5, -1.0, 3.0])


class TestFirstSeenRows:
    """``_first_seen_rows`` keeps exactly the rows the pairwise scan keeps."""

    @pytest.mark.parametrize("rows", [pytest.param(rows, id=name)
                                      for name, rows in dedup_family()])
    def test_matches_pairwise_scan(self, rows):
        assert _first_seen_rows(rows) == pairwise_first_seen(rows)

    def test_family_has_dropped_rows_and_chains(self):
        dropped = kept_near = 0
        for _, rows in dedup_family():
            kept = np.zeros(len(rows), dtype=bool)
            kept[pairwise_first_seen(rows)] = True
            dropped += int((~kept).sum())
            # a kept row near an earlier dropped row: a chain link
            kept_near += sum(
                bool((np.abs(rows[:i][~kept[:i]] - rows[i]).max(axis=1) <= DEDUP_TOL).any())
                for i in np.flatnonzero(kept))
        assert dropped > 1000
        assert kept_near > 20

    def test_chains_and_repeats(self):
        a = np.array([0.25, 0.25, 0.5])
        b, c = a + [0.6 * DEDUP_TOL, 0, 0], a + [1.2 * DEDUP_TOL, 0, 0]
        # b goes with a; c is near only b, which is gone, so c stays
        assert _first_seen_rows(np.array([a, b, c])) == [0, 2]
        assert _first_seen_rows(np.array([c, b, a])) == [0, 2]
        # b first takes both neighbours
        assert _first_seen_rows(np.array([b, a, c])) == [0]
        # repeats of a dropped row go too, wherever they stand
        assert _first_seen_rows(np.array([a, b, b, c, b])) == [0, 3]
        assert _first_seen_rows(np.array([b, a, a, c])) == [0]

    def test_offsets_at_and_beyond_tolerance(self):
        base = np.array([0.0, 0.125, 0.375, 0.5])
        for scale in (1.0, -1.0, 1.5, -1.5, 3.0, -3.0):
            for j in range(4):
                moved = base.copy()
                moved[j] += scale * DEDUP_TOL
                rows = np.array([base, moved, base])
                want = pairwise_first_seen(rows)
                assert _first_seen_rows(rows) == want
                if abs(scale) > 1.0:
                    assert want == [0, 1]

    @pytest.mark.parametrize("shape", [(5, 5), (6, 6)])
    def test_source_rows(self, monkeypatch, shape):
        seen = []
        original = regions_module._first_seen_rows

        def recorded(rows):
            seen.append(rows)
            return original(rows)

        monkeypatch.setattr(regions_module, "_first_seen_rows", recorded)
        rng = np.random.default_rng(151)
        for _ in range(2):
            enumerate_spoints(random_source(rng, *shape))
        assert max(len(rows) for rows in seen) > 300
        for rows in seen:
            assert original(rows) == pairwise_first_seen(rows)

    def test_enumeration_memory(self):
        # an in-order pass over near pairs holds a few rows per pair; a
        # window that pairs rows sharing a coordinate held about three
        # times the 0.7 MiB that enumeration itself needs
        rng = np.random.default_rng(157)
        for _ in range(2):
            src = random_source(rng, 6, 6)
            enumerate_spoints(src)  # first-call allocations are not the dedup's
            tracemalloc.start()
            try:
                enumerate_spoints(src)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.2 * 2**20


class TestEnumerateSPoints:
    def test_points_are_read_only_probability_rows(self, uniform3_source):
        for src in shared_basis_sources(uniform3_source):
            regions = enumerate_regions(build_linear_forms(src), src.p_y)
            sp = enumerate_spoints(src)
            for pts in [*extreme_points(regions), sp.points]:
                assert pts.ndim == 2 and pts.shape[1] == src.n_y
                assert not pts.flags.writeable
                # what Pmf checked of each point when points were Pmfs
                assert pts.min() >= 0.0
                assert np.abs(pts.sum(axis=1) - 1.0).max() <= PROB_ATOL
            assert sp.as_matrix().shape == (src.n_y, len(sp))
            with pytest.raises(ValueError):
                sp.points[0, 0] = 0.5

    def test_builds_no_pmf(self, uniform3_source, monkeypatch):
        sources = shared_basis_sources(uniform3_source)
        built = []
        validate = Pmf.__init__

        def counting(self, probs):
            built.append(self)
            validate(self, probs)

        monkeypatch.setattr(Pmf, "__init__", counting)
        for src in sources:
            enumerate_spoints(src)
        assert built == []

    def test_dedup_matches_pairwise_scan(self):
        rng = np.random.default_rng(127)
        base = rng.dirichlet(np.ones(4), size=12)
        shift = rng.choice([0.0, 5e-10, 3e-9], size=(60, 1))
        rows = base[rng.integers(0, 12, size=60)] + shift
        kept = pairwise_first_seen(rows)
        assert _first_seen_rows(rows) == kept
        # 3e-9 shifts are new points, 5e-10 shifts merge with their twin
        assert 12 < len(kept) < 60

    def test_binary_structure(self, binary_source):
        sp = enumerate_spoints(binary_source)
        assert same_point_set(sp.points,
                              [(1 / 3, 2 / 3), (1.0, 0.0), (0.0, 1.0)])
        assert sp.dropped_rows == ()

    def test_uniform3_contents(self, uniform3_source):
        sp = enumerate_spoints(uniform3_source)
        got = {tuple(np.round(p, 9)) for p in sp.points}
        assert (0.0, 1.0, 0.0) in got
        assert (0.5, 0.0, 0.5) in got
        for v in np.eye(3):
            assert tuple(v) in got
        assert len(sp) == 4
        assert sp.dropped_rows == (2,)

    def test_independent_source_vertices_only(self, independent_source):
        sp = enumerate_spoints(independent_source)
        got = sorted(tuple(np.round(p, 9)) for p in sp.points)
        assert got == sorted(tuple(v) for v in np.eye(3))
        assert np.all(sp.f_values == 0.0)

    def test_every_point_in_some_region(self, uniform3_source, binary_source):
        for src in (uniform3_source, binary_source):
            forms = build_linear_forms(src)
            regions = enumerate_regions(forms, src.p_y)
            sp = enumerate_spoints(src)
            for point in sp.points:
                best = max(r.membership_slack(point) for r in regions)
                assert best >= -1e-9


class TestGeometricInvariants:
    def _sources(self):
        rng = np.random.default_rng(101)
        out = [random_source(rng, nx, ny)
               for nx, ny in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2)]]
        return out

    def test_every_region_contains_prior(self):
        for src in self._sources():
            regions = enumerate_regions(build_linear_forms(src), src.p_y)
            for region in regions:
                assert region.contains(src.p_y.probs)

    def test_coverage_of_random_samples(self):
        rng = np.random.default_rng(103)
        for src in self._sources():
            forms = build_linear_forms(src)
            regions = enumerate_regions(forms, src.p_y)
            samples = rng.dirichlet(np.ones(src.n_y), size=2000)
            for x in samples:
                best = max(r.membership_slack(x) for r in regions)
                assert best >= -1e-9

    def test_affine_inside_each_region(self):
        rng = np.random.default_rng(107)
        for src in self._sources():
            forms = build_linear_forms(src)
            regions = enumerate_regions(forms, src.p_y)
            for region in regions:
                pts = region_extreme_points(region)
                if len(pts) < 2:
                    continue
                for _ in range(20):
                    w1 = rng.dirichlet(np.ones(len(pts)))
                    w2 = rng.dirichlet(np.ones(len(pts)))
                    x1 = pts.T @ w1
                    x2 = pts.T @ w2
                    lam = rng.uniform()
                    mix = lam * x1 + (1 - lam) * x2
                    expect = lam * f_value(forms, x1) + \
                        (1 - lam) * f_value(forms, x2)
                    assert f_value(forms, mix) == pytest.approx(expect,
                                                                abs=1e-9)

    def test_global_convexity(self):
        rng = np.random.default_rng(109)
        for src in self._sources():
            forms = build_linear_forms(src)
            for _ in range(200):
                x1 = rng.dirichlet(np.ones(src.n_y))
                x2 = rng.dirichlet(np.ones(src.n_y))
                lam = rng.uniform()
                mix = lam * x1 + (1 - lam) * x2
                bound = lam * f_value(forms, x1) + \
                    (1 - lam) * f_value(forms, x2)
                assert f_value(forms, mix) <= bound + 1e-9

    def test_vertices_are_extreme(self):
        # a region point is extreme iff its active constraints pin it
        # uniquely, i.e. it cannot be the midpoint of two region points
        for src in self._sources():
            forms = build_linear_forms(src)
            regions = enumerate_regions(forms, src.p_y)
            for region in regions:
                for x in region_extreme_points(region):
                    assert region.membership_slack(x) >= -1e-9
                    active = [np.ones(src.n_y)]
                    resid = region.a_tilde @ x - region.b_tilde
                    for i in range(region.n_constraints):
                        if abs(resid[i]) <= 1e-8:
                            active.append(region.a_tilde[i])
                    for j in range(src.n_y):
                        if x[j] <= 1e-9:
                            e = np.zeros(src.n_y)
                            e[j] = 1.0
                            active.append(e)
                    rank = np.linalg.matrix_rank(np.array(active), tol=1e-10)
                    assert rank == src.n_y

    def test_cross_check_hyperplane_oracle(self):
        # independent vertex enumeration for |Y| <= 3: intersect every
        # pair (or singleton for |Y|=2) of candidate hyperplanes with the
        # simplex and keep feasible points
        rng = np.random.default_rng(113)
        sources = [random_source(rng, nx, ny)
                   for nx, ny in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                  (4, 3)]]
        for src in sources:
            forms = build_linear_forms(src)
            regions = enumerate_regions(forms, src.p_y)
            n = src.n_y
            for region in regions:
                rows = [region.a_tilde[i] for i in range(region.n_constraints)]
                rhs = [region.b_tilde[i] for i in range(region.n_constraints)]
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = -1.0
                    rows.append(e)
                    rhs.append(0.0)
                oracle = []
                for combo in itertools.combinations(range(len(rows)), n - 1):
                    mat = np.vstack([np.array([rows[i] for i in combo]).reshape(
                        n - 1, n), np.ones((1, n))])
                    vec = np.array([rhs[i] for i in combo] + [1.0])
                    if np.linalg.matrix_rank(mat, tol=1e-10) < n:
                        continue
                    x = np.linalg.lstsq(mat, vec, rcond=None)[0]
                    if np.max(np.abs(mat @ x - vec)) > 1e-8:
                        continue
                    if region.membership_slack(x) < -1e-8:
                        continue
                    if not any(np.max(np.abs(x - q)) <= 1e-8 for q in oracle):
                        oracle.append(x)
                bfs = region_extreme_points(region)
                assert len(bfs) == len(oracle)
                for x in oracle:
                    assert any(np.max(np.abs(x - q)) <= 1e-8 for q in bfs)
