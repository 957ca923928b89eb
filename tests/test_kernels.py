"""Enumeration kernels: candidate boxes, the doubling subset-sum table
against the indicator-matrix product it replaced, and the constraint filter,
with agreement between the one-chunk and the row-chunked filter and a bound
on the filter's memory. Each kernel is also checked against exact Python
sums at reaches on each side of the int8, int16 and int32 limits, where it
changes type, and those checks catch a type one size too narrow."""
import itertools
import tracemalloc

import numpy as np
import pytest

from narrow_types import THRESHOLDS, holds, one_size_too_narrow
from permutokit import _kernels


class TestZeroSumBox:
    def test_small_counts(self):
        # zero-sum points with coords in [-B, B]
        assert _kernels.zero_sum_box(2, 1).shape == (3, 2)
        assert _kernels.zero_sum_box(3, 1).shape == (7, 3)
        assert _kernels.zero_sum_box(2, 3).shape == (7, 2)

    def test_zero_variables(self):
        assert _kernels.zero_sum_box(0, 2).shape == (1, 0)

    def test_one_variable(self):
        box = _kernels.zero_sum_box(1, 5)
        assert box.tolist() == [[0]]

    def test_rows_sum_to_zero_and_stay_in_window(self):
        box = _kernels.zero_sum_box(4, 2)
        assert (box.sum(axis=1) == 0).all()
        assert (np.abs(box) <= 2).all()

    def test_lex_sorted_unique(self):
        box = _kernels.zero_sum_box(3, 2)
        rows = [tuple(r) for r in box.tolist()]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)

    def test_cached_array_is_read_only(self):
        box = _kernels.zero_sum_box(3, 1)
        with pytest.raises(ValueError):
            box[0, 0] = 99


class TestRangedSumBox:
    def test_binary_split(self):
        box = _kernels.ranged_sum_box(
            np.array([0, 0], dtype=np.int64), np.array([1, 1], dtype=np.int64), 1
        )
        assert sorted(map(tuple, box.tolist())) == [(0, 1), (1, 0)]

    def test_empty_when_bounds_cross(self):
        box = _kernels.ranged_sum_box(
            np.array([2], dtype=np.int64), np.array([1], dtype=np.int64), 1
        )
        assert box.shape[0] == 0

    def test_zero_variables(self):
        assert _kernels.ranged_sum_box(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
        ).shape == (1, 0)
        assert _kernels.ranged_sum_box(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 3
        ).shape[0] == 0

    def test_rows_hit_total_within_bounds(self):
        lo = np.array([-1, 0, 1], dtype=np.int64)
        hi = np.array([2, 2, 3], dtype=np.int64)
        box = _kernels.ranged_sum_box(lo, hi, 4)
        assert box.shape[0] > 0
        assert (box.sum(axis=1) == 4).all()
        assert (box >= lo).all() and (box <= hi).all()

    def test_grid_above_the_row_budget_is_refused(self):
        # the first n - 1 sides span 4097 * 4096 = 2^24 + 4096 rows, charged
        # half a step each against the 2^22 of the work budget
        with pytest.raises(ValueError, match="16781312 candidate rows .* 8390656 units"):
            _kernels.ranged_sum_box([0, 0, 0], [4096, 4095, 0], 0)


def _indicator(n, masks):
    """One 0/1 row per bitmask: the indicator-matrix formulation of subset
    sums that the doubling table replaced, kept here as its oracle."""
    masks = np.asarray(masks, dtype=np.int64)
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _direct(cands, bounds):
    n = cands.shape[1]
    return (cands @ _indicator(n, range(1 << n)).T <= bounds).all(axis=1)


def _reach(cands):
    """n * coord_max: no subset sum of a row of cands exceeds it."""
    return cands.shape[1] * int(np.abs(cands).max(initial=0))


def _random_instance(rng, n_masks, n, n_cands):
    """Candidates and a bound per subset: n_masks random masks get a bound
    in [-3, 3], every other subset one no candidate sum reaches."""
    bounds = np.full(1 << n, 4 * n, dtype=np.int64)
    bounds[rng.integers(0, 1 << n, size=n_masks)] = rng.integers(-3, 4, size=n_masks)
    cands = rng.integers(-4, 5, size=(n_cands, n)).astype(np.int64)
    return cands, bounds


class TestSubsetSums:
    def test_matches_indicator_product(self):
        rng = np.random.default_rng(3)
        for n in range(9):
            rows = rng.integers(-9, 10, size=(37, n)).astype(np.int64)
            got = _kernels.subset_sums(rows, 9 * n)
            assert got.dtype == _kernels.exact_type(9 * n) and got.shape == (1 << n, 37)
            assert (got == _indicator(n, range(1 << n)) @ rows.T).all()

    def test_rows_at_the_edge_of_the_int64_range(self):
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            # the largest |x_i| check_int64_window admits on n coordinates
            top = ((1 << 62) - 1) // n
            _kernels.check_int64_window(n, top)
            with pytest.raises(ValueError):
                _kernels.check_int64_window(n, top + 1)
            signs = rng.choice([-1, 0, 1], size=(40, n))
            rows = np.vstack([np.full((2, n), top), np.full((2, n), -top), signs * top])
            got = _kernels.subset_sums(rows, n * top)
            exact = [
                [sum(int(v) for k, v in enumerate(row) if m >> k & 1) for row in rows]
                for m in range(1 << n)
            ]
            assert got.tolist() == exact
            assert (got == _indicator(n, range(1 << n)) @ rows.T).all()

    def test_empty_row_block(self):
        assert _kernels.subset_sums(np.zeros((0, 3), dtype=np.int64), 0).shape == (8, 0)
        assert _kernels.subset_sums(np.zeros((2, 0), dtype=np.int64), 0).tolist() == [[0, 0]]


class TestLatticeFilter:
    def test_matches_direct_check(self):
        rng = np.random.default_rng(11)
        cands, bounds = _random_instance(rng, 4, 3, 60)
        mask = _kernels.lattice_filter(cands, bounds, _reach(cands))
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        assert (mask == expect).all()

    def test_paths_agree(self, monkeypatch):
        # 16 table rows: one chunk of all 40 rows, and chunks of 1, 2, 3 and 39
        rng = np.random.default_rng(5)
        for _ in range(20):
            cands, bounds = _random_instance(rng, 3, 4, 40)
            whole = _kernels.lattice_filter(cands, bounds, _reach(cands))
            assert (whole == _direct(cands, bounds)).all()
            for cells in (1, 16 * 2, 16 * 3, 16 * 39):
                monkeypatch.setattr(_kernels, "FILTER_CELLS", cells)
                assert (_kernels.lattice_filter(cands, bounds, _reach(cands)) == whole).all()
            monkeypatch.undo()

    def test_chunked_filter_matches_direct_check(self, monkeypatch):
        rng = np.random.default_rng(17)
        cands, bounds = _random_instance(rng, 6, 5, 1000)
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        # 32 table rows, 7 candidate rows a chunk: 143 chunks, the last partial
        monkeypatch.setattr(_kernels, "FILTER_CELLS", 7 * 32)
        assert (_kernels.lattice_filter(cands, bounds, _reach(cands)) == expect).all()
        monkeypatch.setattr(_kernels, "FILTER_CELLS", 1)
        assert (_kernels.lattice_filter(cands, bounds, _reach(cands)) == expect).all()
        assert _kernels.lattice_filter(cands[:0], bounds, 0).shape == (0,)

    def test_empty_and_full_masks_bound_like_any_other(self):
        # mask 0 is the empty sum, 0; mask 2^n - 1 is the row total
        rng = np.random.default_rng(23)
        cands = rng.integers(-4, 5, size=(200, 3)).astype(np.int64)
        bounds = np.array([0, 12, 2, 12, 12, 3, 12, 1], dtype=np.int64)
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        assert (_kernels.lattice_filter(cands, bounds, _reach(cands)) == expect).all()
        assert (expect == ((cands.sum(axis=1) <= 1) & (cands[:, 1] <= 2)
                           & (cands[:, 0] + cands[:, 2] <= 3))).all()
        bounds[0] = -1
        assert not _kernels.lattice_filter(cands, bounds, _reach(cands)).any()

    def test_no_constraints_keeps_everything(self):
        cands = np.zeros((5, 2), dtype=np.int64)
        assert _kernels.lattice_filter(cands, np.zeros(4, dtype=np.int64), 0).all()

    def test_memory_is_bounded_on_a_large_cone_window(self):
        # the 7-label antichain at bound 4: 273127 zero-sum candidates against
        # 126 constraint rows, a 262 MiB product if formed at once
        from permutokit.cones import Box, cone_lattice_points
        from permutokit.preposet import Preposet
        from permutokit.setcomp import GroundSet

        p = Preposet.from_pairs(GroundSet.of(range(1, 8)), [])
        _kernels.zero_sum_box.cache_clear()
        tracemalloc.start()
        try:
            pts = cone_lattice_points(p, Box(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.rows.tolist() == [[0] * 7]
        assert peak < 64 << 20


def _edge_rows(rng, n, cm):
    """Every sign pattern of +-cm, so that some subset sums reach n * cm in
    magnitude, and random rows in [-cm, cm]."""
    signs = np.array(list(itertools.product([-1, 1], repeat=n)), dtype=np.int64)
    return np.vstack([signs * cm, rng.integers(-cm, cm + 1, size=(40, n))])


def _exact_sums(rows, n):
    return [
        [sum(int(v) for k, v in enumerate(row) if m >> k & 1) for row in rows.tolist()]
        for m in range(1 << n)
    ]


def subset_sums_agree(rng, n, cm):
    rows = _edge_rows(rng, n, cm)
    got = _kernels.subset_sums(rows, n * cm)
    return got.dtype == _kernels.exact_type(n * cm) and got.tolist() == _exact_sums(rows, n)


def lattice_filter_agrees(rng, n, cm):
    """Bounds far above every sum except on a few masks: random bounds within
    the reach on the full set and two other masks; the full set one below
    the reach, which drops only the rows of +cm, and at minus the reach,
    which keeps only the row of -cm; and one bound far below every sum,
    which no row meets. Both far bounds must be clipped into the type."""
    rows = _edge_rows(rng, n, cm)
    reach, full = n * cm, (1 << n) - 1
    far = np.full(1 << n, 1 << 61, dtype=np.int64)
    cases = [far.copy() for _ in range(4)]
    masks = [full, *rng.choice(np.arange(1, full), size=2, replace=False)]
    cases[0][masks] = rng.integers(-reach // 2, reach // 2 + 1, size=3)
    cases[1][full] = reach - 1
    cases[2][full] = -reach
    cases[3][masks[1]] = -(1 << 61)
    return all(
        (_kernels.lattice_filter(rows, bounds, reach) == _direct(rows, bounds)).all()
        for bounds in cases
    ) and not _direct(rows, cases[3]).any()


def ranged_sum_box_agrees(lo, hi, total):
    want = [
        h for h in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
        if sum(h) == total
    ]
    got = _kernels.ranged_sum_box(lo, hi, total)
    return got.dtype == np.int64 and [tuple(r) for r in got.tolist()] == want


def _ranged_cases(c):
    """Width-3 sides around +-c on three coordinates, with totals inside,
    on the edge of and outside the reachable range."""
    for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
        centre = [s * c for s in signs]
        for d in (-4, -3, 0, 2):
            yield [x - 1 for x in centre], [x + 1 for x in centre], sum(centre) + d


class TestExactType:
    def test_each_type_holds_the_clipped_range_of_its_reach(self):
        for reach, t in ((0, np.int8), (127, np.int8), (128, np.int16),
                         (32767, np.int16), (32768, np.int32), (2**31 - 1, np.int32),
                         (2**31, np.int64), (2**62 - 1, np.int64)):
            assert _kernels.exact_type(reach) is t
            assert np.iinfo(t).min <= -reach - 1 and reach <= np.iinfo(t).max


class TestNarrowTypes:
    """Reaches just below and just above each limit; n * cm <= T <
    n * (cm + 1) for cm = T // n."""

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_subset_sums_on_each_side(self, T):
        rng = np.random.default_rng(T % 997)
        for n in (2, 3, 5):
            for cm in (T // n, T // n + 1):
                assert subset_sums_agree(rng, n, cm)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_lattice_filter_on_each_side(self, T, monkeypatch):
        rng = np.random.default_rng(T % 991)
        for n in (2, 3, 5):
            for cm in (T // n, T // n + 1):
                assert lattice_filter_agrees(rng, n, cm)
                # one candidate row a chunk
                monkeypatch.setattr(_kernels, "FILTER_CELLS", 1)
                assert lattice_filter_agrees(rng, n, cm)
                monkeypatch.undo()

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_ranged_sum_box_on_each_side(self, T):
        # reach |total| + 2 * (c + 1) is at most 5 * (c + 1) <= T below, and
        # above T once 3 * c exceeds it
        for c in (T // 5 - 1, T // 3 + 1):
            for lo, hi, total in _ranged_cases(c):
                assert ranged_sum_box_agrees(lo, hi, total)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_the_oracles_catch_a_type_one_size_too_narrow(self, T, monkeypatch):
        monkeypatch.setattr(_kernels, "exact_type", one_size_too_narrow(_kernels.exact_type))
        rng = np.random.default_rng(T % 983)
        cm = T // 3 + 1
        assert not holds(lambda: subset_sums_agree(rng, 3, cm))
        assert not holds(lambda: lattice_filter_agrees(rng, 3, cm))
        assert not all(holds(lambda: ranged_sum_box_agrees(*case)) for case in _ranged_cases(cm))
