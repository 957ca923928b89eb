"""Enumeration kernels: candidate boxes, the doubling subset-sum table
against the indicator-matrix product it replaced, and the constraint filter,
with agreement between the one-chunk and the row-chunked filter and a bound
on the filter's memory."""
import tracemalloc

import numpy as np
import pytest

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
        # the first n - 1 sides span 4097 * 4096 = 2^24 + 4096 rows
        assert _kernels.ROW_BUDGET == 1 << 24
        with pytest.raises(ValueError, match="16781312 candidate rows"):
            _kernels.ranged_sum_box([0, 0, 0], [4096, 4095, 0], 0)


def _indicator(n, masks):
    """One 0/1 row per bitmask: the indicator-matrix formulation of subset
    sums that the doubling table replaced, kept here as its oracle."""
    masks = np.asarray(masks, dtype=np.int64)
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _direct(cands, bounds):
    n = cands.shape[1]
    return (cands @ _indicator(n, range(1 << n)).T <= bounds).all(axis=1)


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
            got = _kernels.subset_sums(rows)
            assert got.dtype == np.int64 and got.shape == (1 << n, 37)
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
            got = _kernels.subset_sums(rows)
            exact = [
                [sum(int(v) for k, v in enumerate(row) if m >> k & 1) for row in rows]
                for m in range(1 << n)
            ]
            assert got.tolist() == exact
            assert (got == _indicator(n, range(1 << n)) @ rows.T).all()

    def test_empty_row_block(self):
        assert _kernels.subset_sums(np.zeros((0, 3), dtype=np.int64)).shape == (8, 0)
        assert _kernels.subset_sums(np.zeros((2, 0), dtype=np.int64)).tolist() == [[0, 0]]


class TestLatticeFilter:
    def test_matches_direct_check(self):
        rng = np.random.default_rng(11)
        cands, bounds = _random_instance(rng, 4, 3, 60)
        mask = _kernels.lattice_filter(cands, bounds)
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        assert (mask == expect).all()

    def test_paths_agree(self, monkeypatch):
        # 16 table rows: one chunk of all 40 rows, and chunks of 1, 2, 3 and 39
        rng = np.random.default_rng(5)
        for _ in range(20):
            cands, bounds = _random_instance(rng, 3, 4, 40)
            whole = _kernels.lattice_filter(cands, bounds)
            assert (whole == _direct(cands, bounds)).all()
            for cells in (1, 16 * 2, 16 * 3, 16 * 39):
                monkeypatch.setattr(_kernels, "FILTER_CELLS", cells)
                assert (_kernels.lattice_filter(cands, bounds) == whole).all()
            monkeypatch.undo()

    def test_chunked_filter_matches_direct_check(self, monkeypatch):
        rng = np.random.default_rng(17)
        cands, bounds = _random_instance(rng, 6, 5, 1000)
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        # 32 table rows, 7 candidate rows a chunk: 143 chunks, the last partial
        monkeypatch.setattr(_kernels, "FILTER_CELLS", 7 * 32)
        assert (_kernels.lattice_filter(cands, bounds) == expect).all()
        monkeypatch.setattr(_kernels, "FILTER_CELLS", 1)
        assert (_kernels.lattice_filter(cands, bounds) == expect).all()
        assert _kernels.lattice_filter(cands[:0], bounds).shape == (0,)

    def test_empty_and_full_masks_bound_like_any_other(self):
        # mask 0 is the empty sum, 0; mask 2^n - 1 is the row total
        rng = np.random.default_rng(23)
        cands = rng.integers(-4, 5, size=(200, 3)).astype(np.int64)
        bounds = np.array([0, 12, 2, 12, 12, 3, 12, 1], dtype=np.int64)
        expect = _direct(cands, bounds)
        assert 0 < expect.sum() < len(expect)
        assert (_kernels.lattice_filter(cands, bounds) == expect).all()
        assert (expect == ((cands.sum(axis=1) <= 1) & (cands[:, 1] <= 2)
                           & (cands[:, 0] + cands[:, 2] <= 3))).all()
        bounds[0] = -1
        assert not _kernels.lattice_filter(cands, bounds).any()

    def test_no_constraints_keeps_everything(self):
        cands = np.zeros((5, 2), dtype=np.int64)
        assert _kernels.lattice_filter(cands, np.zeros(4, dtype=np.int64)).all()

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
