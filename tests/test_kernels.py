"""Enumeration kernels: zero-sum and ranged-sum boxes, the doubling
subset-sum table against the indicator-matrix product it replaced, and the
walk that lists a lattice window, against an exact scan of its box, with
two mutants of the walk that the scan catches and bounds on the memory of
large cone windows. Each kernel is also checked against exact Python sums
at reaches on each side of the int8, int16 and int32 limits, where it
changes type, and those checks catch a type one size too narrow."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrow_types import THRESHOLDS, holds, one_size_too_narrow
from permutokit import _kernels

# a bound no sum of the windows here reaches, in the int64 range
FAR = 1 << 61


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


def box_bounds(lo, hi, total):
    """The bounds of the box lo <= x <= hi at the given total: hi_i on {i},
    total - lo_i on its complement (x_i >= lo_i), the least of the two where
    they name one mask, and FAR, which no sum of the box reaches, on every
    other mask."""
    n = len(lo)
    full = (1 << n) - 1
    bounds = [FAR] * (1 << n)
    for i in range(n):
        bounds[1 << i] = min(bounds[1 << i], hi[i])
        bounds[full ^ 1 << i] = min(bounds[full ^ 1 << i], total - lo[i])
    return bounds


def ranged_sum_box(lo, hi, total):
    """All integer vectors with lo <= x <= hi and sum total, as the walk
    lists them from the box's bounds."""
    return _kernels.lattice_window(box_bounds(lo, hi, total), total)


class TestRangedSumBox:
    def test_binary_split(self):
        box = ranged_sum_box([0, 0], [1, 1], 1)
        assert box.tolist() == [[0, 1], [1, 0]]

    def test_empty_when_bounds_cross(self):
        assert ranged_sum_box([2], [1], 1).shape == (0, 1)
        assert ranged_sum_box([0, 2, 0], [3, 1, 3], 2).shape == (0, 3)

    def test_zero_variables(self):
        assert ranged_sum_box([], [], 0).shape == (1, 0)
        assert ranged_sum_box([], [], 3).shape == (0, 0)

    def test_rows_hit_total_within_bounds(self):
        lo, hi = [-1, 0, 1], [2, 2, 3]
        box = ranged_sum_box(lo, hi, 4)
        assert box.dtype == np.int64 and box.shape[0] > 0
        assert (box.sum(axis=1) == 4).all()
        assert (box >= lo).all() and (box <= hi).all()

    def test_grid_above_the_row_budget_is_refused(self):
        # the first n - 1 sides span 4097 * 4096 = 2^24 + 4096 rows, charged
        # half a step each against the 2^22 of the work budget
        with pytest.raises(ValueError, match="16781312 candidate rows .* 8390656 units"):
            ranged_sum_box([0, 0, 0], [4096, 4095, 0], 0)


def _indicator(n, masks):
    """One 0/1 row per bitmask: the indicator-matrix formulation of subset
    sums that the doubling table replaced, kept here as its oracle."""
    masks = np.asarray(masks, dtype=np.int64)
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


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


def _pair(x, m):
    return sum(v for k, v in enumerate(x) if m >> k & 1)


def scan(bounds, total):
    """The window by exact Python sums: every point of the box of its sides,
    x_i <= bounds[{i}] and x_i >= total - bounds[I minus i], in lexicographic
    order, that sums to total and meets the bound of every mask."""
    full = len(bounds) - 1
    n = full.bit_length()
    sides = [range(total - bounds[full ^ 1 << i], bounds[1 << i] + 1) for i in range(n)]
    return [
        x for x in itertools.product(*sides)
        if sum(x) == total and all(_pair(x, m) <= bounds[m] for m in range(full + 1))
    ]


def walk_agrees(bounds, total):
    got = _kernels.lattice_window(bounds, total)
    return got.dtype == np.int64 and [tuple(r) for r in got.tolist()] == scan(bounds, total)


def permutohedron(n):
    return [sum(range(n, n - bin(m).count("1"), -1)) for m in range(1 << n)]


@st.composite
def walk_cases(draw):
    """(bounds, total) on 0 to 5 labels: arbitrary bounds, some of them far
    above every sum or far below it, or those of a coverage function plus a
    modular shift (submodular), and a total from below the least sum the
    sides reach to above the greatest. The bounds of each label and of its
    complement are then moved to within a few units of [-3, 3], which keeps
    the sides short, in range and at times crossing."""
    n = draw(st.integers(0, 5))
    full = (1 << n) - 1
    if draw(st.booleans()):
        value = st.one_of(st.integers(-3, 9), st.integers(-3, 9), st.just(FAR))
        bounds = draw(st.lists(value, min_size=full + 1, max_size=full + 1))
        if draw(st.integers(0, 3)) == 0:
            bounds[draw(st.integers(0, full))] = -FAR
    else:
        blocks = draw(st.lists(st.tuples(st.integers(1, max(full, 1)), st.integers(0, 3)), max_size=4))
        shift = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        bounds = [sum(w for blk, w in blocks if m & blk) + _pair(shift, m) for m in range(full + 1)]
    total = draw(st.integers(-3 * n - 2, 3 * n + 2))
    if draw(st.booleans()) and abs(bounds[full]) < FAR:
        total = bounds[full]
    for i in range(n):
        bounds[full ^ 1 << i] = min(max(bounds[full ^ 1 << i], total - 4), total + 3)
        bounds[1 << i] = min(max(bounds[1 << i], -4), 3)
    return bounds, total


class TestLatticeWindow:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(walk_cases())
    def test_matches_the_exact_scan(self, case):
        assert walk_agrees(*case)

    def test_matches_direct_check(self):
        # the box [-4, 4]^4 at total 1, four of its six pairs bound in [-3, 3]
        rng = np.random.default_rng(15)
        bounds = box_bounds([-4] * 4, [4] * 4, 1)
        for m in rng.choice([3, 5, 6, 9, 10, 12], size=4, replace=False):
            bounds[m] = min(bounds[m], int(rng.integers(-3, 4)))
        want = scan(bounds, 1)
        assert 0 < len(want) < len(scan(box_bounds([-4] * 4, [4] * 4, 1), 1))
        assert walk_agrees(bounds, 1)

    def test_empty_and_full_masks_bound_like_any_other(self):
        # mask 0 is the empty sum, 0; mask 2^n - 1 is the total
        bounds = permutohedron(3)
        assert walk_agrees(bounds, 6) and len(scan(bounds, 6)) == 7
        assert _kernels.lattice_window([-1] + bounds[1:], 6).shape == (0, 3)
        assert _kernels.lattice_window(bounds[:-1] + [5], 6).shape == (0, 3)
        assert _kernels.lattice_window(bounds[:-1] + [7], 6).tolist() == (
            _kernels.lattice_window(bounds, 6).tolist()
        )
        assert _kernels.lattice_window([-1], 0).shape == (0, 0)

    def test_no_constraints_keeps_everything(self):
        lo, hi = [-1, 0, 2, -2], [1, 3, 2, 0]
        want = [x for x in itertools.product(*map(range, lo, [h + 1 for h in hi])) if sum(x) == 1]
        assert [tuple(r) for r in ranged_sum_box(lo, hi, 1).tolist()] == want

    def test_the_scan_catches_a_walk_without_the_masks_with_k(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_fix", lambda W, parent, a: W[:, 0::2].take(parent, axis=0))
        assert not all(holds(lambda: walk_agrees(permutohedron(n), n * (n + 1) // 2))
                       for n in range(2, 5))

    def test_the_scan_catches_a_range_off_by_one(self, monkeypatch):
        real = _kernels._next_values

        def one_past_the_end(*args):
            start, counts = real(*args)
            return start, counts + 1

        monkeypatch.setattr(_kernels, "_next_values", one_past_the_end)
        assert not all(holds(lambda: walk_agrees(permutohedron(n), n * (n + 1) // 2))
                       for n in range(2, 5))

    def test_memory_is_bounded_on_a_large_cone_window(self):
        # the 7-label antichain at bound 4: 273127 zero-sum rows against 126
        # masks, a 262 MiB product if formed at once
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

    def test_a_cone_window_too_large_for_a_table_keeps_no_box(self):
        # the 8-label chain at bound 4: its zero-sum box has 2306025 rows
        # (141 MiB), more than a sign table holds
        from permutokit.cones import Box, cone_lattice_points
        from permutokit.preposet import Preposet
        from permutokit.setcomp import GroundSet

        g = GroundSet.of(range(1, 9))
        p = Preposet.from_pairs(g, [(a, b) for a in g.labels for b in g.labels if a < b])
        _kernels.zero_sum_box.cache_clear()
        _kernels._cone_table.cache_clear()
        tracemalloc.start()
        try:
            pts = cone_lattice_points(p, Box(4))
            assert len(pts) == 387000
            del pts
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 16 << 20


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


def ranged_sum_box_agrees(lo, hi, total):
    want = [
        h for h in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
        if sum(h) == total
    ]
    got = ranged_sum_box(lo, hi, total)
    return got.dtype == np.int64 and [tuple(r) for r in got.tolist()] == want


def _ranged_cases(c):
    """Width-3 sides around +-c on three coordinates, with totals inside,
    on the edge of and outside the reachable range."""
    for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
        centre = [s * c for s in signs]
        for d in (-4, -3, 0, 2):
            yield [x - 1 for x in centre], [x + 1 for x in centre], sum(centre) + d


def _window_cases(c):
    """Width-3 sides around +-c on four labels, with totals inside, on the
    edge of and outside the sides' range, and on the pair {1, 2} no bound,
    one inside the range of its sums, one far above every sum and one far
    below, which no point meets."""
    for signs in ((1, 1, 1, 1), (-1, -1, -1, -1), (1, -1, 1, -1)):
        centre = [s * c for s in signs]
        lo, hi = [x - 1 for x in centre], [x + 1 for x in centre]
        for d in (-5, -4, 0, 3):
            total = sum(centre) + d
            bounds = box_bounds(lo, hi, total)
            yield bounds, total
            for v in (hi[0] + hi[1] - 1, FAR, -FAR):
                yield [v if m == 0b0011 else b for m, b in enumerate(bounds)], total


class TestExactType:
    def test_each_type_holds_the_clipped_range_of_its_reach(self):
        for reach, t in ((0, np.int8), (127, np.int8), (128, np.int16),
                         (32767, np.int16), (32768, np.int32), (2**31 - 1, np.int32),
                         (2**31, np.int64), (2**62 - 1, np.int64)):
            assert _kernels.exact_type(reach) is t
            assert np.iinfo(t).min <= -reach - 1 and reach <= np.iinfo(t).max


class TestNarrowTypes:
    """Reaches just below and just above each limit. The walk forms its
    tables in exact_type(2 * reach + 1), with reach = n * cm for sides in
    [-cm, cm]: 2 * n * (c + 1) + 1 <= T on sides around +-c for
    c = (T - 1) // (2 * n) - 1, and the sums of the sides pass T for
    c = T // n + 1. For c = (T + 1) // n - 2, reach itself is just below T,
    and a bound far below every sum, less a coordinate, passes T."""

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_subset_sums_on_each_side(self, T):
        rng = np.random.default_rng(T % 997)
        for n in (2, 3, 5):
            for cm in (T // n, T // n + 1):
                assert subset_sums_agree(rng, n, cm)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_lattice_window_on_each_side(self, T):
        for c in ((T - 1) // 8 - 1, (T - 1) // 8, (T + 1) // 4 - 2, T // 4 + 1):
            for bounds, total in _window_cases(c):
                assert walk_agrees(bounds, total)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_ranged_sum_box_on_each_side(self, T):
        for c in ((T - 1) // 6 - 1, (T - 1) // 6, T // 3 + 1):
            for lo, hi, total in _ranged_cases(c):
                assert ranged_sum_box_agrees(lo, hi, total)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_the_oracles_catch_a_type_one_size_too_narrow(self, T, monkeypatch):
        monkeypatch.setattr(_kernels, "exact_type", one_size_too_narrow(_kernels.exact_type))
        rng = np.random.default_rng(T % 983)
        assert not holds(lambda: subset_sums_agree(rng, 3, T // 3 + 1))
        assert not all(holds(lambda: walk_agrees(*case)) for case in _window_cases(T // 4 + 1))
        assert not all(holds(lambda: ranged_sum_box_agrees(*case)) for case in _ranged_cases(T // 3 + 1))
