"""Array-backed lattice-point windows: the PointSet carrier, differential
checks of cone, plate and section windows against pure-Python box scans,
also at reaches on each side of the limits where the kernels change integer
type, validation of section bases, the int64 range proof, and edge ground
sets."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrow_types import THRESHOLDS, holds, one_size_too_narrow
from oracle_maps import bf_comul_along, max_affine_flat
from permutokit import _kernels, plates
from permutokit.boolfun import BooleanFunction, hei, z_of_point
from permutokit.cones import Box, CoweightVector, PointSet, cone_lattice_points
from permutokit.plates import (
    AffinePoint,
    FlatSpec,
    Plate,
    flat_contains,
    plate_contains,
    plate_F_face_contains,
    plate_lattice_points,
    window_center,
)
from permutokit.preposet import Bottom, Preposet, enumerate_preposets, upward_masks
from permutokit.sections import SectionBasis, global_sections, sections_mul
from permutokit.setcomp import Composition, GroundSet, all_compositions, refines

GROUNDS = {n: GroundSet.of(range(1, n + 1)) for n in range(5)}
BOUNDS = (0, 1, 2)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def perm_bf(n):
    """The permutohedron: z(A) = n + (n-1) + ... over the |A| largest."""
    return BooleanFunction.from_callable(
        GROUNDS[n], lambda A: sum(range(n, n - len(A), -1))
    )


def rows_of(pts):
    return [tuple(r) for r in pts.rows.tolist()]


# ---------------------------------------------------------------------------
# pure-Python oracles: box scans with their own constraint tests


def _zero_sum_box(n, bound):
    if n == 0:
        return [()]
    out = []
    for head in product(range(-bound, bound + 1), repeat=n - 1):
        last = -sum(head)
        if abs(last) <= bound:
            out.append(head + (last,))
    return out


def _masks(n):
    return range(1, (1 << n) - 1)


def _pair(row, m):
    return sum(v for k, v in enumerate(row) if m >> k & 1)


def brute_cone(p, bound):
    """Zero-sum window points pairing to at most zero with every up-set of p:
    no label outside the set lies above a label inside it."""
    labels = p.ground.labels
    n = len(labels)
    ups = [
        m for m in _masks(n)
        if not any(
            p.has(labels[t], labels[s])
            for s in range(n) if m >> s & 1
            for t in range(n) if not m >> t & 1
        )
    ]
    return [h for h in _zero_sum_box(n, bound) if all(_pair(h, m) <= 0 for m in ups)]


def brute_plate(H, table, bound):
    """Plate window points around the center that splits each lump's height
    as evenly as possible, earlier labels taking the remainder."""
    labels = H.ground.labels
    mask = lambda xs: sum(1 << labels.index(x) for x in xs)
    center, acc, prev = {}, [], 0
    for lump in H.lumps:
        acc += lump
        cur = table[mask(acc)]
        q, r = divmod(cur - prev, len(lump))
        for k, x in enumerate(lump):
            center[x] = q + 1 if k < r else q
        prev = cur
    c = [center[x] for x in labels]
    segs, acc = [], []
    for lump in H.lumps[:-1]:
        acc += lump
        segs.append(mask(acc))
    out = []
    for d in _zero_sum_box(len(labels), bound):
        h = tuple(a + b for a, b in zip(c, d))
        if all(_pair(h, m) <= table[m] for m in segs):
            out.append(h)
    return out


def brute_sections(table, n):
    full = (1 << n) - 1
    if n == 0:
        return [()]
    tot = table[full]
    ranges = [range(tot - table[full ^ (1 << k)], table[1 << k] + 1) for k in range(n)]
    return [
        h for h in product(*ranges)
        if sum(h) == tot and all(_pair(h, m) <= table[m] for m in _masks(n))
    ]


@st.composite
def submodular_tables(draw, n, offset=0):
    """Coverage functions of a few weighted blocks plus a modular shift."""
    blocks = draw(st.lists(
        st.tuples(st.integers(1, (1 << n) - 1), st.integers(0, 3)), max_size=4
    )) if n else []
    shift = draw(st.lists(st.integers(-2 - offset, 2 + offset), min_size=n, max_size=n))
    return [
        sum(w for blk, w in blocks if m & blk) + _pair(shift, m) for m in range(1 << n)
    ]


# ---------------------------------------------------------------------------


class TestPointSet:
    def setup_method(self):
        self.g = GroundSet.of([1, 2])
        self.rows = np.array([[-1, 1], [0, 0], [1, -1]], dtype=np.int64)
        self.ps = PointSet(self.g, self.rows)

    def test_sequence_protocol(self):
        pts = tuple(CoweightVector(self.g, r) for r in [(-1, 1), (0, 0), (1, -1)])
        assert len(self.ps) == 3
        assert self.ps[0] == pts[0] and self.ps[-1] == pts[-1]
        assert tuple(self.ps) == pts
        assert self.ps == pts
        assert self.ps[1:] == pts[1:]
        assert hash(self.ps) == hash(pts)

    def test_membership_compares_rows(self):
        assert CoweightVector(self.g, (1, -1)) in self.ps
        assert CoweightVector(self.g, (2, -2)) not in self.ps
        assert AffinePoint(self.g, (1, -1)) not in self.ps
        assert CoweightVector(GroundSet.of([1, 3]), (1, -1)) not in self.ps
        assert CoweightVector(self.g, (Fraction(1), Fraction(-1))) in self.ps
        assert CoweightVector(self.g, (Fraction(1, 2), Fraction(-1, 2))) not in self.ps

    def test_rows_are_a_read_only_copy(self):
        self.rows[0, 0] = 5
        assert self.ps[0].coords == (-1, 1)
        with pytest.raises(ValueError):
            self.ps.rows[0, 0] = 5

    def test_empty_compares_like_the_empty_tuple(self):
        empty = PointSet(self.g, np.zeros((0, 2), dtype=np.int64))
        assert empty == () and not empty
        assert empty == PointSet(GroundSet.of([]), [])

    def test_construction_validates_rows(self):
        with pytest.raises(ValueError):
            PointSet(self.g, [[1, 1]])  # not zero-sum
        with pytest.raises(ValueError):
            PointSet(self.g, [[1, -1, 0]])  # wrong width
        with pytest.raises(ValueError):
            PointSet(self.g, np.array([[0.5, -0.5]]))
        with pytest.raises(ValueError):
            PointSet(self.g, [[2**62, -(2**62)]])
        assert len(PointSet(self.g, [[1, 1]], AffinePoint)) == 1

    def test_of_gathers_point_objects(self):
        pts = (AffinePoint(self.g, (3, 4)), AffinePoint(self.g, (0, -1)))
        assert PointSet.of(self.g, pts, AffinePoint) == pts
        with pytest.raises(ValueError):
            PointSet.of(self.g, pts, CoweightVector)
        with pytest.raises(ValueError):
            PointSet.of(self.g, (AffinePoint(self.g, (Fraction(1, 2), 0)),), AffinePoint)
        with pytest.raises(ValueError):
            PointSet.of(self.g, (AffinePoint(self.g, (2**63, 0)),), AffinePoint)


class TestDifferential:
    def test_cone_windows_match_box_scan(self):
        for n in range(5):
            for p in enumerate_preposets(GROUNDS[n]):
                for bound in BOUNDS:
                    assert rows_of(cone_lattice_points(p, Box(bound))) == brute_cone(p, bound)

    def test_plate_windows_match_box_scan(self):
        for n in range(5):
            z = perm_bf(n)
            for H in all_compositions(GROUNDS[n]):
                for bound in BOUNDS:
                    got = rows_of(plate_lattice_points(Plate(H, z), Box(bound)))
                    assert got == brute_plate(H, z.values, bound)

    @SETTINGS
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(n), submodular_tables(n), st.sampled_from(list(all_compositions(GROUNDS[n]))),
        st.sampled_from(BOUNDS))))
    def test_submodular_plates_and_sections(self, case):
        n, table, H, bound = case
        z = BooleanFunction(GROUNDS[n], tuple(table))
        assert rows_of(plate_lattice_points(Plate(H, z), Box(bound))) == brute_plate(
            H, table, bound
        )
        assert rows_of(global_sections(z).points) == brute_sections(table, n)

    @SETTINGS
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), submodular_tables(n, offset=2**58))))
    def test_large_shifts_stay_exact(self, case):
        n, table = case
        z = BooleanFunction(GROUNDS[n], tuple(table))
        assert rows_of(global_sections(z).points) == brute_sections(table, n)
        H = Composition.of([[x] for x in GROUNDS[n].labels])
        P = Plate(H, z)
        pts = plate_lattice_points(P, Box(1))
        assert rows_of(pts) == brute_plate(H, table, 1)
        assert all(plate_contains(P, h) for h in pts)

    @SETTINGS
    @given(st.tuples(submodular_tables(2), submodular_tables(2)))
    def test_products_match_box_scan(self, tables):
        t1, t2 = tables
        s1 = global_sections(BooleanFunction(GroundSet.of([1, 3]), tuple(t1)))
        s2 = global_sections(BooleanFunction(GroundSet.of([2, 4]), tuple(t2)))
        prod = sections_mul(s1, s2)
        assert rows_of(prod.points) == brute_sections(prod.z.values, 4)

    def test_oracle_catches_a_dropped_constraint(self, monkeypatch):
        real = _kernels.cone_window
        monkeypatch.setattr(
            _kernels, "cone_window", lambda n, bound, masks: real(n, bound, list(masks)[:-1])
        )
        assert any(
            rows_of(cone_lattice_points(p, Box(1))) != brute_cone(p, 1)
            for p in enumerate_preposets(GROUNDS[3])
        )

    def test_oracle_catches_a_center_off_by_one(self, monkeypatch):
        real = plates._center

        def off_by_one(F, heights):
            c = real(F, heights)
            return (c[0] + 1,) + c[1:]

        monkeypatch.setattr(plates, "_center", off_by_one)
        z = perm_bf(3)
        assert any(
            rows_of(plate_lattice_points(Plate(H, z), Box(1))) != brute_plate(H, z.values, 1)
            for H in all_compositions(GROUNDS[3])
        )

    def test_basis_validation_catches_a_filter_that_keeps_everything(self, monkeypatch):
        real = _kernels.lattice_window

        def grid_only(bounds, total):
            # a walk that ignores every bound but those of single labels and
            # their complements, which give its grid: it lists the whole grid
            full = len(bounds) - 1
            sides = {0, full} | {1 << k for k in range(full.bit_length())}
            sides |= {full ^ m for m in sides}
            return real([b if m in sides else FAR for m, b in enumerate(bounds)], total)

        monkeypatch.setattr(_kernels, "lattice_window", grid_only)
        with pytest.raises(ValueError, match="subset inequality"):
            global_sections(perm_bf(4))

    def test_basis_validation_reaches_the_last_row_chunk(self, monkeypatch):
        z = perm_bf(4)
        rows = global_sections(z).points.rows
        # 14 subset inequalities: three rows per chunk
        monkeypatch.setattr(_kernels, "FILTER_CELLS", 3 * 14)
        assert SectionBasis(z, PointSet(z.ground, rows, AffinePoint)).points == tuple(
            global_sections(z).points
        )
        # the lexicographically last row has h_1 = z({1}); raising h_1 breaks
        # that inequality, in the last chunk only
        bad = rows[-1] + np.array([1, 0, 0, -1])
        with pytest.raises(ValueError, match="subset inequality"):
            SectionBasis(z, PointSet(z.ground, np.vstack([rows, bad]), AffinePoint))


# n = 2 window bounds, reaches 2 * bound of 126, 128, 256, 32766 and 65536:
# past 127 and 32767 a coordinate of +-bound itself leaves the type one size
# narrower than exact_type(2 * bound)
NARROW_BOUNDS = (63, 64, 128, 16383, 32768)

# far outside every window: compared only after clipping
FAR = 1 << 61

# a plate far from the origin, so that the window's int64 rows are its
# centre plus the cone window's narrow sums
FAR_PLATE = BooleanFunction(GROUNDS[2], (0, 3 << 40, -(1 << 40) + 5, (1 << 41) + 1))


def integer_tables(n):
    """Arbitrary integer subset functions: z(empty) = 0, nothing else fixed."""
    return st.lists(
        st.integers(-6, 6), min_size=(1 << n) - 1, max_size=(1 << n) - 1
    ).map(lambda vs: [0, *vs])


def brute_translated_cone(masks, n, bound):
    """Zero-sum window points pairing to at most zero with every mask."""
    return [d for d in _zero_sum_box(n, bound) if all(_pair(d, m) <= 0 for m in masks)]


class TestConeWindowKernel:
    """cone_window on both of its paths: the cached table of subset-sum signs,
    and the walk it takes for boxes too large for a table."""

    @pytest.fixture(params=["table", "walk"])
    def path(self, request, monkeypatch):
        walked = []
        real = _kernels._cone_table

        def counted(*args):
            table = real(*args)
            walked.append(table is None)
            return table

        monkeypatch.setattr(_kernels, "_cone_table", counted)
        if request.param == "walk":
            # below every table's cell count, n = 0 (one cell) included
            monkeypatch.setattr(_kernels, "FILTER_CELLS", 0)
        # the cached entries carry the table-or-walk decision made under the
        # FILTER_CELLS of their first call
        real.cache_clear()
        yield request.param
        real.cache_clear()
        assert walked and set(walked) == {request.param == "walk"}

    def test_cone_windows_match_box_scan(self, path):
        for n in range(5):
            for p in enumerate_preposets(GROUNDS[n]):
                for bound in range(4):
                    want = brute_cone(p, bound)
                    assert rows_of(cone_lattice_points(p, Box(bound))) == want
                    got = _kernels.cone_window(n, bound, upward_masks(p))
                    assert rows_of(PointSet(GROUNDS[n], got)) == want

    def test_plate_window_is_center_plus_cone_window(self, path):
        for n, table in ((0, [0]), (1, [0, 5]), (3, perm_bf(3).values)):
            z = BooleanFunction(GROUNDS[n], tuple(table))
            for H in all_compositions(GROUNDS[n]):
                for bound in range(4):
                    assert_plate_is_translated_cone(H, z, bound)

    def test_windows_on_each_side_of_the_type_limits(self, path):
        for bound in NARROW_BOUNDS:
            for p in enumerate_preposets(GROUNDS[2]):
                assert rows_of(cone_lattice_points(p, Box(bound))) == brute_cone(p, bound)
            for H in all_compositions(GROUNDS[2]):
                assert_plate_is_translated_cone(H, FAR_PLATE, bound)

    def test_table_is_cached_and_read_only(self):
        box, table = _kernels._cone_table(3, 2)
        assert box.tolist() == _kernels.zero_sum_box(3, 2).tolist()
        assert table is _kernels._cone_table(3, 2)[1]
        assert table.dtype == np.bool_ and table.shape == (8, len(box))
        # indexed by mask, the empty set and the whole ground included
        for m in range(8):
            assert table[m].tolist() == [_pair(row, m) <= 0 for row in box.tolist()]
        assert table[0].all() and table[7].all()
        with pytest.raises(ValueError):
            table[0, 0] = False

    @SETTINGS
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.sampled_from(list(all_compositions(GROUNDS[n]))),
        st.one_of(integer_tables(n), submodular_tables(n)),
        st.sampled_from(range(4)))))
    def test_plates_of_random_tables_are_translated_cones(self, case):
        H, table, bound = case
        assert_plate_is_translated_cone(H, BooleanFunction(H.ground, tuple(table)), bound)


def assert_plate_is_translated_cone(H, z, bound):
    n = len(H.ground)
    P = Plate(H, z)
    got = plate_lattice_points(P, Box(bound))
    assert rows_of(got) == brute_plate(H, z.values, bound)
    segs = plates._prefix_masks(H)[:-1]
    d = got.rows - np.array(window_center(P).coords, dtype=np.int64)
    assert d.tolist() == _kernels.cone_window(n, bound, segs).tolist()
    assert rows_of(PointSet(H.ground, d)) == brute_translated_cone(segs, n, bound)


def comul_heights(z, F):
    """Lump heights of F against z from the iterated coproduct."""
    return tuple(hei(c) for c in bf_comul_along(z, F))


def height_mismatches(z):
    """Compositions H of z's ground on which max_affine_flat, window_center
    or an F-face test disagrees with the heights from bf_comul_along."""
    bad = []
    for H in all_compositions(z.ground):
        P = Plate(H, z)
        heights = comul_heights(z, H)
        center = {}
        for lump, a in zip(H.lumps, heights):
            q, r = divmod(a, len(lump))
            center.update((x, q + 1 if k < r else q) for k, x in enumerate(lump))
        h = AffinePoint.of(H.ground, center)
        if max_affine_flat(P) != FlatSpec(H, heights) or window_center(P) != h:
            bad.append(H)
        for F in (Composition.one_lump(H.ground), H):
            face = FlatSpec(F, comul_heights(z, F))
            if refines(F, H) and plate_F_face_contains(P, F, h) != (
                plate_contains(P, h) and flat_contains(face, h)
            ):
                bad.append((H, F))
    return bad


class TestLumpHeights:
    @SETTINGS
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(-(2**70), 2**70), min_size=(1 << n) - 1, max_size=(1 << n) - 1))))
    def test_heights_match_the_iterated_coproduct(self, case):
        n, values = case
        assert height_mismatches(BooleanFunction(GROUNDS[n], (0, *values))) == []

    def test_oracle_catches_a_prefix_that_drops_its_last_lump(self, monkeypatch):
        real = plates._prefix_masks
        monkeypatch.setattr(plates, "_prefix_masks", lambda F: [0] + real(F)[:-1])
        assert height_mismatches(perm_bf(3))


class TestSectionBasisValidation:
    def setup_method(self):
        self.z = perm_bf(3)
        self.rows = global_sections(self.z).points.rows.copy()
        self.g = self.z.ground

    def test_kernel_rows_pass(self):
        SectionBasis(self.z, PointSet(self.g, self.rows, AffinePoint))

    def test_perturbed_row_rejected(self):
        k = rows_of(global_sections(self.z).points).index((3, 2, 1))
        self.rows[k] += (1, -1, 0)
        with pytest.raises(ValueError, match="subset inequality"):
            SectionBasis(self.z, PointSet(self.g, self.rows, AffinePoint))

    def test_wrong_sum_rejected(self):
        self.rows[0, 0] += 1
        with pytest.raises(ValueError, match="coordinate sum"):
            SectionBasis(self.z, PointSet(self.g, self.rows, AffinePoint))

    def test_non_integer_coordinates_rejected(self):
        h = AffinePoint(self.g, (Fraction(5, 2), Fraction(3, 2), 2))
        with pytest.raises(ValueError, match="integers"):
            SectionBasis(self.z, (h,))

    def test_foreign_ground_rejected(self):
        with pytest.raises(ValueError):
            SectionBasis(self.z, PointSet(GroundSet.of([1, 2]), [], AffinePoint))
        with pytest.raises(ValueError):
            SectionBasis(self.z, PointSet(self.g, self.rows))


class TestInt64Range:
    B = 2**62

    def test_wraparound_plate_fails_closed(self):
        # in int64 the filter kept (B, B, -B-1), which the exact test rejects
        z = z_of_point(GROUNDS[3], (self.B, self.B - 1, -self.B))
        P = Plate(Composition.of([[1], [2], [3]]), z)
        with pytest.raises(ValueError, match="int64"):
            plate_lattice_points(P, Box(1))

    def test_values_beyond_int64_fail_closed(self):
        z = z_of_point(GROUNDS[3], (2**63, 0, -(2**63)))
        with pytest.raises(ValueError, match="int64"):
            plate_lattice_points(Plate(Composition.of([[1], [2], [3]]), z), Box(1))
        with pytest.raises(ValueError, match="int64"):
            global_sections(z)
        with pytest.raises(ValueError, match="int64"):
            cone_lattice_points(Preposet.antichain(GROUNDS[3]), Box(2**61))

    def test_just_below_the_limit_is_exact(self):
        w = (1 << 59) - 1
        z = z_of_point(GROUNDS[3], (w, w - 1, -w))
        P = Plate(Composition.of([[1], [2], [3]]), z)
        pts = plate_lattice_points(P, Box(1))
        assert rows_of(pts) == brute_plate(P.H, z.values, 1)
        assert all(plate_contains(P, h) for h in pts)
        assert rows_of(global_sections(z).points) == [(w, w - 1, -w)]

    def test_helper_bounds(self):
        _kernels.check_int64_window(4, (1 << 60) - 1, [-(1 << 62) + 1])
        with pytest.raises(ValueError):
            _kernels.check_int64_window(4, 1 << 60)
        with pytest.raises(ValueError):
            _kernels.check_int64_window(0, 0, [1 << 62])


class TestEdgeGrounds:
    def test_cone_windows(self):
        for n, coords in ((0, ()), (1, (0,))):
            g = GROUNDS[n]
            for bound in (0, 2):
                pts = cone_lattice_points(Preposet.antichain(g), Box(bound))
                assert pts == (CoweightVector(g, coords),)
                assert cone_lattice_points(Bottom(g), Box(bound)) == ()

    def test_plate_windows(self):
        g0, g1 = GROUNDS[0], GROUNDS[1]
        P0 = Plate(Composition.one_lump(g0), BooleanFunction(g0, (0,)))
        assert plate_lattice_points(P0, Box(1)) == (AffinePoint(g0, ()),)
        for v in (3, -2):
            P1 = Plate(Composition.one_lump(g1), BooleanFunction(g1, (0, v)))
            assert plate_lattice_points(P1, Box(1)) == (AffinePoint(g1, (v,)),)

    def test_global_sections(self):
        g0, g1 = GROUNDS[0], GROUNDS[1]
        assert global_sections(BooleanFunction(g0, (0,))).points == (AffinePoint(g0, ()),)
        for v in (3, -2):
            s = global_sections(BooleanFunction(g1, (0, v)))
            assert s.points == (AffinePoint(g1, (v,)),)

    def test_sections_mul_with_empty_ground_factor(self):
        e = global_sections(BooleanFunction(GROUNDS[0], (0,)))
        s = global_sections(BooleanFunction(GROUNDS[2], (0, 1, 1, 1)))
        want = (AffinePoint(GROUNDS[2], (0, 1)), AffinePoint(GROUNDS[2], (1, 0)))
        assert sections_mul(e, s).points == want
        assert sections_mul(s, e).points == want
        assert sections_mul(e, e).points == (AffinePoint(GROUNDS[0], ()),)
        infeasible = global_sections(BooleanFunction(GROUNDS[2], (0, 0, 0, 1)))
        assert sections_mul(e, infeasible).points == ()


# ---------------------------------------------------------------------------
# section windows at reaches on each side of the type limits

SECTION_BLOCKS = {3: [(0b011, 2), (0b110, 1)], 4: [(0b0011, 2), (0b1100, 1), (0b0101, 1)]}


def shifted_table(n, signs, S):
    """The coverage function of SECTION_BLOCKS[n] plus the modular function
    of S times signs: its points lie near S * signs, in a small window."""
    return [
        sum(w for blk, w in SECTION_BLOCKS[n] if m & blk) + S * _pair(signs, m)
        for m in range(1 << n)
    ]


def section_reach(table, n):
    """n * coord_max of the section window, the bound its range proof gives."""
    full = (1 << n) - 1
    lo = [table[full] - table[full ^ (1 << i)] for i in range(n)]
    hi = [table[1 << i] for i in range(n)]
    return n * max(map(abs, lo + hi))


def section_tables(T):
    """(n, table) pairs whose window's reach is the largest at most T, then
    the smallest above it, for shifts of every sign, all negative and mixed;
    on 4 labels also with z of a pair far above every sum (it never binds)
    and far below (no point meets it)."""
    for n in SECTION_BLOCKS:
        for signs in ((1,) * n, (-1,) * n, (1, -1) * (n // 2) + (1,) * (n % 2)):
            S = T // n - 4
            assert section_reach(shifted_table(n, signs, S), n) <= T
            while section_reach(shifted_table(n, signs, S + 1), n) <= T:
                S += 1
            for table in (shifted_table(n, signs, S), shifted_table(n, signs, S + 1)):
                yield n, table
                if n == 4:
                    yield n, [FAR if m == 0b0011 else v for m, v in enumerate(table)]
                    yield n, [-FAR if m == 0b1100 else v for m, v in enumerate(table)]


def sections_agree(n, table):
    z = BooleanFunction(GROUNDS[n], tuple(table))
    return rows_of(global_sections(z).points) == brute_sections(table, n)


def guard_agrees(n, table):
    """SectionBasis accepts the oracle's points of table, and rejects them
    with one more point moved past z of the first label."""
    z = BooleanFunction(GROUNDS[n], tuple(table))
    rows = np.array(brute_sections(table, n), dtype=np.int64)
    SectionBasis(z, PointSet(z.ground, rows, AffinePoint))
    k = table[1] - int(rows[0, 0]) + 1
    bad = rows[0] + np.array([k] + [0] * (n - 2) + [-k])
    try:
        SectionBasis(z, PointSet(z.ground, np.vstack([rows, bad]), AffinePoint))
    except ValueError as exc:
        return "subset inequality" in str(exc)
    return False


def guard_table(T):
    """A 3-label table whose points' pair sums and pair bounds lie on both
    sides of T, where a type one size narrower than the guard's wraps."""
    return shifted_table(3, (1, 1, 1), (T + 1) // 2 - 1)


class TestNarrowSectionWindows:
    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_sections_on_each_side_of_a_type_limit(self, T):
        for n, table in section_tables(T):
            assert sections_agree(n, table)

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_the_guard_on_each_side_of_a_type_limit(self, T):
        for n, table in section_tables(T):
            if min(table[1:]) > -FAR:
                assert guard_agrees(n, table)
        assert guard_agrees(3, guard_table(T))

    @pytest.mark.parametrize("T", THRESHOLDS)
    def test_the_oracles_catch_a_type_one_size_too_narrow(self, T, monkeypatch):
        # every point sums to more than T, not only the reach
        table = shifted_table(3, (1, 1, 1), T // 3 + 1)
        assert table[-1] > T
        _kernels.zero_sum_box.cache_clear()
        _kernels._cone_table.cache_clear()
        monkeypatch.setattr(_kernels, "exact_type", one_size_too_narrow(_kernels.exact_type))
        try:
            assert not holds(lambda: sections_agree(3, table))
            assert not holds(lambda: guard_agrees(3, guard_table(T)))
            if T < 2**31 - 1:
                # n = 2 windows with a coordinate of +-(T + 1)
                bound = T + 1
                assert not all(
                    holds(lambda: rows_of(cone_lattice_points(p, Box(bound))) == brute_cone(p, bound))
                    for p in enumerate_preposets(GROUNDS[2])
                )
                assert not all(
                    holds(lambda: assert_plate_is_translated_cone(H, FAR_PLATE, bound) is None)
                    for H in all_compositions(GROUNDS[2])
                )
        finally:
            monkeypatch.undo()
            _kernels.zero_sum_box.cache_clear()
            _kernels._cone_table.cache_clear()
