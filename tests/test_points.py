"""Torus-orbit points: concatenation, forget-and-stabilize, exact monomial
evaluation with the cross-lump vanishing rule, and relabeling. Also the one
juxtaposition and one restriction shared by every point class, checked
against label-based oracles, and the contract of the two integer point
classes."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutokit import plates
from permutokit import points as points_mod
from permutokit.boolfun import BooleanFunction
from permutokit.cones import (
    AffinePoint,
    CoweightVector,
    PointSet,
    cone_product_map,
    coroot,
)
from permutokit.plates import restrict_point
from permutokit.points import PermPoint, evaluate, point_comul, point_mul, point_relabel
from permutokit.sections import co_mul, global_sections, sections_mul
from permutokit.setcomp import (
    Bijection,
    Composition,
    GroundSet,
    all_compositions,
    concatenate,
    refines,
    restrict,
    sorted_labels,
)
from permutokit.preposet import total_of_composition
from permutokit.cones import cone_lattice_points, Box, cone_restrict

from oracle_maps import flat_mul


def ppt(lumps, mapping):
    return PermPoint.of(Composition.of(lumps), {k: Fraction(v) for k, v in mapping.items()})


def _random_point(rng, labels):
    ground = GroundSet.of(labels)
    comps = list(all_compositions(ground))
    orbit = rng.choice(comps)
    coords = {
        x: Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))
        for x in labels
    }
    return PermPoint.of(orbit, coords)


class TestPermPoint:
    def test_normalization(self):
        x = ppt([[1, 2]], {1: Fraction(3), 2: Fraction(6)})
        assert x.coords == (1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ppt([[1, 2]], {1: 1, 2: 0})

    def test_least_label_must_be_one(self):
        with pytest.raises(ValueError):
            PermPoint(Composition.of([[1, 2]]), (Fraction(2), Fraction(1)))

    def test_single_lump_scaling_quotient(self):
        x = ppt([[1, 2, 3]], {1: 2, 2: 4, 3: 1})
        y = ppt([[1, 2, 3]], {1: 10, 2: 20, 3: 5})
        assert x == y


class TestMul:
    def test_singletons(self):
        x = point_mul(ppt([[1]], {1: 7}), ppt([[2]], {2: 9}))
        assert x.orbit == Composition.of([[1], [2]])
        assert x.coords == (1, 1)

    def test_worked_example(self):
        q = Fraction(5, 3)
        x1 = ppt([[1, 2]], {1: 1, 2: q})
        x2 = ppt([[3]], {3: 1})
        x = point_mul(x1, x2)
        assert x.orbit == Composition.of([[1, 2], [3]])
        assert x.coords == (1, q, 1)

    def test_orbit_additivity(self):
        rng = random.Random(41)
        for _ in range(30):
            x1 = _random_point(rng, [1, 3])
            x2 = _random_point(rng, [2, 4])
            assert point_mul(x1, x2).orbit == concatenate(x1.orbit, x2.orbit)

    def test_overlap_rejected(self):
        x = ppt([[1]], {1: 1})
        with pytest.raises(ValueError):
            point_mul(x, x)

    def test_fixed_orbit_bijectivity(self):
        # with both orbits fixed, the product map is injective and every
        # point of the concatenated orbit splits back
        rng = random.Random(42)
        seen = {}
        for _ in range(60):
            x1 = _random_point(rng, [1, 2])
            x2 = _random_point(rng, [3, 4])
            y = point_mul(x1, x2)
            key = (x1.orbit, x2.orbit, y.coords)
            if key in seen:
                assert seen[key] == (x1, x2)
            seen[key] = (x1, x2)
            back1, back2 = point_comul(y, [1, 2], [3, 4])
            assert (back1, back2) == (x1, x2)


class TestComul:
    def test_two_singleton_split(self):
        x = ppt([[1, 2]], {1: 1, 2: Fraction(7, 2)})
        a, b = point_comul(x, [1], [2])
        assert a == ppt([[1]], {1: 1})
        assert b == ppt([[2]], {2: 1})

    def test_renormalization_example(self):
        q = Fraction(5, 3)
        x = ppt([[1, 2], [3]], {1: 1, 2: q, 3: 1})
        a, b = point_comul(x, [2, 3], [1])
        assert a.orbit == Composition.of([[2], [3]])
        assert a.coords == (1, 1)
        assert b == ppt([[1]], {1: 1})

    def test_bad_decomposition(self):
        x = ppt([[1, 2]], {1: 1, 2: 2})
        with pytest.raises(ValueError):
            point_comul(x, [1], [1, 2])

    def test_orbits_restrict(self):
        rng = random.Random(43)
        for _ in range(30):
            x = _random_point(rng, [1, 2, 3, 4])
            a, b = point_comul(x, [2, 4], [1, 3])
            assert a.orbit == restrict(x.orbit, [2, 4])
            assert b.orbit == restrict(x.orbit, [1, 3])

    def test_surjectivity_preimage(self):
        # any target pair lifts: assemble coords on the concatenated orbit,
        # cross-lump ratios free, then forget back
        rng = random.Random(44)
        for _ in range(30):
            a = _random_point(rng, [1, 3])
            b = _random_point(rng, [2, 5])
            lift = point_mul(a, b)
            back_a, back_b = point_comul(lift, [1, 3], [2, 5])
            assert (back_a, back_b) == (a, b)


class TestEvaluate:
    def test_zero_exponent(self):
        x = ppt([[1, 2]], {1: 1, 2: 3})
        H = Composition.one_lump(GroundSet.of([1, 2]))
        assert evaluate(x, H, CoweightVector.zero(x.ground)) == 1

    def test_worked_example(self):
        q = Fraction(5, 3)
        x = ppt([[1, 2]], {1: 1, 2: q})
        H = Composition.one_lump(GroundSet.of([1, 2]))
        assert evaluate(x, H, coroot(1, 2, x.ground)) == 1 / q

    def test_cross_lump_vanishing(self):
        x = ppt([[1], [2]], {1: 1, 2: 1})
        H = Composition.of([[1], [2]])
        h = coroot(2, 1, x.ground)
        assert evaluate(x, H, h) == 0

    def test_outside_chart_rejected(self):
        x = ppt([[2], [1]], {1: 1, 2: 1})
        with pytest.raises(ValueError):
            evaluate(x, Composition.of([[1], [2]]), CoweightVector.zero(x.ground))

    def test_one_lump_orbit_lies_in_every_chart(self):
        x = ppt([[1, 2]], {1: 1, 2: 2})
        assert evaluate(x, Composition.of([[1], [2]]), CoweightVector.zero(x.ground)) == 1

    def test_exponent_outside_cone_rejected(self):
        x = ppt([[1], [2]], {1: 1, 2: 1})
        H = Composition.of([[1], [2]])
        with pytest.raises(ValueError):
            evaluate(x, H, coroot(1, 2, x.ground))

    def test_scaling_invariance(self):
        # same quotient point built from different raw scalars evaluates
        # identically because exponents sum to zero per lump
        H = Composition.one_lump(GroundSet.of([1, 2, 3]))
        h = CoweightVector(H.ground, (2, -1, -1))
        x = ppt([[1, 2, 3]], {1: 2, 2: 3, 3: 4})
        y = ppt([[1, 2, 3]], {1: 4, 2: 6, 3: 8})
        assert x == y
        assert evaluate(x, H, h) == Fraction(4, 12)

    def test_exponents_past_the_bit_budget_are_refused(self):
        # c = 3/2 costs 4 bits per unit of exponent and c = 1 costs 2, so the
        # exponent pair (-e, e) needs 6e bits: 174762 is the last e within 2^20
        x = ppt([[1, 2]], {1: 1, 2: Fraction(3, 2)})
        H = Composition.one_lump(x.ground)
        assert points_mod._EVAL_BITS == 1 << 20
        e = (1 << 20) // 6
        assert evaluate(x, H, CoweightVector(x.ground, (-e, e))) == Fraction(3, 2) ** e
        for e in (e + 1, 3_000_000, 30_000_000, 10**9):
            with pytest.raises(ValueError, match=f"needs up to {6 * e} bits"):
                evaluate(x, H, CoweightVector(x.ground, (-e, e)))


class TestRelabel:
    def test_identity(self):
        x = ppt([[1, 2], [3]], {1: 1, 2: 2, 3: 1})
        assert point_relabel(Bijection.identity(x.ground), x) == x

    def test_composite(self):
        x = ppt([[1, 2]], {1: 1, 2: 5})
        sigma = Bijection.of({"a": 1, "b": 2})
        tau = Bijection.of({10: "a", 20: "b"})
        once = point_relabel(tau, point_relabel(sigma, x))
        composite = Bijection.of({10: 1, 20: 2})
        assert once == point_relabel(composite, x)

    def test_mismatch(self):
        x = ppt([[1]], {1: 1})
        with pytest.raises(ValueError):
            point_relabel(Bijection.of({"a": 2}), x)

    def test_relabel_then_evaluate(self):
        rng = random.Random(45)
        for _ in range(30):
            x = _random_point(rng, [1, 2, 3])
            sigma = Bijection.of({"a": 1, "b": 2, "c": 3})
            y = point_relabel(sigma, x)
            H = x.orbit
            K = relabel_comp(sigma, H)
            for h in cone_lattice_points(total_of_composition(H), Box(2)):
                moved = CoweightVector(
                    K.ground, tuple(h.coord(sigma(a)) for a in K.ground.labels)
                )
                assert evaluate(y, K, moved) == evaluate(x, H, h)


class TestDualityWithSections:
    def test_split_evaluations_multiply(self):
        # evaluating the juxtaposed exponent at x itself, in the ambient
        # chart, equals the product of the component evaluations at the
        # forgetful halves
        rng = random.Random(46)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            for orbit in all_compositions(ground):
                if not refines(orbit, H):
                    continue
                for _ in range(5):
                    coords = {
                        x: Fraction(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(1, 4))
                        for x in ground.labels
                    }
                    x = PermPoint.of(orbit, coords)
                    for S, T in (((1, 2), (3,)), ((2,), (1, 3)), ((3,), (1, 2))):
                        HS, HT = restrict(H, S), restrict(H, T)
                        pS = total_of_composition(HS)
                        pT = total_of_composition(HT)
                        xS, xT = point_comul(x, S, T)
                        for h1 in cone_lattice_points(pS, Box(1)):
                            for h2 in cone_lattice_points(pT, Box(1)):
                                joint = co_mul(h1, pS, h2, pT)
                                lhs = evaluate(x, H, joint)
                                rhs = evaluate(xS, HS, h1) * evaluate(xT, HT, h2)
                                assert lhs == rhs


class TestChartRefinement:
    def test_evaluation_agrees_across_charts(self):
        # an exponent visible in a finer chart evaluates identically in any
        # coarser chart containing the orbit
        rng = random.Random(47)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            for Hmid in all_compositions(ground):
                if not refines(Hmid, H):
                    continue
                for orbit in all_compositions(ground):
                    if not refines(orbit, Hmid):
                        continue
                    coords = {
                        x: Fraction(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(1, 4))
                        for x in ground.labels
                    }
                    x = PermPoint.of(orbit, coords)
                    for h in cone_lattice_points(total_of_composition(H), Box(1)):
                        assert evaluate(x, H, h) == evaluate(x, Hmid, h)


def relabel_comp(sigma, H):
    from permutokit.setcomp import relabel

    return relabel(sigma, H)


# ---------------------------------------------------------------------------
# one juxtaposition and one restriction for every point class: differential
# checks against the label-based definitions, copied in as oracles


SPLIT_GROUNDS = [GroundSet.of(range(1, n + 1)) for n in range(5)] + [
    GroundSet.of([1, 2, "a", "b"])
]
SPLITS = [
    (
        g,
        tuple(x for k, x in enumerate(g.labels) if m >> k & 1),
        tuple(x for k, x in enumerate(g.labels) if not m >> k & 1),
    )
    for g in SPLIT_GROUNDS
    for m in range(1 << len(g))
]
FAMILIES = (
    "cone_product_map", "point_mul", "sections_mul",
    "cone_restrict", "restrict_point", "point_comul",
)
MAP_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def old_juxtapose(h1, h2, ground):
    return tuple(h1.coord(x) if x in h1.ground else h2.coord(x) for x in ground.labels)


def old_restrict(h, S):
    S = sorted_labels(S)
    return GroundSet.of(S), tuple(h.coord(x) for x in S)


def old_point_comul(x, S, T):
    return tuple(
        PermPoint.of(restrict(x.orbit, blk), {l: x.coord(l) for l in blk}) for blk in (S, T)
    )


def outcome(fn, *args):
    """The result, or ValueError when fn raises it."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _zero_sum(vals):
    return tuple(vals[:-1]) + (-sum(vals[:-1]),) if vals else ()


def _sections(labels, shift):
    """Sections of the permutohedron on labels, translated by shift."""
    k = len(labels)
    z = BooleanFunction.from_callable(
        GroundSet.of(labels),
        lambda A: sum(range(k, k - len(A), -1)) + sum(shift[x] for x in A),
    )
    return global_sections(z)


def map_mismatches(g, S, T, ints, shifts, fracs, lump_ids):
    """The families among FAMILIES whose result on the split (S, T) of g
    differs from its oracle, in class or in value."""
    gS, gT = GroundSet.of(S), GroundSet.of(T)
    n = len(g)
    bad = set()

    def check(name, got, want):
        if type(got) is not type(want) or got != want:
            bad.add(name)

    h1 = CoweightVector(gS, _zero_sum(ints[: len(S)]))
    h2 = CoweightVector(gT, _zero_sum(ints[4 : 4 + len(T)]))
    for a, b in ((h1, h2), (h2, h1)):
        check("cone_product_map", outcome(cone_product_map, a, b),
              CoweightVector(g, old_juxtapose(a, b, g)))
    joined = CoweightVector(g, old_juxtapose(h1, h2, g))
    for v in (CoweightVector(g, _zero_sum(ints[:n])), joined):
        for blk in (S, T):
            check("cone_restrict", outcome(cone_restrict, v, blk),
                  outcome(lambda: CoweightVector(*old_restrict(v, blk))))

    pt = AffinePoint(g, tuple(ints[:n]))
    for v in (pt, joined):
        for blk in (S, T):
            check("restrict_point", outcome(restrict_point, v, blk),
                  AffinePoint(*old_restrict(v, blk)))

    shift = dict(zip(g.labels, shifts))
    s1, s2 = _sections(S, shift), _sections(T, shift)
    want = sorted(old_juxtapose(p1, p2, g) for p1 in s1.points for p2 in s2.points)
    got = outcome(sections_mul, s1, s2)
    if got is ValueError or [tuple(r) for r in got.points.rows.tolist()] != want:
        bad.add("sections_mul")

    lump_of = dict(zip(g.labels, lump_ids))
    orbit = lambda labels: Composition.of(
        [[x for x in labels if lump_of[x] == i] for i in sorted({lump_of[x] for x in labels})]
    )
    raw = dict(zip(g.labels, fracs))
    x1, x2 = PermPoint.of(orbit(S), raw), PermPoint.of(orbit(T), raw)
    for a, b in ((x1, x2), (x2, x1)):
        check("point_mul", outcome(point_mul, a, b),
              PermPoint(concatenate(a.orbit, b.orbit), old_juxtapose(a, b, g)))
    x = PermPoint.of(orbit(g.labels), raw)
    check("point_comul", outcome(point_comul, x, S, T), old_point_comul(x, S, T))
    return sorted(bad)


BIG = st.integers(-(2**70), 2**70)
NONZERO_FRACTIONS = st.fractions(
    min_value=-(2**70), max_value=2**70, max_denominator=2**70
).filter(lambda f: f != 0)


class TestCoordinateMaps:
    @MAP_SETTINGS
    @given(
        st.lists(BIG, min_size=8, max_size=8),
        st.lists(st.integers(-(2**58), 2**58), min_size=4, max_size=4),
        st.lists(NONZERO_FRACTIONS, min_size=4, max_size=4),
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    def test_every_split_matches_the_label_oracles(self, ints, shifts, fracs, lump_ids):
        for g, S, T in SPLITS:
            assert map_mismatches(g, S, T, ints, shifts, fracs, lump_ids) == [], (S, T)

    def test_reversing_one_parts_positions_is_caught(self, monkeypatch):
        g, S, T = GroundSet.of([1, 2, "a", "b"]), (1, "a"), (2, "b")
        args = ([3, -5, 7, 11, -2, 13, 17, -19], [0, 4, -9, 2],
                [Fraction(k, 3) for k in (2, -5, 7, 11)], [0, 1, 0, 1])
        assert map_mismatches(g, S, T, *args) == []
        real = GroundSet.positions

        def reversed_for_S(self, labels):
            labels = tuple(labels)
            pos = real(self, labels)
            return pos[::-1] if labels == S else pos

        monkeypatch.setattr(GroundSet, "positions", reversed_for_S)
        assert map_mismatches(g, S, T, *args) == sorted(FAMILIES)


class TestPointClasses:
    g = GroundSet.of([1, "a"])

    def test_return_classes(self):
        h = CoweightVector(self.g, (2, -2))
        a = AffinePoint(self.g, (2, -2))
        assert type(cone_product_map(h, CoweightVector(GroundSet.of([3]), (0,)))) is CoweightVector
        assert type(cone_restrict(a, [1, "a"])) is CoweightVector
        assert type(restrict_point(h, [1])) is AffinePoint
        assert type(flat_mul([h], [0])) is AffinePoint
        assert type(CoweightVector.of(self.g, {1: 1, "a": -1})) is CoweightVector
        assert type(AffinePoint.of(self.g, {1: 1, "a": 1})) is AffinePoint
        assert type(-h) is CoweightVector and type(h + h) is CoweightVector
        assert CoweightVector.zero(self.g) == CoweightVector(self.g, (0, 0))
        assert h.total() == 0 and a.total() == 0 and h.coord("a") == -2

    def test_classes_never_compare_equal(self):
        h = CoweightVector(self.g, (2, -2))
        a = AffinePoint(self.g, (2, -2))
        assert h != a and a != h
        assert isinstance(h, AffinePoint) and not isinstance(a, CoweightVector)
        with pytest.raises(TypeError):
            a + a

    def test_repr(self):
        assert repr(CoweightVector(self.g, (1, -1))) == (
            "CoweightVector(ground=GroundSet(labels=(1, 'a')), coords=(1, -1))"
        )
        assert repr(AffinePoint(self.g, (1, -1))) == (
            "AffinePoint(ground=GroundSet(labels=(1, 'a')), coords=(1, -1))"
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to zero"):
            CoweightVector(self.g, (1, 1))
        with pytest.raises(ValueError, match="coordinate count"):
            CoweightVector(self.g, (0,))
        with pytest.raises(ValueError, match="coordinate count"):
            AffinePoint(self.g, (0,))

    def test_point_sets_keep_their_kind(self):
        h = CoweightVector(self.g, (2, -2))
        a = AffinePoint(self.g, (2, -2))
        with pytest.raises(ValueError, match="AffinePoints"):
            PointSet.of(self.g, [h], AffinePoint)
        with pytest.raises(ValueError, match="CoweightVectors"):
            PointSet.of(self.g, [a], CoweightVector)
        assert h not in PointSet.of(self.g, [a], AffinePoint)
        assert a not in PointSet.of(self.g, [h], CoweightVector)
        assert plates.AffinePoint is AffinePoint
