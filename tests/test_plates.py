"""Plates: initial-segment halfspaces around an affine height slice, windowed
lattice points, maximal affine flats, juxtaposition of flats, and faces
selected by coarsenings."""
import random
from itertools import product

import pytest

from oracle_maps import bf_comul_along, cone_generators, flat_mul, max_affine_flat
from permutokit.boolfun import BooleanFunction, bf_mul, hei, z_of_point
from permutokit.cones import Box, cone_product_map, pairing
from permutokit.plates import (
    AffinePoint,
    FlatSpec,
    Plate,
    flat_contains,
    plate_contains,
    plate_F_face_contains,
    plate_lattice_points,
    restrict_point,
    window_center,
)
from permutokit.preposet import total_of_composition
from permutokit.setcomp import Composition, GroundSet, all_compositions, refines, restrict


def pt(labels, *coords):
    return AffinePoint(GroundSet.of(labels), tuple(coords))


def bf(labels, values):
    return BooleanFunction(GroundSet.of(labels), tuple(values))


def halfspace_contains(A, z, h):
    """Oracle: whether the pairing of h with A is at most z(A). A must be a
    proper nonempty subset; the ambient height equality is checked
    separately."""
    A = set(A)
    if not A or A == set(z.ground.labels):
        raise ValueError("A must be a proper nonempty subset")
    return pairing(h, A) <= z.value(A)


def initial_segments(H):
    """Oracle: the proper nonempty initial segments of H, shortest first,
    each in the ground's canonical order."""
    segs, seen = [], set()
    for lump in H.lumps[:-1]:
        seen.update(lump)
        segs.append(tuple(x for x in H.ground.labels if x in seen))
    return segs


def _random_bf(rng, labels, lo=-3, hi=3):
    n = len(labels)
    return bf(labels, [0] + [rng.randint(lo, hi) for _ in range((1 << n) - 1)])


class TestAffinePoint:
    def test_coord_and_total(self):
        h = pt([1, 2, 3], 2, -1, 4)
        assert h.coord(2) == -1
        assert h.total() == 5

    def test_empty_total(self):
        assert pt([]).total() == 0

    def test_length_checked(self):
        with pytest.raises(ValueError):
            pt([1, 2], 1)


class TestHalfspace:
    def test_boundary_is_inside(self):
        z = bf([1, 2], [0, 1, 1, 2])
        assert halfspace_contains([1], z, pt([1, 2], 1, 1))

    def test_strict_violation(self):
        z = BooleanFunction.zero(GroundSet.of([1, 2]))
        assert not halfspace_contains([1], z, pt([1, 2], 1, -1))
        assert halfspace_contains([1], z, pt([1, 2], -1, 1))

    def test_proper_nonempty_required(self):
        z = BooleanFunction.zero(GroundSet.of([1, 2]))
        with pytest.raises(ValueError):
            halfspace_contains([], z, pt([1, 2], 0, 0))
        with pytest.raises(ValueError):
            halfspace_contains([1, 2], z, pt([1, 2], 0, 0))


class TestPlateContains:
    def test_one_lump_is_height_slice_only(self):
        P = Plate(Composition.one_lump(GroundSet.of([1, 2])), BooleanFunction.zero(GroundSet.of([1, 2])))
        assert plate_contains(P, pt([1, 2], 1, -1))
        assert not plate_contains(P, pt([1, 2], 1, 1))

    def test_two_singleton_lumps(self):
        P = Plate(Composition.of([[1], [2]]), BooleanFunction.zero(GroundSet.of([1, 2])))
        assert not plate_contains(P, pt([1, 2], 1, -1))
        assert plate_contains(P, pt([1, 2], -1, 1))

    def test_origin_in_every_zero_plate(self):
        ground = GroundSet.of([1, 2, 3])
        origin = pt([1, 2, 3], 0, 0, 0)
        for H in all_compositions(ground):
            assert plate_contains(Plate(H, BooleanFunction.zero(ground)), origin)

    def test_ground_mismatch(self):
        P = Plate(Composition.of([[1]]), bf([1], [0, 1]))
        with pytest.raises(ValueError):
            plate_contains(P, pt([2], 1))


class TestLatticePoints:
    def test_two_singletons_halfline(self):
        P = Plate(Composition.of([[1], [2]]), BooleanFunction.zero(GroundSet.of([1, 2])))
        got = {h.coords for h in plate_lattice_points(P, Box(2))}
        assert got == {(0, 0), (-1, 1), (-2, 2)}

    def test_one_lump_window(self):
        P = Plate(Composition.one_lump(GroundSet.of([1, 2])), BooleanFunction.zero(GroundSet.of([1, 2])))
        assert len(plate_lattice_points(P, Box(1))) == 3

    def test_translation_shifts_membership(self):
        rng = random.Random(21)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            d = {x: rng.randint(-2, 2) for x in ground.labels}
            zd = z_of_point(ground, d)
            shifted = BooleanFunction(ground, tuple(a + b for a, b in zip(z.values, zd.values)))
            P, Pd = Plate(H, z), Plate(H, shifted)
            probes = list(plate_lattice_points(Pd, Box(2)))
            probes += [
                AffinePoint(ground, tuple(rng.randint(-4, 4) for _ in range(3)))
                for _ in range(30)
            ]
            for h in probes:
                back = AffinePoint(ground, tuple(c - d[x] for c, x in zip(h.coords, ground.labels)))
                assert plate_contains(Pd, h) == plate_contains(P, back)

    def test_every_point_passes_membership(self):
        rng = random.Random(22)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            P = Plate(H, z)
            for h in plate_lattice_points(P, Box(2)):
                assert plate_contains(P, h)


class TestMaxAffineFlat:
    def test_one_lump(self):
        z = bf([1, 2], [0, 1, 1, 2])
        spec = max_affine_flat(Plate(Composition.one_lump(GroundSet.of([1, 2])), z))
        assert spec.heights == (2,)

    def test_two_lumps_worked(self):
        z = bf([1, 2], [0, 1, 1, 2])
        spec = max_affine_flat(Plate(Composition.of([[1], [2]]), z))
        assert spec.heights == (1, 1)

    def test_flat_points_saturate_segments(self):
        rng = random.Random(23)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            P = Plate(H, z)
            center = window_center(P)
            assert flat_contains(max_affine_flat(P), center)
            for seg in initial_segments(H):
                assert sum(center.coord(x) for x in seg) == z.value(seg)

    def test_heights_count_checked(self):
        with pytest.raises(ValueError):
            FlatSpec(Composition.of([[1], [2]]), (1,))


class TestFlatMul:
    def test_two_singletons(self):
        h = flat_mul([pt([1], 2), pt([2], 3)], [2, 3])
        assert h.coords == (2, 3)
        assert h.total() == 5

    def test_zero_heights_reduce_to_cone_product(self):
        h1, h2 = pt([1, 3], 2, -2), pt([2], 0)
        juxt = flat_mul([h1, h2], [0, 0])
        g1 = GroundSet.of([1, 3])
        g2 = GroundSet.of([2])
        from permutokit.cones import CoweightVector

        cone = cone_product_map(CoweightVector(g1, h1.coords), CoweightVector(g2, h2.coords))
        assert juxt.coords == cone.coords

    def test_regrouping_associative(self):
        a, b, c = pt([1], 1), pt([2], 2), pt([3], 3)
        whole = flat_mul([a, b, c], [1, 2, 3])
        left = flat_mul([flat_mul([a, b], [1, 2]), c], [3, 3])
        assert whole == left

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flat_mul([pt([1], 2)], [3])

    def test_restrict_inverts(self):
        h = flat_mul([pt([1, 3], 1, 2), pt([2], 5)], [3, 5])
        assert restrict_point(h, [1, 3]) == pt([1, 3], 1, 2)
        assert restrict_point(h, [2]) == pt([2], 5)


class TestModuleAndRedundancy:
    def test_cone_generators_act_on_plates(self):
        # adding any generator of the cone of the underlying order keeps
        # membership
        rng = random.Random(24)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            P = Plate(H, z)
            gens = cone_generators(total_of_composition(H))
            for h in plate_lattice_points(P, Box(1)):
                for c in gens:
                    moved = AffinePoint(ground, tuple(a + b for a, b in zip(h.coords, c.coords)))
                    assert plate_contains(P, moved)

    def test_trivial_segments_are_redundant(self):
        # the empty prefix and the full ground set add nothing: the empty
        # pairing is 0 <= 0 and the full segment is the ambient equality
        rng = random.Random(25)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            P = Plate(H, z)
            for h in plate_lattice_points(P, Box(2)):
                assert sum(h.coords) <= hei(z)
                assert 0 <= z.value([])


class TestFFace:
    def test_one_lump_face_is_whole_plate(self):
        rng = random.Random(26)
        ground = GroundSet.of([1, 2])
        F = Composition.one_lump(ground)
        for _ in range(20):
            z = _random_bf(rng, [1, 2])
            P = Plate(Composition.of([[1], [2]]), z)
            for h in plate_lattice_points(P, Box(2)):
                assert plate_F_face_contains(P, F, h) == plate_contains(P, h)

    def test_face_at_H_is_max_flat(self):
        rng = random.Random(27)
        ground = GroundSet.of([1, 2, 3])
        for H in all_compositions(ground):
            z = _random_bf(rng, [1, 2, 3])
            P = Plate(H, z)
            spec = max_affine_flat(P)
            for h in plate_lattice_points(P, Box(2)):
                assert plate_F_face_contains(P, H, h) == flat_contains(spec, h)

    def test_non_coarsening_never_contains(self):
        z = BooleanFunction.zero(GroundSet.of([1, 2]))
        P = Plate(Composition.of([[1], [2]]), z)
        F = Composition.of([[2], [1]])
        assert not refines(F, P.H)
        for h in plate_lattice_points(P, Box(2)):
            assert not plate_F_face_contains(P, F, h)


class TestFactorization:
    def test_product_of_plates_windowed(self):
        # juxtaposing the factor windows fills exactly the window cut out by
        # every union of per-factor initial segments; per-factor height
        # equalities come for free from the crossing constraints
        rng = random.Random(28)
        B = 2
        blocks = ([1], [2, 3])
        grounds = [GroundSet.of(b) for b in blocks]
        deltas = range(-B, B + 1)
        for H1 in all_compositions(grounds[0]):
            for H2 in all_compositions(grounds[1]):
                z1 = _random_bf(rng, blocks[0])
                z2 = _random_bf(rng, blocks[1])
                z = bf_mul(z1, z2)
                ground = z.ground
                center = flat_mul(
                    [window_center(Plate(H1, z1)), window_center(Plate(H2, z2))],
                    [hei(z1), hei(z2)],
                )
                segs1 = [()] + initial_segments(H1) + [grounds[0].labels]
                segs2 = [()] + initial_segments(H2) + [grounds[1].labels]
                crossings = [
                    tuple(sorted(set(a) | set(b), key=lambda x: ground.index(x)))
                    for a in segs1
                    for b in segs2
                ]
                crossings = [A for A in crossings if A and set(A) != set(ground.labels)]
                target = set()
                for dv in product(deltas, repeat=3):
                    h = AffinePoint(ground, tuple(c + d for c, d in zip(center.coords, dv)))
                    if h.total() != hei(z):
                        continue
                    if all(halfspace_contains(A, z, h) for A in crossings):
                        target.add(h)
                factors1 = plate_lattice_points(Plate(H1, z1), Box(B))
                factors2 = plate_lattice_points(Plate(H2, z2), Box(B))
                image = {
                    flat_mul([a, b], [hei(z1), hei(z2)])
                    for a in factors1
                    for b in factors2
                }
                assert image == target
                assert len(image) == len(factors1) * len(factors2)

    def test_face_factorization_windowed(self):
        # splitting z along F and enumerating each factor plate juxtaposes
        # onto the F-face points of the assembled plate
        rng = random.Random(29)
        B = 2
        ground = GroundSet.of([1, 2, 3])
        for F in all_compositions(ground):
            if not F.lumps:
                continue
            for _ in range(3):
                z = _random_bf(rng, [1, 2, 3])
                for Ks in product(*(all_compositions(GroundSet.of(S)) for S in F.lumps)):
                    G = Composition.of([list(l) for K in Ks for l in K.lumps])
                    P = Plate(G, z)
                    parts = bf_comul_along(z, F)
                    heights = [hei(p) for p in parts]
                    image = {
                        flat_mul(list(pts), heights)
                        for pts in product(
                            *(
                                plate_lattice_points(Plate(K, part), Box(B))
                                for K, part in zip(Ks, parts)
                            )
                        )
                    }
                    face = {
                        h
                        for h in plate_lattice_points(P, Box(B))
                        if plate_F_face_contains(P, F, h)
                    }
                    assert image == face
