"""Lattice-point bialgebras: cone monomials under juxtaposition and face
projection, and the integer points of base polytopes with the same structure."""
import random
from itertools import product

import pytest

from permutokit.boolfun import BooleanFunction, bf_comul, bf_mul, hei, z_of_point
from permutokit.cones import Box, CoweightVector, cone_contains, cone_lattice_points, coroot, pairing
from permutokit.plates import AffinePoint, Plate, plate_F_face_contains
from permutokit.preposet import (
    Preposet,
    enumerate_preposets,
    o_comul,
    o_mul,
    total_of_composition,
)
from permutokit.sections import (
    SectionBasis,
    TensorWord,
    co_comul,
    co_mul,
    global_sections,
    sections_comul,
    sections_mul,
)
from permutokit.setcomp import Composition, GroundSet, two_block_decompositions
from split_oracle import split_admissible


def pt(labels, *coords):
    return AffinePoint(GroundSet.of(labels), tuple(coords))


def bf(labels, values):
    return BooleanFunction(GroundSet.of(labels), tuple(values))


def sections_comul_components(s, S, T):
    """The two carrier bases a nonzero sections_comul lands in."""
    z1, z2 = bf_comul(s.z, S, T)
    return global_sections(z1), global_sections(z2)


def _random_submodular(rng, labels):
    ground = GroundSet.of(labels)
    blocks = []
    for _ in range(rng.randint(1, 4)):
        blk = frozenset(x for x in labels if rng.random() < 0.6)
        if blk:
            blocks.append((blk, rng.randint(0, 3)))
    shift = {x: rng.randint(-2, 2) for x in labels}

    def fn(A):
        return sum(w for blk, w in blocks if A & blk) + sum(shift[x] for x in A)

    return BooleanFunction.from_callable(ground, fn)


_PERMUTOHEDRON3 = BooleanFunction.from_callable(
    GroundSet.of([1, 2, 3]), lambda A: {0: 0, 1: 3, 2: 5, 3: 6}[len(A)]
)


class TestTensorWord:
    def test_zero(self):
        assert TensorWord.zero().is_zero
        assert not TensorWord((1, 2)).is_zero


class TestCoMul:
    def test_zero_exponents(self):
        gS, gT = GroundSet.of([1, 2]), GroundSet.of([3])
        out = co_mul(
            CoweightVector.zero(gS),
            Preposet.antichain(gS),
            CoweightVector.zero(gT),
            Preposet.antichain(gT),
        )
        assert out == CoweightVector.zero(GroundSet.of([1, 2, 3]))

    def test_coroot_with_trivial_factor(self):
        gS, gT = GroundSet.of([1, 2]), GroundSet.of([3])
        p = Preposet.from_pairs(gS, [(1, 2)])
        out = co_mul(coroot(2, 1, gS), p, CoweightVector.zero(gT), Preposet.antichain(gT))
        assert out.coords == (-1, 1, 0)
        assert cone_contains(o_mul(p, Preposet.antichain(gT)), out)

    def test_outside_cone_rejected(self):
        gS, gT = GroundSet.of([1, 2]), GroundSet.of([3])
        p = Preposet.from_pairs(gS, [(1, 2)])
        with pytest.raises(ValueError):
            co_mul(coroot(1, 2, gS), p, CoweightVector.zero(gT), Preposet.antichain(gT))


class TestCoComul:
    def test_origin_splits_whenever_the_face_exists(self):
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            w = co_comul(CoweightVector.zero(ground), p, [1, 2], [3])
            if split_admissible(p, [1, 2], [3]):
                assert w.parts[0] == CoweightVector.zero(GroundSet.of([1, 2]))
                assert w.parts[1] == CoweightVector.zero(GroundSet.of([3]))
            else:
                assert w.is_zero

    def test_on_face_splits(self):
        ground = GroundSet.of([1, 2, 3])
        p = total_of_composition(Composition.of([[1], [2], [3]]))
        w = co_comul(coroot(2, 1, ground), p, [1, 2], [3])
        assert w.parts == (
            coroot(2, 1, GroundSet.of([1, 2])),
            CoweightVector.zero(GroundSet.of([3])),
        )

    def test_off_face_is_zero(self):
        ground = GroundSet.of([1, 2])
        p = total_of_composition(Composition.of([[1], [2]]))
        w = co_comul(CoweightVector(ground, (-1, 1)), p, [1], [2])
        assert w.is_zero

    def test_outside_cone_rejected(self):
        ground = GroundSet.of([1, 2])
        p = Preposet.from_pairs(ground, [(1, 2)])
        with pytest.raises(ValueError):
            co_comul(CoweightVector(ground, (1, -1)), p, [1], [2])


class TestConeBialgebraLaws:
    def test_coassociativity_on_lattice_points(self):
        # split along (A, B∪C) then (B,C), against (A∪B, C) then (A,B)
        ground = GroundSet.of([1, 2, 3])
        labels = ground.labels
        splits = [
            (A, B, tuple(x for x in labels if x not in A and x not in B))
            for A, rest in two_block_decompositions(ground)
            for B, _ in two_block_decompositions(GroundSet.of(rest))
        ]
        for p in enumerate_preposets(ground):
            for h in cone_lattice_points(p, Box(3)):
                for A, B, C in splits:
                    BC = tuple(sorted(set(B) | set(C), key=labels.index))
                    AB = tuple(sorted(set(A) | set(B), key=labels.index))
                    w1 = co_comul(h, p, A, BC)
                    if w1.is_zero:
                        r1 = None
                    else:
                        pA, pBC = o_comul(p, A, BC)
                        w2 = co_comul(w1.parts[1], pBC, B, C)
                        r1 = None if w2.is_zero else (w1.parts[0],) + w2.parts
                    v1 = co_comul(h, p, AB, C)
                    if v1.is_zero:
                        r2 = None
                    else:
                        pAB, pC = o_comul(p, AB, C)
                        v2 = co_comul(v1.parts[0], pAB, A, B)
                        r2 = None if v2.is_zero else v2.parts + (v1.parts[1],)
                    assert r1 == r2

    def test_bimonoid_square_on_lattice_points(self):
        # product then split along a crossing decomposition, against
        # splitting the factors and multiplying the halves
        gS, gT = GroundSet.of([1, 2]), GroundSet.of([3])
        for p in enumerate_preposets(gS):
            for q in enumerate_preposets(gT):
                pq = o_mul(p, q)
                pts1 = cone_lattice_points(p, Box(3))
                pts2 = cone_lattice_points(q, Box(3))
                for h1, h2 in product(pts1, pts2):
                    m = co_mul(h1, p, h2, q)
                    for S1, S2 in two_block_decompositions(gS):
                        for T1, T2 in two_block_decompositions(gT):
                            U = tuple(S1) + tuple(T1)
                            V = tuple(S2) + tuple(T2)
                            left = co_comul(m, pq, U, V)
                            wa = co_comul(h1, p, S1, S2)
                            wb = co_comul(h2, q, T1, T2)
                            if wa.is_zero or wb.is_zero:
                                right = TensorWord.zero()
                            else:
                                pa = o_comul(p, S1, S2)
                                qa = o_comul(q, T1, T2)
                                right = TensorWord(
                                    (
                                        co_mul(wa.parts[0], pa[0], wb.parts[0], qa[0]),
                                        co_mul(wa.parts[1], pa[1], wb.parts[1], qa[1]),
                                    )
                                )
                            assert left.is_zero == right.is_zero
                            if not left.is_zero:
                                assert left.parts == right.parts


class TestGlobalSections:
    def test_permutohedron_has_seven_points(self):
        basis = global_sections(_PERMUTOHEDRON3)
        coords = {h.coords for h in basis.points}
        assert len(coords) == 7
        assert (2, 2, 2) in coords
        assert all(sorted(c) == [1, 2, 3] for c in coords - {(2, 2, 2)})

    def test_modular_pins_single_point(self):
        ground = GroundSet.of([1, 2, 3])
        z = z_of_point(ground, (2, -1, 4))
        basis = global_sections(z)
        assert [h.coords for h in basis.points] == [(2, -1, 4)]

    def test_two_element_example(self):
        z = bf([1, 2], [0, 1, 1, 1])
        assert {h.coords for h in global_sections(z).points} == {(0, 1), (1, 0)}

    def test_empty_for_infeasible(self):
        z = bf([1, 2], [0, 0, 0, 1])
        assert global_sections(z).points == ()

    def test_validation_rejects_outsiders(self):
        z = bf([1, 2], [0, 1, 1, 1])
        with pytest.raises(ValueError):
            SectionBasis(z, (pt([1, 2], 2, -1),))
        with pytest.raises(ValueError):
            SectionBasis(z, (pt([1, 2], 1, 1),))


class TestSectionsMul:
    def test_matches_direct_enumeration(self):
        rng = random.Random(31)
        for _ in range(25):
            z1 = _random_submodular(rng, [1, 3])
            z2 = _random_submodular(rng, [2, 4])
            prod_basis = sections_mul(global_sections(z1), global_sections(z2))
            direct = global_sections(bf_mul(z1, z2))
            assert prod_basis.z == direct.z
            assert set(prod_basis.points) == set(direct.points)

    def test_counting_multiplicativity(self):
        rng = random.Random(32)
        for _ in range(25):
            z1 = _random_submodular(rng, [1, 2])
            z2 = _random_submodular(rng, [3])
            n1 = len(global_sections(z1).points)
            n2 = len(global_sections(z2).points)
            assert len(global_sections(bf_mul(z1, z2)).points) == n1 * n2

    def test_empty_factor_gives_empty(self):
        z1 = bf([1, 2], [0, 0, 0, 1])
        z2 = bf([3], [0, 1])
        assert sections_mul(global_sections(z1), global_sections(z2)).points == ()


class TestSectionsComul:
    def test_modular_point_splits(self):
        ground = GroundSet.of([1, 2, 3])
        z = z_of_point(ground, (2, -1, 4))
        basis = global_sections(z)
        w = sections_comul(basis, basis.points[0], [1, 3], [2])
        assert w.parts == (pt([1, 3], 2, 4), pt([2], -1))

    def test_permutohedron_examples(self):
        basis = global_sections(_PERMUTOHEDRON3)
        h = next(h for h in basis.points if h.coords == (3, 2, 1))
        w = sections_comul(basis, h, [1], [2, 3])
        assert w.parts == (pt([1], 3), pt([2, 3], 2, 1))
        barycenter = next(h for h in basis.points if h.coords == (2, 2, 2))
        assert sections_comul(basis, barycenter, [1], [2, 3]).is_zero

    def test_non_section_rejected(self):
        basis = global_sections(_PERMUTOHEDRON3)
        with pytest.raises(ValueError):
            sections_comul(basis, pt([1, 2, 3], 6, 0, 0), [1], [2, 3])

    def test_parts_are_sections_of_the_halves(self):
        rng = random.Random(33)
        for _ in range(20):
            z = _random_submodular(rng, [1, 2, 3])
            basis = global_sections(z)
            for S, T in two_block_decompositions(z.ground, include_empty=False):
                left, right = sections_comul_components(basis, S, T)
                for h in basis.points:
                    w = sections_comul(basis, h, S, T)
                    if not w.is_zero:
                        assert w.parts[0] in left.points
                        assert w.parts[1] in right.points

    def test_face_criterion_matches_plate_face(self):
        # nonzero split exactly on the F-face of the plate of any linear
        # order listing S before T
        rng = random.Random(34)
        for _ in range(20):
            z = _random_submodular(rng, [1, 2, 3])
            basis = global_sections(z)
            for S, T in two_block_decompositions(z.ground, include_empty=False):
                F = Composition.of([list(S), list(T)])
                H_lin = Composition.of([[x] for x in S] + [[x] for x in T])
                P = Plate(H_lin, z)
                split = {h for h in basis.points if not sections_comul(basis, h, S, T).is_zero}
                face = {h for h in basis.points if plate_F_face_contains(P, F, h)}
                assert split == face

    def test_graded_square(self):
        # splitting a product point along a crossing decomposition matches
        # the juxtaposition of the split halves
        rng = random.Random(35)
        for _ in range(20):
            z1 = _random_submodular(rng, [1, 2])
            z2 = _random_submodular(rng, [3, 4])
            s1, s2 = global_sections(z1), global_sections(z2)
            joint = sections_mul(s1, s2)
            for h1 in s1.points:
                for h2 in s2.points:
                    h = next(
                        hh
                        for hh in joint.points
                        if all(hh.coord(x) == h1.coord(x) for x in z1.ground.labels)
                        and all(hh.coord(x) == h2.coord(x) for x in z2.ground.labels)
                    )
                    for S1, S2 in two_block_decompositions(z1.ground):
                        for T1, T2 in two_block_decompositions(z2.ground):
                            U = tuple(S1) + tuple(T1)
                            left = sections_comul(joint, h, U, tuple(S2) + tuple(T2))
                            wa = sections_comul(s1, h1, S1, S2)
                            wb = sections_comul(s2, h2, T1, T2)
                            if wa.is_zero or wb.is_zero:
                                assert left.is_zero
                            else:
                                assert not left.is_zero
                                got_first = left.parts[0]
                                want_first = {
                                    x: wa.parts[0].coord(x) for x in wa.parts[0].ground.labels
                                }
                                want_first.update(
                                    {x: wb.parts[0].coord(x) for x in wb.parts[0].ground.labels}
                                )
                                assert {
                                    x: got_first.coord(x) for x in got_first.ground.labels
                                } == want_first
