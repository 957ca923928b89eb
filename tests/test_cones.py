"""Coroot cones: halfspace membership, generators, windowed lattice points,
product and face maps. Membership is cross-checked against an independent
exact-arithmetic generator oracle."""
from fractions import Fraction
from itertools import combinations, product

import pytest

from permutokit import cones
from permutokit.cones import (
    Box,
    CoweightVector,
    cone_contains,
    cone_face,
    cone_lattice_points,
    cone_product_map,
    cone_restrict,
    coroot,
    pairing,
)
from permutokit.preposet import (
    Bottom,
    Preposet,
    enumerate_aug_preposets,
    enumerate_preposets,
    is_bottom,
    o_comul,
    o_mul,
    restrict_preposet,
    total_of_composition,
)
from permutokit.setcomp import Composition, GroundSet, _split_blocks, two_block_decompositions
from oracle_maps import cone_generators
from split_oracle import split_admissible


def _solve_exact(cols, target):
    """Solve sum_j c_j cols[j] = target over the rationals; None when the
    columns are dependent or the system is inconsistent."""
    n, k = len(target), len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            return None  # dependent columns
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == k:
            break
    for i in range(r, n):
        if rows[i][k] != 0:
            return None  # inconsistent
    return [rows[i][k] for i in range(k)]


def _in_generator_cone(p, h) -> bool:
    """Independent membership oracle: h is a nonnegative rational combination
    of the generating coroots (some linearly independent subset suffices)."""
    gens = [g.coords for g in cone_generators(p)]
    if all(v == 0 for v in h.coords):
        return True
    dim = max(len(h.coords) - 1, 0)
    for size in range(1, min(dim, len(gens)) + 1):
        for sub in combinations(gens, size):
            sol = _solve_exact(sub, h.coords)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def cw(ground_labels, *coords):
    return CoweightVector(GroundSet.of(ground_labels), tuple(coords))


class TestCoweightVector:
    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            cw([1, 2], 1, 1)

    def test_arithmetic(self):
        h = cw([1, 2], 1, -1)
        assert (-h).coords == (-1, 1)
        assert (h + h).coords == (2, -2)

    def test_coroot(self):
        h = coroot(2, 1, GroundSet.of([1, 2, 3]))
        assert h.coords == (-1, 1, 0)

    def test_pairing(self):
        h = cw([1, 2, 3], 2, -1, -1)
        assert pairing(h, [1, 2]) == 1
        assert pairing(h, []) == 0


class TestConeContains:
    def test_bottom_contains_nothing(self):
        ground = GroundSet.of([1, 2])
        assert not cone_contains(Bottom(ground), CoweightVector.zero(ground))

    def test_origin_in_every_cone(self):
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            assert cone_contains(p, CoweightVector.zero(ground))

    def test_generators_lie_in_their_cone(self):
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            for g in cone_generators(p):
                assert cone_contains(p, g)

    def test_coroot_dichotomy(self):
        # the coroot +1 at i1, -1 at i2 lies in the cone exactly when the
        # relation holds the other way around
        for n in (2, 3):
            ground = GroundSet.of(range(1, n + 1))
            for p in enumerate_preposets(ground):
                for i1 in ground.labels:
                    for i2 in ground.labels:
                        if i1 == i2:
                            continue
                        assert cone_contains(p, coroot(i1, i2, ground)) == p.has(
                            i2, i1
                        )

    def test_halfspaces_match_generator_oracle(self):
        # dual description vs primal description on a lattice window
        for n in (2, 3):
            ground = GroundSet.of(range(1, n + 1))
            grid = [
                CoweightVector(ground, c)
                for c in product(range(-2, 3), repeat=n)
                if sum(c) == 0
            ]
            for p in enumerate_preposets(ground):
                for h in grid:
                    assert cone_contains(p, h) == _in_generator_cone(p, h)


class TestLatticePoints:
    def test_bound_zero_keeps_origin_only(self):
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            pts = cone_lattice_points(p, Box(0))
            assert pts == (CoweightVector.zero(ground),)

    def test_bottom_has_no_points(self):
        assert cone_lattice_points(Bottom(GroundSet.of([1, 2])), Box(2)) == ()

    def test_antichain_cone_is_origin(self):
        # no generators: the cone is the single point 0
        ground = GroundSet.of([1, 2, 3])
        pts = cone_lattice_points(Preposet.antichain(ground), Box(3))
        assert pts == (CoweightVector.zero(ground),)

    def test_complete_relation_fills_the_window(self):
        # everything related to everything: all upward pairings are forced
        # to zero... only (S,T) with no reverse pair survive; none do, so the
        # cone is the full zero-sum lattice
        ground = GroundSet.of([1, 2])
        pts = cone_lattice_points(Preposet.complete(ground), Box(2))
        assert len(pts) == 5

    def test_chain_halfline(self):
        # p = {1 <= 2}: points (a, -a) with a <= 0
        p = Preposet.from_pairs(GroundSet.of([1, 2]), [(1, 2)])
        pts = cone_lattice_points(p, Box(2))
        assert [h.coords for h in pts] == [(-2, 2), (-1, 1), (0, 0)]

    def test_lex_order(self):
        ground = GroundSet.of([1, 2, 3])
        pts = cone_lattice_points(Preposet.complete(ground), Box(1))
        assert [h.coords for h in pts] == sorted(h.coords for h in pts)


class TestProduct:
    def test_juxtaposition(self):
        h = cone_product_map(cw([1, 2], 1, -1), cw([3], 0))
        assert h.ground.labels == (1, 2, 3)
        assert h.coords == (1, -1, 0)

    def test_restrict_inverts(self):
        h1, h2 = cw([1, 3], 2, -2), cw([2], 0)
        h = cone_product_map(h1, h2)
        assert cone_restrict(h, [1, 3]) == h1
        assert cone_restrict(h, [2]) == h2

    def test_windowed_bijection_exhaustive_n3(self):
        # lattice points of the union cone = juxtapositions of factor points
        B = 2
        gS, gT = GroundSet.of([1, 2]), GroundSet.of([3])
        for p in enumerate_preposets(gS):
            for q in enumerate_preposets(gT):
                joint = set(cone_lattice_points(o_mul(p, q), Box(B)))
                split = {
                    cone_product_map(h1, h2)
                    for h1 in cone_lattice_points(p, Box(B))
                    for h2 in cone_lattice_points(q, Box(B))
                }
                assert joint == split


class TestFace:
    def test_empty_block_returns_p(self):
        p = Preposet.from_pairs(GroundSet.of([1, 2]), [(1, 2)])
        assert cone_face(p, [1, 2], []) == p
        assert cone_face(p, [], [1, 2]) == p

    def test_inadmissible_split_is_bottom(self):
        p = Preposet.from_pairs(GroundSet.of([1, 2]), [(2, 1)])
        assert is_bottom(cone_face(p, [1], [2]))

    def test_admissible_split_unions_restrictions(self):
        p = total_of_composition(Composition.of([[1], [2], [3]]))
        f = cone_face(p, [1, 2], [3])
        assert set(f.pairs) == {(1, 2)}

    def test_bottom_in_bottom_out(self):
        assert is_bottom(cone_face(Bottom(GroundSet.of([1, 2])), [1], [2]))

    def test_face_points_are_slice_exhaustive_n3(self):
        # admissible split: points of the face cone = points of the cone with
        # zero pairing on S; inadmissible: the halfspace fails, witnessed by
        # a windowed point on the strictly positive side
        B = 2
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            pts = cone_lattice_points(p, Box(B))
            for S, T in two_block_decompositions(ground):
                if split_admissible(p, S, T) or not S or not T:
                    face = cone_face(p, S, T)
                    sliced = {h for h in pts if pairing(h, S) == 0}
                    assert sliced == set(cone_lattice_points(face, Box(B)))
                else:
                    assert is_bottom(cone_face(p, S, T))
                    assert any(pairing(h, S) > 0 for h in pts)

    def test_face_cone_is_subcone(self):
        ground = GroundSet.of([1, 2, 3])
        for p in enumerate_preposets(ground):
            for S, T in two_block_decompositions(ground):
                face = cone_face(p, S, T)
                if is_bottom(face):
                    assert not split_admissible(p, S, T) or (not S or not T)
                    continue
                for h in cone_lattice_points(face, Box(1)):
                    assert cone_contains(p, h)


def _face_oracle(p, S, T):
    """The face as it was once derived, kept here as the oracle: the bottom
    for a bottom p or an inadmissible split, p for an empty block, else the
    union of the two restrictions."""
    if is_bottom(p):
        return Bottom(p.ground)
    S, T = _split_blocks(p.ground, S, T)
    if not split_admissible(p, S, T):
        return Bottom(p.ground)
    if not S or not T:
        return p
    return o_mul(restrict_preposet(p, S), restrict_preposet(p, T))


FACE_GROUNDS = [GroundSet.of(range(1, n + 1)) for n in range(5)] + [
    GroundSet.of([1, 2, "a", "b"])
]


def face_mismatches():
    """(p, S, T) for every augmented preposet on each ground and every
    split, empty blocks included, where cone_face differs from the oracle."""
    return [
        (p, S, T)
        for g in FACE_GROUNDS
        for p in enumerate_aug_preposets(g)
        for S, T in two_block_decompositions(g)
        if cones.cone_face(p, S, T) != _face_oracle(p, S, T)
    ]


class TestFaceIsTheProductOfTheCoproduct:
    def test_matches_the_restriction_oracle(self):
        assert face_mismatches() == []

    def test_swapped_blocks_are_caught(self, monkeypatch):
        monkeypatch.setattr(cones, "cone_face", lambda p, S, T: o_mul(*o_comul(p, T, S)))
        assert face_mismatches()

    def test_a_bottom_still_needs_a_decomposition(self):
        with pytest.raises(ValueError, match="do not decompose"):
            cone_face(Bottom(GroundSet.of([1, 2])), [1], [1])
