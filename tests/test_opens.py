"""Invariant open sets as down-closed orbit families: construction, the
preposet-indexed opens, pullbacks along product and forgetting, and the
exhaustive indexing check."""
import itertools
import random
from fractions import Fraction

import pytest

import permutokit.opens as opens_mod
from permutokit.opens import (
    IndexingReport,
    ToricOpen,
    check_indexing,
    comp_below_preposet,
    open_of_preposet,
    open_product,
    pullback_delta,
    pullback_mu,
)
from permutokit.points import PermPoint, point_comul, point_mul
from permutokit.preposet import (
    Bottom,
    Preposet,
    enumerate_aug_preposets,
    is_bottom,
    o_mul,
)
from permutokit.setcomp import (
    Composition,
    GroundSet,
    all_compositions,
    concatenate,
    refines,
    restrict,
)


def comp(*lumps):
    return Composition.of([list(l) for l in lumps])


class TestToricOpen:
    def test_down_closure_enforced(self):
        shape = Composition.one_lump(GroundSet.of([1, 2]))
        fine = comp([1], [2])
        with pytest.raises(ValueError):
            ToricOpen(shape, frozenset({(fine,)}))

    def test_closed_builds_down_closure(self):
        shape = Composition.one_lump(GroundSet.of([1, 2]))
        U = ToricOpen.closed(shape, [(comp([1], [2]),)])
        assert U.orbits == frozenset({(comp([1], [2]),), (comp([1, 2]),)})

    def test_whole_and_empty(self):
        shape = Composition.one_lump(GroundSet.of([1, 2]))
        assert len(ToricOpen.whole(shape).orbits) == 3
        assert ToricOpen.empty(shape).orbits == frozenset()

    def test_component_ground_checked(self):
        shape = Composition.one_lump(GroundSet.of([1, 2]))
        with pytest.raises(ValueError):
            ToricOpen(shape, frozenset({(comp([3]),)}))

    def test_product_past_the_label_cap_is_refused(self):
        # each factor is within the 7-label cap, their product is not
        U = ToricOpen.empty(Composition.one_lump(GroundSet.of(range(1, 5))))
        V = ToricOpen.empty(Composition.one_lump(GroundSet.of(range(5, 9))))
        with pytest.raises(ValueError, match="open sets capped at 7 labels"):
            open_product([U, V])


def down_set_closed(orbits) -> bool:
    """Down-closure as ToricOpen checked it before it checked covers: every
    coarsening of every coordinate of every tuple stays in the family."""
    for tup in orbits:
        for j, H in enumerate(tup):
            for K in frozenset(K for K in all_compositions(H.ground) if refines(K, H)):
                if tup[:j] + (K,) + tup[j + 1 :] not in orbits:
                    return False
    return True


def accepted(shape, orbits) -> bool:
    try:
        ToricOpen(shape, frozenset(orbits))
    except ValueError as exc:
        assert str(exc) == "orbit family is not down-closed"
        return False
    return True


def universe(shape):
    return list(itertools.product(*[all_compositions(GroundSet.of(l)) for l in shape.lumps]))


class TestCoverCheck:
    """ToricOpen checks each coordinate's covers (one adjacent merge) where
    it checked the whole down-set; the two accept the same families."""

    @pytest.mark.parametrize("lumps", [
        [], [[1]], [[1, 2]], [[1, 2, 3]], [[1], [2]], [[1], [2, 3]], [[2, 3], [1]], [["a"], [1, 2]],
    ])
    def test_every_family_on_three_labels_agrees_with_the_down_set_check(self, lumps):
        shape = Composition.of(lumps)
        tuples = universe(shape)
        for r in range(len(tuples) + 1):
            for family in itertools.combinations(tuples, r):
                assert accepted(shape, family) == down_set_closed(frozenset(family)), family

    @pytest.mark.parametrize("lumps", [[[1, 2, 3, 4]], [[1, 2], [3, 4]], [[1], [2, 3, 4]]])
    def test_sampled_families_on_four_labels_agree_with_the_down_set_check(self, lumps):
        shape = Composition.of(lumps)
        tuples = universe(shape)
        rng = random.Random(7)
        for _ in range(300):
            closed = ToricOpen.closed(shape, rng.sample(tuples, rng.randint(1, 3))).orbits
            for family in (closed, closed - {rng.choice(sorted(closed, key=repr))},
                           set(rng.sample(tuples, rng.randint(0, len(tuples))))):
                assert accepted(shape, family) == down_set_closed(frozenset(family)), family

    def test_shape_faults_are_named_before_closure_faults(self):
        shape = Composition.of([["a", "b"], ["c"]])
        fine = (comp(["a"], ["b"]), comp(["c"]))  # its cover ({a,b}), ({c}) is absent
        short = (comp(["a", "b"]),)
        foreign = (comp(["a", "b"]), comp(["d"]))
        with pytest.raises(ValueError, match="orbit tuple length does not match the shape"):
            ToricOpen(shape, frozenset({fine, foreign, short}))
        with pytest.raises(ValueError, match="orbit component over the wrong ground set"):
            ToricOpen(shape, frozenset({fine, foreign}))


class TestOpenOfPreposet:
    def test_complete_gives_dense_orbit_only(self):
        ground = GroundSet.of([1, 2])
        U = open_of_preposet(Preposet.complete(ground))
        assert U.orbits == frozenset({(Composition.one_lump(ground),)})

    def test_bottom_gives_empty(self):
        assert open_of_preposet(Bottom(GroundSet.of([1, 2]))).orbits == frozenset()

    def test_antichain_gives_whole_space(self):
        ground = GroundSet.of([1, 2, 3])
        U = open_of_preposet(Preposet.antichain(ground))
        assert len(U.orbits) == 13

    def test_injective_up_to_n4(self):
        for n in (2, 3, 4):
            ground = GroundSet.of(range(1, n + 1))
            seen = {}
            for p in enumerate_aug_preposets(ground):
                key = open_of_preposet(p).orbits
                assert key not in seen, (p, seen[key])
                seen[key] = p


class TestPullbacks:
    def test_whole_pulls_back_to_whole(self):
        F = comp([1], [2, 3])
        ambient = Composition.one_lump(F.ground)
        assert pullback_delta(F, ToricOpen.whole(F)) == ToricOpen.whole(ambient)
        assert pullback_mu(F, ToricOpen.whole(ambient)) == ToricOpen.whole(F)

    def test_mu_of_comparable_preposet(self):
        ground = GroundSet.of([1, 2])
        F = comp([1], [2])
        p = Preposet.from_pairs(ground, [(1, 2)])
        U = pullback_mu(F, open_of_preposet(p))
        assert U.orbits == frozenset({(comp([1]), comp([2]))})

    def test_mu_of_incomparable_preposet(self):
        ground = GroundSet.of([1, 2])
        F = comp([1], [2])
        p = Preposet.from_pairs(ground, [(2, 1)])
        assert not comp_below_preposet(F, p)
        assert pullback_mu(F, open_of_preposet(p)).orbits == frozenset()

    def test_shape_validation(self):
        F = comp([1], [2])
        with pytest.raises(ValueError):
            pullback_delta(F, ToricOpen.whole(Composition.one_lump(F.ground)))
        with pytest.raises(ValueError):
            pullback_mu(F, ToricOpen.whole(F))

    def test_delta_coassociative_on_generated_opens(self):
        # pulling back factorwise then along the coarse split agrees with
        # the one-shot pullback along the fine split
        gA, gB, gC = GroundSet.of([1]), GroundSet.of([2]), GroundSet.of([3])
        ground = GroundSet.of([1, 2, 3])
        fine = comp([1], [2], [3])
        for pA in enumerate_aug_preposets(gA):
            for pB in enumerate_aug_preposets(gB):
                for pC in enumerate_aug_preposets(gC):
                    UA, UB, UC = map(open_of_preposet, (pA, pB, pC))
                    direct = pullback_delta(fine, open_product([UA, UB, UC]))
                    VBC = pullback_delta(comp([2], [3]), open_product([UB, UC]))
                    nested = pullback_delta(comp([1], [2, 3]), open_product([UA, VBC]))
                    assert direct == nested


class TestOrbitFormulaSoundness:
    def test_delta_matches_point_level(self):
        rng = random.Random(51)
        ground = GroundSet.of([1, 2, 3])
        F = comp([1, 3], [2])
        U = ToricOpen.closed(
            F, [(comp([1], [3]), comp([2]))]
        )
        V = pullback_delta(F, U)
        for H in all_compositions(ground):
            coords = {x: Fraction(rng.randint(1, 5)) for x in ground.labels}
            x = PermPoint.of(H, coords)
            halves = point_comul(x, [1, 3], [2])
            in_U = (halves[0].orbit, halves[1].orbit) in U.orbits
            assert ((H,) in V.orbits) == in_U

    def test_mu_matches_point_level(self):
        rng = random.Random(52)
        F = comp([1], [2, 3])
        p = Preposet.from_pairs(GroundSet.of([1, 2, 3]), [(1, 2)])
        U = open_of_preposet(p)
        V = pullback_mu(F, U)
        for H1 in all_compositions(GroundSet.of([1])):
            for H2 in all_compositions(GroundSet.of([2, 3])):
                x1 = PermPoint.of(H1, {1: Fraction(1)})
                x2 = PermPoint.of(
                    H2, {x: Fraction(rng.randint(1, 5)) for x in (2, 3)}
                )
                y = point_mul(x1, x2)
                assert ((H1, H2) in V.orbits) == ((y.orbit,) in U.orbits)


class TestCheckIndexing:
    def test_n2_counts(self):
        report = check_indexing(GroundSet.of([1, 2]))
        assert report.passed
        assert report.checked_mul == 13
        assert report.checked_comul == 15
        assert report.counterexample is None

    def test_n3_counts(self):
        report = check_indexing(GroundSet.of([1, 2, 3]))
        assert report.passed
        assert report.checked_mul == 138
        assert report.checked_comul == 390

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_indexing(GroundSet.of(range(5)))

    def test_mutated_branch_fails(self, monkeypatch):
        # flip the comparison that selects the nonempty branch; keep the
        # bottom on its empty branch so the mutated run still completes
        original = comp_below_preposet
        monkeypatch.setattr(
            opens_mod,
            "comp_below_preposet",
            lambda F, p: not is_bottom(p) and not original(F, p),
        )
        report = opens_mod.check_indexing(GroundSet.of([1, 2]))
        assert not report.passed
        assert "comultiplication identity" in report.counterexample
