"""Compositions of a finite set: canonical forms, the two products,
restriction, refinement, relabeling, and lump permutation."""
import itertools

import pytest

from permutokit import setcomp
from permutokit.cones import CoweightVector, cone_restrict
from permutokit.preposet import Preposet
from permutokit.setcomp import (
    Bijection,
    Composition,
    GroundSet,
    Perm,
    all_compositions,
    concatenate,
    hat_beta,
    ordered_decompositions,
    permute_lumps,
    refines,
    relabel,
    restrict,
    tits_product,
    two_block_decompositions,
)


def comp(*lumps):
    return Composition.of(lumps)


class TestGroundSet:
    def test_canonical_order(self):
        assert GroundSet.of([3, 1, 2]).labels == (1, 2, 3)

    def test_mixed_label_kinds(self):
        g = GroundSet.of(["b", 2, "a", 1])
        # ints sort before strings, each kind internally ordered
        assert g.labels == (1, 2, "a", "b")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet.of([1, 1, 2])

    def test_union_disjoint(self):
        g = GroundSet.of([1, 3]).union(GroundSet.of([2]))
        assert g.labels == (1, 2, 3)

    def test_union_overlap_rejected(self):
        with pytest.raises(ValueError):
            GroundSet.of([1, 2]).union(GroundSet.of([2, 3]))


class TestInterning:
    def test_one_instance_for_the_labels_in_any_order(self):
        g = GroundSet.of([3, "a", 1, 2])
        for labels in ([1, 2, 3, "a"], ("a", 3, 2, 1), {2, 3, 1, "a"}, iter([2, "a", 3, 1])):
            assert GroundSet.of(labels) is g
        assert GroundSet.of([1, 3]).union(GroundSet.of(["a", 2])) is g

    def test_labels_of_different_types_stay_apart(self):
        # (True,) == (1,), so a key on the labels alone would hand one of
        # these the other's instance
        for first, second in (([True], [1]), ([1], [True])):
            setcomp._interned.cache_clear()
            a, b = GroundSet.of(first), GroundSet.of(second)
            assert type(a.labels[0]) is type(first[0])
            assert type(b.labels[0]) is type(second[0])
        assert GroundSet.of([2, True]).labels == (True, 2)

    def test_a_rejected_label_set_raises_on_every_call(self):
        size = setcomp._interned.cache_info().currsize
        for labels in ([1, 1], [1, 1], [2, 1, 1], [2, 1, 1]):
            with pytest.raises(ValueError, match="duplicate labels"):
                GroundSet.of(labels)
        assert setcomp._interned.cache_info().currsize == size

    def test_the_cache_stays_at_its_bound(self):
        bound = setcomp._GROUND_CACHE
        for k in range(bound + 50):
            GroundSet.of([k, -k - 1])
        assert setcomp._interned.cache_info().currsize == bound
        assert GroundSet.of([-1, 0]).labels == (-1, 0)


class TestSubsetCodec:
    GROUND = GroundSet.of([2, "b", 1, "a"])

    def test_mask_and_subset_are_inverse(self):
        g = self.GROUND
        for m in range(1 << len(g)):
            assert g.mask(g.subset(m)) == m
        assert g.subset(g.mask(["a", 1])) == (1, "a")
        assert g.mask([]) == 0 and g.subset(0) == ()

    def test_bit_k_stands_for_the_kth_label(self):
        assert self.GROUND.mask(["b"]) == 0b1000
        assert self.GROUND.subset(0b0101) == (1, "a")

    def test_foreign_label_is_named(self):
        with pytest.raises(ValueError, match="label 3"):
            self.GROUND.mask([1, 3])

    def test_index_names_a_foreign_label(self):
        G2 = GroundSet.of([1, 2])
        calls = (
            lambda: cone_restrict(CoweightVector(G2, (1, -1)), [9]),
            lambda: Preposet.from_pairs(G2, [(1, 9)]),
            lambda: G2.index(9),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^label 9 is not in the ground set$"):
                call()
        with pytest.raises(ValueError, match=r"^label \[9\] is not in the ground set$"):
            G2.index([9])

    def test_scatter_inverts_gather(self):
        pos = [3, 0, 2]
        for m in range(1 << 3):
            assert setcomp.gather_bits(setcomp.scatter_bits(m, pos), pos) == m
        for m in range(1 << 4):
            assert setcomp.scatter_bits(setcomp.gather_bits(m, pos), pos) == m & 0b1101
        assert setcomp.gather_bits(0b1000, pos) == 0b001
        assert setcomp.scatter_bits(0b001, pos) == 0b1000

    def test_scatter_table_lists_every_scatter(self):
        for pos in ([], [2], [3, 0, 2], [1, 4, 0, 3]):
            table = setcomp.scatter_table(pos)
            assert table == [setcomp.scatter_bits(m, pos) for m in range(1 << len(pos))]


class TestComposition:
    def test_lumps_are_canonically_sorted(self):
        F = comp([3, 1], [2])
        assert F.lumps == ((1, 3), (2,))

    def test_overlapping_lumps_rejected(self):
        with pytest.raises(ValueError):
            comp([1, 2], [2, 3])

    def test_label_repeated_within_a_lump_rejected(self):
        with pytest.raises(ValueError, match="repeats a label"):
            Composition(GroundSet.of([1, 2]), ((1, 1), (2,)))

    def test_empty_lump_rejected(self):
        with pytest.raises(ValueError):
            comp([1], [])

    def test_one_lump_of_empty_ground_has_no_lumps(self):
        assert Composition.one_lump(GroundSet.of([])).lumps == ()

    def test_lump_index(self):
        F = comp([2], [1, 3])
        assert F.lump_index(2) == 1
        assert F.lump_index(3) == 2


class TestConcatenate:
    def test_juxtaposes(self):
        F = concatenate(comp([1]), comp([3], [2]))
        assert F.lumps == ((1,), (3,), (2,))

    def test_empty_left_unit(self):
        F = comp([1], [2])
        assert concatenate(Composition.empty(), F) == F
        assert concatenate(F, Composition.empty()) == F

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            concatenate(comp([1]), comp([1, 2]))


class TestRestrict:
    def test_drops_emptied_lumps(self):
        F = comp([1, 2], [3], [4, 5])
        assert restrict(F, [1, 4, 5]).lumps == ((1,), (4, 5))

    def test_restrict_to_empty(self):
        assert restrict(comp([1], [2]), []) == Composition.empty()

    def test_not_a_subset_rejected(self):
        with pytest.raises(ValueError):
            restrict(comp([1]), [2])

    def test_repeated_label_rejected(self):
        for S in ([1, 1], [2, "a", 2]):
            with pytest.raises(ValueError, match=f"S names label {S[0]} twice"):
                restrict(comp([1, "a"], [2]), S)


class TestTitsProduct:
    def test_worked_example(self):
        # F = ({1}|{2,3}), G = ({2}|{1,3}):
        # G restricted to {1} is ({1}); to {2,3} is ({2}|{3})
        F, G = comp([1], [2, 3]), comp([2], [1, 3])
        assert tits_product(F, G).lumps == ((1,), (2,), (3,))

    def test_left_absorbs_chambers(self):
        # a finest F is a fixed point: FG = F for every G
        F = comp([2], [1], [3])
        for G in all_compositions(GroundSet.of([1, 2, 3])):
            assert tits_product(F, G) == F

    def test_one_lump_left_unit(self):
        G = comp([2], [1, 3])
        one = Composition.one_lump(G.ground)
        assert tits_product(one, G) == G

    def test_idempotent(self):
        F = comp([1, 3], [2])
        assert tits_product(F, F) == F

    def test_associative(self):
        ground = GroundSet.of([1, 2, 3])
        comps = list(all_compositions(ground))
        for F in comps:
            for G in comps:
                for K in comps:
                    assert tits_product(tits_product(F, G), K) == tits_product(
                        F, tits_product(G, K)
                    )


class TestRefines:
    def test_contiguous_merge(self):
        # ({1,2}|{3}) comes from ({1}|{2}|{3}) by merging the first two lumps
        assert refines(comp([1, 2], [3]), comp([1], [2], [3]))

    def test_non_contiguous_merge_fails(self):
        # {1,3} is not a union of adjacent lumps of ({1}|{2}|{3})
        assert not refines(comp([1, 3], [2]), comp([1], [2], [3]))

    def test_order_matters(self):
        assert not refines(comp([2], [1]), comp([1], [2]))

    def test_one_lump_below_everything(self):
        ground = GroundSet.of([1, 2, 3])
        one = Composition.one_lump(ground)
        for F in all_compositions(ground):
            assert refines(one, F)
            assert refines(F, F)

    def test_transitive(self):
        ground = GroundSet.of([1, 2, 3])
        comps = list(all_compositions(ground))
        for F in comps:
            for G in comps:
                for K in comps:
                    if refines(K, G) and refines(G, F):
                        assert refines(K, F)

    def test_tits_product_is_above_left_factor(self):
        # F <= FG in the refinement order, for all F, G
        ground = GroundSet.of([1, 2, 3])
        comps = list(all_compositions(ground))
        for F in comps:
            for G in comps:
                assert refines(F, tits_product(F, G))


class TestRelabel:
    def test_pullback(self):
        # sigma: {a,b,c} -> {1,2,3}; the preimage of each lump
        sigma = Bijection.of({"a": 2, "b": 1, "c": 3})
        F = comp([1], [2, 3])
        assert relabel(sigma, F).lumps == (("b",), ("a", "c"))

    def test_identity(self):
        F = comp([1], [2])
        assert relabel(Bijection.identity(F.ground), F) == F

    def test_target_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relabel(Bijection.of({1: 1, 2: 2}), comp([1], [3]))

    def test_composite(self):
        sigma = Bijection.of({"x": "a", "y": "b"})
        tau = Bijection.of({"a": 1, "b": 2})
        F = comp([1], [2])
        assert relabel(sigma, relabel(tau, F)) == relabel(tau.compose(sigma), F)


class TestPermuteLumps:
    def test_moves_lump_m_to_slot_beta_m(self):
        F = comp([1], [2], [3])
        beta = Perm((2, 3, 1))
        assert permute_lumps(beta, F).lumps == ((3,), (1,), (2,))

    def test_identity(self):
        F = comp([1, 2], [3])
        assert permute_lumps(Perm.identity(2), F) == F

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            permute_lumps(Perm((1, 2)), comp([1, 2, 3]))


class TestHatBeta:
    def test_two_lump_swap(self):
        # G = ({1,2}|{3}), F = ({1}|{2}|{3}) with G <= F; swapping G's lumps
        # must carry F's first two lumps past the third
        F = comp([1], [2], [3])
        G = comp([1, 2], [3])
        beta = Perm((2, 1))
        bh = hat_beta(beta, F, G)
        assert permute_lumps(bh, F).lumps == ((3,), (1,), (2,))
        assert bh.images == (2, 3, 1)

    def test_identity_lifts_to_identity(self):
        F = comp([1], [2], [3])
        G = comp([1, 2], [3])
        assert hat_beta(Perm.identity(2), F, G) == Perm.identity(3)

    def test_defining_equation_exhaustive(self):
        # permute_lumps(hat, F) = tits_product(permute_lumps(beta, G), F)
        import itertools

        ground = GroundSet.of([1, 2, 3])
        for F in all_compositions(ground):
            for G in all_compositions(ground):
                if not refines(G, F):
                    continue
                for images in itertools.permutations(range(1, G.length() + 1)):
                    beta = Perm(images)
                    bh = hat_beta(beta, F, G)
                    assert permute_lumps(bh, F) == tits_product(
                        permute_lumps(beta, G), F
                    )
                    # the lift still coarsens correctly
                    assert refines(permute_lumps(beta, G), permute_lumps(bh, F))


class TestEnumeration:
    def test_composition_counts(self):
        # ordered set partitions: 1, 1, 3, 13, 75
        for n, expect in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
            ground = GroundSet.of(range(1, n + 1))
            comps = list(all_compositions(ground))
            assert len(comps) == expect
            assert len(set(comps)) == expect

    def test_two_block_decompositions(self):
        ground = GroundSet.of([1, 2])
        ds = set(two_block_decompositions(ground))
        assert ds == {((), (1, 2)), ((1,), (2,)), ((2,), (1,)), ((1, 2), ())}

    def test_ordered_decompositions_count(self):
        ground = GroundSet.of([1, 2, 3])
        assert len(list(ordered_decompositions(ground, 3))) == 27

    def test_ordered_decompositions_cover(self):
        ground = GroundSet.of([1, 2])
        for blocks in ordered_decompositions(ground, 3):
            assert sum(len(b) for b in blocks) == 2


# ---------------------------------------------------------------------------
# one coarsening walk: differential checks against the set walk and the
# permutation search it replaced, copied in as oracles


def set_walk_refines(G, F):
    fi = 0
    for lump in G.lumps:
        need, acc = set(lump), set()
        while acc != need:
            if fi >= len(F.lumps):
                return False
            nxt = set(F.lumps[fi])
            if not nxt <= need - acc:
                return False
            acc |= nxt
            fi += 1
    return fi == len(F.lumps)


def searched_hat_beta(beta, F, G):
    target = tits_product(permute_lumps(beta, G), F)
    k = F.length()
    hits = [
        Perm(images)
        for images in itertools.permutations(range(1, k + 1))
        if permute_lumps(Perm(images), F) == target
    ]
    assert len(hits) == 1
    return hits[0]


def coarsening_mismatches():
    """Every (F, G) with n <= 4 on which refines disagrees with the set walk,
    and every (F, G, beta) on which hat_beta disagrees with the search."""
    bad = []
    for n in range(5):
        comps = list(all_compositions(GroundSet.of(range(1, n + 1))))
        for F in comps:
            for G in comps:
                if refines(G, F) != set_walk_refines(G, F):
                    bad.append((F, G))
                if not set_walk_refines(G, F):
                    continue
                for images in itertools.permutations(range(1, G.length() + 1)):
                    beta = Perm(images)
                    if hat_beta(beta, F, G) != searched_hat_beta(beta, F, G):
                        bad.append((F, G, beta))
    return bad


class TestCoarseningRuns:
    def test_refines_and_hat_beta_match_the_old_definitions(self):
        assert coarsening_mismatches() == []

    def test_runs_of_a_coarsening(self):
        F = comp([1], [2], [3], [4])
        assert setcomp.coarsening_runs(F, comp([1, 2], [3, 4])) == [range(0, 2), range(2, 4)]
        assert setcomp.coarsening_runs(F, comp([1, 3], [2, 4])) is None
        assert setcomp.coarsening_runs(comp([1, 2]), comp([1], [2])) is None

    def test_oracle_catches_a_lift_ordered_by_beta(self, monkeypatch):
        monkeypatch.setattr(setcomp.Perm, "inverse", lambda self: self)
        bad = coarsening_mismatches()
        assert bad and all(len(case) == 3 for case in bad)
