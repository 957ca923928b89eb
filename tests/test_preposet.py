"""Preposets stored as transitive relations in row masks, the augmented
family with its absorbing bottom, and the product/coproduct pair."""
import itertools

import pytest

from permutokit import preposet
from permutokit.preposet import (
    Bottom,
    Preposet,
    composition_of_total,
    enumerate_aug_preposets,
    enumerate_preposets,
    is_bottom,
    is_total,
    o_comul,
    o_mul,
    preposet_leq,
    relabel_preposet,
    restrict_preposet,
    total_of_composition,
    upward_masks,
    upward_pairs,
)
from permutokit.setcomp import Bijection, Composition, GroundSet, all_compositions
from split_oracle import split_admissible


def pre(ground, *pairs):
    return Preposet.from_pairs(GroundSet.of(ground), list(pairs))


class TestPreposet:
    def test_transitivity_enforced(self):
        with pytest.raises(ValueError):
            Preposet.from_pairs(GroundSet.of([1, 2, 3]), [(1, 2), (2, 3)])

    def test_from_pairs_accepts_closed_relation(self):
        p = pre([1, 2, 3], (1, 2), (2, 3), (1, 3))
        assert p.has(1, 3)

    def test_antichain_has_no_pairs(self):
        assert Preposet.antichain(GroundSet.of([1, 2])).pairs == frozenset()

    def test_complete_relates_everything(self):
        p = Preposet.complete(GroundSet.of([1, 2]))
        assert set(p.pairs) == {(1, 2), (2, 1)}

    def test_pairs_exclude_diagonal(self):
        p = pre([1, 2], (1, 2))
        assert (1, 1) not in p.pairs


class TestOrder:
    def test_antichain_is_top(self):
        ground = GroundSet.of([1, 2, 3])
        top = Preposet.antichain(ground)
        for p in enumerate_preposets(ground):
            assert preposet_leq(p, top)

    def test_bottom_below_everything(self):
        ground = GroundSet.of([1, 2])
        b = Bottom(ground)
        for p in enumerate_aug_preposets(ground):
            assert preposet_leq(b, p)
        assert not preposet_leq(Preposet.antichain(ground), b)

    def test_more_pairs_is_smaller(self):
        # q <= p iff q's relation contains p's
        p = pre([1, 2], (1, 2))
        q = Preposet.complete(GroundSet.of([1, 2]))
        assert preposet_leq(q, p)
        assert not preposet_leq(p, q)


class TestTotal:
    def test_total_of_composition_same_lump_both_directions(self):
        t = total_of_composition(Composition.of([[1, 2], [3]]))
        assert t.has(1, 2) and t.has(2, 1)
        assert t.has(1, 3) and not t.has(3, 1)

    def test_roundtrip_all_compositions(self):
        from permutokit.setcomp import all_compositions

        ground = GroundSet.of([1, 2, 3, 4])
        for F in all_compositions(ground):
            t = total_of_composition(F)
            assert is_total(t)
            assert composition_of_total(t) == F

    def test_composition_of_non_total_rejected(self):
        with pytest.raises(ValueError):
            composition_of_total(pre([1, 2, 3], (1, 2)))

    def test_refinement_mirrors_preposet_order(self):
        # G <= F as compositions iff total(F) <= total(G) flips: coarsening
        # keeps all comparabilities of the coarser one
        from permutokit.setcomp import all_compositions, refines

        ground = GroundSet.of([1, 2, 3])
        for F in all_compositions(ground):
            for G in all_compositions(ground):
                lhs = refines(G, F)
                rhs = preposet_leq(total_of_composition(G), total_of_composition(F))
                # merging CONTIGUOUS lumps only: composition refinement is
                # strictly finer-grained than relation containment
                if lhs:
                    assert rhs
        # and containment without contiguity really happens
        assert preposet_leq(
            total_of_composition(Composition.of([[1, 3], [2]])),
            total_of_composition(Composition.of([[1], [3], [2]])),
        )


class TestRestrictRelabel:
    def test_restrict(self):
        p = pre([1, 2, 3], (1, 2), (2, 3), (1, 3))
        q = restrict_preposet(p, [1, 3])
        assert set(q.pairs) == {(1, 3)}

    def test_restrict_rejects_a_repeated_or_foreign_label(self):
        p = pre([1, 2, 3], (1, 2))
        with pytest.raises(ValueError, match="S names label 3 twice"):
            restrict_preposet(p, [3, 1, 3])
        with pytest.raises(ValueError, match="not a subset"):
            restrict_preposet(p, [1, 4])

    def test_relabel_pullback(self):
        sigma = Bijection.of({"a": 1, "b": 2})
        p = pre([1, 2], (1, 2))
        q = relabel_preposet(sigma, p)
        assert set(q.pairs) == {("a", "b")}

    def test_relabel_bottom(self):
        sigma = Bijection.of({"a": 1})
        assert is_bottom(relabel_preposet(sigma, Bottom(GroundSet.of([1]))))


class TestMulComul:
    def test_mul_is_disjoint_union(self):
        p = pre([1, 2], (1, 2))
        q = pre([3], )
        out = o_mul(p, q)
        assert set(out.pairs) == {(1, 2)}
        assert out.ground.labels == (1, 2, 3)

    def test_mul_bottom_absorbs(self):
        p = pre([1], )
        assert is_bottom(o_mul(p, Bottom(GroundSet.of([2]))))
        assert is_bottom(o_mul(Bottom(GroundSet.of([2])), p))

    def test_mul_overlap_rejected(self):
        with pytest.raises(ValueError):
            o_mul(pre([1, 2], (1, 2)), pre([2], ))

    def test_admissible_split_restricts(self):
        p = pre([1, 2, 3], (1, 2), (1, 3))
        # (S,T) = ({1,2},{3}): no pair points from {3} back into {1,2}
        assert split_admissible(p, [1, 2], [3])
        pS, pT = o_comul(p, [1, 2], [3])
        assert set(pS.pairs) == {(1, 2)}
        assert pT.pairs == frozenset()

    def test_inadmissible_split_gives_bottoms(self):
        p = pre([1, 2], (2, 1))
        assert not split_admissible(p, [1], [2])
        pS, pT = o_comul(p, [1], [2])
        assert is_bottom(pS) and is_bottom(pT)

    def test_comul_of_bottom(self):
        pS, pT = o_comul(Bottom(GroundSet.of([1, 2])), [1], [2])
        assert is_bottom(pS) and is_bottom(pT)

    def test_empty_block_split(self):
        p = pre([1, 2], (1, 2))
        pS, pT = o_comul(p, [1, 2], [])
        assert pS == p
        assert pT.ground.labels == ()

    def test_mul_then_comul_recovers_factors(self):
        ground1, ground2 = GroundSet.of([1, 2]), GroundSet.of([3])
        for p in enumerate_preposets(ground1):
            for q in enumerate_preposets(ground2):
                back = o_comul(o_mul(p, q), [1, 2], [3])
                assert back == (p, q)


class TestUpwardPairs:
    def test_antichain_has_all_proper_splits(self):
        ground = GroundSet.of([1, 2, 3])
        assert len(upward_pairs(Preposet.antichain(ground))) == 6

    def test_blocked_by_reverse_pair(self):
        p = pre([1, 2], (2, 1))
        # ({1},{2}) needs no pair 2 -> 1 pointing from T into S; here it exists
        assert ((1,), (2,)) not in upward_pairs(p)
        assert ((2,), (1,)) in upward_pairs(p)

    def test_total_preposet_upward_pairs_are_initial_segments(self):
        t = total_of_composition(Composition.of([[1], [2], [3]]))
        assert set(upward_pairs(t)) == {((1,), (2, 3)), ((1, 2), (3,))}


class TestEnumeration:
    def test_counts(self):
        # preposets = pairs (partition into lumps, partial order on lumps)
        for n, expect in [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355)]:
            ground = GroundSet.of(range(1, n + 1))
            ps = list(enumerate_preposets(ground))
            assert len(ps) == expect
            assert len(set(ps)) == expect

    def test_augmented_prepends_bottom(self):
        ground = GroundSet.of([1, 2])
        aug = list(enumerate_aug_preposets(ground))
        assert is_bottom(aug[0])
        assert len(aug) == 5

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_preposets(GroundSet.of(range(6))))


# ---------------------------------------------------------------------------
# The label-based definitions that the mask tests replaced, kept as slow
# oracles for the differential and mutation tests below.


def label_upward_pairs(p):
    labels = p.ground.labels
    n = len(labels)
    out = []
    for bits in range(1, (1 << n) - 1):
        S = tuple(x for k, x in enumerate(labels) if bits >> k & 1)
        T = tuple(x for k, x in enumerate(labels) if not bits >> k & 1)
        if not any(p.has(t, s) for t in T for s in S):
            out.append((S, T))
    return tuple(out)


def label_split_admissible(p, S, T):
    two_block = Composition.of([blk for blk in (S, T) if blk])
    if set(two_block.ground.labels) != set(p.ground.labels):
        raise ValueError("S,T do not decompose the ground set")
    return p.pairs <= total_of_composition(two_block).pairs


SPLIT_GROUNDS = [GroundSet.of(range(1, n + 1)) for n in range(5)] + [
    GroundSet.of([2, "b", 1, "a"])
]


def split_mismatches(upward, admissible):
    """Every (preposet, split) of SPLIT_GROUNDS on which upward(p) (masks) or
    admissible(p, S, T) disagrees with the label-based oracles."""
    bad = []
    for ground in SPLIT_GROUNDS:
        labels = ground.labels
        n = len(labels)
        for p in enumerate_preposets(ground):
            pairs = label_upward_pairs(p)
            masks = tuple(sum(1 << labels.index(x) for x in S) for S, _ in pairs)
            if upward(p) != masks:
                bad.append((p, "upward"))
            for m in range(1 << n):
                S = [x for k, x in enumerate(labels) if m >> k & 1]
                T = [x for k, x in enumerate(labels) if not m >> k & 1]
                if admissible(p, S, T) != label_split_admissible(p, S, T):
                    bad.append((p, S, T))
    return bad


class TestMaskSplits:
    def test_masks_and_pairs_match_the_label_definitions(self):
        assert split_mismatches(upward_masks, split_admissible) == []
        for ground in SPLIT_GROUNDS:
            for p in enumerate_preposets(ground):
                assert upward_pairs(p) == label_upward_pairs(p)

    def test_split_admissible_rejects_what_does_not_decompose(self):
        p = pre([1, 2, 3], (1, 2))
        for S, T in [([1, 2], [2, 3]), ([1], [2]), ([1, 4], [2, 3]), ([1, 1], [2, 3])]:
            with pytest.raises(ValueError):
                label_split_admissible(p, S, T)
            with pytest.raises(ValueError, match="do not decompose"):
                split_admissible(p, S, T)

    def test_oracle_catches_a_reversed_relation_direction(self, monkeypatch):
        def reversed_direction(rows, S):
            return not any(r & ~S for t, r in enumerate(rows) if S >> t & 1)

        monkeypatch.setattr(preposet, "_closed_upward", reversed_direction)
        assert split_mismatches(upward_masks.__wrapped__, split_admissible)


def scan_upward_masks(p):
    """The per-mask scan that upward_masks replaced: keep S when no label
    outside S is related to a label of S."""
    rows = p.rows
    return tuple(
        S for S in range(1, (1 << len(rows)) - 1)
        if not any(r & S for t, r in enumerate(rows) if not S >> t & 1)
    )


class TestUpwardMasksOnePass:
    def test_matches_the_per_mask_scan(self):
        for n in range(5):
            for p in enumerate_preposets(GroundSet.of(range(1, n + 1))):
                assert upward_masks.__wrapped__(p) == scan_upward_masks(p)

    def test_matches_the_per_mask_scan_on_total_preposets_of_five(self):
        totals = [total_of_composition(F) for F in all_compositions(GroundSet.of(range(1, 6)))]
        assert len(totals) == 541
        for p in totals:
            assert upward_masks.__wrapped__(p) == scan_upward_masks(p)


# ---------------------------------------------------------------------------
# row gathers and scatters: differential checks against the pair-relation
# definitions, copied in as oracles


def pairs_restrict(p, S):
    S = set(S)
    return Preposet.from_pairs(
        GroundSet.of(S), [(a, b) for a, b in p.pairs if a in S and b in S]
    )


def pairs_o_mul(p, q):
    ground = p.ground.union(q.ground)
    if is_bottom(p) or is_bottom(q):
        return Bottom(ground)
    return Preposet.from_pairs(ground, list(p.pairs) + list(q.pairs))


def pairs_relabel(sigma, p):
    if is_bottom(p):
        return Bottom(sigma.source)
    inv = sigma.inverse()
    return Preposet.from_pairs(sigma.source, [(inv(a), inv(b)) for a, b in p.pairs])


def pairs_total(F):
    idx = {x: k for k, lump in enumerate(F.lumps) for x in lump}
    labels = F.ground.labels
    return Preposet.from_pairs(
        F.ground, [(a, b) for a in labels for b in labels if a != b and idx[a] <= idx[b]]
    )


def pairs_is_total(p):
    labels = p.ground.labels
    return all(p.has(a, b) or p.has(b, a) for a in labels for b in labels if a != b)


def pairs_composition_of_total(p):
    labels = p.ground.labels
    strict = {a: sum(1 for b in labels if a != b and p.has(a, b) and not p.has(b, a))
              for a in labels}
    return Composition(p.ground, tuple(
        tuple(a for a in labels if strict[a] == s)
        for s in sorted(set(strict.values()), reverse=True)
    ))


def row_mismatches():
    """Every case over SPLIT_GROUNDS on which restrict_preposet, o_mul,
    relabel_preposet, total_of_composition, is_total or composition_of_total
    disagrees with its pair-relation oracle (an exception counts as a
    disagreement)."""
    bad = []

    def check(name, fn, want, *args):
        try:
            ok = fn(*args) == want
        except Exception:
            ok = False
        if not ok:
            bad.append((name, args))

    for ground in SPLIT_GROUNDS:
        labels = ground.labels
        subsets = [
            tuple(x for k, x in enumerate(labels) if m >> k & 1)
            for m in range(1 << len(labels))
        ]
        source = GroundSet.of(f"{x}'" for x in labels)
        sigmas = [
            Bijection.of(dict(zip(source.labels, images)))
            for images in itertools.permutations(labels)
        ]
        for p in enumerate_preposets(ground):
            check("is_total", is_total, pairs_is_total(p), p)
            if pairs_is_total(p):
                check("comp_of_total", composition_of_total, pairs_composition_of_total(p), p)
            for S in subsets:
                check("restrict", restrict_preposet, pairs_restrict(p, S), p, S)
            for sigma in sigmas:
                check("relabel", relabel_preposet, pairs_relabel(sigma, p), sigma, p)
        for F in all_compositions(ground):
            check("total", total_of_composition, pairs_total(F), F)
        for S in subsets:
            T = tuple(x for x in labels if x not in S)
            for p in enumerate_aug_preposets(GroundSet.of(S)):
                for q in enumerate_aug_preposets(GroundSet.of(T)):
                    check("o_mul", o_mul, pairs_o_mul(p, q), p, q)
    return bad


class TestRowOps:
    def test_row_ops_match_the_pair_definitions(self):
        assert row_mismatches() == []

    def test_oracle_catches_scatter_in_place_of_gather(self, monkeypatch):
        monkeypatch.setattr(preposet, "gather_bits", preposet.scatter_bits)
        names = {name for name, _ in row_mismatches()}
        assert {"restrict", "relabel"} <= names


# ---------------------------------------------------------------------------
# the rows format: differential checks against the n*n grid bitmask that
# stored a preposet before (bit i*n + j set iff labels[i] is related to
# labels[j]), its definitions copied in as oracles


def grid_transitive(mask, n):
    return all(
        mask >> i * n + k & 1
        for i in range(n) for j in range(n) for k in range(n)
        if i != k and mask >> i * n + j & 1 and mask >> j * n + k & 1
    )


def grid_list(n):
    """The grid masks of every preposet on n labels, in enumeration order."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        mask = sum(1 << i * n + j for k, (i, j) in enumerate(cells) if bits >> k & 1)
        if grid_transitive(mask, n):
            out.append(mask)
    return out


def grid_from_pairs(ground, pairs):
    n = len(ground)
    return sum(1 << ground.index(a) * n + ground.index(b) for a, b in set(pairs))


def grid_has(ground, mask, a, b):
    n = len(ground)
    return bool(mask >> ground.index(a) * n + ground.index(b) & 1)


def grid_pairs(ground, mask):
    n = len(ground)
    labels = ground.labels
    return frozenset(
        (labels[i], labels[j]) for i in range(n) for j in range(n) if mask >> i * n + j & 1
    )


def grid_complete(n):
    return sum(1 << i * n + j for i in range(n) for j in range(n) if i != j)


def grid_mismatches():
    """The names of the operations that disagree with the grid definitions
    somewhere on SPLIT_GROUNDS: preposet i of the enumeration is matched with
    grid mask i of the grid scan."""
    bad = set()
    for ground in SPLIT_GROUNDS:
        labels = ground.labels
        masks = grid_list(len(ground))
        ps = list(enumerate_preposets(ground))
        if len(ps) != len(masks):
            bad.add("enumeration")
        for p, m in zip(ps, masks):
            if Preposet.from_pairs(ground, grid_pairs(ground, m)) != p:
                bad.add("enumeration")
            if p.pairs != grid_pairs(ground, m):
                bad.add("pairs")
            if grid_from_pairs(ground, p.pairs) != m:
                bad.add("from_pairs")
            if any(p.has(a, b) != grid_has(ground, m, a, b) for a in labels for b in labels):
                bad.add("has")
            for q, mq in zip(ps, masks):
                if preposet_leq(q, p) != (m & ~mq == 0):
                    bad.add("leq")
        if grid_from_pairs(ground, Preposet.antichain(ground).pairs) != 0:
            bad.add("antichain")
        if grid_from_pairs(ground, Preposet.complete(ground).pairs) != grid_complete(len(ground)):
            bad.add("complete")
    return bad


class TestRowsFormat:
    def test_operations_match_the_grid_definitions(self):
        assert grid_mismatches() == set()

    def test_oracle_catches_a_transposed_has(self, monkeypatch):
        def transposed(self, a, b):
            return bool(self.rows[self.ground.index(b)] >> self.ground.index(a) & 1)

        monkeypatch.setattr(Preposet, "has", transposed)
        assert grid_mismatches() == {"has"}

    @pytest.mark.parametrize("rows, message", [
        ([0, 0, 0], "tuple of ints"),
        ((0, 0, 0.0), "tuple of ints"),
        ((0, 0), "2 rows for 3 labels"),
        ((0, 0, 0, 0), "4 rows for 3 labels"),
        ((0b1000, 0, 0), "outside the grid"),
        ((-1, 0, 0), "outside the grid"),
        ((0, 0b010, 0), "diagonal"),
        ((0b010, 0b100, 0), "not transitive"),
    ])
    def test_malformed_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Preposet(GroundSet.of([1, 2, 3]), rows)
