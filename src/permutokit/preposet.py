"""Preposets and the pointed family they form under disjoint union and
admissible restriction.

A preposet on a ground set is a transitive relation stored as the set of its
ordered pairs of distinct labels (reflexivity is implicit). The family is
augmented by a distinguished bottom element that absorbs multiplication and
marks inadmissible comultiplications.

Order convention: q <= p iff the relation of p is contained in the relation
of q, so the antichain (empty relation) is the top element.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .setcomp import (
    Bijection,
    Composition,
    GroundSet,
    _split_blocks,
    _split_masks,
    sorted_labels,
)


@dataclass(frozen=True)
class Preposet:
    """Transitive relation as a bitmask over the n*n cell grid (diagonal unused).

    Bit i*n + j is set iff (labels[i], labels[j]) is in the relation.
    """

    ground: GroundSet
    mask: int

    def __post_init__(self):
        n = len(self.ground)
        if self.mask >> n * n:
            raise ValueError("relation bits outside the grid")
        rows = [self.mask >> i * n & (1 << n) - 1 for i in range(n)]
        for i in range(n):
            if rows[i] >> i & 1:
                raise ValueError("diagonal pairs must not be stored")
            for j in range(n):
                if rows[i] >> j & 1:
                    # (i,j) and (j,k) force (i,k), except k == i
                    if rows[j] & ~rows[i] & ~(1 << i):
                        raise ValueError("relation is not transitive")

    @staticmethod
    def from_pairs(ground: GroundSet, pairs: Iterable[tuple]) -> "Preposet":
        n = len(ground)
        mask = 0
        for a, b in pairs:
            i, j = ground.index(a), ground.index(b)
            if i == j:
                raise ValueError("pairs must have distinct labels")
            mask |= 1 << i * n + j
        return Preposet(ground, mask)

    @staticmethod
    def antichain(ground: GroundSet) -> "Preposet":
        return Preposet(ground, 0)

    @staticmethod
    def complete(ground: GroundSet) -> "Preposet":
        n = len(ground)
        mask = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    mask |= 1 << i * n + j
        return Preposet(ground, mask)

    def has(self, a, b) -> bool:
        n = len(self.ground)
        return bool(self.mask >> self.ground.index(a) * n + self.ground.index(b) & 1)

    @property
    def pairs(self) -> frozenset:
        n = len(self.ground)
        labels = self.ground.labels
        return frozenset(
            (labels[i], labels[j])
            for i in range(n)
            for j in range(n)
            if self.mask >> i * n + j & 1
        )

    def __repr__(self) -> str:
        inner = ",".join(f"{a}<{b}" for a, b in sorted(self.pairs, key=str))
        return f"Preposet[{inner}]"


@dataclass(frozen=True)
class Bottom:
    """The distinguished bottom element adjoined to the preposets on a ground set."""

    ground: GroundSet


AugPreposet = Union[Preposet, Bottom]


def is_bottom(p: AugPreposet) -> bool:
    return isinstance(p, Bottom)


def preposet_leq(q: AugPreposet, p: AugPreposet) -> bool:
    """q <= p in the augmented order: bottom below everything, otherwise
    containment of p's relation in q's."""
    if q.ground != p.ground:
        raise ValueError("ground sets differ")
    if is_bottom(q):
        return True
    if is_bottom(p):
        return False
    return p.mask & ~q.mask == 0


def restrict_preposet(p: Preposet, S: Iterable) -> Preposet:
    S = set(S)
    if not S <= set(p.ground.labels):
        raise ValueError("S is not a subset of the ground set")
    return Preposet.from_pairs(
        GroundSet.of(S), [(a, b) for a, b in p.pairs if a in S and b in S]
    )


def o_mul(p: AugPreposet, q: AugPreposet) -> AugPreposet:
    """Disjoint union of relations; bottom absorbs."""
    ground = p.ground.union(q.ground)  # raises on overlap
    if is_bottom(p) or is_bottom(q):
        return Bottom(ground)
    return Preposet.from_pairs(ground, list(p.pairs) + list(q.pairs))


def _rows(p: Preposet) -> list[int]:
    """Row i is the bitmask of the labels that labels[i] is related to."""
    n = len(p.ground)
    return [p.mask >> i * n & (1 << n) - 1 for i in range(n)]


def _closed_upward(rows: list[int], S: int) -> bool:
    """Whether no relation bit runs from a label outside S into S."""
    return not any(r & S for t, r in enumerate(rows) if not S >> t & 1)


def split_admissible(p: Preposet, S: Iterable, T: Iterable) -> bool:
    """Whether (S,T) <= p, i.e. the relation of p is contained in the total
    relation of (S|T): no label of T is related to a label of S."""
    S_mask, _ = _split_masks(p.ground, S, T)
    return _closed_upward(_rows(p), S_mask)


def o_comul(
    p: AugPreposet, S: Iterable, T: Iterable
) -> tuple[AugPreposet, AugPreposet]:
    """Restrict to both blocks when (S,T) <= p, else a pair of bottoms."""
    S, T = _split_blocks(p.ground, S, T)
    gS, gT = GroundSet.of(S), GroundSet.of(T)
    if is_bottom(p) or not split_admissible(p, S, T):
        return Bottom(gS), Bottom(gT)
    return restrict_preposet(p, S), restrict_preposet(p, T)


@lru_cache(maxsize=None)
def total_of_composition(F: Composition) -> Preposet:
    """The total preposet of a composition: (a,b) related iff the lump of a
    comes no later than the lump of b. Same-lump pairs get both directions."""
    idx = {}
    for k, lump in enumerate(F.lumps, start=1):
        for x in lump:
            idx[x] = k
    pairs = [
        (a, b)
        for a in F.ground.labels
        for b in F.ground.labels
        if a != b and idx[a] <= idx[b]
    ]
    return Preposet.from_pairs(F.ground, pairs)


def is_total(p: Preposet) -> bool:
    for a in p.ground.labels:
        for b in p.ground.labels:
            if a != b and not p.has(a, b) and not p.has(b, a):
                return False
    return True


def composition_of_total(p: Preposet) -> Composition:
    """Inverse of total_of_composition on total preposets."""
    if not is_total(p):
        raise ValueError("preposet is not total")
    labels = p.ground.labels
    # elements in earlier lumps dominate strictly more elements
    strict = {a: sum(1 for b in labels if a != b and p.has(a, b) and not p.has(b, a))
              for a in labels}
    lumps: list[tuple] = []
    for s in sorted(set(strict.values()), reverse=True):
        lumps.append(sorted_labels(a for a in labels if strict[a] == s))
    return Composition(p.ground, tuple(lumps))


@lru_cache(maxsize=None)
def upward_masks(p: Preposet) -> tuple[int, ...]:
    """The bitmasks S, increasing, of the proper nonempty subsets with
    (S, complement) <= p."""
    rows = _rows(p)
    return tuple(S for S in range(1, (1 << len(rows)) - 1) if _closed_upward(rows, S))


@lru_cache(maxsize=None)
def upward_pairs(p: Preposet) -> tuple[tuple[tuple, tuple], ...]:
    """All proper two-block decompositions (S,T) with (S,T) <= p, as label
    tuples in the order of upward_masks."""
    labels = p.ground.labels
    full = (1 << len(labels)) - 1

    def block(m: int) -> tuple:
        return tuple(x for k, x in enumerate(labels) if m >> k & 1)

    return tuple((block(S), block(full ^ S)) for S in upward_masks(p))


def relabel_preposet(sigma: Bijection, p: AugPreposet) -> AugPreposet:
    """Pull back the relation along a bijection."""
    if sigma.target != p.ground:
        raise ValueError("bijection target does not match the ground set")
    if is_bottom(p):
        return Bottom(sigma.source)
    inv = sigma.inverse()
    return Preposet.from_pairs(
        sigma.source, [(inv(a), inv(b)) for a, b in p.pairs]
    )


_ENUM_CAP = 5


@lru_cache(maxsize=None)
def _preposet_list(ground: GroundSet) -> tuple[Preposet, ...]:
    n = len(ground)
    if n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at {_ENUM_CAP} labels")
    # candidate masks over off-diagonal cells, in increasing order
    cells = [i * n + j for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        mask = 0
        for k, c in enumerate(cells):
            if bits >> k & 1:
                mask |= 1 << c
        rows = [mask >> i * n & (1 << n) - 1 for i in range(n)]
        ok = True
        for i in range(n):
            r = rows[i]
            j = 0
            while r:
                if r & 1 and rows[j] & ~rows[i] & ~(1 << i):
                    ok = False
                    break
                r >>= 1
                j += 1
            if not ok:
                break
        if ok:
            out.append(Preposet(ground, mask))
    return tuple(out)


def enumerate_preposets(ground: GroundSet) -> Iterator[Preposet]:
    """Every preposet on the ground set exactly once, deterministic order."""
    return iter(_preposet_list(ground))


def enumerate_aug_preposets(ground: GroundSet) -> Iterator[AugPreposet]:
    """Bottom first, then every preposet."""
    yield Bottom(ground)
    yield from enumerate_preposets(ground)
