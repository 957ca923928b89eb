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
    gather_bits,
    scatter_bits,
)


def _transitive(rows: list[int]) -> bool:
    """Whether the relation whose row i is the bitmask of the j with (i, j)
    related is transitive: (i, j) and (j, k) force (i, k) for every k != i."""
    for i, r in enumerate(rows):
        j = 0
        while r:
            if r & 1 and rows[j] & ~rows[i] & ~(1 << i):
                return False
            r >>= 1
            j += 1
    return True


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
        rows = _rows(self)
        if any(r >> i & 1 for i, r in enumerate(rows)):
            raise ValueError("diagonal pairs must not be stored")
        if not _transitive(rows):
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


def _rows(p: Preposet) -> list[int]:
    """Row i is the bitmask of the labels that labels[i] is related to."""
    n = len(p.ground)
    return [p.mask >> i * n & (1 << n) - 1 for i in range(n)]


def _from_rows(ground: GroundSet, rows: Iterable[int]) -> Preposet:
    n = len(ground)
    return Preposet(ground, sum(r << i * n for i, r in enumerate(rows)))


def _induced(p: Preposet, ground: GroundSet, pos: list[int]) -> Preposet:
    """The relation of p read on ground, whose k-th label stands for the
    label of p at position pos[k]: one gather of the rows at pos."""
    rows = _rows(p)
    return _from_rows(ground, (gather_bits(rows[i], pos) for i in pos))


def restrict_preposet(p: Preposet, S: Iterable) -> Preposet:
    S = set(S)
    if not S <= set(p.ground.labels):
        raise ValueError("S is not a subset of the ground set")
    ground = GroundSet.of(S)
    return _induced(p, ground, p.ground.positions(ground.labels))


def o_mul(p: AugPreposet, q: AugPreposet) -> AugPreposet:
    """Disjoint union of relations; bottom absorbs."""
    ground = p.ground.union(q.ground)  # raises on overlap
    if is_bottom(p) or is_bottom(q):
        return Bottom(ground)
    rows = [0] * len(ground)
    for part in (p, q):
        pos = ground.positions(part.ground.labels)
        for i, r in zip(pos, _rows(part)):
            rows[i] = scatter_bits(r, pos)
    return _from_rows(ground, rows)


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
    rows = [0] * len(F.ground)
    later = 0  # the labels of this lump and every later one
    for lump in reversed(F.lumps):
        later |= F.ground.mask(lump)
        for i in F.ground.positions(lump):
            rows[i] = later & ~(1 << i)
    return _from_rows(F.ground, rows)


def is_total(p: Preposet) -> bool:
    rows = _rows(p)
    return all((r >> j | rows[j] >> i) & 1 for i, r in enumerate(rows) for j in range(i))


def composition_of_total(p: Preposet) -> Composition:
    """Inverse of total_of_composition on total preposets."""
    if not is_total(p):
        raise ValueError("preposet is not total")
    # the masks of the labels in or after each label's lump: a chain of
    # subsets, so decreasing as integers, and consecutive ones differ by a lump
    tails = sorted({r | 1 << i for i, r in enumerate(_rows(p))}, reverse=True)
    lumps = (p.ground.subset(a & ~b) for a, b in zip(tails, tails[1:] + [0]))
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
    subset = p.ground.subset
    full = (1 << len(p.ground)) - 1
    return tuple((subset(S), subset(full ^ S)) for S in upward_masks(p))


def relabel_preposet(sigma: Bijection, p: AugPreposet) -> AugPreposet:
    """Pull back the relation along a bijection."""
    if sigma.target != p.ground:
        raise ValueError("bijection target does not match the ground set")
    if is_bottom(p):
        return Bottom(sigma.source)
    return _induced(p, sigma.source, p.ground.positions(b for _, b in sigma.pairs))


_ENUM_CAP = 5


@lru_cache(maxsize=None)
def _preposet_list(ground: GroundSet) -> tuple[Preposet, ...]:
    n = len(ground)
    if n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at {_ENUM_CAP} labels")
    # candidate relations over the off-diagonal cells, in increasing mask order
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for k, (i, j) in enumerate(cells):
            if bits >> k & 1:
                rows[i] |= 1 << j
        if _transitive(rows):
            out.append(_from_rows(ground, rows))
    return tuple(out)


def enumerate_preposets(ground: GroundSet) -> Iterator[Preposet]:
    """Every preposet on the ground set exactly once, deterministic order."""
    return iter(_preposet_list(ground))


def enumerate_aug_preposets(ground: GroundSet) -> Iterator[AugPreposet]:
    """Bottom first, then every preposet."""
    yield Bottom(ground)
    yield from enumerate_preposets(ground)
