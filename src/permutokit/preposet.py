"""Preposets and the pointed family they form under disjoint union and
admissible restriction.

A preposet on a ground set is a transitive relation stored as one bitmask row
per label: the labels it is related to, itself left implicit. The family is
augmented by a distinguished bottom element that absorbs multiplication and
marks inadmissible comultiplications.

Order convention: q <= p iff the relation of p is contained in the relation
of q, so the antichain (empty relation) is the top element.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .setcomp import (
    Bijection,
    Composition,
    GroundSet,
    _charge,
    _restriction_mask,
    _split_masks,
    _unchecked,
    gather_bits,
    ground_cache,
    scatter_bits,
    set_bits,
)


def _transitive(rows: Sequence[int]) -> bool:
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
    """Transitive relation as one bitmask row per label (diagonal unused).

    Bit j of rows[i] is set iff (labels[i], labels[j]) is in the relation.
    """

    ground: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self):
        rows, n = self.rows, len(self.ground)
        if type(rows) is not tuple or any(type(r) is not int for r in rows):
            raise ValueError("relation rows must be a tuple of ints")
        if len(rows) != n:
            raise ValueError(f"relation has {len(rows)} rows for {n} labels")
        if any(r >> n for r in rows):
            raise ValueError("relation bits outside the grid")
        if any(r >> i & 1 for i, r in enumerate(rows)):
            raise ValueError("diagonal pairs must not be stored")
        if not _transitive(rows):
            raise ValueError("relation is not transitive")

    @staticmethod
    def from_pairs(ground: GroundSet, pairs: Iterable[tuple]) -> "Preposet":
        rows = [0] * len(ground)
        for a, b in pairs:
            i, j = ground.index(a), ground.index(b)
            if i == j:
                raise ValueError("pairs must have distinct labels")
            rows[i] |= 1 << j
        return Preposet(ground, tuple(rows))

    @staticmethod
    def antichain(ground: GroundSet) -> "Preposet":
        return _unchecked(Preposet, ground=ground, rows=(0,) * len(ground))

    @staticmethod
    def complete(ground: GroundSet) -> "Preposet":
        full = (1 << len(ground)) - 1
        rows = tuple(full ^ 1 << i for i in range(len(ground)))
        return _unchecked(Preposet, ground=ground, rows=rows)

    def has(self, a, b) -> bool:
        return bool(self.rows[self.ground.index(a)] >> self.ground.index(b) & 1)

    @property
    def pairs(self) -> frozenset:
        labels = self.ground.labels
        return frozenset(
            (a, b) for a, r in zip(labels, self.rows) for j, b in enumerate(labels) if r >> j & 1
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
    return not any(r & ~s for r, s in zip(p.rows, q.rows))


def _induced(p: Preposet, ground: GroundSet, pos) -> Preposet:
    """The relation of p read on ground, whose k-th label stands for the
    label of p at position pos[k]: one gather of the rows at pos."""
    rows = tuple(gather_bits(p.rows[i], pos) for i in pos)
    return _unchecked(Preposet, ground=ground, rows=rows)


def _restricted(p: Preposet, S: int) -> Preposet:
    """p restricted to the labels at the set bits of S."""
    return _induced(p, p.ground.sub(S), set_bits(S))


def restrict_preposet(p: Preposet, S: Iterable) -> Preposet:
    """ValueError when S leaves the ground set or names a label twice."""
    return _restricted(p, _restriction_mask(p.ground, S))


def o_mul(p: AugPreposet, q: AugPreposet) -> AugPreposet:
    """Disjoint union of relations; bottom absorbs."""
    ground = p.ground.union(q.ground)  # raises on overlap
    if is_bottom(p) or is_bottom(q):
        return Bottom(ground)
    rows = [0] * len(ground)
    for part in (p, q):
        pos = ground.positions(part.ground.labels)
        for i, r in zip(pos, part.rows):
            rows[i] = scatter_bits(r, pos)
    return _unchecked(Preposet, ground=ground, rows=tuple(rows))


def _closed_upward(rows: tuple[int, ...], S: int) -> bool:
    """Whether no relation bit runs from a label outside S into S."""
    return not any(r & S for t, r in enumerate(rows) if not S >> t & 1)


def o_comul(
    p: AugPreposet, S: Iterable, T: Iterable
) -> tuple[AugPreposet, AugPreposet]:
    """Restrict to both blocks when (S,T) <= p, else a pair of bottoms."""
    S, T = _split_masks(p.ground, S, T)
    if is_bottom(p) or not _closed_upward(p.rows, S):
        return Bottom(p.ground.sub(S)), Bottom(p.ground.sub(T))
    return _restricted(p, S), _restricted(p, T)


@ground_cache
def total_of_composition(F: Composition) -> Preposet:
    """The total preposet of a composition: (a,b) related iff the lump of a
    comes no later than the lump of b. Same-lump pairs get both directions."""
    rows = [0] * len(F.ground)
    later = 0  # the labels of this lump and every later one
    for lump in reversed(F.lumps):
        later |= F.ground.mask(lump)
        for i in F.ground.positions(lump):
            rows[i] = later & ~(1 << i)
    return _unchecked(Preposet, ground=F.ground, rows=tuple(rows))


def is_total(p: Preposet) -> bool:
    rows = p.rows
    return all((r >> j | rows[j] >> i) & 1 for i, r in enumerate(rows) for j in range(i))


def composition_of_total(p: Preposet) -> Composition:
    """Inverse of total_of_composition on total preposets."""
    if not is_total(p):
        raise ValueError("preposet is not total")
    # the masks of the labels in or after each label's lump: a chain of
    # subsets, so decreasing as integers, and consecutive ones differ by a lump
    tails = sorted({r | 1 << i for i, r in enumerate(p.rows)}, reverse=True)
    lumps = tuple(p.ground.subset(a & ~b) for a, b in zip(tails, tails[1:] + [0]))
    return _unchecked(Composition, ground=p.ground, lumps=lumps)


@lru_cache(maxsize=1024)  # a perfbench pass touches at most 541 preposets
def upward_masks(p: Preposet) -> tuple[int, ...]:
    """The bitmasks S, increasing, of the proper nonempty subsets with
    (S, complement) <= p: those no label outside S is related into."""
    rows = p.rows
    # n-bit reach rows over 2^n subsets, and as many upward splits to list
    _charge(len(rows) + 1 << len(rows), "the subset table of {} labels", len(rows))
    full = (1 << len(rows)) - 1
    # reach[C]: the labels some label of C is related to, peeling C's lowest bit
    reach = [0] * (full + 1)
    for C in range(1, full + 1):
        low = C & -C
        reach[C] = reach[C ^ low] | rows[low.bit_length() - 1]
    return tuple(S for S in range(1, full) if not S & reach[full ^ S])


@ground_cache
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
    return _induced(p, sigma.source, sigma.positions)


# The number of preposets on n labels, n <= 7 (OEIS A000798)
_PREPOSET_COUNTS = (1, 1, 4, 29, 355, 6942, 209527, 9535241)


@ground_cache
def _preposet_list(ground: GroundSet) -> tuple[Preposet, ...]:
    n = len(ground)
    # a step per scanned relation, the estimate held at 2^1024 past 32 labels
    scanned = 1 << min(n * (n - 1), 1024)
    _charge(scanned, "scanning the 2^{} relations on {} labels", n * (n - 1), n)
    # candidate relations over the off-diagonal cells, in increasing mask order
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for k, (i, j) in enumerate(cells):
            if bits >> k & 1:
                rows[i] |= 1 << j
        if _transitive(rows):
            out.append(_unchecked(Preposet, ground=ground, rows=tuple(rows)))
    return tuple(out)


@ground_cache
def _aug_preposet_list(ground: GroundSet) -> tuple[AugPreposet, ...]:
    """The bottom, then _preposet_list(ground)."""
    return (Bottom(ground),) + _preposet_list(ground)


def enumerate_preposets(ground: GroundSet) -> Iterator[Preposet]:
    """Every preposet on the ground set exactly once, deterministic order."""
    return iter(_preposet_list(ground))


def enumerate_aug_preposets(ground: GroundSet) -> Iterator[AugPreposet]:
    """Bottom first, then every preposet."""
    return iter(_aug_preposet_list(ground))
