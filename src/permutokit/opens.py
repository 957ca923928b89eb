"""Torus-invariant open sets of permutohedral space and its products,
represented as down-closed families of orbit tuples, with the pullbacks along
multiplication and comultiplication and the preposet indexing check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

from .preposet import (
    AugPreposet,
    Preposet,
    _aug_preposet_list,
    is_bottom,
    o_mul,
    preposet_leq,
    restrict_preposet,
    total_of_composition,
)
from .setcomp import (
    _COMP_CAP,
    Composition,
    GroundSet,
    _comps,
    _unchecked,
    concatenate,
    ground_cache,
    refines,
    restrict,
    sorted_labels,
)

_SIZE_CAP = 4


def _check_labels(ground: GroundSet) -> None:
    """An open lists orbits of compositions of its labels: refuse one past
    the composition cap before any composition list is built."""
    if len(ground) > _COMP_CAP:
        raise ValueError(f"open sets capped at {_COMP_CAP} labels")


@ground_cache
def _down_set(H: Composition) -> frozenset:
    """All compositions obtainable from H by merging contiguous lumps."""
    return frozenset(K for K in _comps(H.ground) if refines(K, H))


def _covers(lumps: tuple) -> list:
    """The lumps of each composition made by merging one pair of adjacent
    lumps."""
    return [
        lumps[:i] + (sorted_labels(lumps[i] + lumps[i + 1]),) + lumps[i + 2 :]
        for i in range(len(lumps) - 1)
    ]


@dataclass(frozen=True)
class ToricOpen:
    """A union of orbits of a product of permutohedral spaces.

    shape lists the factor ground sets in order; orbits holds one composition
    per factor. Openness is exactly down-closure under coarsening in every
    coordinate, which the constructor verifies.
    """

    shape: Composition
    orbits: frozenset

    def __post_init__(self):
        """Every coarsening is a chain of merges of two adjacent lumps, so a
        family closed under those covers, one coordinate at a time, is
        down-closed. Every tuple's length, then every tuple's grounds, are
        checked before any cover, so a family with several faults names the
        same one whatever order the frozenset iterates in."""
        _check_labels(self.shape.ground)
        k = self.shape.length()
        if any(len(tup) != k for tup in self.orbits):
            raise ValueError("orbit tuple length does not match the shape")
        grounds = tuple(GroundSet.of(l) for l in self.shape.lumps)
        if any(H.ground != g for tup in self.orbits for H, g in zip(tup, grounds)):
            raise ValueError("orbit component over the wrong ground set")
        # over fixed grounds a composition is its lumps
        family = {tuple(H.lumps for H in tup) for tup in self.orbits}
        for tup in family:
            for j, lumps in enumerate(tup):
                for K in _covers(lumps):
                    if tup[:j] + (K,) + tup[j + 1 :] not in family:
                        raise ValueError("orbit family is not down-closed")

    @staticmethod
    def closed(shape: Composition, seeds: Iterable[tuple]) -> "ToricOpen":
        """Build from generating orbit tuples, closing downward eagerly."""
        out = set()
        for tup in seeds:
            for closed_tup in itertools.product(*[_down_set(H) for H in tup]):
                out.add(closed_tup)
        return ToricOpen(shape, frozenset(out))

    @staticmethod
    def empty(shape: Composition) -> "ToricOpen":
        return ToricOpen(shape, frozenset())

    @staticmethod
    def whole(shape: Composition) -> "ToricOpen":
        tups = itertools.product(
            *[_comps(GroundSet.of(l)) for l in shape.lumps]
        )
        return ToricOpen(shape, frozenset(tups))


def comp_below_preposet(F: Composition, p: AugPreposet) -> bool:
    """The branch selector for indexing identities: whether the total preposet
    of F sits below p, equivalently the orbit of F lies in the open of p."""
    if is_bottom(p):
        return False
    return preposet_leq(total_of_composition(F), p)


def _ambient_key(H: Composition) -> tuple:
    # the ambient shape (I) has one lump, or zero when I is empty
    return (H,) if H.ground.labels else ()


def _ambient_orbits(ground: GroundSet, pred) -> frozenset:
    return frozenset(
        _ambient_key(H) for H in _comps(ground) if pred(H)
    )


@ground_cache
def open_of_preposet(p: AugPreposet) -> ToricOpen:
    """The open indexed by a preposet: all orbits whose total relation
    contains the relation of p. The bottom indexes the empty open."""
    _check_labels(p.ground)
    shape = Composition.one_lump(p.ground)
    orbits = frozenset() if is_bottom(p) else _ambient_orbits(
        p.ground, lambda H: preposet_leq(total_of_composition(H), p)
    )
    return _unchecked(ToricOpen, shape=shape, orbits=orbits)


def pullback_delta(F: Composition, U: ToricOpen) -> ToricOpen:
    """Preimage under the comultiplication along F of a shape-F open: the
    orbits of the ambient space whose restriction tuple lies in U."""
    if U.shape != F:
        raise ValueError("open shape does not match F")
    shape = Composition.one_lump(F.ground)
    orbits = _ambient_orbits(
        F.ground,
        lambda H: tuple(restrict(H, lump) for lump in F.lumps) in U.orbits,
    )
    return _unchecked(ToricOpen, shape=shape, orbits=orbits)


def pullback_mu(F: Composition, U: ToricOpen) -> ToricOpen:
    """Preimage under the multiplication along F of an ambient open: the
    orbit tuples whose concatenation lies in U."""
    if U.shape != Composition.one_lump(F.ground):
        raise ValueError("open must have the one-lump ambient shape")
    factor_comps = [_comps(GroundSet.of(lump)) for lump in F.lumps]
    orbits = frozenset(
        tup
        for tup in itertools.product(*factor_comps)
        if _ambient_key(reduce(concatenate, tup, Composition.empty())) in U.orbits
    )
    return _unchecked(ToricOpen, shape=F, orbits=orbits)


def open_product(opens: Sequence[ToricOpen]) -> ToricOpen:
    """Cartesian product of one-lump-shaped opens, in the given order."""
    lumps = []
    for U in opens:
        if U.shape.length() != 1:
            raise ValueError("factors must have one-lump shapes")
        lumps.append(U.shape.lumps[0])
    shape = Composition.of(lumps)  # raises on overlapping factors
    _check_labels(shape.ground)
    orbits = frozenset(
        tuple(t[0] for t in tup)
        for tup in itertools.product(*[U.orbits for U in opens])
    )
    return _unchecked(ToricOpen, shape=shape, orbits=orbits)


@dataclass(frozen=True)
class IndexingReport:
    passed: bool
    checked_mul: int
    checked_comul: int
    counterexample: Optional[str]


def check_indexing(ground: GroundSet) -> IndexingReport:
    """Exhaustively verify that preposet indexing turns the pullbacks into
    the preposet operations: the comultiplication pullback of a product of
    preposet opens is the open of their disjoint union, and the
    multiplication pullback of a preposet open is the product of restriction
    opens when F sits below p and empty otherwise.
    """
    if len(ground) > _SIZE_CAP:
        raise ValueError(f"ground set exceeds the size cap {_SIZE_CAP}")
    checked_mul = 0
    checked_comul = 0
    for F in _comps(ground):
        grounds = [GroundSet.of(lump) for lump in F.lumps]
        factor_preposets = [_aug_preposet_list(g) for g in grounds]
        for ptup in itertools.product(*factor_preposets):
            lhs = pullback_delta(F, open_product([open_of_preposet(p) for p in ptup]))
            joined = reduce(o_mul, ptup) if ptup else Preposet.antichain(ground)
            rhs = open_of_preposet(joined)
            checked_mul += 1
            if lhs != rhs:
                return IndexingReport(
                    False,
                    checked_mul,
                    checked_comul,
                    f"multiplication identity fails at F={F!r}, parts={ptup!r}",
                )
        for p in _aug_preposet_list(ground):
            lhs = pullback_mu(F, open_of_preposet(p))
            if comp_below_preposet(F, p):
                rhs = open_product(
                    [
                        open_of_preposet(restrict_preposet(p, g.labels))
                        for g in grounds
                    ]
                )
            else:
                rhs = ToricOpen.empty(F)
            checked_comul += 1
            if lhs != rhs:
                return IndexingReport(
                    False,
                    checked_mul,
                    checked_comul,
                    f"comultiplication identity fails at F={F!r}, p={p!r}",
                )
    return IndexingReport(True, checked_mul, checked_comul, None)
