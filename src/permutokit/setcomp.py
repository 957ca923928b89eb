"""Finite label sets, set compositions, and the Tits monoid.

A composition of a finite set I is an ordered sequence of disjoint nonempty
lumps covering I. Compositions carry the Tits product, the refinement order
(merging contiguous lumps), concatenation, restriction, and two group
actions: relabeling along a bijection of ground sets and permuting lumps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator

Label = Any


def label_key(x: Label) -> tuple:
    """Canonical sort key for labels. Deterministic across runs, and total
    even for mixed int/str ground sets."""
    return (x.__class__.__name__, x)


def sorted_labels(labels: Iterable[Label]) -> tuple:
    return tuple(sorted(labels, key=label_key))


def _split_blocks(ground: GroundSet, S: Iterable[Label], T: Iterable[Label]) -> tuple:
    """S and T in canonical order; ValueError unless they decompose the
    ground (no label foreign or repeated)."""
    labels = ground.labels
    return tuple(
        tuple(x for k, x in enumerate(labels) if m >> k & 1)
        for m in _split_masks(ground, S, T)
    )


def _split_masks(ground: GroundSet, S: Iterable[Label], T: Iterable[Label]) -> tuple:
    """Bitmasks of S and T over the ground's canonical order; ValueError
    unless they decompose the ground."""
    labels = ground.labels
    masks = [0, 0]
    for k, blk in enumerate((S, T)):
        for x in blk:
            bit = 1 << labels.index(x) if x in labels else 0
            if not bit or (masks[0] | masks[1]) & bit:
                raise ValueError("S,T do not decompose the ground set")
            masks[k] |= bit
    if masks[0] | masks[1] != (1 << len(labels)) - 1:
        raise ValueError("S,T do not decompose the ground set")
    return masks[0], masks[1]


@dataclass(frozen=True)
class GroundSet:
    """A finite set of distinct atoms in a fixed canonical order."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels!r}")
        if self.labels != sorted_labels(self.labels):
            raise ValueError(f"labels not in canonical order: {self.labels!r}")

    @staticmethod
    def of(labels: Iterable[Label]) -> "GroundSet":
        return GroundSet(sorted_labels(labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __contains__(self, x: Label) -> bool:
        return x in self.labels

    def index(self, x: Label) -> int:
        return self.labels.index(x)

    def positions(self, labels: Iterable[Label]) -> list[int]:
        """The canonical index of each label, in the given order: the one
        map every coordinate scatter (juxtaposition) and gather (restriction)
        goes through. ValueError on a label outside the ground set."""
        return list(map(self.labels.index, labels))

    def union(self, other: "GroundSet") -> "GroundSet":
        if set(self.labels) & set(other.labels):
            raise ValueError("ground sets overlap")
        return GroundSet.of(self.labels + other.labels)

    def issubset(self, other: "GroundSet") -> bool:
        return set(self.labels) <= set(other.labels)


EMPTY_GROUND = GroundSet(())


@dataclass(frozen=True)
class Composition:
    """An ordered partition of a ground set into nonempty lumps.

    The empty ground set has exactly one composition, with zero lumps.
    Lumps are stored in canonical label order so equality is structural.
    """

    ground: GroundSet
    lumps: tuple[tuple, ...]

    def __post_init__(self):
        seen: set = set()
        for lump in self.lumps:
            if not lump:
                raise ValueError("empty lump")
            if lump != sorted_labels(lump):
                raise ValueError(f"lump not in canonical order: {lump!r}")
            if seen & set(lump):
                raise ValueError("lumps overlap")
            seen |= set(lump)
        if seen != set(self.ground.labels):
            raise ValueError("lumps do not cover the ground set")

    @staticmethod
    def of(lumps: Iterable[Iterable[Label]]) -> "Composition":
        """Build from lump contents; the ground set is their union."""
        canon = tuple(sorted_labels(l) for l in lumps)
        ground = GroundSet.of([x for l in canon for x in l])
        return Composition(ground, canon)

    @staticmethod
    def one_lump(ground: GroundSet) -> "Composition":
        if len(ground) == 0:
            return Composition(ground, ())
        return Composition(ground, (ground.labels,))

    @staticmethod
    def empty() -> "Composition":
        return Composition(EMPTY_GROUND, ())

    def length(self) -> int:
        return len(self.lumps)

    def lump_index(self, x: Label) -> int:
        """1-based index of the lump containing x."""
        for k, lump in enumerate(self.lumps, start=1):
            if x in lump:
                return k
        raise KeyError(x)

    def __repr__(self) -> str:
        inner = "|".join("{" + ",".join(map(str, l)) + "}" for l in self.lumps)
        return f"({inner})"


@dataclass(frozen=True)
class Bijection:
    """A bijection source -> target between ground sets.

    Stored as pairs sorted by source label; callable on source labels.
    """

    source: GroundSet
    target: GroundSet
    pairs: tuple[tuple, ...]

    def __post_init__(self):
        srcs = [a for a, _ in self.pairs]
        tgts = [b for _, b in self.pairs]
        if tuple(srcs) != self.source.labels:
            raise ValueError("map is not total on the source in canonical order")
        if sorted_labels(tgts) != self.target.labels or len(set(tgts)) != len(tgts):
            raise ValueError("map is not a bijection onto the target")

    @staticmethod
    def of(mapping: dict) -> "Bijection":
        source = GroundSet.of(mapping.keys())
        target = GroundSet.of(mapping.values())
        pairs = tuple((a, mapping[a]) for a in source.labels)
        return Bijection(source, target, pairs)

    @staticmethod
    def identity(ground: GroundSet) -> "Bijection":
        return Bijection(ground, ground, tuple((x, x) for x in ground.labels))

    def __call__(self, x: Label) -> Label:
        for a, b in self.pairs:
            if a == x:
                return b
        raise KeyError(x)

    def inverse(self) -> "Bijection":
        return Bijection.of({b: a for a, b in self.pairs})

    def compose(self, inner: "Bijection") -> "Bijection":
        """self after inner: (self.compose(inner))(x) = self(inner(x))."""
        if inner.target != self.source:
            raise ValueError("bijections do not compose")
        return Bijection.of({a: self(b) for a, b in inner.pairs})

    def restricted(self, targets: Iterable[Label]) -> "Bijection":
        """The restriction onto a subset of the target."""
        targets = set(targets)
        return Bijection.of({a: b for a, b in self.pairs if b in targets})


@dataclass(frozen=True)
class Perm:
    """A permutation of {1, ..., k} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {self.images!r}")

    @staticmethod
    def identity(k: int) -> "Perm":
        return Perm(tuple(range(1, k + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for m, im in enumerate(self.images, start=1):
            inv[im - 1] = m
        return Perm(tuple(inv))

    def compose(self, inner: "Perm") -> "Perm":
        """self after inner."""
        if inner.degree != self.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(self(inner(m)) for m in range(1, self.degree + 1)))


def _check_same_ground(F: Composition, G: Composition) -> None:
    if F.ground != G.ground:
        raise ValueError("ground sets differ")


def restrict(H: Composition, S: Iterable[Label]) -> Composition:
    """Restriction H|_S: intersect each lump with S, deleting empties."""
    S = set(S)
    if not S <= set(H.ground.labels):
        raise ValueError("S is not a subset of the ground set")
    lumps = tuple(
        sorted_labels(x for x in lump if x in S) for lump in H.lumps
    )
    return Composition(GroundSet.of(S), tuple(l for l in lumps if l))


def concatenate(H: Composition, K: Composition) -> Composition:
    """Concatenation H;K over the disjoint union of grounds."""
    ground = H.ground.union(K.ground)  # raises on overlap
    return Composition(ground, H.lumps + K.lumps)


def tits_product(F: Composition, G: Composition) -> Composition:
    """The Tits product FG: restrict G to each lump of F, then concatenate."""
    _check_same_ground(F, G)
    lumps: list[tuple] = []
    for S in F.lumps:
        lumps.extend(restrict(G, S).lumps)
    return Composition(F.ground, tuple(lumps))


def refines(G: Composition, F: Composition) -> bool:
    """True iff G <= F, i.e. G is obtained from F by merging contiguous lumps."""
    _check_same_ground(G, F)
    fi = 0
    for lump in G.lumps:
        need = set(lump)
        acc: set = set()
        while acc != need:
            if fi >= len(F.lumps):
                return False
            nxt = set(F.lumps[fi])
            if not nxt <= need - acc:
                return False
            acc |= nxt
            fi += 1
    return fi == len(F.lumps)


def relabel(sigma: Bijection, F: Composition) -> Composition:
    """Pull back along sigma: lumps become sigma-preimages, order kept."""
    if sigma.target != F.ground:
        raise ValueError("bijection target does not match the ground set")
    lumps = tuple(
        sorted_labels(a for a, b in sigma.pairs if b in set(lump))
        for lump in F.lumps
    )
    return Composition(sigma.source, lumps)


def permute_lumps(beta: Perm, F: Composition) -> Composition:
    """Left action: the lump at position beta(m) of the result is lump m of F."""
    if beta.degree != F.length():
        raise ValueError("degree does not match the number of lumps")
    out: list = [None] * F.length()
    for m, lump in enumerate(F.lumps, start=1):
        out[beta(m) - 1] = lump
    return Composition(F.ground, tuple(out))


def hat_beta(beta: Perm, F: Composition, G: Composition) -> Perm:
    """Solve for the unique lift of beta along a refinement G <= F.

    Returns the permutation of F's lumps whose action on F equals the Tits
    product (beta acting on G) * F. Found by exhaustive search; lengths in
    scope are tiny.
    """
    _check_same_ground(F, G)
    if not refines(G, F):
        raise ValueError("G does not refine-below F")
    if beta.degree != G.length():
        raise ValueError("degree does not match G")
    target = tits_product(permute_lumps(beta, G), F)
    k = F.length()
    hits = [
        Perm(images)
        for images in itertools.permutations(range(1, k + 1))
        if permute_lumps(Perm(images), F) == target
    ]
    if len(hits) != 1:
        raise AssertionError(f"lift not unique: {hits!r}")
    return hits[0]


def all_compositions(ground: GroundSet) -> Iterator[Composition]:
    """Every composition of the ground set, deterministic order."""
    labels = list(ground.labels)

    def rec(xs: list) -> Iterator[tuple[tuple, ...]]:
        if not xs:
            yield ()
            return
        first, rest = xs[0], xs[1:]
        for sub in rec(rest):
            # insert {first} as a new lump, or merge it into an existing one
            for k in range(len(sub) + 1):
                yield sub[:k] + ((first,),) + sub[k:]
            for k in range(len(sub)):
                yield sub[:k] + (sorted_labels(sub[k] + (first,)),) + sub[k + 1:]

    # each composition arises from exactly one (sub, position) choice
    for lumps in rec(labels):
        yield Composition(ground, lumps)


@lru_cache(maxsize=None)
def _comps(ground: GroundSet) -> tuple[Composition, ...]:
    return tuple(all_compositions(ground))


def two_block_decompositions(
    ground: GroundSet, include_empty: bool = True
) -> Iterator[tuple[tuple, tuple]]:
    """Ordered decompositions I = S ⊔ T, optionally with empty blocks."""
    labels = ground.labels
    n = len(labels)
    for bits in range(1 << n):
        S = tuple(x for k, x in enumerate(labels) if bits >> k & 1)
        T = tuple(x for k, x in enumerate(labels) if not bits >> k & 1)
        if not include_empty and (not S or not T):
            continue
        yield S, T


def ordered_decompositions(
    ground: GroundSet, parts: int
) -> Iterator[tuple[tuple, ...]]:
    """Ordered decompositions of the ground set into `parts` possibly-empty blocks."""
    labels = ground.labels
    for assign in itertools.product(range(parts), repeat=len(labels)):
        yield tuple(
            tuple(x for x, a in zip(labels, assign) if a == j) for j in range(parts)
        )
