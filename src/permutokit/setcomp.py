"""Finite label sets, set compositions, and the Tits monoid.

A composition of a finite set I is an ordered sequence of disjoint nonempty
lumps covering I. Compositions carry the Tits product, the refinement order
(merging contiguous lumps), concatenation, restriction, and two group
actions: relabeling along a bijection of ground sets and permuting lumps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Any, Iterable, Iterator, Optional

Label = Any


def label_key(x: Label) -> tuple:
    """Canonical sort key for labels. Deterministic across runs, and total
    even for mixed int/str ground sets."""
    return (x.__class__.__name__, x)


def sorted_labels(labels: Iterable[Label]) -> tuple:
    return tuple(sorted(labels, key=label_key))


def _unchecked(cls: type, /, **fields):
    """An instance of the frozen dataclass cls built without running its
    __post_init__: only for values an internal operation derived from
    validated ones, or proved before they were built. Public constructors and
    JSON decoding validate. cls is positional-only, so any field name (a
    PointSet's kind) can be passed."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def gather_bits(m: int, pos) -> int:
    """Bit k of the result is bit pos[k] of m: a subset of a ground set read
    on the sub-ground whose k-th label sits at position pos[k]."""
    return sum(1 << k for k, p in enumerate(pos) if m >> p & 1)


def set_bits(m: int) -> list[int]:
    """The positions of the set bits of m, increasing: the pos of the
    sub-ground m names, for gather_bits and scatter_bits."""
    return [k for k in range(m.bit_length()) if m >> k & 1]


def scatter_bits(m: int, pos) -> int:
    """Bit pos[k] of the result is bit k of m: the inverse of gather_bits."""
    return sum(1 << p for k, p in enumerate(pos) if m >> k & 1)


# Tables over every subset of a ground set hold 2^n entries, as a subset
# function's values and a preposet's upward reach do: 12 labels give 4096.
_SUBSET_CAP = 12


def _check_size(n: int) -> None:
    if n > _SUBSET_CAP:
        raise ValueError(f"ground sets capped at {_SUBSET_CAP} labels")


def scatter_table(pos) -> list[int]:
    """scatter_bits(m, pos) for every m below 2^len(pos), in order: each
    position doubles the table, as bit k of m doubles the count below it."""
    table = [0]
    for p in pos:
        table += [s | 1 << p for s in table]
    return table


def _mask_sum(coords, m: int):
    """Sum of the coordinates at the set bits of m."""
    return sum(c for k, c in enumerate(coords) if m >> k & 1)


def _split_blocks(ground: GroundSet, S: Iterable[Label], T: Iterable[Label]) -> tuple:
    """S and T in canonical order; ValueError unless they decompose the
    ground (no label foreign or repeated)."""
    return tuple(map(ground.subset, _split_masks(ground, S, T)))


def _split_masks(ground: GroundSet, S: Iterable[Label], T: Iterable[Label]) -> tuple:
    """Bitmasks of S and T over the ground's canonical order; ValueError
    unless they decompose the ground."""
    S, T = tuple(S), tuple(T)
    try:
        masks = ground.mask(S), ground.mask(T)
    except ValueError:  # a foreign label: nothing is covered
        masks = 0, 0
    if len(S) + len(T) != len(ground) or masks[0] | masks[1] != (1 << len(ground)) - 1:
        raise ValueError("S,T do not decompose the ground set")
    return masks


@dataclass(frozen=True)
class GroundSet:
    """A finite set of distinct atoms in a fixed canonical order.

    GroundSet.of interns: while a label set stays in its bounded cache, every
    call with those labels, in any order, returns the one shared instance.
    """

    labels: tuple

    def __post_init__(self):
        index = {x: k for k, x in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels!r}")
        if self.labels != sorted_labels(self.labels):
            raise ValueError(f"labels not in canonical order: {self.labels!r}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_types", tuple(map(type, self.labels)))
        object.__setattr__(self, "_subs", {})

    @staticmethod
    def of(labels: Iterable[Label]) -> "GroundSet":
        labels = tuple(labels)
        return _interned(labels, tuple(map(type, labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __contains__(self, x: Label) -> bool:
        return x in self.labels

    def index(self, x: Label) -> int:
        """The canonical position of x. ValueError naming x when it is
        outside the ground set."""
        try:
            return self._index[x]
        except (KeyError, TypeError):  # TypeError: an unhashable x
            raise ValueError(f"label {x!r} is not in the ground set") from None

    def positions(self, labels: Iterable[Label]) -> list[int]:
        """The canonical index of each label, in the given order: the one
        map every coordinate scatter (juxtaposition) and gather (restriction)
        goes through."""
        return list(map(self.index, labels))

    def mask(self, labels: Iterable[Label]) -> int:
        """The bitmask of a subset: bit k stands for labels[k]."""
        m = 0
        for x in labels:
            m |= 1 << self.index(x)
        return m

    def subset(self, mask: int) -> tuple:
        """The labels whose bits are set in mask, in canonical order."""
        return tuple(x for k, x in enumerate(self.labels) if mask >> k & 1)

    def sub(self, mask: int) -> "GroundSet":
        """The ground set of subset(mask), kept on this ground for the next
        call with the same mask."""
        try:
            return self._subs[mask]
        except KeyError:
            g = self._subs[mask] = GroundSet.of(self.subset(mask))
            return g

    def union(self, other: "GroundSet") -> "GroundSet":
        if not self._index.keys().isdisjoint(other.labels):
            raise ValueError("ground sets overlap")
        return GroundSet.of(self.labels + other.labels)


# Distinct label sets kept interned; past this many the least recently used
# is dropped, and a later GroundSet.of builds (and validates) it afresh.
_GROUND_CACHE = 4096


@lru_cache(maxsize=_GROUND_CACHE)
def _interned(labels: tuple, types: tuple) -> GroundSet:
    """The shared ground set of labels, given in any order. The label types
    are part of the key because labels of different types can compare equal
    ((True,) == (1,)). A label set that fails validation raises here and so
    is never cached."""
    canon = sorted_labels(labels)
    if canon != labels:
        return _interned(canon, tuple(map(type, canon)))
    return GroundSet(labels)


EMPTY_GROUND = GroundSet.of(())


def ground_cache(fn):
    """Cache fn, a function of one ground set or of one object with a
    ground, without bound. The key is the argument and the types of its
    ground's labels: labels of different types can compare equal
    ((True,) == (1,)), and the cached result carries the ground it was
    built on."""

    @lru_cache(maxsize=None)
    def cached(x, types):
        return fn(x)

    @wraps(fn)
    def call(x):
        ground = x if isinstance(x, GroundSet) else x.ground
        return cached(x, ground._types)

    return call


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
            labels = set(lump)
            if len(labels) != len(lump):
                raise ValueError(f"lump repeats a label: {lump!r}")
            if seen & labels:
                raise ValueError("lumps overlap")
            seen |= labels
        if seen != set(self.ground.labels):
            raise ValueError("lumps do not cover the ground set")

    @staticmethod
    def of(lumps: Iterable[Iterable[Label]]) -> "Composition":
        """Build from lump contents; the ground set is their union. GroundSet.of
        refuses a label named twice, in one lump or two, and each lump is
        sorted here, so an empty lump is all that is left to refuse."""
        canon = tuple(sorted_labels(l) for l in lumps)
        ground = GroundSet.of([x for l in canon for x in l])
        if () in canon:
            raise ValueError("empty lump")
        return _unchecked(Composition, ground=ground, lumps=canon)

    @staticmethod
    def one_lump(ground: GroundSet) -> "Composition":
        lumps = (ground.labels,) if ground.labels else ()
        return _unchecked(Composition, ground=ground, lumps=lumps)

    @staticmethod
    def empty() -> "Composition":
        return Composition.one_lump(EMPTY_GROUND)

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
    """A bijection source -> target between ground sets, stored by canonical
    index: positions[k] is the target index of the image of source.labels[k].
    Callable on source labels; relabeling reads positions directly."""

    source: GroundSet
    target: GroundSet
    positions: tuple[int, ...]

    def __post_init__(self):
        pos = self.positions
        if type(pos) is not tuple or not all(type(j) is int for j in pos):
            raise ValueError("positions must be a tuple of ints")
        if len(pos) != len(self.source) or sorted(pos) != list(range(len(self.target))):
            raise ValueError("map is not a bijection onto the target")

    @staticmethod
    def of(mapping: dict) -> "Bijection":
        source = GroundSet.of(mapping.keys())
        target = GroundSet.of(mapping.values())
        return Bijection(source, target, tuple(target.positions(mapping[a] for a in source.labels)))

    @staticmethod
    def identity(ground: GroundSet) -> "Bijection":
        return _bijection(ground, ground, range(len(ground)))

    @property
    def pairs(self) -> tuple[tuple, ...]:
        """(label, image) for every source label, in canonical order."""
        return tuple(zip(self.source.labels, map(self.target.labels.__getitem__, self.positions)))

    def __repr__(self) -> str:
        return f"Bijection(source={self.source!r}, target={self.target!r}, pairs={self.pairs!r})"

    def __call__(self, x: Label) -> Label:
        k = self.source._index.get(x)
        if k is None:
            raise KeyError(x)
        return self.target.labels[self.positions[k]]

    def inverse(self) -> "Bijection":
        inv = [0] * len(self.positions)
        for k, j in enumerate(self.positions):
            inv[j] = k
        return _bijection(self.target, self.source, inv)

    def compose(self, inner: "Bijection") -> "Bijection":
        """self after inner: (self.compose(inner))(x) = self(inner(x))."""
        if inner.target != self.source:
            raise ValueError("bijections do not compose")
        return _bijection(inner.source, self.target, [self.positions[j] for j in inner.positions])

    def restricted(self, targets: Iterable[Label]) -> "Bijection":
        """The restriction onto a subset of the target; ValueError naming a
        label outside the target."""
        t = self.target.mask(targets)
        rank = {j: r for r, j in enumerate(set_bits(t))}
        keep = [k for k, j in enumerate(self.positions) if j in rank]
        source = self.source.sub(sum(1 << k for k in keep))
        return _bijection(source, self.target.sub(t), [rank[self.positions[k]] for k in keep])


def _bijection(source: GroundSet, target: GroundSet, positions) -> Bijection:
    """The bijection sending source.labels[k] to target.labels[positions[k]],
    built without validation."""
    return _unchecked(Bijection, source=source, target=target, positions=tuple(positions))


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
        return _unchecked(Perm, images=tuple(range(1, k + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for m, im in enumerate(self.images, start=1):
            inv[im - 1] = m
        return _unchecked(Perm, images=tuple(inv))

    def compose(self, inner: "Perm") -> "Perm":
        """self after inner."""
        if inner.degree != self.degree:
            raise ValueError("degree mismatch")
        return _unchecked(Perm, images=tuple(self(inner(m)) for m in range(1, self.degree + 1)))


def _check_same_ground(F: Composition, G: Composition) -> None:
    if F.ground != G.ground:
        raise ValueError("ground sets differ")


def _restriction_mask(ground: GroundSet, S: Iterable[Label]) -> int:
    """The bitmask of a restriction set S; ValueError when S leaves the
    ground set or names a label twice."""
    m = 0
    for x in S:
        try:
            bit = 1 << ground.index(x)
        except ValueError:
            raise ValueError("S is not a subset of the ground set") from None
        if m & bit:
            raise ValueError(f"S names label {x!r} twice")
        m |= bit
    return m


def _meet(lumps: tuple, S) -> list:
    """Each lump intersected with S, in order, empties deleted. Lumps are in
    canonical order, so their intersections are too."""
    out = (tuple(x for x in lump if x in S) for lump in lumps)
    return [lump for lump in out if lump]


def restrict(H: Composition, S: Iterable[Label]) -> Composition:
    """Restriction H|_S: intersect each lump with S, deleting empties."""
    ground = H.ground.sub(_restriction_mask(H.ground, S))
    return _unchecked(Composition, ground=ground, lumps=tuple(_meet(H.lumps, ground._index)))


def concatenate(H: Composition, K: Composition) -> Composition:
    """Concatenation H;K over the disjoint union of grounds."""
    ground = H.ground.union(K.ground)  # raises on overlap
    return _unchecked(Composition, ground=ground, lumps=H.lumps + K.lumps)


def tits_product(F: Composition, G: Composition) -> Composition:
    """The Tits product FG: restrict G to each lump of F, then concatenate."""
    _check_same_ground(F, G)
    lumps: list[tuple] = []
    for S in F.lumps:
        lumps += _meet(G.lumps, set(S))
    return _unchecked(Composition, ground=F.ground, lumps=tuple(lumps))


def coarsening_runs(F: Composition, G: Composition) -> Optional[list[range]]:
    """The run of F-lump indices (0-based) whose union is each lump of G, in
    order, when G is obtained from F by merging contiguous lumps; else None."""
    _check_same_ground(F, G)
    runs, i = [], 0
    for lump in G.lumps:
        start, acc = i, set()
        while len(acc) < len(lump) and i < len(F.lumps):
            acc.update(F.lumps[i])
            i += 1
        if acc != set(lump):
            return None
        runs.append(range(start, i))
    return runs


def refines(G: Composition, F: Composition) -> bool:
    """True iff G <= F, i.e. G is obtained from F by merging contiguous lumps."""
    return coarsening_runs(F, G) is not None


def relabel(sigma: Bijection, F: Composition) -> Composition:
    """Pull back along sigma: lumps become sigma-preimages, order kept."""
    if sigma.target != F.ground:
        raise ValueError("bijection target does not match the ground set")
    pos, subset = sigma.positions, sigma.source.subset
    lumps = tuple(subset(gather_bits(F.ground.mask(lump), pos)) for lump in F.lumps)
    return _unchecked(Composition, ground=sigma.source, lumps=lumps)


def permute_lumps(beta: Perm, F: Composition) -> Composition:
    """Left action: the lump at position beta(m) of the result is lump m of F."""
    if beta.degree != F.length():
        raise ValueError("degree does not match the number of lumps")
    out: list = [None] * F.length()
    for m, lump in enumerate(F.lumps, start=1):
        out[beta(m) - 1] = lump
    return _unchecked(Composition, ground=F.ground, lumps=tuple(out))


def hat_beta(beta: Perm, F: Composition, G: Composition) -> Perm:
    """The unique lift of beta along a refinement G <= F.

    Returns the permutation of F's lumps whose action on F equals the Tits
    product (beta acting on G) * F: the runs of F-lumps under the lumps of G
    keep their inner order and are laid out in the order beta gives G, and
    the lift sends each F-lump to its place in that layout.
    """
    runs = coarsening_runs(F, G)
    if runs is None:
        raise ValueError("G does not refine-below F")
    if beta.degree != G.length():
        raise ValueError("degree does not match G")
    layout = tuple(i + 1 for m in beta.inverse().images for i in runs[m - 1])
    return _unchecked(Perm, images=layout).inverse()


def all_compositions(ground: GroundSet) -> Iterator[Composition]:
    """Every composition of the ground set, deterministic order."""
    labels = list(ground.labels)

    def rec(xs: list) -> Iterator[tuple[tuple, ...]]:
        if not xs:
            yield ()
            return
        first, rest = xs[0], xs[1:]
        for sub in rec(rest):
            # insert {first} as a new lump, or merge it into an existing one;
            # first precedes every label of rest, so merged lumps stay canonical
            for k in range(len(sub) + 1):
                yield sub[:k] + ((first,),) + sub[k:]
            for k in range(len(sub)):
                yield sub[:k] + ((first,) + sub[k],) + sub[k + 1:]

    # each composition arises from exactly one (sub, position) choice
    for lumps in rec(labels):
        yield _unchecked(Composition, ground=ground, lumps=lumps)


# Composition lists are built whole, and a label multiplies their length by
# about 13: 7 labels give 47293 compositions, 9 labels 7087261.
_COMP_CAP = 7


@ground_cache
def _comps(ground: GroundSet) -> tuple[Composition, ...]:
    return tuple(all_compositions(ground))


def two_block_decompositions(
    ground: GroundSet, include_empty: bool = True
) -> Iterator[tuple[tuple, tuple]]:
    """Ordered decompositions I = S ⊔ T, optionally with empty blocks."""
    full = (1 << len(ground)) - 1
    for bits in range(full + 1):
        if include_empty or 0 < bits < full:
            yield ground.subset(bits), ground.subset(full ^ bits)


def ordered_decompositions(
    ground: GroundSet, parts: int
) -> Iterator[tuple[tuple, ...]]:
    """Ordered decompositions of the ground set into `parts` possibly-empty blocks."""
    labels = ground.labels
    for assign in itertools.product(range(parts), repeat=len(labels)):
        yield tuple(
            tuple(x for x, a in zip(labels, assign) if a == j) for j in range(parts)
        )
