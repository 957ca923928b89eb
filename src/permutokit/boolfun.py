"""Integer-valued functions on the subsets of a ground set, vanishing on the
empty set, with their product, two-sided coproduct, and the modular-shift
equivalence.

Values are stored densely, indexed by bitmask over the canonical label order.
A table built from fewer values than it holds, and the squares of subsets the
polymatroid test compares, are charged to the work budget first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .setcomp import (
    Bijection,
    GroundSet,
    _charge,
    _mask_sum,
    _split_masks,
    _unchecked,
    scatter_table,
    set_bits,
)


@dataclass(frozen=True)
class BooleanFunction:
    ground: GroundSet
    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.ground)
        if len(self.values) != 1 << n:
            raise ValueError("dense value table has the wrong size")
        if self.values[0] != 0:
            raise ValueError("the empty set must map to zero")

    @staticmethod
    def from_callable(ground: GroundSet, fn: Callable[[frozenset], int]) -> "BooleanFunction":
        _charge(1 << len(ground), "a table of 2^{} values", len(ground))
        vals = (int(fn(frozenset(ground.subset(m)))) for m in range(1 << len(ground)))
        return BooleanFunction(ground, tuple(vals))

    @staticmethod
    def zero(ground: GroundSet) -> "BooleanFunction":
        _charge(1 << len(ground), "a table of 2^{} values", len(ground))
        return _unchecked(BooleanFunction, ground=ground, values=(0,) * (1 << len(ground)))

    def value(self, A: Iterable) -> int:
        return self.values[self.ground.mask(A)]


def hei(z: BooleanFunction) -> int:
    """The value on the full ground set."""
    return z.values[-1]


def bf_mul(z1: BooleanFunction, z2: BooleanFunction) -> BooleanFunction:
    """(z1|z2)(A) = z1(A ∩ S) + z2(A ∩ T) over the disjoint union."""
    ground = z1.ground.union(z2.ground)  # raises on overlap
    _charge(1 << len(ground), "a table of 2^{} values", len(ground))
    table1 = scatter_table(ground.positions(z1.ground.labels))
    table2 = scatter_table(ground.positions(z2.ground.labels))
    vals = [0] * (1 << len(ground))
    # each subset A of the union is one A ∩ S (a) joined with one A ∩ T (b)
    for a, v in zip(table1, z1.values):
        for b, w in zip(table2, z2.values):
            vals[a | b] = v + w
    return _unchecked(BooleanFunction, ground=ground, values=tuple(vals))


def bf_comul(
    z: BooleanFunction, S: Iterable, T: Iterable
) -> tuple[BooleanFunction, BooleanFunction]:
    """The two-sided coproduct along the decomposition I = S ⊔ T.

    The S half is plain restriction; the T half is the shifted restriction
    A ↦ z(A ⊔ S) − z(S).
    """
    S, T = _split_masks(z.ground, S, T)
    halves = []
    for blk, base in ((S, 0), (T, S)):
        vals = tuple(z.values[A | base] - z.values[base] for A in scatter_table(set_bits(blk)))
        halves.append(_unchecked(BooleanFunction, ground=z.ground.sub(blk), values=vals))
    return halves[0], halves[1]


def z_of_point(ground: GroundSet, h) -> BooleanFunction:
    """The modular function of an integer vector: A ↦ sum of h over A.

    h may be a mapping from labels or a sequence aligned with the canonical
    order; no zero-sum requirement.
    """
    if hasattr(h, "coord"):
        vec = [h.coords[k] for k in h.ground.positions(ground.labels)]
    elif isinstance(h, dict):
        vec = [h[x] for x in ground.labels]
    else:
        vec = list(h)
        if len(vec) != len(ground):
            raise ValueError("vector length does not match the ground set")
    _charge(len(ground) + 1 << len(ground), "a table of 2^{} sums", len(ground))
    vals = (_mask_sum(vec, m) for m in range(1 << len(ground)))
    return BooleanFunction(ground, tuple(vals))


def bf_equivalent(z1: BooleanFunction, z2: BooleanFunction) -> Optional[dict]:
    """The unique integer vector h with z2 = z1 + (modular of h), if any.

    Returned as a label -> int mapping; None when the difference is not
    additive over singletons.
    """
    if z1.ground != z2.ground:
        raise ValueError("ground sets differ")
    ground = z1.ground
    h = {x: z2.value([x]) - z1.value([x]) for x in ground.labels}
    zh = z_of_point(ground, h)
    for m in range(1 << len(ground)):
        if z2.values[m] - z1.values[m] != zh.values[m]:
            return None
    return h


def is_generalized_permutohedron(z: BooleanFunction) -> bool:
    """Submodularity, z(A) + z(B) >= z(A ∪ B) + z(A ∩ B) for all A, B, by
    its local form: z(A+i) + z(A+j) >= z(A+i+j) + z(A) for every A and
    every i < j outside A, n(n-1)/2 · 2^(n-2) squares."""
    n = len(z.ground)
    _charge(n * (n - 1) << n >> 3, "comparing the squares of subsets on {} labels", n)
    vals, bits = z.values, [1 << k for k in range(n)]
    for A, zA in enumerate(vals):
        outside = [b for b in bits if not A & b]
        for k, i in enumerate(outside):
            gain = vals[A | i] - zA
            for j in outside[k + 1:]:
                if gain + vals[A | j] < vals[A | i | j]:
                    return False
    return True


def relabel_bf(sigma: Bijection, z: BooleanFunction) -> BooleanFunction:
    """Pull back along a bijection: the value at A is the value at sigma(A)."""
    if sigma.target != z.ground:
        raise ValueError("bijection target does not match the ground set")
    vals = tuple(z.values[A] for A in scatter_table(sigma.positions))
    return _unchecked(BooleanFunction, ground=sigma.source, values=vals)
