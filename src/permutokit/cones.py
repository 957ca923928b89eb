"""Coroot cones indexed by preposets: membership, windowed lattice points,
products, and faces. Also the integer point classes (`AffinePoint` and its
zero-sum subclass `CoweightVector`), their one juxtaposition and one
restriction, and the `PointSet` carrier that every lattice-point window
(cone, plate, section) returns.

The cone of a preposet p lives in the zero-sum lattice. Membership is decided
by the halfspace description: the pairing with every admissible upward split
of p must be nonpositive. The generator description (nonnegative spans of
coroots) lives in the tests, as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .preposet import AugPreposet, Preposet, is_bottom, o_comul, o_mul, upward_masks
from .setcomp import GroundSet, _mask_sum, _unchecked


@dataclass(frozen=True)
class AffinePoint:
    """Exact coordinate vector on a ground set, no sum constraint."""

    ground: GroundSet
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.ground):
            raise ValueError("coordinate count does not match the ground set")

    @classmethod
    def of(cls, ground: GroundSet, mapping) -> "AffinePoint":
        return cls(ground, tuple(mapping[x] for x in ground.labels))

    def coord(self, x) -> int | Fraction:
        return self.coords[self.ground.index(x)]

    def total(self) -> int | Fraction:
        return sum(self.coords)


@dataclass(frozen=True)
class CoweightVector(AffinePoint):
    """Exact vector on a ground set with coordinate sum zero. Never equal to
    an AffinePoint: dataclass equality compares classes."""

    def __post_init__(self):
        super().__post_init__()
        if sum(self.coords) != 0:
            raise ValueError("coordinates must sum to zero")

    @staticmethod
    def zero(ground: GroundSet) -> "CoweightVector":
        return CoweightVector(ground, (0,) * len(ground))

    def __neg__(self) -> "CoweightVector":
        return CoweightVector(self.ground, tuple(-c for c in self.coords))

    def __add__(self, other: "CoweightVector") -> "CoweightVector":
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        return CoweightVector(
            self.ground, tuple(a + b for a, b in zip(self.coords, other.coords))
        )


def juxtaposed(ground: GroundSet, parts: Iterable) -> tuple:
    """The coordinates on ground of points on disjoint grounds covering it:
    each part's coordinates are scattered to the positions of its labels."""
    coords = [None] * len(ground)
    for h in parts:
        for k, c in zip(ground.positions(h.ground.labels), h.coords):
            coords[k] = c
    return tuple(coords)


def restricted(h, ground: GroundSet) -> tuple:
    """The coordinates of h at the labels of ground, a subset of h's ground."""
    return tuple(h.coords[k] for k in h.ground.positions(ground.labels))


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered set of integer points on one ground set, stored as rows.

    rows is a read-only (N, n) int64 array, one row per point, n = |ground|;
    kind is the point class (CoweightVector or AffinePoint) that indexing and
    iteration build from a row. The public constructor validates all rows at
    once: the shape, the exact int64 range, and zero sums when kind is
    CoweightVector. Cone and plate windows are built unchecked: their int64
    range is proved before enumeration, and the kernel's rows have n columns
    and, for a cone, zero sums. A PointSet compares equal to the tuple of the
    same points in order.
    """

    ground: GroundSet
    rows: np.ndarray
    kind: type = CoweightVector

    def __post_init__(self):
        n = len(self.ground)
        rows = np.asarray(self.rows)
        if rows.ndim == 1 and rows.size == 0:
            rows = np.zeros((0, n), dtype=np.int64)
        try:
            rows = rows.astype(np.int64, casting="safe")  # a private copy
        except TypeError:
            raise ValueError("point coordinates must be an integer array") from None
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError("coordinate count does not match the ground set")
        coord_max = max(int(rows.max()), -int(rows.min())) if rows.size else 0
        _kernels.check_int64_window(n, coord_max)
        if self.kind is CoweightVector and np.einsum("ij->i", rows).any():
            raise ValueError("coordinates must sum to zero")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def of(ground: GroundSet, points: Iterable, kind: type) -> "PointSet":
        """Gather point objects of class kind on ground, in the given order."""
        points = tuple(points)
        if any(type(h) is not kind or h.ground != ground for h in points):
            raise ValueError(f"points must be {kind.__name__}s on the ground set")
        flat = [c for h in points for c in h.coords]
        if not all(isinstance(c, Integral) for c in flat):
            raise ValueError("point coordinates must be integers")
        try:
            rows = np.array(flat, dtype=np.int64).reshape(len(points), len(ground))
        except OverflowError:
            raise ValueError("window exceeds the exact int64 range (2^62)") from None
        return PointSet(ground, rows, kind)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self) -> Iterator:
        kind, ground = self.kind, self.ground
        for row in self.rows.tolist():
            yield _unchecked(kind, ground=ground, coords=tuple(row))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PointSet(self.ground, self.rows[i], self.kind)
        return _unchecked(self.kind, ground=self.ground, coords=tuple(self.rows[i].tolist()))

    def __contains__(self, h) -> bool:
        if type(h) is not self.kind or h.ground != self.ground:
            return False
        if any(c != int(c) or abs(c) >= 1 << 63 for c in h.coords):
            return False
        row = np.array([int(c) for c in h.coords], dtype=np.int64)
        return bool((self.rows == row).all(axis=1).any())

    def __eq__(self, other):
        if isinstance(other, PointSet):
            return len(self) == len(other) and (
                len(self) == 0
                or (
                    self.ground == other.ground
                    and self.kind is other.kind
                    and np.array_equal(self.rows, other.rows)
                )
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class Box:
    """An enumeration window: the L-infinity ball of radius `bound`."""

    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")


def coroot(i1, i2, ground: GroundSet) -> CoweightVector:
    """The vector +1 at i1, -1 at i2, zero elsewhere."""
    if i1 == i2:
        raise ValueError("coroot labels must be distinct")
    if i1 not in ground or i2 not in ground:
        raise ValueError("labels outside the ground set")
    coords = [0] * len(ground)
    k1, k2 = ground.positions((i1, i2))
    coords[k1], coords[k2] = 1, -1
    return CoweightVector(ground, tuple(coords))


def pairing(h, S: Iterable) -> int | Fraction:
    """Sum of the coordinates of h over the subset S."""
    try:
        m = h.ground.mask(S)
    except ValueError:
        raise ValueError("S is not a subset of the ground set") from None
    return _mask_sum(h.coords, m)


def cone_contains(p: AugPreposet, h) -> bool:
    """Halfspace membership test, on the rows of the cone's windows. The
    bottom cone contains nothing."""
    if is_bottom(p):
        return False
    if p.ground != h.ground:
        raise ValueError("ground sets differ")
    return all(_mask_sum(h.coords, S) <= 0 for S in upward_masks(p))


def cone_lattice_points(p: AugPreposet, box: Box) -> PointSet:
    """Integer zero-sum vectors in the window that lie in the cone of p,
    lexicographically ordered."""
    ground = p.ground
    n = len(ground)
    if is_bottom(p):
        rows = np.zeros((0, n), dtype=np.int64)
    else:
        _kernels.check_int64_window(n, box.bound)
        rows = _kernels.cone_window(n, box.bound, upward_masks(p))
    rows.setflags(write=False)
    return _unchecked(PointSet, ground=ground, rows=rows, kind=CoweightVector)


def cone_product_map(h1: CoweightVector, h2: CoweightVector) -> CoweightVector:
    """Juxtaposition onto the disjoint union of grounds."""
    ground = h1.ground.union(h2.ground)  # raises on overlap
    return CoweightVector(ground, juxtaposed(ground, (h1, h2)))


def cone_restrict(h, S: Iterable) -> CoweightVector:
    """Coordinate restriction; the result must again be zero-sum."""
    ground = GroundSet.of(S)
    return CoweightVector(ground, restricted(h, ground))


def cone_face(p: AugPreposet, S: Iterable, T: Iterable) -> AugPreposet:
    """The preposet indexing the face of the cone of p cut by the split (S,T):
    the product of the coproduct, the disjoint union of the two restrictions
    on the full ground set when (S,T) <= p, and the bottom otherwise.
    ValueError unless S,T decompose the ground."""
    return o_mul(*o_comul(p, S, T))
