"""Lattice-point bialgebras on two carriers.

Monomials indexed by coroot-cone points multiply by juxtaposition and
comultiply by projecting onto a face, with a formal zero absorbing the
off-face cases. Global sections of a subset function are the integer points
of its base polytope; they carry the same product/face structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .boolfun import BooleanFunction, bf_mul, hei
from .cones import (
    AffinePoint,
    CoweightVector,
    PointSet,
    cone_contains,
    cone_face,
    cone_product_map,
    cone_restrict,
    pairing,
)
from .plates import restrict_point
from .preposet import AugPreposet, o_mul
from .setcomp import _charge, _split_blocks, sorted_labels


@dataclass(frozen=True)
class TensorWord:
    """An ordered tuple of lattice monomial exponents, or the formal zero.

    The zero is encoded by parts=None and absorbs every operation.
    """

    parts: Optional[tuple]

    @staticmethod
    def zero() -> "TensorWord":
        return TensorWord(None)

    @property
    def is_zero(self) -> bool:
        return self.parts is None


def co_mul(
    h1: CoweightVector, p: AugPreposet, h2: CoweightVector, q: AugPreposet
) -> CoweightVector:
    """Juxtapose two cone monomial exponents; lands in the cone of p|q."""
    if not cone_contains(p, h1):
        raise ValueError("first exponent is outside its cone")
    if not cone_contains(q, h2):
        raise ValueError("second exponent is outside its cone")
    out = cone_product_map(h1, h2)
    assert cone_contains(o_mul(p, q), out)
    return out


def co_comul(h: CoweightVector, p: AugPreposet, S: Iterable, T: Iterable) -> TensorWord:
    """Project a cone monomial onto the (S,T)-face and split, or return zero.

    The exponent splits exactly when it lies in the face cone; membership
    there forces the pairing with S to vanish, so both halves are zero-sum.
    """
    if not cone_contains(p, h):
        raise ValueError("exponent is outside its cone")
    S, T = sorted_labels(S), sorted_labels(T)
    face = cone_face(p, S, T)
    if not cone_contains(face, h):
        return TensorWord.zero()
    return TensorWord((cone_restrict(h, S), cone_restrict(h, T)))


@dataclass(frozen=True)
class SectionBasis:
    """The integer points of the base polytope of z, in lexicographic order.

    points may be given as any sequence of AffinePoints; it is stored as a
    PointSet. Every point is checked against z, in row chunks: the coordinate
    sum must be hei(z) and every subset pairing at most z of that subset.
    """

    z: BooleanFunction
    points: PointSet

    def __post_init__(self):
        z = self.z
        pts = self.points
        if not isinstance(pts, PointSet):
            pts = PointSet.of(z.ground, pts, AffinePoint)
            object.__setattr__(self, "points", pts)
        if pts.kind is not AffinePoint or pts.ground != z.ground:
            raise ValueError("point ground does not match z")
        # the PointSet proved its rows in range; z must be in range as well
        _kernels.check_int64_window(0, 0, z.values)
        rows = pts.rows
        if (rows.sum(axis=1) != hei(z)).any():
            raise ValueError("point has the wrong coordinate sum")
        # the guard's own range proof, from the rows and not from the window
        # the walk was given, so that this check stays independent of the
        # walk it guards: no subset sum of a row exceeds n * coord_max
        n = len(z.ground)
        reach = n * max(int(rows.max()), -int(rows.min())) if rows.size else 0
        t = _kernels.exact_type(reach)
        b = _kernels.clipped_bounds(z.values[1:-1], reach)
        A = _indicator_columns(n, t)
        # at most FILTER_CELLS product cells at a time, by its own product and
        # not the kernels' subset sums
        step = max(1, _kernels.FILTER_CELLS // max(len(b), 1))
        for i in range(0, len(rows), step):
            if (rows[i:i + step].astype(t) @ A > b).any():
                raise ValueError("point violates a subset inequality")


@lru_cache(maxsize=16)
def _indicator_columns(n: int, t: type) -> np.ndarray:
    """The (n, 2^n - 2) indicator matrix of type t of the nonempty proper
    subsets of n labels, column m - 1 for bitmask m, read-only."""
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    A = ((masks >> np.arange(n, dtype=np.int64)[:, None]) & 1).astype(t)
    A.setflags(write=False)
    return A


def global_sections(z: BooleanFunction) -> SectionBasis:
    """All integer h with coordinate sum hei(z) and pairing(h,A) <= z(A) for
    every nonempty proper A. Finite: z(I) - z(I minus i) <= h_i <= z({i})."""
    rows = _kernels.lattice_window(z.values, hei(z))
    return SectionBasis(z, PointSet(z.ground, rows, AffinePoint))


def sections_mul(s1: SectionBasis, s2: SectionBasis) -> SectionBasis:
    """Basis of the product: all juxtapositions, carried by bf_mul, in
    lexicographic order; the rows are charged first, as a window's are."""
    r1, r2 = s1.points.rows, s2.points.rows
    n = r1.shape[1] + r2.shape[1]
    _charge(len(r1) * len(r2) << max(n, 8) >> 9, "a product of {} by {} sections", len(r1), len(r2))
    z = bf_mul(s1.z, s2.z)
    ground = z.ground
    rows = np.empty((len(r1) * len(r2), len(ground)), dtype=np.int64)
    rows[:, ground.positions(s1.z.ground.labels)] = np.repeat(r1, len(r2), axis=0)
    rows[:, ground.positions(s2.z.ground.labels)] = np.tile(r2, (len(r1), 1))
    if len(ground):
        rows = rows[np.lexsort(rows.T[::-1])]
    return SectionBasis(z, PointSet(ground, rows, AffinePoint))


def sections_comul(s: SectionBasis, h: AffinePoint, S: Iterable, T: Iterable) -> TensorWord:
    """Split a section point along I = S ⊔ T when it lies on the S-maximal
    face of the polytope, i.e. pairing(h,S) = z(S); zero otherwise."""
    if h not in s.points:
        raise ValueError("point is not a section")
    S, T = _split_blocks(s.z.ground, S, T)
    if pairing(h, S) != s.z.value(S):
        return TensorWord.zero()
    return TensorWord((restrict_point(h, S), restrict_point(h, T)))
