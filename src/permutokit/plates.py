"""Plates: regions cut out by the initial-segment inequalities of a
composition against a subset function, inside the affine slice of total
height. Includes windowed lattice enumeration, maximal affine flats, face
membership, and the juxtaposition map between flats.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .boolfun import BooleanFunction, hei
from .cones import AffinePoint, PointSet, juxtaposed, pairing, restricted
from .setcomp import EMPTY_GROUND, Composition, GroundSet, _mask_sum, refines


@dataclass(frozen=True)
class Plate:
    H: Composition
    z: BooleanFunction

    def __post_init__(self):
        if self.H.ground != self.z.ground:
            raise ValueError("ground sets differ")


@dataclass(frozen=True)
class FlatSpec:
    """An affine flat fixing the coordinate sum over each lump of F."""

    F: Composition
    heights: tuple[int, ...]

    def __post_init__(self):
        if len(self.heights) != self.F.length():
            raise ValueError("one height per lump required")


def halfspace_contains(A: Iterable, z: BooleanFunction, h: AffinePoint) -> bool:
    """Whether the pairing of h with A is at most z(A). A must be a proper
    nonempty subset; the ambient height equality is checked separately."""
    A = set(A)
    if not A or A == set(z.ground.labels):
        raise ValueError("A must be a proper nonempty subset")
    return pairing(h, A) <= z.value(A)


def initial_segments(H: Composition) -> list[tuple]:
    """The proper nonempty initial segments of H, shortest first."""
    return [H.ground.subset(m) for m in _prefix_masks(H)[:-1]]


def plate_contains(P: Plate, h: AffinePoint) -> bool:
    """Height equality plus every proper initial-segment inequality."""
    if P.z.ground != h.ground:
        raise ValueError("ground sets differ")
    if h.total() != hei(P.z):
        return False
    return all(_mask_sum(h.coords, m) <= P.z.values[m] for m in _prefix_masks(P.H)[:-1])


def _prefix_masks(F: Composition) -> list[int]:
    """Bitmasks of the initial segments of F, one per lump; the last is the
    whole ground set."""
    index = F.ground.index
    out, m = [], 0
    for lump in F.lumps:
        for x in lump:
            m |= 1 << index(x)
        out.append(m)
    return out


def _lump_heights(z: BooleanFunction, F: Composition) -> tuple[int, ...]:
    """The consecutive differences of z along the initial segments of F: the
    totals of the iterated coproduct of z along F, lump by lump."""
    out, prev = [], 0
    for m in _prefix_masks(F):
        out.append(z.values[m] - z.values[prev])
        prev = m
    return tuple(out)


def max_affine_flat(P: Plate) -> FlatSpec:
    """The flat obtained by forcing every initial-segment inequality to an
    equality: per-lump heights are the consecutive differences of z along H."""
    return FlatSpec(P.H, _lump_heights(P.z, P.H))


def flat_contains(spec: FlatSpec, h: AffinePoint) -> bool:
    if spec.F.ground != h.ground:
        raise ValueError("ground sets differ")
    return all(pairing(h, lump) == a for lump, a in zip(spec.F.lumps, spec.heights))


def window_center(P: Plate) -> AffinePoint:
    """Canonical integer point on the maximal affine flat: within each lump,
    the height is split as evenly as possible, remainders going to the
    canonically first labels."""
    spec = max_affine_flat(P)
    coords = {}
    for lump, a in zip(spec.F.lumps, spec.heights):
        q, r = divmod(a, len(lump))
        for k, x in enumerate(lump):
            coords[x] = q + 1 if k < r else q
    return AffinePoint.of(P.H.ground, coords)


def plate_lattice_points(P: Plate, box) -> PointSet:
    """Integer plate points h with |h - center| <= bound coordinatewise,
    lexicographically ordered."""
    ground = P.H.ground
    n = len(ground)
    center = window_center(P)
    segs = _prefix_masks(P.H)[:-1]
    rhs = [P.z.values[m] for m in segs]
    coord_max = max(map(abs, center.coords), default=0) + box.bound
    _kernels.check_int64_window(n, coord_max, rhs)
    c = np.array(center.coords, dtype=np.int64).reshape(n)
    cands = _kernels.zero_sum_box(n, box.bound) + c
    A = _kernels._subset_rows(n)[np.array(segs, dtype=np.intp) - 1]
    mask = _kernels.lattice_filter(cands, A, np.array(rhs, dtype=np.int64))
    return PointSet(ground, cands[mask], AffinePoint)


def restrict_point(h: AffinePoint, S: Iterable) -> AffinePoint:
    ground = GroundSet.of(S)
    return AffinePoint(ground, restricted(h, ground))


def flat_mul(points: Sequence[AffinePoint], heights: Sequence[int]) -> AffinePoint:
    """Juxtapose points whose coordinate sums match the prescribed heights."""
    if len(points) != len(heights):
        raise ValueError("one height per point required")
    ground = EMPTY_GROUND
    for pt, a in zip(points, heights):
        if pt.total() != a:
            raise ValueError("coordinate sum does not match the prescribed height")
        ground = ground.union(pt.ground)  # raises on overlap
    return AffinePoint(ground, juxtaposed(ground, points))


def plate_F_face_contains(P: Plate, F: Composition, h: AffinePoint) -> bool:
    """Membership in the face of the plate selected by a coarsening F.

    The face exists only when F <= H; on it, h must lie in the plate and on
    the flat of F whose heights are the consecutive differences of z along F.
    """
    if F.ground != P.H.ground:
        raise ValueError("ground sets differ")
    if not refines(F, P.H):
        return False
    face_flat = FlatSpec(F, _lump_heights(P.z, F))
    return plate_contains(P, h) and flat_contains(face_flat, h)
