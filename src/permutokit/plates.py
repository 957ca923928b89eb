"""Plates: regions cut out by the initial-segment inequalities of a
composition against a subset function, inside the affine slice of total
height. Includes windowed lattice enumeration, flat and face membership,
and the window centre on the maximal affine flat.

Near its centre a plate is a translated cone: a plate window is the window
centre plus the cone window of the proper initial segments of H, for every
z, submodular or not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .boolfun import BooleanFunction, hei
from .cones import AffinePoint, PointSet, pairing, restricted
from .setcomp import Composition, GroundSet, _mask_sum, _unchecked, refines


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


def _lump_heights(z: BooleanFunction, masks: list[int]) -> tuple[int, ...]:
    """The consecutive differences of z along the prefix masks of a
    composition: the totals of the iterated coproduct of z along it, lump by
    lump."""
    out, prev = [], 0
    for m in masks:
        out.append(z.values[m] - z.values[prev])
        prev = m
    return tuple(out)


def flat_contains(spec: FlatSpec, h: AffinePoint) -> bool:
    if spec.F.ground != h.ground:
        raise ValueError("ground sets differ")
    return all(pairing(h, lump) == a for lump, a in zip(spec.F.lumps, spec.heights))


def _center(F: Composition, heights: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates of window_center on the flat of F with these lump
    heights."""
    coords = [0] * len(F.ground)
    for lump, a in zip(F.lumps, heights):
        q, r = divmod(a, len(lump))
        for k, i in enumerate(F.ground.positions(lump)):
            coords[i] = q + 1 if k < r else q
    return tuple(coords)


def window_center(P: Plate) -> AffinePoint:
    """Canonical integer point on the maximal affine flat: within each lump,
    the height is split as evenly as possible, remainders going to the
    canonically first labels."""
    return AffinePoint(P.H.ground, _center(P.H, _lump_heights(P.z, _prefix_masks(P.H))))


def plate_lattice_points(P: Plate, box) -> PointSet:
    """Integer plate points h with |h - center| <= bound coordinatewise,
    lexicographically ordered.

    The centre lies on the maximal affine flat, so it meets every proper
    initial-segment inequality with equality: h = center + d is in the plate
    exactly when d sums to at most zero over each proper initial segment. The
    window is the centre plus that cone window of the zero-sum box."""
    ground = P.H.ground
    n = len(ground)
    masks = _prefix_masks(P.H)
    center = _center(P.H, _lump_heights(P.z, masks))
    # the centre meets every proper prefix with equality, so no z value is
    # compared in int64 and coord_max bounds every sum
    coord_max = max(map(abs, center), default=0) + box.bound
    _kernels.check_int64_window(n, coord_max)
    rows = _kernels.cone_window(n, box.bound, masks[:-1])
    rows += np.array(center, dtype=np.int64)
    rows.setflags(write=False)
    return _unchecked(PointSet, ground=ground, rows=rows, kind=AffinePoint)


def restrict_point(h: AffinePoint, S: Iterable) -> AffinePoint:
    ground = GroundSet.of(S)
    return AffinePoint(ground, restricted(h, ground))


def plate_F_face_contains(P: Plate, F: Composition, h: AffinePoint) -> bool:
    """Membership in the face of the plate selected by a coarsening F.

    The face exists only when F <= H; on it, h must lie in the plate and on
    the flat of F whose heights are the consecutive differences of z along F.
    """
    if F.ground != P.H.ground:
        raise ValueError("ground sets differ")
    if not refines(F, P.H):
        return False
    face_flat = FlatSpec(F, _lump_heights(P.z, _prefix_masks(F)))
    return plate_contains(P, h) and flat_contains(face_flat, h)
