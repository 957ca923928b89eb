"""Exact torus-orbit model of the points of permutohedral space.

A point is an orbit composition together with one nonzero rational scalar per
label, taken modulo independent rescaling of each lump. The canonical
representative scales the least label of every lump to 1. Multiplication
concatenates, comultiplication forgets labels and restabilizes, and monomial
evaluation is an exact rational product with a vanishing rule across lumps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cones import CoweightVector, cone_contains, juxtaposed, pairing, restricted
from .preposet import total_of_composition
from .setcomp import (
    Bijection,
    Composition,
    GroundSet,
    _split_blocks,
    concatenate,
    refines,
    relabel,
    restrict,
)


@dataclass(frozen=True)
class PermPoint:
    """A torus-orbit point: orbit composition plus normalized scalars."""

    orbit: Composition
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.orbit.ground):
            raise ValueError("coordinate count does not match the ground set")
        for c in self.coords:
            if not isinstance(c, Fraction) or c == 0:
                raise ValueError("coordinates must be nonzero Fractions")
        for lump in self.orbit.lumps:
            # lumps are canonically sorted, so lump[0] is the least label
            if self.coord(lump[0]) != 1:
                raise ValueError("least label of each lump must carry scalar 1")

    @staticmethod
    def of(orbit: Composition, mapping) -> "PermPoint":
        """Build from raw scalars, normalizing each lump."""
        raw = {x: Fraction(mapping[x]) for x in orbit.ground.labels}
        coords = {}
        for lump in orbit.lumps:
            base = raw[lump[0]]
            if base == 0:
                raise ValueError("coordinates must be nonzero")
            for x in lump:
                coords[x] = raw[x] / base
        return PermPoint(
            orbit, tuple(coords[x] for x in orbit.ground.labels)
        )

    @property
    def ground(self) -> GroundSet:
        return self.orbit.ground

    def coord(self, x) -> Fraction:
        return self.coords[self.orbit.ground.index(x)]


def point_mul(x1: PermPoint, x2: PermPoint) -> PermPoint:
    """Concatenate orbits and juxtapose scalars; lumps are unchanged, so the
    normalization carries over."""
    orbit = concatenate(x1.orbit, x2.orbit)  # raises on overlap
    return PermPoint(orbit, juxtaposed(orbit.ground, (x1, x2)))


def point_comul(
    x: PermPoint, S: Iterable, T: Iterable
) -> tuple[PermPoint, PermPoint]:
    """Forget the labels outside each block and renormalize the surviving
    lumps. Emptied lumps are dropped by the orbit restriction."""
    S, T = _split_blocks(x.ground, S, T)
    halves = []
    for blk in (S, T):
        orbit = restrict(x.orbit, blk)
        coords = restricted(x, orbit.ground)
        halves.append(PermPoint.of(orbit, dict(zip(orbit.ground.labels, coords))))
    return halves[0], halves[1]


def evaluate(x: PermPoint, H: Composition, h: CoweightVector) -> Fraction:
    """Evaluate the monomial with exponent h at a point of the chart of H.

    The value is zero unless h sums to zero over every orbit lump; on that
    sublattice the product of coord^exponent is invariant under the per-lump
    rescaling, so the normalization does not matter.
    """
    if H.ground != x.ground or h.ground != x.ground:
        raise ValueError("ground sets differ")
    if not refines(x.orbit, H):
        raise ValueError("point lies outside the chart")
    if not cone_contains(total_of_composition(H), h):
        raise ValueError("exponent outside the chart cone")
    for lump in x.orbit.lumps:
        if pairing(h, lump) != 0:
            return Fraction(0)
    val = Fraction(1)
    for c, e in zip(x.coords, h.coords):
        if e != int(e):
            raise ValueError("exponents must be integers")
        val *= c ** int(e)
    return val


def point_relabel(sigma: Bijection, x: PermPoint) -> PermPoint:
    """Pull back along a bijection onto a fresh ground set and renormalize."""
    if sigma.target != x.ground:
        raise ValueError("bijection target does not match the ground set")
    orbit = relabel(sigma, x.orbit)
    return PermPoint.of(orbit, {a: x.coord(b) for a, b in sigma.pairs})
