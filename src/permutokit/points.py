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
    _unchecked,
    concatenate,
    refines,
    relabel,
    restrict,
)


# Most bits, numerator and denominator together, that evaluate lets a value
# take, as bounded from the exponents before any power
_EVAL_BITS = 1 << 20


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
        return PermPoint.from_ratios(
            orbit, {x: Fraction(mapping[x]).as_integer_ratio() for x in orbit.ground.labels}
        )

    @staticmethod
    def from_ratios(orbit: Composition, ratios: dict) -> "PermPoint":
        """Build from the raw scalar p/q of each label x, given as the integers
        (p, q) = ratios[x] with q nonzero, dividing each lump by its least
        label's scalar in one pass: one Fraction per coordinate."""
        ground = orbit.ground
        if any(ratios[lump[0]][0] == 0 for lump in orbit.lumps):
            raise ValueError("coordinates must be nonzero")
        if any(ratios[x][0] == 0 for x in ground.labels):
            raise ValueError("coordinates must be nonzero Fractions")
        out, index = [None] * len(ground), ground._index
        for lump in orbit.lumps:
            bp, bq = ratios[lump[0]]
            for x in lump:
                p, q = ratios[x]
                out[index[x]] = Fraction(p * bq, q * bp)
        return _unchecked(PermPoint, orbit=orbit, coords=tuple(out))

    @property
    def ground(self) -> GroundSet:
        return self.orbit.ground

    def coord(self, x) -> Fraction:
        return self.coords[self.orbit.ground.index(x)]


def _normalized(orbit: Composition, coords: tuple) -> tuple:
    """The coordinates of a point of orbit, given as nonzero Fractions in the
    ground's canonical order, with each lump divided by its least label's."""
    out, index = list(coords), orbit.ground.index
    for lump in orbit.lumps:
        base = out[index(lump[0])]
        if base != 1:
            for x in lump:
                out[index(x)] /= base
    return tuple(out)


def point_mul(x1: PermPoint, x2: PermPoint) -> PermPoint:
    """Concatenate orbits and juxtapose scalars; lumps are unchanged, so the
    normalization carries over."""
    orbit = concatenate(x1.orbit, x2.orbit)  # raises on overlap
    return _unchecked(PermPoint, orbit=orbit, coords=juxtaposed(orbit.ground, (x1, x2)))


def point_comul(
    x: PermPoint, S: Iterable, T: Iterable
) -> tuple[PermPoint, PermPoint]:
    """Forget the labels outside each block and renormalize the surviving
    lumps. Emptied lumps are dropped by the orbit restriction."""
    S, T = _split_blocks(x.ground, S, T)
    halves = []
    for blk in (S, T):
        orbit = restrict(x.orbit, blk)
        coords = _normalized(orbit, restricted(x, orbit.ground))
        halves.append(_unchecked(PermPoint, orbit=orbit, coords=coords))
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
    exps = tuple(int(e) for e in h.coords)
    if exps != h.coords:
        raise ValueError("exponents must be integers")
    # c ** e has at most |e| * (bits of p + bits of q) bits for c = p/q, so
    # this bounds the size of the value before any power is taken
    bits = sum(
        abs(e) * (c.numerator.bit_length() + c.denominator.bit_length())
        for c, e in zip(x.coords, exps)
    )
    if bits > _EVAL_BITS:
        raise ValueError(
            f"evaluation needs up to {bits} bits, above the budget of {_EVAL_BITS}"
        )
    val = Fraction(1)
    for c, e in zip(x.coords, exps):
        val *= c ** e
    return val


def point_relabel(sigma: Bijection, x: PermPoint) -> PermPoint:
    """Pull back along a bijection onto a fresh ground set and renormalize."""
    if sigma.target != x.ground:
        raise ValueError("bijection target does not match the ground set")
    orbit = relabel(sigma, x.orbit)
    coords = _normalized(orbit, tuple(x.coords[k] for k in sigma.positions))
    return _unchecked(PermPoint, orbit=orbit, coords=coords)
