"""Instance-agnostic law harness for the concatenation/splitting algebras in
this package.

A BimonoidInstance packages binary multiplication, binary comultiplication,
relabeling, and an element source. The harness lifts the binary operations to
arbitrary refinement pairs by iterated merging/splitting, verifies that the
lift does not depend on the merge order, and checks naturality,
associativity, coassociativity, the mixed square law, its general
two-composition form, and lump-permutation naturality. Each law is one row
of factors, which lists its cases, draws them and counts them.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Optional

from .boolfun import BooleanFunction, bf_comul, bf_mul, relabel_bf
from .points import PermPoint, _normalized, point_comul, point_mul, point_relabel
from .preposet import (
    _PREPOSET_COUNTS,
    Bottom,
    _aug_preposet_list,
    is_bottom,
    o_comul,
    o_mul,
    relabel_preposet,
)
from .setcomp import (
    _FUBINI,
    Bijection,
    Composition,
    GroundSet,
    Perm,
    _bijection,
    _charge,
    _composition_cost,
    _comps,
    _unchecked,
    coarsening_runs,
    concatenate,
    hat_beta,
    ordered_decompositions,
    permute_lumps,
    relabel,
    restrict,
    sorted_labels,
    tits_product,
    two_block_decompositions,
)


@dataclass(frozen=True)
class LawReport:
    law: str
    checked: int
    passed: bool
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class BimonoidInstance:
    """A carrier of binary operations the harness can exercise.

    draw(ground, rng) returns one element over the ground set. population
    (ground), where set, is the cached tuple of every element over it, which
    exhaustive mode lists and draw picks from; size(n), set with it, is its
    length on n labels by formula. Instances without one are only sampled.
    mul takes two elements over disjoint grounds; comul an element and an
    ordered decomposition of its ground; relabel a bijection whose target is
    the element's ground. Every element carries its ground as `.ground`.
    zero_of builds the absorbing element, set exactly for pointed instances.
    """

    name: str
    draw: Callable
    mul: Callable
    comul: Callable
    relabel: Callable
    population: Optional[Callable] = None
    size: Optional[Callable] = None
    zero_of: Optional[Callable] = None
    is_zero: Optional[Callable] = None


def lift_mul(inst, F: Composition, G: Composition, elems, rng=None):
    """Merge a tuple over the lumps of F down to a tuple over the lumps of a
    coarsening G, by iterated binary multiplication within each G-lump.

    rng=None merges left to right; a generator picks random adjacent pairs.
    """
    runs = coarsening_runs(F, G)
    if runs is None:
        raise ValueError("G must be a coarsening of F")
    if len(elems) != F.length():
        raise ValueError("one element per lump of F required")
    for e, lump in zip(elems, F.lumps):
        if e.ground.labels != lump:  # lumps are in canonical order
            raise ValueError("element over the wrong ground set")
    out = []
    for run in runs:
        group = [elems[i] for i in run]
        while len(group) > 1:
            k = 0 if rng is None else rng.randrange(len(group) - 1)
            group[k : k + 2] = [inst.mul(group[k], group[k + 1])]
        out.append(group[0])
    return tuple(out)


def _split(inst, e, lumps, rng):
    if len(lumps) == 1:
        return [e]
    cut = 1 if rng is None else rng.randrange(1, len(lumps))
    S = tuple(x for l in lumps[:cut] for x in l)
    T = tuple(x for l in lumps[cut:] for x in l)
    eS, eT = inst.comul(e, S, T)
    return _split(inst, eS, lumps[:cut], rng) + _split(inst, eT, lumps[cut:], rng)


def lift_comul(inst, F: Composition, G: Composition, elems, rng=None):
    """Split a tuple over the lumps of a coarsening G up to a tuple over the
    lumps of F, by iterated binary comultiplication.

    rng=None peels leftmost lumps; a generator picks random cut points.
    """
    runs = coarsening_runs(F, G)
    if runs is None:
        raise ValueError("G must be a coarsening of F")
    if len(elems) != G.length():
        raise ValueError("one element per lump of G required")
    out = []
    for e, T, run in zip(elems, G.lumps, runs):
        if e.ground.labels != T:
            raise ValueError("element over the wrong ground set")
        out.extend(_split(inst, e, [F.lumps[i] for i in run], rng))
    return tuple(out)


# ---------------------------------------------------------------------------
# single-case law predicates


def tuples_equal(inst, xs, ys) -> bool:
    """Tuple equality in the pointed sense: for pointed instances the target
    of an iterated comultiplication is a smash product, where every tuple
    with a zero coordinate is THE basepoint. Plain equality otherwise."""
    xs, ys = tuple(xs), tuple(ys)
    if inst.is_zero is not None:
        zx = any(inst.is_zero(e) for e in xs)
        zy = any(inst.is_zero(e) for e in ys)
        if zx or zy:
            return zx and zy
    return xs == ys


def mul_naturality_holds(inst, sigma: Bijection, a, b) -> bool:
    lhs = inst.relabel(sigma, inst.mul(a, b))
    rhs = inst.mul(
        inst.relabel(sigma.restricted(a.ground.labels), a),
        inst.relabel(sigma.restricted(b.ground.labels), b),
    )
    return lhs == rhs


def comul_naturality_holds(inst, sigma: Bijection, x, S_src, T_src) -> bool:
    S_img = tuple(sigma(s) for s in S_src)
    T_img = tuple(sigma(t) for t in T_src)
    lhs = inst.comul(inst.relabel(sigma, x), S_src, T_src)
    xS, xT = inst.comul(x, S_img, T_img)
    rhs = (
        inst.relabel(sigma.restricted(S_img), xS),
        inst.relabel(sigma.restricted(T_img), xT),
    )
    return tuples_equal(inst, lhs, rhs)


def associativity_holds(inst, a, b, c) -> bool:
    return inst.mul(inst.mul(a, b), c) == inst.mul(a, inst.mul(b, c))


def coassociativity_holds(inst, x, A, B, C) -> bool:
    u, vw = inst.comul(x, A, tuple(B) + tuple(C))
    v, w = inst.comul(vw, B, C)
    uv, w2 = inst.comul(x, tuple(A) + tuple(B), C)
    u2, v2 = inst.comul(uv, A, B)
    return tuples_equal(inst, (u, v, w), (u2, v2, w2))


def square_holds(inst, a, b, S, T, U, V) -> bool:
    """Split a product along the regrouped decomposition versus multiplying
    the splits: a lives over S ⊔ T, b over U ⊔ V."""
    lhs = inst.comul(inst.mul(a, b), tuple(S) + tuple(U), tuple(T) + tuple(V))
    a1, a2 = inst.comul(a, S, T)
    b1, b2 = inst.comul(b, U, V)
    rhs = (inst.mul(a1, b1), inst.mul(a2, b2))
    return tuples_equal(inst, lhs, rhs)


def zero_absorption_holds(inst, y, S_zero) -> bool:
    """The distinguished zero over S_zero absorbs multiplication and splits
    into zeros."""
    gS = GroundSet.of(S_zero)
    gy = y.ground
    zero = inst.zero_of(gS)
    prod = inst.mul(zero, y)
    union = GroundSet.of(gS.labels + gy.labels)
    if prod != inst.zero_of(union):
        return False
    zz = inst.comul(inst.zero_of(union), gS.labels, gy.labels)
    return tuple(zz) == (inst.zero_of(gS), inst.zero_of(gy))


def _matching_perm(source: Composition, target: Composition) -> Perm:
    """The permutation sending each lump of source to its position in target;
    both must have the same lump multiset."""
    return _unchecked(Perm, images=tuple(target.lumps.index(L) + 1 for L in source.lumps))


def _permute_tuple(beta: Perm, elems) -> tuple:
    out = [None] * len(elems)
    for m, e in enumerate(elems, start=1):
        out[beta(m) - 1] = e
    return tuple(out)


def general_square_holds(inst, F: Composition, G: Composition, elems) -> bool:
    """Multiply along F then split along G, versus split along FG, reorder
    the pieces to GF, and multiply along G."""
    one = Composition.one_lump(F.ground)
    lhs = lift_comul(inst, G, one, lift_mul(inst, F, one, elems))
    FG = tits_product(F, G)
    GF = tits_product(G, F)
    pieces = lift_comul(inst, FG, F, elems)
    beta = _matching_perm(FG, GF)
    rhs = lift_mul(inst, GF, G, _permute_tuple(beta, pieces))
    return tuples_equal(inst, lhs, rhs)


def perm_naturality_mul_holds(inst, F, G, beta: Perm, elems) -> bool:
    """Permuting lumps before and after the lifted multiplication agree."""
    G_t = permute_lumps(beta, G)
    beta_hat = hat_beta(beta, F, G)
    F_t = permute_lumps(beta_hat, F)
    lhs = lift_mul(inst, F_t, G_t, _permute_tuple(beta_hat, elems))
    rhs = _permute_tuple(beta, lift_mul(inst, F, G, elems))
    return tuples_equal(inst, lhs, rhs)


def perm_naturality_comul_holds(inst, F, G, beta: Perm, elems) -> bool:
    G_t = permute_lumps(beta, G)
    beta_hat = hat_beta(beta, F, G)
    F_t = permute_lumps(beta_hat, F)
    lhs = lift_comul(inst, F_t, G_t, _permute_tuple(beta, elems))
    rhs = _permute_tuple(beta_hat, lift_comul(inst, F, G, elems))
    return tuples_equal(inst, lhs, rhs)


def merge_independence_holds(inst, F, G, elems, rng, lift) -> bool:
    """The lift (lift_mul or lift_comul) in its fixed order and in a random
    one agree."""
    return tuples_equal(inst, lift(inst, F, G, elems), lift(inst, F, G, elems, rng))


# ---------------------------------------------------------------------------
# case spaces: each law is one row of factors


# One choice of a law case, given the values the factors before it chose:
# listing(values) iterates every choice in order, draw(values) picks one, and
# size(ks) is the listing's length from the block sizes of the row's
# decomposition of `parts` blocks, or (n,) in a row without one.
Factor = namedtuple("Factor", "listing draw size parts", defaults=(1,))


def _random_blocks(ground: GroundSet, parts: int, rng) -> list[tuple]:
    blocks: list[list] = [[] for _ in range(parts)]
    for x in ground.labels:
        blocks[rng.randrange(parts)].append(x)
    return [tuple(b) for b in blocks]


def _decomposition(ground: GroundSet, k: int, rng) -> Factor:
    """Ordered decompositions of the ground into k possibly-empty blocks."""
    return Factor(lambda vs: two_block_decompositions(ground) if k == 2
                  else ordered_decompositions(ground, k),
                  lambda vs: _random_blocks(ground, k, rng),
                  lambda ks: math.factorial(sum(ks)) // math.prod(map(math.factorial, ks)), k)


def _element(inst, ground: GroundSet, rng, *blocks: int) -> Factor:
    """An element over these blocks of the decomposition chosen first, or
    over the ground when no block is named."""
    def labels(vs):
        return tuple(x for i in blocks for x in vs[0][i]) if blocks else ground.labels

    return Factor(lambda vs: inst.population(GroundSet.of(labels(vs))),
                  lambda vs: inst.draw(GroundSet.of(labels(vs)), rng),
                  lambda ks: inst.size(sum(ks[i] for i in blocks) if blocks else sum(ks)))


def _drawn(draw: Callable) -> Factor:
    """A choice drawn even where its row is listed: one case."""
    return Factor(lambda vs: (draw(vs),), draw, lambda ks: 1)


def _all_bijections(ground: GroundSet):
    for positions in itertools.permutations(range(len(ground))):
        yield _bijection(ground, ground, positions)


def _random_bijection(ground: GroundSet, rng) -> Bijection:
    positions = list(range(len(ground)))
    rng.shuffle(positions)
    return _bijection(ground, ground, positions)


def _random_composition(ground: GroundSet, rng) -> Composition:
    return rng.choice(_comps(ground))


def _random_coarsening(F: Composition, rng) -> Composition:
    if F.length() <= 1:
        return F
    lumps, cur = [], []
    for i, l in enumerate(F.lumps):
        cur.extend(l)
        if i == F.length() - 1 or rng.random() < 0.5:
            lumps.append(sorted_labels(cur))
            cur = []
    return _unchecked(Composition, ground=F.ground, lumps=tuple(lumps))


def _random_lump_perm(G: Composition, rng) -> Perm:
    images = list(range(1, G.length() + 1))
    rng.shuffle(images)
    return _unchecked(Perm, images=tuple(images))


def _tuple_over(inst, F: Composition, rng) -> tuple:
    return tuple(inst.draw(GroundSet.of(lump), rng) for lump in F.lumps)


# A law's row: make maps its factors' values to the arguments of holds, whose
# leading fields `names` names in a counterexample; a row not listed is drawn.
Law = namedtuple("Law", "name holds names make factors listed")


def _laws(inst: BimonoidInstance, ground: GroundSet, rng, exhaustive: bool) -> list[Law]:
    """Every law's row, in report order. The first six are listed in
    exhaustive mode when the instance has a population; the rest are
    always sampled."""
    full = exhaustive and inst.population is not None
    blocks, elem = partial(_decomposition, ground, rng=rng), partial(_element, inst, ground, rng)
    sigmas = Factor(lambda vs: _all_bijections(ground), lambda vs: _random_bijection(ground, rng),
                    lambda ks: math.factorial(sum(ks)))
    comps = Factor(lambda vs: _comps(ground), lambda vs: _random_composition(ground, rng),
                   lambda ks: _FUBINI[sum(ks)])
    coarsening = _drawn(lambda vs: _random_coarsening(vs[0], rng))
    lump_perm = _drawn(lambda vs: _random_lump_perm(vs[1], rng))
    over_F, over_G = (_drawn(lambda vs, i=i: _tuple_over(inst, vs[i], rng)) for i in (0, 1))
    rows = [
        ("mul-naturality", mul_naturality_holds, "sigma a b", lambda d, a, b, sig: (sig, a, b),
         (blocks(2), elem(0), elem(1), sigmas), full),
        ("comul-naturality", comul_naturality_holds, "sigma x S", lambda x, d, sig: (sig, x, *d),
         (elem(), blocks(2), sigmas), full),
        ("associativity", associativity_holds, "a b c", lambda d, *abc: abc,
         (blocks(3), elem(0), elem(1), elem(2)), full),
        ("coassociativity", coassociativity_holds, "x A B", lambda x, d: (x, *d),
         (elem(), blocks(3)), full),
        ("square", square_holds, "a b S T U", lambda d, a, b: (a, b, *d),
         (blocks(4), elem(0, 1), elem(2, 3)), full),
        ("general-square", general_square_holds, "F G elems", lambda *vs: vs,
         (comps, comps, over_F), full),
        ("perm-naturality-mul", perm_naturality_mul_holds, "F G beta elems", lambda *vs: vs,
         (comps, coarsening, lump_perm, over_F), False),
        ("perm-naturality-comul", perm_naturality_comul_holds, "F G beta elems", lambda *vs: vs,
         (comps, coarsening, lump_perm, over_G), False),
        ("merge-independence-mul", partial(merge_independence_holds, lift=lift_mul), "F G elems",
         lambda *vs: (*vs, rng), (comps, coarsening, over_F), False),
        ("merge-independence-comul", partial(merge_independence_holds, lift=lift_comul), "F G elems",
         lambda *vs: (*vs, rng), (comps, coarsening, over_G), False),
    ]
    if inst.zero_of is not None:
        rows.append(("zero-absorption", zero_absorption_holds, "y S", lambda d, y: (y, d[0]),
                     (blocks(2), elem(1)), False))
    return [Law(*row) for row in rows]


def _length(law: Law, n: int, budget: int) -> int:
    """The cases a row yields on n labels: over the block sizes of its
    decomposition, the sum of the products of its factors' sizes."""
    if not law.listed:
        return budget
    k = max(f.parts for f in law.factors)
    return sum(math.prod(f.size(ks) for f in law.factors)
               for ks in itertools.product(range(n + 1), repeat=k) if sum(ks) == n)


def _extend(walk, listing):
    return (vs + (v,) for vs in walk for v in listing(vs))


def _cases(law: Law, budget: int):
    """A listed row's nested walk in factor order, or `budget` draws of each
    factor in order, kept in one list."""
    if law.listed:
        walk = reduce(_extend, (f.listing for f in law.factors), [()])
        yield from itertools.starmap(law.make, walk)
        return
    draws = [f.draw for f in law.factors]
    for _ in range(budget):
        values: list = []
        for draw in draws:
            values.append(draw(values))
        yield law.make(*values)


# ---------------------------------------------------------------------------
# budgeted / exhaustive drivers


def _report(law: str, cases) -> LawReport:
    checked = 0
    try:
        for ok, payload in cases:
            checked += 1
            if not ok:
                return LawReport(law, checked, False, payload())
    except Exception as exc:  # broken instances may violate ground contracts
        return LawReport(law, checked + 1, False, f"error: {exc}")
    return LawReport(law, checked, True)


def _describe(names: str, case: tuple) -> str:
    """The counterexample text: the named leading fields of a case."""
    return " ".join(f"{k}={v!r}" for k, v in zip(names.split(), case))


def check_all(
    inst: BimonoidInstance,
    ground: GroundSet,
    seed: int = 0,
    budget: int = 200,
    exhaustive: bool = False,
) -> list[LawReport]:
    """Run every law's row, listed in exhaustive mode where it can be and
    sampled otherwise. Every draw comes from one generator, row after row and
    case after case (general-square draws its element tuples even when
    listed), so the order of rows, of factors and of draws is part of the
    reported result."""
    n = len(ground)
    rng = random.Random(seed)
    laws = _laws(inst, ground, rng, exhaustive)
    # Charge the compositions every instance draws, then the cases (n + 4
    # steps, four times that when drawn, as measured), before listing any;
    # build the lists before the first law, which would report a refusal.
    _charge(_composition_cost(n), "listing the compositions of {} labels", n)
    lengths = [_length(law, n, budget) for law in laws]
    cases, drawn = sum(lengths), sum(m for law, m in zip(laws, lengths) if not law.listed)
    _charge((cases + 3 * drawn) * (n + 4), "checking {} law cases on {} labels", cases, n)
    _comps(ground)
    if inst.population is not None:
        inst.population(ground)
    return [
        _report(law.name, ((law.holds(inst, *case), lambda case=case: _describe(law.names, case))
                           for case in _cases(law, budget)))
        for law in laws
    ]


# ---------------------------------------------------------------------------
# instances


def _pick(population, rng):
    """One element of a population, picked by rng. A population of one (the
    empty composition, or a one-label one) gives its element without a draw:
    the draws made fix every later case, so this is part of each report."""
    return population[0] if len(population) == 1 else rng.choice(population)


def sigma_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="sigma",
        draw=lambda g, rng: _pick(_comps(g), rng),
        population=_comps,
        size=_FUBINI.__getitem__,
        mul=concatenate,
        comul=lambda F, S, T: (restrict(F, S), restrict(F, T)),
        relabel=relabel,
    )


def o_bullet_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="o-bullet",
        draw=lambda g, rng: _pick(_aug_preposet_list(g), rng),
        population=_aug_preposet_list,
        size=lambda n: 1 + _PREPOSET_COUNTS[n],
        mul=o_mul,
        comul=o_comul,
        relabel=relabel_preposet,
        zero_of=Bottom,
        is_zero=is_bottom,
    )


def _random_bf(ground: GroundSet, rng) -> BooleanFunction:
    n = len(ground)
    vals = (0, *(rng.randint(-4, 4) for _ in range((1 << n) - 1)))
    return _unchecked(BooleanFunction, ground=ground, values=vals)


def bf_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="bf",
        draw=_random_bf,
        mul=bf_mul,
        comul=bf_comul,
        relabel=relabel_bf,
    )


def random_point(ground: GroundSet, rng) -> PermPoint:
    orbit = _random_composition(ground, rng)
    coords = tuple(
        Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))
        for _ in ground.labels
    )
    return _unchecked(PermPoint, orbit=orbit, coords=_normalized(orbit, coords))


def points_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="points",
        draw=random_point,
        mul=point_mul,
        comul=point_comul,
        relabel=point_relabel,
    )


INSTANCES: dict[str, Callable[[], BimonoidInstance]] = {
    "sigma": sigma_instance,
    "o-bullet": o_bullet_instance,
    "bf": bf_instance,
    "points": points_instance,
}
