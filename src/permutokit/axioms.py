"""Instance-agnostic law harness for the concatenation/splitting algebras in
this package.

A BimonoidInstance packages binary multiplication, binary comultiplication,
relabeling, and an element source. The harness lifts the binary operations to
arbitrary refinement pairs by iterated merging/splitting, verifies that the
lift does not depend on the merge order, and checks naturality,
associativity, coassociativity, the mixed square law, its general
two-composition form, and lump-permutation naturality.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .boolfun import BooleanFunction, bf_comul, bf_mul, relabel_bf
from .points import PermPoint, _normalized, point_comul, point_mul, point_relabel
from .preposet import (
    Bottom,
    enumerate_aug_preposets,
    is_bottom,
    o_comul,
    o_mul,
    relabel_preposet,
)
from .setcomp import (
    Bijection,
    Composition,
    GroundSet,
    Perm,
    _bijection,
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

    elements(ground, rng, budget) returns at most `budget` elements over the
    ground set; enumerable instances return their full population when it
    fits the budget. mul takes two elements over disjoint grounds; comul
    takes an element and an ordered decomposition of its ground set; relabel
    takes a bijection whose target is the element's ground set. Every
    element carries its ground set as `.ground`. zero_of builds the
    absorbing element, and is set exactly for the pointed instances.
    """

    name: str
    enumerable: bool
    elements: Callable
    mul: Callable
    comul: Callable
    relabel: Callable
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


def merge_independence_mul_holds(inst, F, G, elems, rng) -> bool:
    return tuples_equal(
        inst, lift_mul(inst, F, G, elems), lift_mul(inst, F, G, elems, rng)
    )


def merge_independence_comul_holds(inst, F, G, elems, rng) -> bool:
    return tuples_equal(
        inst, lift_comul(inst, F, G, elems), lift_comul(inst, F, G, elems, rng)
    )


# ---------------------------------------------------------------------------
# case sampling


def _random_blocks(ground: GroundSet, parts: int, rng) -> list[tuple]:
    blocks: list[list] = [[] for _ in range(parts)]
    for x in ground.labels:
        blocks[rng.randrange(parts)].append(x)
    return [tuple(b) for b in blocks]


def _random_composition(ground: GroundSet, rng) -> Composition:
    return rng.choice(_comps(ground))


def _random_coarsening(F: Composition, rng) -> Composition:
    if F.length() <= 1:
        return F
    lumps = []
    cur: list = []
    for i, l in enumerate(F.lumps):
        cur.extend(l)
        if i == F.length() - 1 or rng.random() < 0.5:
            lumps.append(sorted_labels(cur))
            cur = []
    return _unchecked(Composition, ground=F.ground, lumps=tuple(lumps))


def _random_bijection(ground: GroundSet, rng) -> Bijection:
    images = list(ground.labels)
    rng.shuffle(images)
    return _bijection(ground, ground, images)


def _all_bijections(ground: GroundSet):
    for images in itertools.permutations(ground.labels):
        yield _bijection(ground, ground, images)


def _one(inst, labels, rng):
    return inst.elements(GroundSet.of(labels), rng, 1)[0]


def _tuple_over(inst, F: Composition, rng) -> tuple:
    return tuple(_one(inst, lump, rng) for lump in F.lumps)


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
    """Run every law; exhaustive mode iterates all decompositions and all
    elements for enumerable instances, otherwise cases are sampled.

    Each law is one row: its name, its predicate, the names of the leading
    case fields its counterexample shows, and a lazy source of argument
    tuples. Exhaustive sources are built only in full mode, where
    `elems_on` asks for the whole population. Every draw comes from one
    generator, law after law and case after case, and later laws' samples
    depend on earlier draws (general-square draws its element tuples even
    in full mode), so the order of rows and of draws within a case is part
    of the reported result."""
    rng = random.Random(seed)
    full = exhaustive and inst.enumerable

    def elems_on(*blocks):
        return inst.elements(GroundSet.of(x for b in blocks for x in b), rng, 10**9)

    def one(*blocks):
        return _one(inst, tuple(x for b in blocks for x in b), rng)

    def blocks(k):
        return _random_blocks(ground, k, rng)

    def sampled(draw):
        return (draw() for _ in range(budget))

    def mul_nat():
        S, T = blocks(2)
        a, b = one(S), one(T)
        return _random_bijection(ground, rng), a, b

    def comul_nat():
        x = one(ground.labels)
        S, T = blocks(2)
        return _random_bijection(ground, rng), x, S, T

    def coassoc():
        x = one(ground.labels)
        return (x, *blocks(3))

    def square():
        S, T, U, V = blocks(4)
        return one(S, T), one(U, V), S, T, U, V

    def general_square(F, G):
        return F, G, _tuple_over(inst, F, rng)

    def coarsening():
        F = _random_composition(ground, rng)
        return F, _random_coarsening(F, rng)

    def perm_nat(lift_over_G: bool):
        def draw():
            F, G = coarsening()
            images = list(range(1, G.length() + 1))
            rng.shuffle(images)
            beta = _unchecked(Perm, images=tuple(images))
            return F, G, beta, _tuple_over(inst, G if lift_over_G else F, rng)

        return sampled(draw)

    def merge(lift_over_G: bool):
        def draw():
            F, G = coarsening()
            return F, G, _tuple_over(inst, G if lift_over_G else F, rng), rng

        return sampled(draw)

    def zero():
        S, T = blocks(2)
        return one(T), S

    rows = [
        ("mul-naturality", mul_naturality_holds, "sigma a b",
         ((sig, a, b) for S, T in two_block_decompositions(ground)
          for a in elems_on(S) for b in elems_on(T)
          for sig in _all_bijections(ground)) if full else sampled(mul_nat)),
        ("comul-naturality", comul_naturality_holds, "sigma x S",
         ((sig, x, S, T) for x in elems_on(ground.labels)
          for S, T in two_block_decompositions(ground)
          for sig in _all_bijections(ground)) if full else sampled(comul_nat)),
        ("associativity", associativity_holds, "a b c",
         ((a, b, c) for A, B, C in ordered_decompositions(ground, 3)
          for a in elems_on(A) for b in elems_on(B) for c in elems_on(C))
         if full else sampled(lambda: tuple(one(X) for X in blocks(3)))),
        ("coassociativity", coassociativity_holds, "x A B",
         ((x, A, B, C) for x in elems_on(ground.labels)
          for A, B, C in ordered_decompositions(ground, 3)) if full else sampled(coassoc)),
        ("square", square_holds, "a b S T U",
         ((a, b, S, T, U, V) for S, T, U, V in ordered_decompositions(ground, 4)
          for a in elems_on(S, T) for b in elems_on(U, V))
         if full else sampled(square)),
        ("general-square", general_square_holds, "F G elems",
         (general_square(F, G) for F in _comps(ground) for G in _comps(ground)) if full
         else sampled(lambda: general_square(
             _random_composition(ground, rng), _random_composition(ground, rng)))),
        ("perm-naturality-mul", perm_naturality_mul_holds, "F G beta elems", perm_nat(False)),
        ("perm-naturality-comul", perm_naturality_comul_holds, "F G beta elems", perm_nat(True)),
        ("merge-independence-mul", merge_independence_mul_holds, "F G elems", merge(False)),
        ("merge-independence-comul", merge_independence_comul_holds, "F G elems", merge(True)),
    ]
    if inst.zero_of is not None:
        rows.append(("zero-absorption", zero_absorption_holds, "y S", sampled(zero)))
    return [
        _report(law, ((pred(inst, *case), lambda case=case: _describe(names, case))
                      for case in cases))
        for law, pred, names, cases in rows
    ]


# ---------------------------------------------------------------------------
# instances


def _enumerable_elements(population_fn):
    def elements(ground, rng, budget):
        full = list(population_fn(ground))
        if len(full) <= budget:
            return full
        return rng.sample(full, budget)

    return elements


def sigma_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="sigma",
        enumerable=True,
        elements=_enumerable_elements(lambda g: _comps(g)),
        mul=concatenate,
        comul=lambda F, S, T: (restrict(F, S), restrict(F, T)),
        relabel=relabel,
    )


def o_bullet_instance() -> BimonoidInstance:
    return BimonoidInstance(
        name="o-bullet",
        enumerable=True,
        elements=_enumerable_elements(lambda g: enumerate_aug_preposets(g)),
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
    def elements(ground, rng, budget):
        return [_random_bf(ground, rng) for _ in range(budget)]

    return BimonoidInstance(
        name="bf",
        enumerable=False,
        elements=elements,
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
    def elements(ground, rng, budget):
        return [random_point(ground, rng) for _ in range(budget)]

    return BimonoidInstance(
        name="points",
        enumerable=False,
        elements=elements,
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
