"""Internal operations build their results without validation; public
constructors and JSON decoding are the only places __post_init__ runs. These
tests build the result of every such operation over small grounds, run the
validation of each result's class on it, and check that none is rejected."""
import dataclasses
import itertools
import random

from permutokit import axioms, setcomp
from permutokit.boolfun import bf_comul, bf_mul, relabel_bf
from permutokit.points import point_comul, point_mul, point_relabel
from permutokit.preposet import (
    Preposet,
    composition_of_total,
    enumerate_aug_preposets,
    is_bottom,
    o_comul,
    o_mul,
    relabel_preposet,
    restrict_preposet,
    total_of_composition,
)
from permutokit.setcomp import (
    Composition,
    GroundSet,
    Perm,
    all_compositions,
    concatenate,
    hat_beta,
    permute_lumps,
    refines,
    relabel,
    restrict,
    tits_product,
)

SPLIT_GROUNDS = [GroundSet.of(range(1, n + 1)) for n in range(5)] + [
    GroundSet.of([1, 2, "a", "b"])
]


def rejection(obj):
    """The ValueError text when obj, or a dataclass it holds, fails the
    validation of its class, or when validation derives attributes (a ground
    set's index, a bijection's positions) other than those obj was built
    with; None when every part is accepted."""
    if isinstance(obj, tuple):
        return next(filter(None, map(rejection, obj)), None)
    if not dataclasses.is_dataclass(obj):
        return None
    def derived():  # a ground's cache of sub-grounds starts empty
        return {k: v for k, v in vars(obj).items() if k != "_subs"}

    built = derived()
    try:
        if hasattr(obj, "__post_init__"):
            type(obj).__post_init__(obj)
    except ValueError as exc:
        return str(exc)
    if derived() != built:
        return "validation derives other attributes"
    parts = (getattr(obj, f.name) for f in dataclasses.fields(obj))
    return next(filter(None, map(rejection, parts)), None)


def splits(g):
    full = (1 << len(g)) - 1
    return [(g.subset(m), g.subset(full ^ m)) for m in range(full + 1)]


def bijections(g):
    return [setcomp.Bijection.of(dict(zip(g.labels, images)))
            for images in itertools.permutations(g.labels)]


def internal_results(g):
    """(operation name, function, arguments) for every internal operation
    on g, its arguments drawn from the population of g."""
    rng = random.Random(len(g))
    comps = list(all_compositions(g))
    sigmas = bijections(g)
    yield "all_compositions", tuple, (comps,)
    yield "one_lump", Composition.one_lump, (g,)
    yield "empty", Composition.empty, ()
    yield "identity", setcomp.Bijection.identity, (g,)
    for sigma in sigmas:
        yield "inverse", sigma.inverse, ()
        yield "compose", sigma.compose, (sigmas[-1],)
        for S, _ in splits(g):
            yield "restricted", sigma.restricted, (S,)
    for F in comps:
        for S, T in splits(g):
            yield "restrict", restrict, (F, S)
        for G in comps:
            yield "tits_product", tits_product, (F, G)
            if refines(G, F):
                for images in itertools.permutations(range(1, G.length() + 1)):
                    yield "hat_beta", hat_beta, (Perm(images), F, G)
        for sigma in sigmas[:6]:
            yield "relabel", relabel, (sigma, F)
        for images in itertools.permutations(range(1, F.length() + 1)):
            beta = Perm(images)
            yield "permute_lumps", permute_lumps, (beta, F)
            yield "Perm.inverse", beta.inverse, ()
            yield "Perm.compose", beta.compose, (beta,)
        yield "total_of_composition", total_of_composition, (F,)
        yield "composition_of_total", composition_of_total, (total_of_composition(F),)
        yield "_random_coarsening", axioms._random_coarsening, (F, rng)
        yield "_matching_perm", axioms._matching_perm, (F, F)
    for S, T in splits(g):
        for A, B in itertools.product(all_compositions(GroundSet.of(S)),
                                      all_compositions(GroundSet.of(T))):
            yield "concatenate", concatenate, (A, B)
    ps = list(enumerate_aug_preposets(g))
    yield "enumerate_aug_preposets", tuple, (ps,)
    yield "antichain", Preposet.antichain, (g,)
    yield "complete", Preposet.complete, (g,)
    for p in ps:
        for S, T in splits(g):
            yield "o_comul", o_comul, (p, S, T)
            if not is_bottom(p):
                yield "restrict_preposet", restrict_preposet, (p, S)
        for sigma in sigmas[:6]:
            yield "relabel_preposet", relabel_preposet, (sigma, p)
    for S, T in splits(g):
        left = list(enumerate_aug_preposets(GroundSet.of(S)))[:12]
        right = list(enumerate_aug_preposets(GroundSet.of(T)))[:12]
        for p, q in itertools.product(left, right):
            yield "o_mul", o_mul, (p, q)
    yield "_all_bijections", tuple, (axioms._all_bijections(g),)
    yield "_random_bijection", axioms._random_bijection, (g, rng)
    yield "_random_bf", axioms._random_bf, (g, rng)
    yield "random_point", axioms.random_point, (g, rng)
    for _ in range(3):
        z, x = axioms._random_bf(g, rng), axioms.random_point(g, rng)
        for S, T in splits(g):
            yield "bf_comul", bf_comul, (z, S, T)
            yield "point_comul", point_comul, (x, S, T)
            zS, zT = (axioms._random_bf(GroundSet.of(B), rng) for B in (S, T))
            xS, xT = (axioms.random_point(GroundSet.of(B), rng) for B in (S, T))
            yield "bf_mul", bf_mul, (zS, zT)
            yield "point_mul", point_mul, (xS, xT)
        for sigma in sigmas[:6]:
            yield "relabel_bf", relabel_bf, (sigma, z)
            yield "point_relabel", point_relabel, (sigma, x)


def rejected():
    """(operation, ground, message) for every internal result that fails
    validation, and every operation that raises."""
    bad = []
    for g in SPLIT_GROUNDS:
        for name, fn, args in internal_results(g):
            try:
                why = rejection(fn(*args))
            except Exception as exc:  # a broken operation may raise anywhere
                why = f"{type(exc).__name__}: {exc}"
            if why is not None:
                bad.append((name, g.labels, why))
    return bad


def test_no_internal_result_is_rejected():
    assert rejected() == []


def test_lifts_build_valid_tuples():
    rng = random.Random(3)
    for make in axioms.INSTANCES.values():
        inst = make()
        for g in SPLIT_GROUNDS[1:]:
            for F in list(all_compositions(g))[:40]:
                G = axioms._random_coarsening(F, rng)
                elems = axioms._tuple_over(inst, F, rng)
                merged = axioms.lift_mul(inst, F, G, elems, rng)
                assert rejection(merged) is None
                assert rejection(axioms.lift_comul(inst, F, G, merged, rng)) is None


def test_a_restriction_keeping_empty_lumps_is_caught(monkeypatch):
    def keeps_empties(lumps, S):
        return [tuple(x for x in lump if x in S) for lump in lumps]

    monkeypatch.setattr(setcomp, "_meet", keeps_empties)
    names = {name for name, _, why in rejected() if why == "empty lump"}
    assert {"restrict", "tits_product"} <= names
