"""Internal operations build their results without validation; public
constructors and JSON decoding are the only places __post_init__ runs. These
tests build the result of every such operation over small grounds (the opens,
their pullbacks and the cone and plate windows on grounds of at most 3
labels), run the validation of each result's class on it, and check that none
is rejected. A window's rows must also be its own read-only array, never the
cached box it was cut from."""
import dataclasses
import itertools
import random

import numpy as np

from permutokit import _kernels, axioms, setcomp
from permutokit.boolfun import bf_comul, bf_mul, relabel_bf
from permutokit.cones import Box, cone_lattice_points
from permutokit.opens import open_of_preposet, open_product, pullback_delta, pullback_mu
from permutokit.plates import Plate, plate_lattice_points
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
    set's index and label types) other than those obj was built with; None
    when every part is accepted."""
    if isinstance(obj, tuple):
        return next(filter(None, map(rejection, obj)), None)
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        return None
    def derived():  # a ground's cache of sub-grounds starts empty
        return {k: v for k, v in vars(obj).items() if k != "_subs"}

    def same(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
        return a == b

    built = derived()
    try:
        if hasattr(obj, "__post_init__"):
            type(obj).__post_init__(obj)
    except ValueError as exc:
        return str(exc)
    after = derived()
    if after.keys() != built.keys() or not all(same(after[k], built[k]) for k in built):
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
    if len(g) <= 3:
        for p in ps:
            yield "open_of_preposet", open_of_preposet, (p,)
        for F in comps:
            factors = [enumerate_aug_preposets(GroundSet.of(lump)) for lump in F.lumps]
            for ptup in itertools.product(*factors):
                opens = [open_of_preposet(q) for q in ptup]
                yield "open_product", open_product, (opens,)
                yield "pullback_delta", pullback_delta, (F, open_product(opens))
            for p in ps:
                yield "pullback_mu", pullback_mu, (F, open_of_preposet(p))
        for bound in range(3):
            for p in ps:
                yield "cone_lattice_points", cone_lattice_points, (p, Box(bound))
            for H in comps:
                z = axioms._random_bf(g, rng)
                yield "plate_lattice_points", plate_lattice_points, (Plate(H, z), Box(bound))
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


def window_fault(points, n, bound):
    """Why a window's rows are not its own read-only array, or None."""
    if points.rows.flags.writeable:
        return "window rows are writable"
    if np.shares_memory(points.rows, _kernels.zero_sum_box(n, bound)):
        return "window rows share memory with the cached box"
    return None


def rejected():
    """(operation, ground, message) for every internal result that fails
    validation, every window whose rows are not its own read-only array, and
    every operation that raises."""
    bad = []
    for g in SPLIT_GROUNDS:
        for name, fn, args in internal_results(g):
            try:
                result = fn(*args)
                why = None
                if name.endswith("_lattice_points"):  # before validation copies the rows
                    why = window_fault(result, len(g), args[1].bound)
                why = why or rejection(result)
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


def test_a_window_off_the_zero_sum_is_caught(monkeypatch):
    cone_window = _kernels.cone_window

    def shifted(n, bound, masks):
        rows = cone_window(n, bound, masks)
        rows[:, :1] += 1
        return rows

    monkeypatch.setattr(_kernels, "cone_window", shifted)
    names = {name for name, _, why in rejected() if why == "coordinates must sum to zero"}
    assert "cone_lattice_points" in names


def test_a_window_aliasing_the_cached_box_is_caught(monkeypatch):
    cone_window = _kernels.cone_window

    def aliased(n, bound, masks):
        masks = list(masks)
        return _kernels.zero_sum_box(n, bound) if not masks else cone_window(n, bound, masks)

    monkeypatch.setattr(_kernels, "cone_window", aliased)
    faults = {(name, why) for name, _, why in rejected()}
    assert ("cone_lattice_points", "window rows share memory with the cached box") in faults
