"""Internal operations build their results without validation; public
constructors are the only places __post_init__ runs. Composition.of,
PermPoint.of and JSON decoding validate their input in one pass and then
build unchecked too. These tests build the result of every such operation
over small grounds (the opens, their pullbacks and the cone and plate windows
on grounds of at most 3 labels), run the validation of each result's class on
it, and check that none is rejected. A window's rows must also be its own
read-only array, never the cached box it was cut from. Every object decoded
from a pinned CLI payload, or from one of the contract test's mutations of
them, is validated the same way, and each one-pass decoder must agree with
its validating oracle (tests/jsonio_oracle.py) on every such value: an equal
object of the same class, or the same error."""
import dataclasses
import itertools
import json
import random

import numpy as np
from hypothesis import HealthCheck, given, settings

import jsonio_oracle
from permutokit import _kernels, axioms, jsonio, setcomp
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
from test_cli_commands import REQUESTS
from test_cli_contract import requests

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


# Every decoder the CLI reads a payload value through.
DECODERS = (
    "decode_composition", "decode_preposet", "decode_bf", "decode_point",
    "decode_open", "decode_coweight", "decode_affine_point", "decode_ground",
    "decode_bijection", "decode_perm",
)
# Payload values are decoded down to this depth: the deepest position a
# pinned payload's decoders read is an open's label, at 6.
DECODE_DEPTH = 8


def values_in(text):
    """Every value in a JSON payload down to DECODE_DEPTH, the payload first;
    none when the payload nests too deeply to parse."""
    try:
        stack = [(json.loads(text), 0)]
    except (RecursionError, ValueError):
        return []
    out = []
    while stack:
        value, depth = stack.pop()
        out.append(value)
        if depth < DECODE_DEPTH and isinstance(value, (dict, list)):
            inner = value.values() if isinstance(value, dict) else value
            stack.extend((v, depth + 1) for v in inner)
    return out


def decoding_faults(values):
    """(decoder, value, fault) for each decoded object that fails validation
    and each one-pass decoder outcome that differs from its oracle's."""
    faults = []
    for value in values:
        for name in DECODERS:
            result = jsonio_oracle.outcome(name, value)
            why = rejection(result[1]) if result[0] == "ok" else None
            if why is not None:
                faults.append((name, value, why))
    faults += jsonio_oracle.differences(values)
    return faults


PINNED_VALUES = [v for _, payload in REQUESTS.values() for v in values_in(json.dumps(payload))]


def test_decoded_pinned_payloads_are_accepted_and_match_the_oracles():
    assert decoding_faults(PINNED_VALUES) == []


@settings(
    max_examples=1500,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(requests())
def test_decoded_mutated_payloads_are_accepted_and_match_the_oracles(request):
    assert decoding_faults(values_in(request[2])) == []


ODD_VALUES = [
    # subset functions whose labels print as other labels, or as nothing
    {"ground": [1, "01"], "values": {"": 0, "1": 1, "01": 2, "1,01": 3}},
    {"ground": [1, "1"], "values": {"": 0, "1": 1, "1,1": 2}},
    {"ground": ["", 2], "values": {"": 0, "2": 1, ",2": 2, "2,": 3}},
    {"ground": ["a,b", "a", "b"], "values": {"": 0, "a": 1, "b": 2, "a,b": 3}},
    {"ground": [" 2", 2], "values": {"": 0, "2": 1, " 2": 2, "2, 2": 3}},
    # keys out of canonical order, repeated, foreign or missing
    {"ground": [1, 2, 3], "values": {
        "": 0, "1": 1, "2": 1, "3": 1, "2,1": 2, "3,1": 2, "3,2": 2, "3,1,2": 3}},
    {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,2": 2, "2,1": 2}},
    {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,1": 2}},
    {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,3": 2}},
    {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1}},
    {"ground": [1, 2], "values": {"": 1, "1": 1, "2": 1, "1,2": 2}},
    {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,2": "2"}},
    {"ground": list(range(13)), "values": {"": 0}},
    # rational coordinates in every form Fraction reads, and some it does not
    *({"orbit": [[1, 2]], "coords": {"1": c, "2": "3/4"}} for c in (
        "1/2", "-1/2", "-0", "0/5", "1/0", "3/-4", "+3", " 1/2", "1 /2", "1.5", "1e3",
        "1E-3", "1_000", "\u0663/\u0664", "3/", "/3", "--3", "-", "", "inf", "nan",
        1.5, 1e300, 7, -7, 0, True, None, [1], {"1": 1},
        # past int's digit limit: the numerator is read first, as Fraction does
        "1" * 5000 + "/0", "-" + "1" * 5000 + "/0", "1" * 5000 + "/" + "1" * 4400,
        "1/" + "1" * 4400, "1" * 4400)),
    *({"orbit": [[1], [2]], "coords": {"1": "2", "2": c}} for c in ("0", "-4/6", 0, "0/3")),
    {"orbit": [[2], [1]], "coords": {"1": "2", "2": "3", "3": "1"}},
    {"orbit": [[2], [1]], "coords": {"1": "2"}},
    {"orbit": [[1, 2]], "coords": {"1": "2", "01": "1/0"}},
    # compositions with an empty lump, a repeat, or both
    [[1], []], [[1, 1]], [[1], [1]], [[], [1, 1]], [[2, "a", 1], [0]], [[True]],
]


def test_odd_subset_keys_and_rationals_match_the_oracles():
    assert decoding_faults(ODD_VALUES) == []


def test_shifted_label_bits_are_caught(monkeypatch):
    label_bits = jsonio._label_bits

    def shifted(ground):
        n = len(ground)
        return {text: 1 << (bit.bit_length() % n) for text, bit in label_bits(ground).items()}

    monkeypatch.setattr(jsonio, "_label_bits", shifted)
    assert {name for name, *_ in jsonio_oracle.differences(PINNED_VALUES)} == {"decode_bf"}
