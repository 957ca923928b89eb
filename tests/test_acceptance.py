"""Whole-package acceptance battery.

Each test exercises one numbered criterion end to end, prints a single
pass/fail line with its wall-clock time, and asserts the stated budget.
Every comparison is exact; there are no tolerances anywhere.
"""
import contextlib
import dataclasses
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
import pytest

from permutokit.axioms import (
    INSTANCES,
    bf_instance,
    check_all,
    o_bullet_instance,
    points_instance,
    sigma_instance,
)
from permutokit.boolfun import (
    BooleanFunction,
    bf_comul,
    bf_mul,
    hei,
)
from permutokit.cones import (
    Box,
    cone_contains,
    cone_face,
    cone_lattice_points,
    cone_product_map,
    coroot,
    pairing,
)
from permutokit.opens import check_indexing
from permutokit.plates import Plate, plate_F_face_contains, plate_lattice_points, window_center
from permutokit.points import PermPoint, evaluate, point_comul
from permutokit.preposet import (
    Bottom,
    enumerate_aug_preposets,
    enumerate_preposets,
    is_bottom,
    o_comul,
    o_mul,
    total_of_composition,
)
from permutokit.sections import co_mul, global_sections, sections_mul
from permutokit.setcomp import (
    Composition,
    GroundSet,
    all_compositions,
    concatenate,
    refines,
    restrict,
    two_block_decompositions,
)
from oracle_maps import bf_comul_along, flat_mul
from split_oracle import split_admissible

GROUNDS = {n: GroundSet.of(range(1, n + 1)) for n in (1, 2, 3, 4)}


@contextlib.contextmanager
def criterion(capsys, num, name, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < budget_s else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] criterion {num:02d} {name}: {status} "
                  f"({dt:.1f}s / budget {budget_s}s)")
    assert dt < budget_s, f"criterion {num} took {dt:.1f}s, budget {budget_s}s"


def _rand_bf(rng, labels):
    g = GroundSet.of(labels)
    return BooleanFunction(
        g, tuple([0] + [rng.randint(-4, 4) for _ in range((1 << len(g)) - 1)])
    )


def _rand_submodular(rng, labels):
    # weighted coverage plus a modular shift, submodular by construction
    blocks = []
    for _ in range(rng.randint(1, 3)):
        blk = frozenset(x for x in labels if rng.random() < 0.6)
        if blk:
            blocks.append((blk, rng.randint(0, 2)))
    shift = {x: rng.randint(-1, 1) for x in labels}

    def fn(A):
        return sum(w for blk, w in blocks if A & blk) + sum(shift[x] for x in A)

    return BooleanFunction.from_callable(GroundSet.of(labels), fn)


# ---------------------------------------------------------------------------
# 1. pointed-preposet laws, exhaustive n=3 and n=4


FROZEN_N3 = {
    "mul-naturality": 1080,
    "comul-naturality": 1440,
    "associativity": 768,
    "coassociativity": 810,
    "square": 1440,
    "general-square": 169,
}
FROZEN_N4 = {
    "mul-naturality": 49296,
    "comul-naturality": 136704,
    "associativity": 8772,
    "coassociativity": 28836,
    "square": 32864,
    "general-square": 5625,
}


def test_criterion_01_pointed_preposet_laws(capsys):
    with criterion(capsys, 1, "pointed-preposet laws", 60):
        for n, frozen in ((3, FROZEN_N3), (4, FROZEN_N4)):
            reports = check_all(o_bullet_instance(), GROUNDS[n], exhaustive=True)
            assert all(r.passed for r in reports), [r for r in reports if not r.passed]
            counts = {r.law: r.checked for r in reports}
            for law, expect in frozen.items():
                assert counts[law] == expect, (n, law, counts[law])
        diagrams = ("mul-naturality", "comul-naturality", "associativity",
                    "coassociativity", "square")
        assert sum(FROZEN_N4[law] for law in diagrams) >= 10_000


# ---------------------------------------------------------------------------
# 2. cone product and face, windowed, n <= 4


def test_criterion_02_cone_product_and_face_windows(capsys):
    B = Box(3)
    with criterion(capsys, 2, "cone product/face windows", 60):
        for n in (2, 3, 4):
            ground = GROUNDS[n]
            for S, T in two_block_decompositions(ground, include_empty=False):
                gS, gT = GroundSet.of(S), GroundSet.of(T)
                for p in enumerate_aug_preposets(gS):
                    hps = cone_lattice_points(p, B)
                    for q in enumerate_aug_preposets(gT):
                        hqs = cone_lattice_points(q, B)
                        joint = set(cone_lattice_points(o_mul(p, q), B))
                        image = {cone_product_map(h1, h2) for h1 in hps for h2 in hqs}
                        assert joint == image
                        assert len(image) == len(hps) * len(hqs)
        for n in (1, 2, 3, 4):
            ground = GROUNDS[n]
            for p in enumerate_aug_preposets(ground):
                window = cone_lattice_points(p, B)
                for S, T in two_block_decompositions(ground, include_empty=True):
                    face = cone_face(p, S, T)
                    if is_bottom(p):
                        assert is_bottom(face)
                    elif not S or not T or split_admissible(p, S, T):
                        assert not is_bottom(face)
                        sliced = [h for h in window if pairing(h, S) == 0]
                        assert sliced == list(cone_lattice_points(face, B))
                    else:
                        assert is_bottom(face)
                        assert any(pairing(h, S) > 0 for h in window)


# ---------------------------------------------------------------------------
# 3. coroot membership dichotomy


def test_criterion_03_coroot_dichotomy(capsys):
    with criterion(capsys, 3, "coroot dichotomy", 5):
        for n in (2, 3, 4):
            ground = GROUNDS[n]
            pairs = [(a, b) for a in ground.labels for b in ground.labels if a != b]
            for p in enumerate_preposets(ground):
                for i1, i2 in pairs:
                    assert cone_contains(p, coroot(i1, i2, ground)) == p.has(i2, i1)
            bottom = Bottom(ground)
            for i1, i2 in pairs:
                assert not cone_contains(bottom, coroot(i1, i2, ground))


# ---------------------------------------------------------------------------
# 4. orbit-indexing identities


def test_criterion_04_orbit_indexing_identities(capsys):
    frozen = {2: (13, 15), 3: (138, 390), 4: (2090, 26700)}
    with criterion(capsys, 4, "orbit indexing identities", 120):
        for n in (1, 2, 3, 4):
            report = check_indexing(GROUNDS[n])
            assert report.passed, report.counterexample
            if n in frozen:
                assert (report.checked_mul, report.checked_comul) == frozen[n]


# ---------------------------------------------------------------------------
# 5. plate factorization, windowed


def _proper_initial_segments(K):
    segs = [()]
    acc = []
    for lump in K.lumps:
        acc.extend(lump)
        segs.append(tuple(acc))
    return segs


@lru_cache(maxsize=None)
def _zero_sum_scan(n, B):
    """Every integer vector in [-B, B]^n with coordinate sum zero, in
    lexicographic order, by a plain scan of the cube: the oracle's own box,
    apart from the enumerator it checks."""
    cube = itertools.product(range(-B, B + 1), repeat=n)
    return np.array([v for v in cube if sum(v) == 0], dtype=np.int64).reshape(-1, n)


def _product_window_bijection_holds(ground, H, blocks, zs, B):
    """Juxtaposition maps the product of restricted-plate windows bijectively
    onto the window points cut out by every union of per-factor initial
    segments (the per-factor sum equalities follow from those)."""
    labels = ground.labels
    Ks = [restrict(H, S) for S in blocks]
    windows = [plate_lattice_points(Plate(K, z), Box(B)) for K, z in zip(Ks, zs)]
    heights = [hei(z) for z in zs]
    image = set()
    for combo in itertools.product(*windows):
        image.add(flat_mul(combo, heights).coords)
    card = 1
    for w in windows:
        card *= len(w)
    if len(image) != card:
        return False
    centers = [window_center(Plate(K, z)) for K, z in zip(Ks, zs)]
    cd = {}
    for c in centers:
        cd.update(zip(c.ground.labels, c.coords))
    center = tuple(cd[x] for x in labels)
    # one indicator row and one bound per crossing inequality
    indicator, bounds = [], []
    for pick in itertools.product(*[_proper_initial_segments(K) for K in Ks]):
        A = tuple(x for seg in pick for x in seg)
        if 0 < len(A) < len(labels):
            indicator.append([int(x in A) for x in labels])
            bounds.append(sum(
                z.value(tuple(x for x in A if x in set(S)))
                for z, S in zip(zs, blocks)
            ))
    cands = np.array(center, dtype=np.int64) + _zero_sum_scan(len(labels), B)
    indicator = np.array(indicator, dtype=np.int64).reshape(-1, len(labels))
    keep = (cands @ indicator.T <= np.array(bounds, dtype=np.int64)).all(axis=1)
    return image == set(map(tuple, cands[keep].tolist()))


def _face_factorization_holds(ground, F, Ks, z, B):
    """Juxtaposition maps the product of per-block plate windows (blockwise
    split heights) bijectively onto the F-face points of the concatenated
    plate's window."""
    parts = bf_comul_along(z, F)
    windows = [
        plate_lattice_points(Plate(K, part), Box(B)) for K, part in zip(Ks, parts)
    ]
    heights = [hei(part) for part in parts]
    image = set()
    for combo in itertools.product(*windows):
        image.add(flat_mul(combo, heights).coords)
    card = 1
    for w in windows:
        card *= len(w)
    if len(image) != card:
        return False
    P = Plate(reduce(concatenate, Ks), z)
    target = {
        h.coords
        for h in plate_lattice_points(P, Box(B))
        if plate_F_face_contains(P, F, h)
    }
    return image == target


def test_criterion_05_plate_factorization_windows(capsys):
    B = 3
    rng = random.Random(2026)
    with criterion(capsys, 5, "plate factorization windows", 120):
        # product of plates: exhaustive two-block sweep, then >= 500 random
        # z-draws per plate shape with random decompositions
        for n in (2, 3, 4):
            ground = GROUNDS[n]
            comps = list(all_compositions(ground))
            splits = list(two_block_decompositions(ground, include_empty=False))
            multi = [F for F in comps if F.length() >= 2]
            for H in comps:
                for S, T in splits:
                    for _ in range(3):
                        zs = [_rand_bf(rng, S), _rand_bf(rng, T)]
                        assert _product_window_bijection_holds(ground, H, (S, T), zs, B)
                draws = 0
                while draws < 500:
                    F = rng.choice(multi)
                    zs = [_rand_bf(rng, lump) for lump in F.lumps]
                    assert _product_window_bijection_holds(ground, H, F.lumps, zs, B)
                    draws += 1
        # face factorization: exhaustive block shapes, >= 500 z per ground size
        for n in (2, 3, 4):
            ground = GROUNDS[n]
            combos = []
            for F in all_compositions(ground):
                if F.length() < 2:
                    continue
                per_block = [list(all_compositions(GroundSet.of(lump))) for lump in F.lumps]
                for Ks in itertools.product(*per_block):
                    combos.append((F, Ks))
            per_combo = -(-500 // len(combos))
            for F, Ks in combos:
                for _ in range(per_combo):
                    z = _rand_bf(rng, ground.labels)
                    assert _face_factorization_holds(ground, F, Ks, z, B)


# ---------------------------------------------------------------------------
# 6. global-section counts against the labeled-forest oracle


def _forest_count(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0
    for bits in range(1 << len(edges)):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for k, (i, j) in enumerate(edges):
            if bits >> k & 1:
                ri, rj = find(i), find(j)
                if ri == rj:
                    acyclic = False
                    break
                parent[ri] = rj
        total += acyclic
    return total


def _permutohedron_bf(n):
    desc = sorted(range(1, n + 1), reverse=True)
    return BooleanFunction.from_callable(
        GroundSet.of(range(1, n + 1)), lambda A: sum(desc[: len(A)])
    )


def _sections_brute(z):
    """Independent enumeration: scan the coordinate box allowed by the
    singleton and co-singleton bounds, pin the last coordinate by the total,
    and test every proper subset inequality."""
    n = len(z.ground)
    full = (1 << n) - 1
    tot = z.values[full]
    his = [z.values[1 << k] for k in range(n)]
    los = [tot - z.values[full ^ (1 << k)] for k in range(n)]
    if any(lo > hi for lo, hi in zip(los, his)):
        return []
    subsets = [
        (m, [k for k in range(n) if m >> k & 1]) for m in range(1, full)
    ]
    out = []
    for head in itertools.product(
        *[range(lo, hi + 1) for lo, hi in zip(los[:-1], his[:-1])]
    ):
        last = tot - sum(head)
        if not los[-1] <= last <= his[-1]:
            continue
        cand = head + (last,)
        if all(sum(cand[k] for k in idx) <= z.values[m] for m, idx in subsets):
            out.append(cand)
    return sorted(out)


def test_criterion_06_section_counts_vs_forest_oracle(capsys):
    with criterion(capsys, 6, "section counts vs forest oracle", 10):
        assert _forest_count(3) == 7
        assert _forest_count(4) == 38
        for n in (3, 4):
            z = _permutohedron_bf(n)
            points = global_sections(z).points
            assert len(points) == _forest_count(n)
            assert sorted(h.coords for h in points) == _sections_brute(z)


# ---------------------------------------------------------------------------
# 7. section product bijection and counting multiplicativity


def test_criterion_07_section_product(capsys):
    rng = random.Random(7)
    with criterion(capsys, 7, "section product", 30):
        for _ in range(500):
            cut = rng.randint(1, 3)
            n = rng.randint(cut + 1, 4)
            S = tuple(range(1, cut + 1))
            T = tuple(range(cut + 1, n + 1))
            z1, z2 = _rand_submodular(rng, S), _rand_submodular(rng, T)
            s1, s2 = global_sections(z1), global_sections(z2)
            prod = sections_mul(s1, s2)
            assert len(prod.points) == len(s1.points) * len(s2.points)
            assert sorted(h.coords for h in prod.points) == _sections_brute(
                bf_mul(z1, z2)
            )


# ---------------------------------------------------------------------------
# 8. point-model laws and the evaluation/splitting duality


def test_criterion_08_point_model_laws_and_duality(capsys):
    G4 = GROUNDS[4]
    with criterion(capsys, 8, "point-model laws and duality", 30):
        reports = check_all(points_instance(), G4, seed=2026, budget=500)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        assert all(r.checked >= 500 for r in reports)

        rng = random.Random(8)
        comps4 = list(all_compositions(G4))
        splits = list(two_block_decompositions(G4, include_empty=False))
        checked = 0
        while checked < 500:
            H = rng.choice(comps4)
            orbit = rng.choice([K for K in comps4 if refines(K, H)])
            coords = {
                x: Fraction(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(1, 4))
                for x in G4.labels
            }
            x = PermPoint.of(orbit, coords)
            S, T = rng.choice(splits)
            HS, HT = restrict(H, S), restrict(H, T)
            pS, pT = total_of_composition(HS), total_of_composition(HT)
            xS, xT = point_comul(x, S, T)
            for h1 in cone_lattice_points(pS, Box(1)):
                for h2 in cone_lattice_points(pT, Box(1)):
                    joint = co_mul(h1, pS, h2, pT)
                    assert evaluate(x, H, joint) == evaluate(xS, HS, h1) * evaluate(
                        xT, HT, h2
                    )
                    checked += 1
        assert checked >= 500


# ---------------------------------------------------------------------------
# 9. subset-function laws and height additivity


def test_criterion_09_subset_function_laws(capsys):
    G3 = GROUNDS[3]
    with criterion(capsys, 9, "subset-function laws", 10):
        reports = check_all(bf_instance(), G3, seed=17, budget=1000)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        assert all(r.checked >= 1000 for r in reports)

        rng = random.Random(9)
        for _ in range(1000):
            labels = list(G3.labels)
            rng.shuffle(labels)
            cut = rng.randint(0, 3)
            S, T = tuple(sorted(labels[:cut])), tuple(sorted(labels[cut:]))
            z1, z2 = _rand_bf(rng, S), _rand_bf(rng, T)
            assert hei(bf_mul(z1, z2)) == hei(z1) + hei(z2)
            z = _rand_bf(rng, G3.labels)
            zS, zT = bf_comul(z, S, T)
            assert hei(zS) + hei(zT) == hei(z)
            assert hei(zS) == z.value(S)


# ---------------------------------------------------------------------------
# 10. lifted naturality, merge independence, and mutation sanity


def test_criterion_10_harness_naturality_and_mutations(capsys):
    G4 = GROUNDS[4]
    lifted = (
        "perm-naturality-mul",
        "perm-naturality-comul",
        "merge-independence-mul",
        "merge-independence-comul",
    )
    with criterion(capsys, 10, "lifted naturality and mutations", 60):
        for name, factory in INSTANCES.items():
            reports = {r.law: r for r in check_all(factory(), G4, seed=5, budget=150)}
            for law in lifted:
                assert reports[law].passed, (name, law, reports[law].counterexample)
            assert all(r.passed for r in reports.values()), name

        from permutokit.boolfun import bf_comul as _bfc
        from permutokit.points import point_comul as _ptc
        from permutokit.preposet import o_comul as _oc
        from permutokit.setcomp import restrict as _rs

        breakers = {
            "sigma": lambda F, S, T: (_rs(F, T), _rs(F, S)),
            "o-bullet": lambda p, S, T: tuple(reversed(_oc(p, S, T))),
            "bf": lambda z, S, T: tuple(reversed(_bfc(z, S, T))),
            "points": lambda x, S, T: tuple(reversed(_ptc(x, S, T))),
        }
        for name, bad_comul in breakers.items():
            broken = dataclasses.replace(INSTANCES[name](), comul=bad_comul)
            reports = check_all(broken, GROUNDS[3], seed=1, budget=60)
            failing = [r for r in reports if not r.passed]
            assert failing, name
            assert all(r.counterexample is not None for r in failing)
