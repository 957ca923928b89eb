"""Seeded inputs and canonical output forms for the three workloads.

Inputs are built in two steps. `specs(workload, seed)` returns plain data
(tuples of ints and strings) made only by this file's own pure-Python code,
so the same seed always gives the same specs, whatever the library does.
`worker.build_ops` then turns the specs into library objects and callables;
it runs before timing starts.

Every operation carries a key into `expected.json`, the stored expected
value of its output. Seeded parts draw from fixed pools (built from
POOL_SEED) whose expected values are stored: the seed picks pool members and
their order. `make_expected.py` writes the stored values and checks them
against the independent oracles in `oracles.py`.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from oracles import compositions, sections

POOL_SEED = 20221228
WORKLOADS = ("laws", "windows", "cli")

# laws: (instance, n, number of seeds, budget per seed) for the sampled checks
LAW_SAMPLED = (
    ("sigma", 4, 4, 50),
    ("o-bullet", 4, 4, 50),
    ("bf", 4, 4, 50),
    ("points", 4, 4, 50),
    ("o-bullet", 5, 4, 50),
)
LAW_EXHAUSTIVE = (("o-bullet", 3),)
INDEXING_SIZES = (1, 2, 3, 4)

# windows
WINDOW_N = 5
CONE_BOUND = 3
PLATE_BOUND = 2
SUB5_POOL = 4
SUB6_POOL = 8
SUB6_PER_PASS = 3
SMUL_LEFT = (1, 2)
SMUL_RIGHT = (3, 4, 5)
SMUL_POOL = 4
SMUL_PER_PASS = 6

# cli
CLI_POOL = 1600
CLI_PER_PASS = 1000
CLI_MAX_N = 4


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# pure-Python combinatorics used to build inputs (no library calls)


def comp_key(F) -> str:
    return "|".join("".join(str(x) for x in lump) for lump in F)


def total_pairs(F):
    """Pairs (a, b), a != b, with the lump of a no later than that of b."""
    idx = {x: k for k, lump in enumerate(F) for x in lump}
    labels = sorted(idx)
    return [(a, b) for a in labels for b in labels if a != b and idx[a] <= idx[b]]


def perm_table(n):
    """Dense values of the permutohedron function on 1..n, by bitmask."""
    desc = list(range(n, 0, -1))
    return [sum(desc[: bin(m).count("1")]) for m in range(1 << n)]


def coverage_table(rng, n, blocks, weights, shift):
    """Weighted coverage plus a modular shift: submodular by construction."""
    blks = []
    for _ in range(rng.randint(*blocks)):
        m = sum(1 << k for k in range(n) if rng.random() < 0.6)
        if m:
            blks.append((m, rng.randint(*weights)))
    sh = [rng.randint(-shift, shift) for _ in range(n)]
    return [
        sum(w for b, w in blks if b & m) + sum(sh[k] for k in range(n) if m >> k & 1)
        for m in range(1 << n)
    ]


def sub5_pool():
    rng = random.Random(f"{POOL_SEED}:sub5")
    return [coverage_table(rng, WINDOW_N, (2, 4), (1, 3), 1) for _ in range(SUB5_POOL)]


def sub6_pool():
    rng = random.Random(f"{POOL_SEED}:sub6")
    return [coverage_table(rng, 6, (3, 4), (1, 2), 0) for _ in range(SUB6_POOL)]


def smul_pools():
    rng = random.Random(f"{POOL_SEED}:smul")
    left = [coverage_table(rng, len(SMUL_LEFT), (2, 3), (1, 3), 1) for _ in range(SMUL_POOL)]
    right = [coverage_table(rng, len(SMUL_RIGHT), (2, 3), (1, 3), 1) for _ in range(SMUL_POOL)]
    return left, right


def bf_json(labels, table):
    labels = tuple(labels)
    values = {}
    for m, v in enumerate(table):
        values[",".join(str(x) for k, x in enumerate(labels) if m >> k & 1)] = v
    return {"ground": list(labels), "values": values}


# ---------------------------------------------------------------------------
# specs


def specs(workload: str, seed: int):
    if workload == "laws":
        return _law_specs(seed)
    if workload == "windows":
        return _window_specs(seed)
    if workload == "cli":
        return _cli_specs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(spec_list) -> str:
    return digest(repr(spec_list))


def _law_specs(seed):
    rng = random.Random(f"laws:{seed}")
    out = [("exhaustive", inst, n, rng.randrange(1 << 30), 200) for inst, n in LAW_EXHAUSTIVE]
    for inst, n, seeds, budget in LAW_SAMPLED:
        out += [("sampled", inst, n, rng.randrange(1 << 30), budget) for _ in range(seeds)]
    out += [("indexing", "", n, 0, 0) for n in INDEXING_SIZES]
    return out


def _window_specs(seed):
    rng = random.Random(f"windows:{seed}")
    keys = [comp_key(F) for F in compositions(range(1, WINDOW_N + 1))]
    cones = [("cone", k, CONE_BOUND) for k in keys]
    perm = [("plate-perm", k, PLATE_BOUND) for k in keys]
    sub = [("plate-sub", k, PLATE_BOUND, rng.randrange(SUB5_POOL)) for k in keys]
    for group in (cones, perm, sub):
        rng.shuffle(group)
    sections = [("sections-perm", 6)]
    sections += [("sections-sub", j) for j in rng.sample(range(SUB6_POOL), SUB6_PER_PASS)]
    pairs = list(itertools.product(range(SMUL_POOL), range(SMUL_POOL)))
    sections += [("sections-mul", i, j) for i, j in rng.sample(pairs, SMUL_PER_PASS)]
    return cones + perm + sub + sections


def _cli_specs(seed):
    rng = random.Random(f"cli:{seed}")
    return [("cli", i) for i in rng.sample(range(CLI_POOL), CLI_PER_PASS)]


def parse_comp_key(key: str):
    return tuple(tuple(int(c) for c in part) for part in key.split("|"))


# ---------------------------------------------------------------------------
# the cli request pool


def cli_pool():
    """CLI_POOL requests as (argv, stdin text, malformed flag), built from
    POOL_SEED. About one in twelve is a malformed payload."""
    rng = random.Random(f"{POOL_SEED}:cli")
    makers = sorted(_CLI_MAKERS.items())
    out = []
    for _ in range(CLI_POOL):
        if rng.random() < 1 / 12:
            argv, payload = _malformed(rng)
            out.append((argv, payload, True))
            continue
        group, maker = rng.choice(makers)
        argv, payload = maker(rng)
        if rng.random() < 0.5:
            argv = argv + ["--format", "json"]
        text = "" if payload is None else json.dumps(payload, sort_keys=True)
        out.append(([group] + argv, text, False))
    return out


def _labels(rng, lo=1, hi=CLI_MAX_N):
    return list(range(1, rng.randint(lo, hi) + 1))


def _rand_comp(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    lumps = []
    for x in labels:
        if lumps and rng.random() < 0.4:
            lumps[rng.randrange(len(lumps))].append(x)
        else:
            lumps.insert(rng.randrange(len(lumps) + 1), [x])
    return [sorted(l) for l in lumps]


def _coarsen(rng, F):
    out, cur = [], []
    for i, lump in enumerate(F):
        cur += lump
        if i == len(F) - 1 or rng.random() < 0.5:
            out.append(sorted(cur))
            cur = []
    return out


def _split(rng, labels):
    S = [x for x in labels if rng.random() < 0.5]
    T = [x for x in labels if x not in S]
    return S, T


def _rand_rel(rng, labels):
    """A random transitive relation: random pairs, then closure."""
    rel = {(a, b) for a in labels for b in labels if a != b and rng.random() < 0.3}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and a != d and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return sorted([list(p) for p in rel])


def _pre_json(rng, labels):
    return {"ground": list(labels), "rel": _rand_rel(rng, labels)}


def _perm(rng, k):
    images = list(range(1, k + 1))
    rng.shuffle(images)
    return images


def _zero_sum(rng, labels, span=2):
    vals = [rng.randint(-span, span) for _ in labels[:-1]] if labels else []
    if labels:
        vals.append(-sum(vals))
    return {str(x): v for x, v in zip(labels, vals)}


def _sub_json(rng, labels):
    return bf_json(labels, coverage_table(rng, len(labels), (1, 3), (0, 2), 1))


def _open_orbits(F_lumps_per_factor, rels):
    """Orbit tuples of a product of preposet opens: each factor composition
    H must order every related pair (a, b) with lump(a) <= lump(b)."""
    factors = []
    for labels, rel in zip(F_lumps_per_factor, rels):
        ok = []
        for H in compositions(labels):
            idx = {x: k for k, lump in enumerate(H) for x in lump}
            if all(idx[a] <= idx[b] for a, b in rel):
                ok.append([list(l) for l in H])
        factors.append(ok)
    return [list(t) for t in itertools.product(*factors)]


def _point_json(rng, labels, orbit=None):
    orbit = orbit or _rand_comp(rng, labels)
    coords = {}
    for x in labels:
        q = Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))
        coords[str(x)] = str(q)
    return {"orbit": orbit, "coords": coords}


def _mk_comp(rng):
    sub = rng.choice(["tits", "concat", "restrict", "refines", "relabel", "permute",
                      "hat-beta", "enumerate"])
    L = _labels(rng)
    if sub == "tits":
        return [sub], {"F": _rand_comp(rng, L), "G": _rand_comp(rng, L)}
    if sub == "concat":
        S, T = _split(rng, L)
        return [sub], {"F": _rand_comp(rng, S), "G": _rand_comp(rng, T)}
    if sub == "restrict":
        return [sub], {"F": _rand_comp(rng, L), "S": _split(rng, L)[0]}
    if sub == "refines":
        F = _rand_comp(rng, L)
        G = _coarsen(rng, F) if rng.random() < 0.5 else _rand_comp(rng, L)
        return [sub], {"G": G, "F": F}
    if sub == "relabel":
        src = [x + 10 for x in L]
        rng.shuffle(src)
        return [sub], {"sigma": {str(a): b for a, b in zip(src, L)}, "F": _rand_comp(rng, L)}
    if sub == "permute":
        F = _rand_comp(rng, L)
        return [sub], {"beta": _perm(rng, len(F)), "F": F}
    if sub == "hat-beta":
        F = _rand_comp(rng, L)
        G = _coarsen(rng, F)
        return [sub], {"beta": _perm(rng, len(G)), "F": F, "G": G}
    return [sub, "--size", str(rng.randint(0, 3))], None


def _mk_preposet(rng):
    sub = rng.choice(["leq", "mul", "comul", "total-of", "comp-of", "upward", "enumerate"])
    L = _labels(rng)
    if sub == "leq":
        return [sub], {"q": _pre_json(rng, L), "p": _pre_json(rng, L)}
    if sub == "mul":
        S, T = _split(rng, L)
        return [sub], {"p": _pre_json(rng, S), "q": _pre_json(rng, T)}
    if sub == "comul":
        S, T = _split(rng, L)
        return [sub], {"p": _pre_json(rng, L), "S": S, "T": T}
    if sub == "total-of":
        return [sub], {"F": _rand_comp(rng, L)}
    if sub == "comp-of":
        F = _rand_comp(rng, L)
        return [sub], {"p": {"ground": L, "rel": [list(p) for p in total_pairs(F)]}}
    if sub == "upward":
        return [sub], {"p": _pre_json(rng, L)}
    argv = [sub, "--size", str(rng.randint(0, 3))]
    if rng.random() < 0.5:
        argv.append("--augmented")
    return argv, None


def _mk_cone(rng):
    sub = rng.choice(["points", "contains", "face"])
    L = _labels(rng, 2)
    if sub == "points":
        bound = rng.randint(1, 2) if len(L) == 4 else rng.randint(1, 3)
        return [sub, "--bound", str(bound)], {"p": _pre_json(rng, L)}
    if sub == "contains":
        return [sub], {"p": _pre_json(rng, L), "h": {"coords": _zero_sum(rng, L)}}
    S, T = _split(rng, L)
    return [sub], {"p": _pre_json(rng, L), "S": S, "T": T}


def _mk_bf(rng):
    sub = rng.choice(["mul", "comul", "equiv", "is-gp"])
    L = _labels(rng)
    if sub == "mul":
        S, T = _split(rng, L)
        return [sub], {"z1": _sub_json(rng, S), "z2": _sub_json(rng, T)}
    if sub == "comul":
        S, T = _split(rng, L)
        return [sub], {"z": _sub_json(rng, L), "S": S, "T": T}
    if sub == "equiv":
        z1 = _sub_json(rng, L)
        if rng.random() < 0.5:
            h = {x: rng.randint(-2, 2) for x in L}
            vals = {
                k: v + sum(h[int(p)] for p in k.split(",") if k)
                for k, v in z1["values"].items()
            }
            z2 = {"ground": L, "values": vals}
        else:
            z2 = _sub_json(rng, L)
        return [sub], {"z1": z1, "z2": z2}
    return [sub], {"z": _sub_json(rng, L)}


def _mk_plate(rng):
    sub = rng.choice(["points", "contains", "face", "center"])
    L = _labels(rng)
    H = _rand_comp(rng, L)
    z = _sub_json(rng, L)
    if sub == "points":
        bound = rng.randint(1, 2) if len(L) == 4 else rng.randint(1, 3)
        return [sub, "--bound", str(bound)], {"H": H, "z": z}
    h = {"coords": {str(x): rng.randint(-2, 3) for x in L}}
    if sub == "contains":
        return [sub], {"H": H, "z": z, "h": h}
    if sub == "face":
        F = _coarsen(rng, H) if rng.random() < 0.7 else _rand_comp(rng, L)
        return [sub], {"H": H, "z": z, "F": F, "h": h}
    return [sub], {"H": H, "z": z}


def _mk_sections(rng):
    sub = rng.choice(["basis", "count", "mul", "comul"])
    L = _labels(rng)
    if sub in ("basis", "count"):
        return [sub], {"z": _sub_json(rng, L)}
    if sub == "mul":
        S, T = _split(rng, L)
        return [sub], {"z1": _sub_json(rng, S), "z2": _sub_json(rng, T)}
    for _ in range(20):
        table = coverage_table(rng, len(L), (1, 3), (0, 2), 1)
        pts = sections(table, len(L))
        if pts:
            break
    else:
        return ["count"], {"z": bf_json(L, table)}
    h = rng.choice(pts)
    S, T = _split(rng, L)
    return [sub], {
        "z": bf_json(L, table),
        "h": {"coords": {str(x): v for x, v in zip(L, h)}},
        "S": S,
        "T": T,
    }


def _mk_point(rng):
    sub = rng.choice(["mul", "comul", "eval", "relabel"])
    L = _labels(rng)
    if sub == "mul":
        S, T = _split(rng, L)
        return [sub], {"x1": _point_json(rng, S), "x2": _point_json(rng, T)}
    if sub == "comul":
        S, T = _split(rng, L)
        return [sub], {"x": _point_json(rng, L), "S": S, "T": T}
    if sub == "eval":
        H = _rand_comp(rng, L)
        orbit = _coarsen(rng, H)
        h = {str(x): 0 for x in L}
        for _ in range(50):
            cand = _zero_sum(rng, L)
            acc, ok = 0, True
            for lump in H[:-1]:
                acc += sum(cand[str(x)] for x in lump)
                ok = ok and acc <= 0
            if ok:
                h = cand
                break
        return [sub], {"x": _point_json(rng, L, orbit), "H": H, "h": {"coords": h}}
    src = [x + 10 for x in L]
    rng.shuffle(src)
    return [sub], {"sigma": {str(a): b for a, b in zip(src, L)}, "x": _point_json(rng, L)}


def _mk_opens(rng):
    sub = rng.choice(["of-preposet", "pullback", "pullback", "check-indexing"])
    L = _labels(rng)
    if sub == "of-preposet":
        return [sub], {"p": _pre_json(rng, L)}
    if sub == "pullback":
        F = _rand_comp(rng, L)
        if rng.random() < 0.5:
            rels = [[tuple(p) for p in _rand_rel(rng, lump)] for lump in F]
            U = {"shape": F, "orbits": _open_orbits(F, rels)}
            return [sub, "--via", "delta"], {"F": F, "U": U}
        rel = [tuple(p) for p in _rand_rel(rng, L)]
        U = {"shape": [L], "orbits": _open_orbits([L], [rel])}
        return [sub, "--via", "mu"], {"F": F, "U": U}
    return [sub, "--size", str(rng.randint(1, 2))], None


def _mk_check(rng):
    inst = rng.choice(["sigma", "o-bullet", "bf", "points"])
    argv = [inst, "--size", str(rng.randint(1, 3)), "--seed", str(rng.randrange(1000)),
            "--budget", str(rng.randint(2, 6))]
    return argv, None


_CLI_MAKERS = {
    "comp": _mk_comp,
    "preposet": _mk_preposet,
    "cone": _mk_cone,
    "bf": _mk_bf,
    "plate": _mk_plate,
    "sections": _mk_sections,
    "point": _mk_point,
    "opens": _mk_opens,
    "check": _mk_check,
}


def _malformed(rng):
    kind = rng.choice(["json", "schema", "missing", "type", "overlap", "transitive",
                       "values", "list", "zero-sum"])
    L = _labels(rng, 2)
    if kind == "json":
        return ["comp", "tits"], '{"F": [[1, 2], [3]], "G": '
    if kind == "schema":
        return ["comp", "tits"], json.dumps({"schema": "permutokit/9", "F": [L], "G": [L]})
    if kind == "missing":
        return ["preposet", "mul"], json.dumps({"p": _pre_json(rng, L)})
    if kind == "type":
        return ["comp", "refines"], json.dumps({"G": 5, "F": [L]})
    if kind == "overlap":
        return ["comp", "tits"], json.dumps({"F": [L, L[:1]], "G": [L]})
    if kind == "transitive":
        rel = [[L[0], L[1]], [L[1], L[0] + 10]] if rng.random() < 0.5 else [[L[0], L[1]], [L[1], L[-1]]]
        if len(L) == 2:
            rel = [[L[0], L[0]]]
        return ["preposet", "upward"], json.dumps({"p": {"ground": L, "rel": rel}})
    if kind == "values":
        z = _sub_json(rng, L)
        z["values"].pop(",".join(str(x) for x in L))
        return ["bf", "is-gp"], json.dumps({"z": z})
    if kind == "list":
        return ["bf", "is-gp"], json.dumps([1, 2, 3])
    h = {str(x): 1 for x in L}
    return ["cone", "contains"], json.dumps({"p": _pre_json(rng, L), "h": {"coords": h}})


# ---------------------------------------------------------------------------
# canonical forms of outputs


def point_rows(points):
    """Integer coordinate rows of a window result, in the order returned.

    Works for any carrier that iterates as points exposing `coords`, or as
    rows of integers."""
    rows = [getattr(h, "coords", h) for h in getattr(points, "points", points)]
    if rows and type(rows[0]) is tuple and all(type(c) is int for c in rows[0]):
        return rows
    return [tuple(int(c) for c in row) for row in rows]


def law_counts(reports):
    return {r.law: (int(r.checked), bool(r.passed)) for r in reports}
