"""JSON encodings for every public value type, plus the output envelope.

Conventions:
  - every emitted document carries {"schema": "permutokit/1"}; inputs may
    omit it, but a present-and-different value is rejected
  - ground sets are sorted arrays; compositions are arrays of arrays
  - mapping keys are str(label); keys that parse as int decode to int labels
    (a string label that itself looks like an int is therefore not
    round-trippable and is out of scope); two keys that decode to one label
    ("1" and "01"), or to one subset ("1,2" and "2,1"), are rejected
  - exact rationals travel as strings "p/q" (or "p" when integral)
  - labels are JSON integers or strings; integer-valued fields (coordinates,
    subset-function values, permutation images) accept JSON integers only,
    so 1.5, "7" and true are rejected rather than truncated or coerced
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from .boolfun import BooleanFunction
from .cones import AffinePoint, CoweightVector, PointSet
from .plates import Plate
from .points import PermPoint
from .preposet import AugPreposet, Bottom, Preposet, is_bottom
from .sections import SectionBasis, TensorWord
from .setcomp import Bijection, Composition, GroundSet, Perm
from .opens import ToricOpen

SCHEMA = "permutokit/1"


def envelope(payload: dict) -> dict:
    return {"schema": SCHEMA, **payload}


def check_envelope(obj) -> None:
    if isinstance(obj, dict) and "schema" in obj and obj["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {obj['schema']!r}, expected {SCHEMA!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def parse_label(key: str):
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


def _decode_label_keys(obj: dict, what: str) -> dict:
    """An object keyed by str(label), keyed by label; ValueError naming the
    label when two keys parse to it ("1" and "01")."""
    out = {}
    for key, v in obj.items():
        x = parse_label(key)
        if x in out:
            raise ValueError(f"{what} names label {x!r} twice")
        out[x] = v
    return out


def _shown(v) -> str:
    if isinstance(v, list):
        return "an array"
    if isinstance(v, dict):
        return "an object"
    return json.dumps(v)


def decode_int(v, what: str) -> int:
    """A JSON integer, exactly. A non-finite float (JSON 1e400) fails
    inside int() itself, whose OverflowError names the infinity."""
    if type(v) is int:
        return v
    if isinstance(v, float) and not math.isfinite(v):
        return int(v)
    raise ValueError(f"{what} must be a JSON integer, got {_shown(v)}")


def decode_label(x):
    if type(x) is int or type(x) is str:
        return x
    raise ValueError(f"a label must be a JSON integer or string, got {_shown(x)}")


def decode_labels(obj, what: str = "a label set") -> list:
    """An array of labels: ground sets, lumps and the S/T arguments of
    every coproduct and restriction."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be an array of labels")
    return [decode_label(x) for x in obj]


def _require_within(labels, ground: GroundSet, what: str) -> None:
    for x in labels:
        if x not in ground:
            raise ValueError(
                f"{what} names label {x!r}, which is not in the ground set {list(ground)}"
            )


def decode_rational(v) -> Fraction:
    try:
        return Fraction(str(v))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(v)}") from None


# ---------------------------------------------------------------------------
# ground sets, compositions, bijections, permutations


def encode_ground(g: GroundSet) -> list:
    return list(g.labels)


def decode_ground(obj) -> GroundSet:
    return GroundSet.of(decode_labels(obj, "a ground set"))


def encode_composition(F: Composition) -> list:
    return [list(l) for l in F.lumps]


def decode_composition(obj) -> Composition:
    if not isinstance(obj, list):
        raise ValueError("a composition must be an array of arrays of labels")
    return Composition.of(decode_labels(l, "a lump") for l in obj)


def encode_bijection(sigma: Bijection) -> dict:
    return {str(a): b for a, b in sigma.pairs}


def decode_bijection(obj) -> Bijection:
    if not isinstance(obj, dict):
        raise ValueError("a bijection must be an object mapping labels to labels")
    pairs = _decode_label_keys(obj, "a bijection")
    return Bijection.of({x: decode_label(v) for x, v in pairs.items()})


def encode_perm(beta: Perm) -> list:
    return list(beta.images)


def decode_perm(obj) -> Perm:
    if not isinstance(obj, list):
        raise ValueError("a permutation must be an array of images of 1..k")
    return Perm(tuple(decode_int(v, "a permutation image") for v in obj))


# ---------------------------------------------------------------------------
# preposets


def encode_preposet(p: AugPreposet) -> dict:
    if is_bottom(p):
        return {"bottom": True, "ground": encode_ground(p.ground)}
    return {
        "ground": encode_ground(p.ground),
        "rel": sorted([list(pair) for pair in p.pairs], key=lambda ab: (str(ab[0]), str(ab[1]))),
    }


def decode_preposet(obj) -> AugPreposet:
    if not isinstance(obj, dict) or "ground" not in obj:
        raise ValueError("a preposet must be an object with a 'ground' array")
    ground = decode_ground(obj["ground"])
    if obj.get("bottom"):
        return Bottom(ground)
    rel = obj.get("rel", [])
    if not isinstance(rel, list) or not all(isinstance(p, list) and len(p) == 2 for p in rel):
        raise ValueError("a preposet relation must be an array of label pairs")
    pairs = [tuple(decode_labels(pair)) for pair in rel]
    _require_within((x for pair in pairs for x in pair), ground, "a relation pair")
    return Preposet.from_pairs(ground, pairs)


# ---------------------------------------------------------------------------
# integer and rational coordinate vectors


def encode_coweight(h: AffinePoint) -> dict:
    """{"coords": {label: int}} for a point of either integer class;
    ValueError naming the label of a coordinate that is not integral."""
    out = {}
    for x, v in zip(h.ground.labels, h.coords):
        if v != int(v):
            raise ValueError(f"coordinate {x!r} is not an integer: {v}")
        out[str(x)] = int(v)
    return {"coords": out}


encode_affine_point = encode_coweight


def _decode_int_point(kind: type, obj) -> AffinePoint:
    if not isinstance(obj, dict) or not isinstance(obj.get("coords"), dict):
        raise ValueError("expected an object with a 'coords' mapping")
    coords = _decode_label_keys(obj["coords"], "a point's 'coords'")
    coords = {x: decode_int(v, f"coordinate {x!r}") for x, v in coords.items()}
    return kind.of(GroundSet.of(coords), coords)


def decode_coweight(obj) -> CoweightVector:
    return _decode_int_point(CoweightVector, obj)


def decode_affine_point(obj) -> AffinePoint:
    return _decode_int_point(AffinePoint, obj)


def encode_point_set(pts: PointSet) -> list:
    """One {"coords": ...} object per point, straight from the int64 rows."""
    keys = [str(x) for x in pts.ground.labels]
    return [{"coords": dict(zip(keys, row))} for row in pts.rows.tolist()]


# ---------------------------------------------------------------------------
# subset functions and plates


def encode_bf(z: BooleanFunction) -> dict:
    keys = (",".join(map(str, z.ground.subset(m))) for m in range(len(z.values)))
    return {"ground": encode_ground(z.ground), "values": dict(zip(keys, z.values))}


def decode_bf(obj) -> BooleanFunction:
    if not isinstance(obj, dict) or "ground" not in obj or not isinstance(obj.get("values"), dict):
        raise ValueError("a subset function must carry 'ground' and 'values'")
    ground = decode_ground(obj["ground"])
    n = len(ground)
    table, keys = {}, {}
    for key, v in obj["values"].items():
        labels = [parse_label(part) for part in key.split(",")] if key else []
        _require_within(labels, ground, f"subset {key!r}")
        mask = ground.mask(labels)
        if mask.bit_count() != len(labels):
            raise ValueError(f"subset {key!r} repeats a label")
        if mask in keys:
            raise ValueError(f"subsets {keys[mask]!r} and {key!r} are the same subset")
        keys[mask] = key
        table[mask] = decode_int(v, f"the value of subset {key!r}")
    missing = [m for m in range(1 << n) if m not in table]
    if missing:
        raise ValueError("subset function is missing values for some subsets")
    return BooleanFunction(ground, tuple(table[m] for m in range(1 << n)))


def encode_plate(P: Plate) -> dict:
    return {"H": encode_composition(P.H), "z": encode_bf(P.z)}


def decode_plate(obj) -> Plate:
    if not isinstance(obj, dict) or "H" not in obj or "z" not in obj:
        raise ValueError("a plate must carry 'H' and 'z'")
    return Plate(decode_composition(obj["H"]), decode_bf(obj["z"]))


# ---------------------------------------------------------------------------
# section bases and tensor words


def encode_section_basis(s: SectionBasis) -> dict:
    return {
        "z": encode_bf(s.z),
        "points": encode_point_set(s.points),
    }


def decode_section_basis(obj) -> SectionBasis:
    if not isinstance(obj, dict) or "z" not in obj or not isinstance(obj.get("points"), list):
        raise ValueError("a section basis must carry 'z' and a 'points' array")
    return SectionBasis(
        decode_bf(obj["z"]),
        tuple(decode_affine_point(p) for p in obj["points"]),
    )


def encode_tensor_word(w: TensorWord, encode_part) -> dict:
    if w.is_zero:
        return {"zero": True}
    return {"parts": [encode_part(p) for p in w.parts]}


# ---------------------------------------------------------------------------
# points of the torus orbits


def encode_point(x: PermPoint) -> dict:
    return {
        "orbit": encode_composition(x.orbit),
        "coords": {str(lab): str(c) for lab, c in zip(x.ground.labels, x.coords)},
    }


def decode_point(obj) -> PermPoint:
    if not isinstance(obj, dict) or "orbit" not in obj or "coords" not in obj:
        raise ValueError("a point must carry 'orbit' and 'coords'")
    orbit = decode_composition(obj["orbit"])
    if not isinstance(obj["coords"], dict):
        raise ValueError("a point's 'coords' must be an object")
    coords = _decode_label_keys(obj["coords"], "a point's 'coords'")
    coords = {x: decode_rational(v) for x, v in coords.items()}
    _require_within(coords, orbit.ground, "a coordinate")
    for x in orbit.ground:
        if x not in coords:
            raise ValueError(f"a point's 'coords' has no value for label {x!r}")
    return PermPoint.of(orbit, coords)


# ---------------------------------------------------------------------------
# unions of torus orbits


def encode_open(U: ToricOpen) -> dict:
    tuples = [[encode_composition(H) for H in tup] for tup in U.orbits]
    return {
        "shape": encode_composition(U.shape),
        "orbits": sorted(tuples, key=lambda t: json.dumps(t, sort_keys=True)),
    }


def decode_open(obj) -> ToricOpen:
    if not isinstance(obj, dict) or "shape" not in obj or not isinstance(obj.get("orbits"), list):
        raise ValueError("an open union must carry 'shape' and an 'orbits' array")
    if not all(isinstance(tup, list) for tup in obj["orbits"]):
        raise ValueError("each orbit of an open union must be an array of compositions")
    shape = decode_composition(obj["shape"])
    orbits = frozenset(
        tuple(decode_composition(H) for H in tup) for tup in obj["orbits"]
    )
    return ToricOpen(shape, orbits)
