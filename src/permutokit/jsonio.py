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
  - each kind of object has one row of OBJECTS: its required keys and its
    optional keys. An object missing a required key, or holding any other
    key, is rejected with one message naming the key and the object
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from .boolfun import BooleanFunction
from .cones import AffinePoint, CoweightVector, PointSet
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


# json.dumps(obj, sort_keys=True): the compact form of table rows and of the
# sort key of an open's orbits, built once.
COMPACT = json.JSONEncoder(sort_keys=True)
_string = json.encoder.encode_basestring_ascii


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for a value
    built of dicts with str keys, lists, tuples, str, int, bool and None:
    the only values the CLI emits. The C encoder ignores indent, and the
    pure-Python one it falls back to costs three times this emitter."""
    out = []
    _emit(obj, out.append, "\n")
    return "".join(out)


def _emit(obj, put, nl: str) -> None:
    """Append obj's indented JSON to a chunk list through its `put`; `nl` is
    the newline and indent of obj's own line. A module-level function, not
    a closure over the list, so no reference cycle keeps the chunks alive."""
    t = type(obj)
    if t is str:
        put(_string(obj))
    elif t is dict:
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            put(sep)
            put(_string(key))
            put(": ")
            _emit(obj[key], put, inner)
            sep = comma
        put(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in obj:
            put(sep)
            _emit(v, put, inner)
            sep = comma
        put(nl + "]")
    elif t is int:
        put(int.__repr__(obj))
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif obj is None:
        put("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# Each kind of JSON object the decoders read: the name its errors give it,
# its required keys and its optional keys.
OBJECTS = {
    "preposet": ("a preposet", ("ground",), ("rel", "bottom")),
    "subset function": ("a subset function", ("ground", "values"), ()),
    "orbit point": ("an orbit point", ("orbit", "coords"), ()),
    "integer point": ("an integer point", ("coords",), ()),
    "open union": ("an open union", ("shape", "orbits"), ()),
}


def _fields(obj, what: str, required, optional=()) -> None:
    """ValueError unless obj is a JSON object holding every key of `required`
    and no key outside `required` and `optional`; the message names the key
    and `what`, the object that holds it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for k in obj:
        if k not in required and k not in optional:
            raise ValueError(f"{what} has unknown key {k!r}")
    for k in required:
        if k not in obj:
            raise ValueError(f"{what} is missing {k!r}")


def parse_label(key: str):
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


def _decode_label_keys(obj: dict, what: str) -> dict:
    """An object keyed by str(label), keyed by label; ValueError naming the
    label when two keys parse to it ("1" and "01")."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
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


def _rational(v) -> tuple[int, int]:
    """(p, q) with p/q = Fraction(str(v)) and q > 0, not reduced. A JSON
    integer, and a string "p" or "p/q" of decimal digits as encode_point
    writes it, are read without Fraction's regex; any other form (" 1/2",
    "1.5", 1.5) goes through it."""
    if type(v) is int:
        return v, 1
    if type(v) is str:
        num, slash, den = v.partition("/")
        if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
            # numerator first, as Fraction reads them: a numerator past int's
            # digit limit fails before a zero denominator is seen
            p, q = int(num), int(den) if slash else 1
            if q == 0:
                raise ValueError(f"zero denominator in {_shown(v)}")
            return p, q
    try:
        f = Fraction(str(v))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(v)}") from None
    return f.numerator, f.denominator


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


def decode_bijection(obj) -> Bijection:
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
    _fields(obj, *OBJECTS["preposet"])
    ground = decode_ground(obj["ground"])
    bottom = obj.get("bottom", False)
    if not isinstance(bottom, bool):
        raise ValueError("a preposet's 'bottom' must be true or false")
    if bottom:
        if obj.get("rel", []) != []:
            raise ValueError("a bottom preposet has no relation pairs")
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
    _fields(obj, *OBJECTS["integer point"])
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
# subset functions


def encode_bf(z: BooleanFunction) -> dict:
    keys = (",".join(map(str, z.ground.subset(m))) for m in range(len(z.values)))
    return {"ground": encode_ground(z.ground), "values": dict(zip(keys, z.values))}


def _label_bits(ground: GroundSet) -> dict:
    """{str(x): 1 << k} for each label x at index k whose text is not empty,
    holds no comma and parses back to x ("01" parses to 1): the labels a
    subset key can name by their text alone."""
    bits = {}
    for k, x in enumerate(ground.labels):
        text = str(x)
        if text and "," not in text and parse_label(text) == x:
            bits[text] = 1 << k
    return bits


def _parsed_mask(key: str, ground: GroundSet) -> int:
    labels = [parse_label(part) for part in key.split(",")] if key else []
    _require_within(labels, ground, f"subset {key!r}")
    mask = ground.mask(labels)
    if mask.bit_count() != len(labels):
        raise ValueError(f"subset {key!r} repeats a label")
    return mask


def decode_bf(obj) -> BooleanFunction:
    """A key naming labels of _label_bits in canonical order ("1,3") gives its
    mask bit by bit; any other ("3,1", "", "01") is parsed. Every mask is
    below 2^n, so 2^n distinct masks are every subset."""
    _fields(obj, *OBJECTS["subset function"])
    if not isinstance(obj["values"], dict):
        raise ValueError("a subset function's 'values' must be a JSON object")
    ground = decode_ground(obj["ground"])
    bits = _label_bits(ground)
    table, keys = {}, {}
    for key, v in obj["values"].items():
        mask = 0
        for part in key.split(","):
            bit = bits.get(part, 0)
            if bit <= mask:
                mask = _parsed_mask(key, ground)
                break
            mask |= bit
        if mask in keys:
            raise ValueError(f"subsets {keys[mask]!r} and {key!r} are the same subset")
        keys[mask] = key
        table[mask] = decode_int(v, f"the value of subset {key!r}")
    if len(table) != 1 << len(ground):
        raise ValueError("subset function is missing values for some subsets")
    return BooleanFunction(ground, tuple(map(table.__getitem__, range(len(table)))))


# ---------------------------------------------------------------------------
# section bases and tensor words


def encode_section_basis(s: SectionBasis) -> dict:
    return {"z": encode_bf(s.z), "points": encode_point_set(s.points)}


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
    """Each scalar is read as the integers (p, q) of p/q, and PermPoint
    divides each lump by its least scalar once."""
    _fields(obj, *OBJECTS["orbit point"])
    orbit = decode_composition(obj["orbit"])
    coords = _decode_label_keys(obj["coords"], "a point's 'coords'")
    coords = {x: _rational(v) for x, v in coords.items()}
    _require_within(coords, orbit.ground, "a coordinate")
    for x in orbit.ground:
        if x not in coords:
            raise ValueError(f"a point's 'coords' has no value for label {x!r}")
    return PermPoint.from_ratios(orbit, coords)


# ---------------------------------------------------------------------------
# unions of torus orbits


def encode_open(U: ToricOpen) -> dict:
    tuples = [[encode_composition(H) for H in tup] for tup in U.orbits]
    return {
        "shape": encode_composition(U.shape),
        "orbits": sorted(tuples, key=COMPACT.encode),
    }


def decode_open(obj) -> ToricOpen:
    _fields(obj, *OBJECTS["open union"])
    if not isinstance(obj["orbits"], list) or not all(isinstance(t, list) for t in obj["orbits"]):
        raise ValueError("an open union's 'orbits' must be an array of arrays of compositions")
    shape = decode_composition(obj["shape"])
    orbits = frozenset(
        tuple(decode_composition(H) for H in tup) for tup in obj["orbits"]
    )
    return ToricOpen(shape, orbits)
