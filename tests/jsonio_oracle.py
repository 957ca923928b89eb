"""The JSON decoders as they were before each one proved its input in one pass
and built unchecked, kept with the tests as the oracle the one-pass decoders
are compared against. They build through the validating constructors
(Composition, PermPoint, BooleanFunction), with Composition.of and
PermPoint.of as they were then, and share jsonio's key, label and integer
checks, which the one-pass decoders did not change.

`differences(values)` runs every one-pass decoder and its oracle on each
JSON value and lists where they disagree."""
from fractions import Fraction

from permutokit import jsonio
from permutokit.boolfun import BooleanFunction
from permutokit.opens import ToricOpen
from permutokit.points import PermPoint, _normalized
from permutokit.setcomp import Composition, GroundSet, sorted_labels


def decode_rational(v) -> Fraction:
    try:
        return Fraction(str(v))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {jsonio._shown(v)}") from None


def decode_composition(obj) -> Composition:
    if not isinstance(obj, list):
        raise ValueError("a composition must be an array of arrays of labels")
    canon = tuple(sorted_labels(jsonio.decode_labels(l, "a lump")) for l in obj)
    ground = GroundSet.of([x for l in canon for x in l])
    return Composition(ground, canon)


def decode_bf(obj) -> BooleanFunction:
    jsonio._fields(obj, *jsonio.OBJECTS["subset function"])
    if not isinstance(obj["values"], dict):
        raise ValueError("a subset function's 'values' must be a JSON object")
    ground = jsonio.decode_ground(obj["ground"])
    n = len(ground)
    table, keys = {}, {}
    for key, v in obj["values"].items():
        labels = [jsonio.parse_label(part) for part in key.split(",")] if key else []
        jsonio._require_within(labels, ground, f"subset {key!r}")
        mask = ground.mask(labels)
        if mask.bit_count() != len(labels):
            raise ValueError(f"subset {key!r} repeats a label")
        if mask in keys:
            raise ValueError(f"subsets {keys[mask]!r} and {key!r} are the same subset")
        keys[mask] = key
        table[mask] = jsonio.decode_int(v, f"the value of subset {key!r}")
    missing = [m for m in range(1 << n) if m not in table]
    if missing:
        raise ValueError("subset function is missing values for some subsets")
    return BooleanFunction(ground, tuple(table[m] for m in range(1 << n)))


def decode_point(obj) -> PermPoint:
    jsonio._fields(obj, *jsonio.OBJECTS["orbit point"])
    orbit = decode_composition(obj["orbit"])
    coords = jsonio._decode_label_keys(obj["coords"], "a point's 'coords'")
    coords = {x: decode_rational(v) for x, v in coords.items()}
    jsonio._require_within(coords, orbit.ground, "a coordinate")
    for x in orbit.ground:
        if x not in coords:
            raise ValueError(f"a point's 'coords' has no value for label {x!r}")
    raw = tuple(coords[x] for x in orbit.ground.labels)
    if any(raw[orbit.ground.index(lump[0])] == 0 for lump in orbit.lumps):
        raise ValueError("coordinates must be nonzero")
    return PermPoint(orbit, _normalized(orbit, raw))


def decode_open(obj) -> ToricOpen:
    jsonio._fields(obj, *jsonio.OBJECTS["open union"])
    if not isinstance(obj["orbits"], list) or not all(isinstance(t, list) for t in obj["orbits"]):
        raise ValueError("an open union's 'orbits' must be an array of arrays of compositions")
    shape = decode_composition(obj["shape"])
    orbits = frozenset(
        tuple(decode_composition(H) for H in tup) for tup in obj["orbits"]
    )
    return ToricOpen(shape, orbits)


ORACLES = {
    "decode_composition": decode_composition,
    "decode_bf": decode_bf,
    "decode_point": decode_point,
    "decode_open": decode_open,
}


def outcome(decode, value):
    """("ok", the decoded object) or ("error", exception class name, text).
    Looks the decoder up by name at call time when given one, so a test that
    patches jsonio decodes through the patch."""
    if isinstance(decode, str):
        decode = getattr(jsonio, decode)
    try:
        return ("ok", decode(value))
    except Exception as exc:  # a decoder raising another class than its oracle differs
        return ("error", type(exc).__name__, str(exc))


def same(a, b) -> bool:
    """Equal outcomes: the same error, or equal objects of the same class
    whose rational coordinates are all Fractions."""
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    x, y = a[1], b[1]
    if type(x) is not type(y) or x != y:
        return False
    return not isinstance(x, PermPoint) or all(type(c) is Fraction for c in x.coords)


def differences(values):
    """(decoder name, value, new outcome, oracle outcome) for every value and
    every decoder whose outcome differs from its oracle's."""
    out = []
    for value in values:
        for name, oracle in ORACLES.items():
            new, old = outcome(name, value), outcome(oracle, value)
            if not same(new, old):
                out.append((name, value, new, old))
    return out
