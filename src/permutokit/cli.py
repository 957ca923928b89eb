"""Command-line front end.

Payloads are JSON objects on stdin; results go to stdout. `--format json`
emits a versioned envelope; the default table form prints bare values for
scalar results and key/value lines otherwise. Each subcommand is one row
of COMMANDS, which builds both the argument parser and the dispatch.

Exit codes: 0 success (boolean query results are still success), 1 a law
violation or counterexample was found, 2 malformed input or usage error,
including numbers too large for exact evaluation or for printing and work
whose estimate is over the work budget (setcomp._charge), 141 (128 +
SIGPIPE) stdout was closed before the result was written.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import jsonio
from .axioms import INSTANCES, check_all
from .boolfun import bf_comul, bf_equivalent, bf_mul, is_generalized_permutohedron
from .cones import Box, cone_contains, cone_face, cone_lattice_points
from .opens import check_indexing, open_of_preposet, pullback_delta, pullback_mu
from .plates import (
    Plate,
    plate_contains,
    plate_F_face_contains,
    plate_lattice_points,
    window_center,
)
from .points import evaluate, point_comul, point_mul, point_relabel
from .preposet import (
    composition_of_total,
    enumerate_aug_preposets,
    enumerate_preposets,
    is_bottom,
    o_comul,
    o_mul,
    preposet_leq,
    total_of_composition,
    upward_pairs,
)
from .sections import global_sections, sections_comul, sections_mul
from .setcomp import (
    all_compositions,
    concatenate,
    ground_of_size,
    hat_beta,
    permute_lumps,
    refines,
    relabel,
    restrict,
    tits_product,
)


class Command(NamedTuple):
    """One subcommand. `keys` are the stdin payload keys it reads, in order:
    a name decoded through _DECODE, or a (name, decoder) pair. `body` is
    called as body(args, *decoded values) and returns the result object.
    `flags` are (flag, add_argument keywords) pairs for its parser."""

    keys: tuple
    body: Callable
    flags: tuple = ()


# Decoders and library functions are looked up by name when a command runs,
# not when the table is built, so a module patched after import (as the
# perfbench tracer patches each layer) is the one called.
_DECODE = {
    **dict.fromkeys("FGH", lambda v: jsonio.decode_composition(v)),
    **dict.fromkeys("pq", lambda v: jsonio.decode_preposet(v)),
    **dict.fromkeys(("z", "z1", "z2"), lambda v: jsonio.decode_bf(v)),
    **dict.fromkeys(("x", "x1", "x2"), lambda v: jsonio.decode_point(v)),
    "S": lambda v: jsonio.decode_labels(v, "S"),
    "T": lambda v: jsonio.decode_labels(v, "T"),
    "sigma": lambda v: jsonio.decode_bijection(v),
    "beta": lambda v: jsonio.decode_perm(v),
    "U": lambda v: jsonio.decode_open(v),
    "ground": lambda v: jsonio.decode_ground(v),
}
# "h" is a coweight in cones and orbit points, an affine point in plates and sections
_COWEIGHT = ("h", lambda v: jsonio.decode_coweight(v))
_AFFINE = ("h", lambda v: jsonio.decode_affine_point(v))

_SIZE = ("--size", dict(type=int, default=None))
_BOUND = ("--bound", dict(type=int, default=3))


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _values(args, keys: tuple) -> list:
    """The stdin payload's values at `keys`, decoded in order once the
    payload is known to hold every key and, besides "schema", no other.
    `--size n` stands in for a 'ground' array, and stdin is read only when
    some key has to come from it."""
    if "ground" in keys and args.size is not None:
        return [ground_of_size(_count(args.size, "--size"))]
    payload = _read_payload() if keys else {}  # `check` reads no stdin
    if "ground" in keys and "ground" not in payload:
        raise ValueError("pass --size n or a 'ground' array on stdin")
    named = [k if isinstance(k, tuple) else (k, _DECODE[k]) for k in keys]
    jsonio._fields(payload, "stdin payload", [k for k, _ in named], ("schema",))
    return [decode(payload[k]) for k, decode in named]


def _decimal(q) -> str:
    """A Fraction as text, refused with its size when a part has more digits
    than the interpreter prints (sys.get_int_max_str_digits, 4300 by default)."""
    try:
        return str(q)
    except ValueError:
        k = max(abs(q.numerator), q.denominator)
        low = int(math.log10(k))  # a float, off by at most one from the digits less one
        digits = next(d for d in (low, low + 1, low + 2) if k < 10**d)
        limit = f"above the output limit of {sys.get_int_max_str_digits()}"
        raise ValueError(f"the value has {digits} digits, {limit}") from None


def _not_bottom(p):
    if is_bottom(p):
        raise ValueError("operation undefined on the bottom element")
    return p


def _composition(F) -> dict:
    return {"composition": jsonio.encode_composition(F)}


def _preposet(p) -> dict:
    return {"preposet": jsonio.encode_preposet(p)}


def _point(x) -> dict:
    return {"point": jsonio.encode_point(x)}


def _window(points) -> dict:
    return {"points": jsonio.encode_point_set(points)}


def _parts(encode, parts) -> dict:
    """The two factors of a coproduct."""
    return {"parts": [encode(part) for part in parts]}


def _compositions(args, ground) -> dict:
    return {"compositions": [jsonio.encode_composition(F) for F in all_compositions(ground)]}


def _preposets(args, ground) -> dict:
    every = enumerate_aug_preposets if args.augmented else enumerate_preposets
    return {"preposets": [jsonio.encode_preposet(p) for p in every(ground)]}


def _upward(args, p) -> dict:
    return {"pairs": [[list(S), list(T)] for S, T in upward_pairs(_not_bottom(p))]}


def _equivalence(args, z1, z2) -> dict:
    shift = bf_equivalent(z1, z2)
    enc = None if shift is None else {str(k): v for k, v in shift.items()}
    return {"equivalent": shift is not None, "shift": enc}


def _pullback(args, F, U) -> dict:
    pullback = pullback_delta if args.via == "delta" else pullback_mu
    return {"open": jsonio.encode_open(pullback(F, U))}


def _check(args) -> dict:
    ground = ground_of_size(_count(args.size, "--size"))
    budget = _count(args.budget, "--budget")
    inst = INSTANCES[args.instance]()
    reports = check_all(inst, ground, seed=args.seed, budget=budget, exhaustive=args.exhaustive)
    return {"reports": [vars(r) for r in reports]}


COMMANDS = {
    ("comp", "tits"): Command(("F", "G"), lambda a, F, G: _composition(tits_product(F, G))),
    ("comp", "concat"): Command(("F", "G"), lambda a, F, G: _composition(concatenate(F, G))),
    ("comp", "restrict"): Command(("F", "S"), lambda a, F, S: _composition(restrict(F, S))),
    ("comp", "refines"): Command(("G", "F"), lambda a, G, F: {"refines": refines(G, F)}),
    ("comp", "relabel"): Command(("sigma", "F"), lambda a, s, F: _composition(relabel(s, F))),
    ("comp", "permute"): Command(("beta", "F"), lambda a, b, F: _composition(permute_lumps(b, F))),
    ("comp", "hat-beta"): Command(
        ("beta", "F", "G"), lambda a, b, F, G: {"perm": jsonio.encode_perm(hat_beta(b, F, G))}
    ),
    ("comp", "enumerate"): Command(("ground",), _compositions, (_SIZE,)),
    ("preposet", "leq"): Command(("q", "p"), lambda a, q, p: {"leq": preposet_leq(q, p)}),
    ("preposet", "mul"): Command(("p", "q"), lambda a, p, q: _preposet(o_mul(p, q))),
    ("preposet", "comul"): Command(
        ("p", "S", "T"), lambda a, p, S, T: _parts(jsonio.encode_preposet, o_comul(p, S, T))
    ),
    ("preposet", "total-of"): Command(("F",), lambda a, F: _preposet(total_of_composition(F))),
    ("preposet", "comp-of"): Command(
        ("p",), lambda a, p: _composition(composition_of_total(_not_bottom(p)))
    ),
    ("preposet", "upward"): Command(("p",), _upward),
    ("preposet", "enumerate"): Command(
        ("ground",), _preposets, (_SIZE, ("--augmented", dict(action="store_true")))
    ),
    ("cone", "points"): Command(
        ("p",), lambda a, p: _window(cone_lattice_points(p, Box(a.bound))), (_BOUND,)
    ),
    ("cone", "contains"): Command(
        ("p", _COWEIGHT), lambda a, p, h: {"contains": cone_contains(p, h)}
    ),
    ("cone", "face"): Command(("p", "S", "T"), lambda a, p, S, T: _preposet(cone_face(p, S, T))),
    ("bf", "mul"): Command(("z1", "z2"), lambda a, y, z: {"bf": jsonio.encode_bf(bf_mul(y, z))}),
    ("bf", "comul"): Command(
        ("z", "S", "T"), lambda a, z, S, T: _parts(jsonio.encode_bf, bf_comul(z, S, T))
    ),
    ("bf", "equiv"): Command(("z1", "z2"), _equivalence),
    ("bf", "is-gp"): Command(("z",), lambda a, z: {"submodular": is_generalized_permutohedron(z)}),
    ("plate", "points"): Command(
        ("H", "z"), lambda a, H, z: _window(plate_lattice_points(Plate(H, z), Box(a.bound))),
        (_BOUND,),
    ),
    ("plate", "contains"): Command(
        ("H", "z", _AFFINE), lambda a, H, z, h: {"contains": plate_contains(Plate(H, z), h)}
    ),
    ("plate", "face"): Command(
        ("H", "z", "F", _AFFINE),
        lambda a, H, z, F, h: {"contains": plate_F_face_contains(Plate(H, z), F, h)},
    ),
    ("plate", "center"): Command(
        ("H", "z"),
        lambda a, H, z: {"point": jsonio.encode_affine_point(window_center(Plate(H, z)))},
    ),
    ("sections", "basis"): Command(
        ("z",), lambda a, z: jsonio.encode_section_basis(global_sections(z))
    ),
    ("sections", "count"): Command(("z",), lambda a, z: {"count": len(global_sections(z).points)}),
    ("sections", "mul"): Command(
        ("z1", "z2"),
        lambda a, z1, z2: jsonio.encode_section_basis(
            sections_mul(global_sections(z1), global_sections(z2))
        ),
    ),
    ("sections", "comul"): Command(
        ("z", _AFFINE, "S", "T"),
        lambda a, z, h, S, T: jsonio.encode_tensor_word(
            sections_comul(global_sections(z), h, S, T), jsonio.encode_affine_point
        ),
    ),
    ("point", "mul"): Command(("x1", "x2"), lambda a, x1, x2: _point(point_mul(x1, x2))),
    ("point", "comul"): Command(
        ("x", "S", "T"), lambda a, x, S, T: _parts(jsonio.encode_point, point_comul(x, S, T))
    ),
    ("point", "eval"): Command(
        ("x", "H", _COWEIGHT), lambda a, x, H, h: {"value": _decimal(evaluate(x, H, h))}
    ),
    ("point", "relabel"): Command(("sigma", "x"), lambda a, s, x: _point(point_relabel(s, x))),
    ("opens", "of-preposet"): Command(
        ("p",), lambda a, p: {"open": jsonio.encode_open(open_of_preposet(p))}
    ),
    ("opens", "pullback"): Command(
        ("F", "U"), _pullback, (("--via", dict(choices=("delta", "mu"), required=True)),)
    ),
    ("opens", "check-indexing"): Command(
        ("ground",), lambda a, ground: vars(check_indexing(ground)), (_SIZE,)
    ),
    ("check",): Command((), _check, (
        ("instance", dict(choices=sorted(INSTANCES))),
        ("--size", dict(type=int, default=3)),
        ("--seed", dict(type=int, default=0)),
        ("--budget", dict(type=int, default=200)),
        ("--exhaustive", dict(action="store_true")),
    )),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS, built on first use and shared by every
    later main() call in the process: parse_args returns a fresh Namespace
    and leaves the parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="output form (default: table)",
    )

    parser = argparse.ArgumentParser(
        prog="permutokit",
        description="exact combinatorial calculator for compositions, "
        "preposets, cones, subset functions, plates, sections, orbit "
        "points, and open unions",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for words, command in COMMANDS.items():
        group, *sub = words
        if not sub:
            leaf = top.add_parser(group, parents=[common])
        else:
            if group not in groups:
                groups[group] = top.add_parser(group).add_subparsers(dest="sub", required=True)
            leaf = groups[group].add_parser(sub[0], parents=[common])
        for flag, kw in command.flags:
            leaf.add_argument(flag, **kw)
        leaf.set_defaults(command=words)
    return parser


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_table(result: dict) -> None:
    if "reports" in result and isinstance(result["reports"], list):
        rows = result["reports"]
        width = max((len(r["law"]) for r in rows), default=0)
        for r in rows:
            status = "pass" if r["passed"] else "FAIL"
            line = f"{r['law']:<{width}}  {r['checked']:>6}  {status}"
            if r["counterexample"]:
                line += f"  {r['counterexample']}"
            print(line)
        return
    keys = list(result)
    if len(keys) == 1 and isinstance(result[keys[0]], (bool, int, str)):
        print(_scalar_text(result[keys[0]]))
        return
    for k in sorted(keys):
        print(f"{k}: {jsonio.COMPACT.encode(result[k])}")


def _read_payload() -> dict:
    if sys.stdin is None or sys.stdin.isatty():
        return {}
    data = sys.stdin.read()
    if not data.strip():
        return {}
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("stdin payload nests too deeply to decode") from None
    jsonio.check_envelope(obj)
    if not isinstance(obj, dict):
        raise ValueError("stdin payload must be a JSON object")
    return obj


# Distinct argument vectors whose parse is kept: a request's shape repeats in
# argv while its data varies on stdin.
_PARSED_MAX = 256


@functools.lru_cache(maxsize=_PARSED_MAX)
def _parsed(parser: argparse.ArgumentParser, argv: tuple) -> argparse.Namespace:
    """parser's Namespace for argv. Keyed on the parser too, so a rebuilt
    parser parses afresh. `--help` and usage errors raise SystemExit, which
    is never stored, so they print every time."""
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = tuple(sys.argv[1:] if argv is None else argv)
    # a copy, so a body that sets an attribute leaves the stored parse as it was
    args = argparse.Namespace(**vars(_parsed(_build_parser(), argv)))
    command = COMMANDS[args.command]
    try:
        result = command.body(args, *_values(args, command.keys))
    except (ValueError, KeyError, OverflowError, MemoryError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(jsonio.dumps(jsonio.envelope(result)))
        else:
            _emit_table(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (`| head`). Send what is still buffered to
        # devnull, so the interpreter's flush at exit raises no second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    # 1 when a law report or an indexing identity failed
    return 0 if all(r.get("passed", True) for r in result.get("reports", [result])) else 1


if __name__ == "__main__":
    raise SystemExit(main())
