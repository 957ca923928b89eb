"""Command-line front end.

Payloads are JSON objects on stdin; results go to stdout. `--format json`
emits a versioned envelope; the default table form prints bare values for
scalar results and key/value lines otherwise.

Exit codes: 0 success (boolean query results are still success), 1 a law
violation or counterexample was found, 2 malformed input or usage error,
including numbers too large for exact evaluation and windows too large to
allocate.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .axioms import INSTANCES, check_all
from .boolfun import bf_comul, bf_equivalent, bf_mul, is_generalized_permutohedron
from .cones import Box, cone_contains, cone_face, cone_lattice_points
from .opens import check_indexing, open_of_preposet, pullback_delta, pullback_mu
from .plates import Plate, plate_contains, plate_F_face_contains, plate_lattice_points, window_center
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
    GroundSet,
    all_compositions,
    concatenate,
    hat_beta,
    permute_lumps,
    refines,
    relabel,
    restrict,
    tits_product,
)


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _ground_from(args, payload) -> GroundSet:
    if getattr(args, "size", None) is not None:
        return GroundSet.of(range(1, _count(args.size, "--size") + 1))
    if "ground" in payload:
        return jsonio.decode_ground(payload["ground"])
    raise ValueError("pass --size n or a 'ground' array on stdin")


def _need(payload: dict, *keys):
    for k in keys:
        if k not in payload:
            raise ValueError(f"stdin payload is missing {k!r}")
    return [payload[k] for k in keys]


def _need_labels(payload: dict, *keys) -> list:
    """The label arrays (S, T) of restrictions and coproducts, decoded."""
    return [jsonio.decode_labels(v, k) for k, v in zip(keys, _need(payload, *keys))]


def _not_bottom(p):
    if is_bottom(p):
        raise ValueError("operation undefined on the bottom element")
    return p


# ---------------------------------------------------------------------------
# handlers: (args, payload) -> (exit_code, result dict)


def _comp(args, payload):
    sub = args.sub
    dc = jsonio.decode_composition
    if sub == "tits":
        F, G = _need(payload, "F", "G")
        return 0, {"composition": jsonio.encode_composition(tits_product(dc(F), dc(G)))}
    if sub == "concat":
        F, G = _need(payload, "F", "G")
        return 0, {"composition": jsonio.encode_composition(concatenate(dc(F), dc(G)))}
    if sub == "restrict":
        (F,), (S,) = _need(payload, "F"), _need_labels(payload, "S")
        return 0, {"composition": jsonio.encode_composition(restrict(dc(F), S))}
    if sub == "refines":
        G, F = _need(payload, "G", "F")
        return 0, {"refines": refines(dc(G), dc(F))}
    if sub == "relabel":
        sig, F = _need(payload, "sigma", "F")
        out = relabel(jsonio.decode_bijection(sig), dc(F))
        return 0, {"composition": jsonio.encode_composition(out)}
    if sub == "permute":
        beta, F = _need(payload, "beta", "F")
        out = permute_lumps(jsonio.decode_perm(beta), dc(F))
        return 0, {"composition": jsonio.encode_composition(out)}
    if sub == "hat-beta":
        beta, F, G = _need(payload, "beta", "F", "G")
        out = hat_beta(jsonio.decode_perm(beta), dc(F), dc(G))
        return 0, {"perm": jsonio.encode_perm(out)}
    if sub == "enumerate":
        ground = _ground_from(args, payload)
        comps = [jsonio.encode_composition(F) for F in all_compositions(ground)]
        return 0, {"compositions": comps}
    raise AssertionError(sub)


def _preposet(args, payload):
    sub = args.sub
    dp = jsonio.decode_preposet
    if sub == "leq":
        q, p = _need(payload, "q", "p")
        return 0, {"leq": preposet_leq(dp(q), dp(p))}
    if sub == "mul":
        p, q = _need(payload, "p", "q")
        return 0, {"preposet": jsonio.encode_preposet(o_mul(dp(p), dp(q)))}
    if sub == "comul":
        (p,), (S, T) = _need(payload, "p"), _need_labels(payload, "S", "T")
        pS, pT = o_comul(dp(p), S, T)
        return 0, {"parts": [jsonio.encode_preposet(pS), jsonio.encode_preposet(pT)]}
    if sub == "total-of":
        (F,) = _need(payload, "F")
        out = total_of_composition(jsonio.decode_composition(F))
        return 0, {"preposet": jsonio.encode_preposet(out)}
    if sub == "comp-of":
        (p,) = _need(payload, "p")
        out = composition_of_total(_not_bottom(dp(p)))
        return 0, {"composition": jsonio.encode_composition(out)}
    if sub == "upward":
        (p,) = _need(payload, "p")
        pairs = upward_pairs(_not_bottom(dp(p)))
        return 0, {"pairs": [[list(S), list(T)] for S, T in pairs]}
    if sub == "enumerate":
        ground = _ground_from(args, payload)
        it = enumerate_aug_preposets(ground) if args.augmented else enumerate_preposets(ground)
        return 0, {"preposets": [jsonio.encode_preposet(p) for p in it]}
    raise AssertionError(sub)


def _cone(args, payload):
    sub = args.sub
    dp = jsonio.decode_preposet
    if sub == "points":
        (p,) = _need(payload, "p")
        pts = cone_lattice_points(dp(p), Box(args.bound))
        return 0, {"points": jsonio.encode_point_set(pts)}
    if sub == "contains":
        p, h = _need(payload, "p", "h")
        return 0, {"contains": cone_contains(dp(p), jsonio.decode_coweight(h))}
    if sub == "face":
        (p,), (S, T) = _need(payload, "p"), _need_labels(payload, "S", "T")
        return 0, {"preposet": jsonio.encode_preposet(cone_face(dp(p), S, T))}
    raise AssertionError(sub)


def _bf(args, payload):
    sub = args.sub
    dz = jsonio.decode_bf
    if sub == "mul":
        z1, z2 = _need(payload, "z1", "z2")
        return 0, {"bf": jsonio.encode_bf(bf_mul(dz(z1), dz(z2)))}
    if sub == "comul":
        (z,), (S, T) = _need(payload, "z"), _need_labels(payload, "S", "T")
        zS, zT = bf_comul(dz(z), S, T)
        return 0, {"parts": [jsonio.encode_bf(zS), jsonio.encode_bf(zT)]}
    if sub == "equiv":
        z1, z2 = _need(payload, "z1", "z2")
        shift = bf_equivalent(dz(z1), dz(z2))
        enc = None if shift is None else {str(k): v for k, v in shift.items()}
        return 0, {"equivalent": shift is not None, "shift": enc}
    if sub == "is-gp":
        (z,) = _need(payload, "z")
        return 0, {"submodular": is_generalized_permutohedron(dz(z))}
    raise AssertionError(sub)


def _plate(args, payload):
    sub = args.sub
    if sub in ("points", "contains", "face", "center"):
        H, z = _need(payload, "H", "z")
        P = Plate(jsonio.decode_composition(H), jsonio.decode_bf(z))
    if sub == "points":
        pts = plate_lattice_points(P, Box(args.bound))
        return 0, {"points": jsonio.encode_point_set(pts)}
    if sub == "contains":
        (h,) = _need(payload, "h")
        return 0, {"contains": plate_contains(P, jsonio.decode_affine_point(h))}
    if sub == "face":
        F, h = _need(payload, "F", "h")
        ok = plate_F_face_contains(
            P, jsonio.decode_composition(F), jsonio.decode_affine_point(h)
        )
        return 0, {"contains": ok}
    if sub == "center":
        return 0, {"point": jsonio.encode_affine_point(window_center(P))}
    raise AssertionError(sub)


def _sections(args, payload):
    sub = args.sub
    dz = jsonio.decode_bf
    if sub == "basis":
        (z,) = _need(payload, "z")
        return 0, jsonio.encode_section_basis(global_sections(dz(z)))
    if sub == "count":
        (z,) = _need(payload, "z")
        return 0, {"count": len(global_sections(dz(z)).points)}
    if sub == "mul":
        z1, z2 = _need(payload, "z1", "z2")
        out = sections_mul(global_sections(dz(z1)), global_sections(dz(z2)))
        return 0, jsonio.encode_section_basis(out)
    if sub == "comul":
        (z, h), (S, T) = _need(payload, "z", "h"), _need_labels(payload, "S", "T")
        word = sections_comul(global_sections(dz(z)), jsonio.decode_affine_point(h), S, T)
        return 0, jsonio.encode_tensor_word(word, jsonio.encode_affine_point)
    raise AssertionError(sub)


def _point(args, payload):
    sub = args.sub
    dx = jsonio.decode_point
    if sub == "mul":
        x1, x2 = _need(payload, "x1", "x2")
        return 0, {"point": jsonio.encode_point(point_mul(dx(x1), dx(x2)))}
    if sub == "comul":
        (x,), (S, T) = _need(payload, "x"), _need_labels(payload, "S", "T")
        xS, xT = point_comul(dx(x), S, T)
        return 0, {"parts": [jsonio.encode_point(xS), jsonio.encode_point(xT)]}
    if sub == "eval":
        x, H, h = _need(payload, "x", "H", "h")
        val = evaluate(
            dx(x), jsonio.decode_composition(H), jsonio.decode_coweight(h)
        )
        return 0, {"value": str(val)}
    if sub == "relabel":
        sig, x = _need(payload, "sigma", "x")
        out = point_relabel(jsonio.decode_bijection(sig), dx(x))
        return 0, {"point": jsonio.encode_point(out)}
    raise AssertionError(sub)


def _opens(args, payload):
    sub = args.sub
    if sub == "of-preposet":
        (p,) = _need(payload, "p")
        U = open_of_preposet(jsonio.decode_preposet(p))
        return 0, {"open": jsonio.encode_open(U)}
    if sub == "pullback":
        F, U = _need(payload, "F", "U")
        fn = pullback_delta if args.via == "delta" else pullback_mu
        out = fn(jsonio.decode_composition(F), jsonio.decode_open(U))
        return 0, {"open": jsonio.encode_open(out)}
    if sub == "check-indexing":
        ground = _ground_from(args, payload)
        report = check_indexing(ground)
        result = {
            "passed": report.passed,
            "checked_mul": report.checked_mul,
            "checked_comul": report.checked_comul,
            "counterexample": report.counterexample,
        }
        return (0 if report.passed else 1), result
    raise AssertionError(sub)


def _check(args, payload):
    if args.instance not in INSTANCES:
        raise ValueError(f"unknown instance {args.instance!r}")
    ground = GroundSet.of(range(1, _count(args.size, "--size") + 1))
    budget = _count(args.budget, "--budget")
    inst = INSTANCES[args.instance]()
    reports = check_all(inst, ground, seed=args.seed, budget=budget, exhaustive=args.exhaustive)
    result = {
        "reports": [
            {
                "law": r.law,
                "checked": r.checked,
                "passed": r.passed,
                "counterexample": r.counterexample,
            }
            for r in reports
        ]
    }
    return (0 if all(r.passed for r in reports) else 1), result


_GROUPS = {
    "comp": _comp,
    "preposet": _preposet,
    "cone": _cone,
    "bf": _bf,
    "plate": _plate,
    "sections": _sections,
    "point": _point,
    "opens": _opens,
    "check": _check,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later
    main() call in the process: parse_args returns a fresh Namespace and
    leaves the parser unchanged."""
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

    def group(name, subs, **extra):
        g = top.add_parser(name)
        sp = g.add_subparsers(dest="sub", required=True)
        for s in subs:
            p = sp.add_parser(s, parents=[common])
            for flag, kw in extra.get(s, ()):
                p.add_argument(flag, **kw)
        return g

    group(
        "comp",
        ("tits", "concat", "restrict", "refines", "relabel", "permute", "hat-beta", "enumerate"),
        **{"enumerate": (("--size", dict(type=int, default=None)),)},
    )
    group(
        "preposet",
        ("leq", "mul", "comul", "total-of", "comp-of", "upward", "enumerate"),
        **{
            "enumerate": (
                ("--size", dict(type=int, default=None)),
                ("--augmented", dict(action="store_true")),
            )
        },
    )
    group(
        "cone",
        ("points", "contains", "face"),
        **{"points": (("--bound", dict(type=int, default=3)),)},
    )
    group("bf", ("mul", "comul", "equiv", "is-gp"))
    group(
        "plate",
        ("points", "contains", "face", "center"),
        **{"points": (("--bound", dict(type=int, default=3)),)},
    )
    group("sections", ("basis", "count", "mul", "comul"))
    group("point", ("mul", "comul", "eval", "relabel"))
    group(
        "opens",
        ("of-preposet", "pullback", "check-indexing"),
        **{
            "pullback": (("--via", dict(choices=("delta", "mu"), required=True)),),
            "check-indexing": (("--size", dict(type=int, default=None)),),
        },
    )

    chk = top.add_parser("check", parents=[common])
    chk.add_argument("instance", choices=sorted(INSTANCES))
    chk.add_argument("--size", type=int, default=3)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--budget", type=int, default=200)
    chk.add_argument("--exhaustive", action="store_true")
    chk.set_defaults(sub=None)

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
        print(f"{k}: {json.dumps(result[k], sort_keys=True)}")


def _read_payload() -> dict:
    if sys.stdin is None or sys.stdin.isatty():
        return {}
    data = sys.stdin.read()
    if not data.strip():
        return {}
    obj = json.loads(data)
    jsonio.check_envelope(obj)
    if not isinstance(obj, dict):
        raise ValueError("stdin payload must be a JSON object")
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _GROUPS[args.group]
    try:
        payload = _read_payload() if args.group != "check" else {}
        code, result = handler(args, payload)
    except (ValueError, KeyError, OverflowError, MemoryError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(jsonio.dumps(jsonio.envelope(result)))
    else:
        _emit_table(result)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
