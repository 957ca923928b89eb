"""Write perfbench/expected.json: the expected output of every operation any
seed can draw, each checked against an independent oracle where one exists.

    python3 perfbench/make_expected.py        # from the repository root

Law and indexing counts come from counting formulas (oracles.py) and must
equal what the library reports. Window outputs must equal the brute-force
window scans. Section counts of the n-permutohedra must equal the labeled
forest counts. CLI outputs are recorded from the library; malformed requests
must exit 2 with a one-line message, and request kinds that have an oracle
(section counts, enumeration sizes) are checked against it.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracles as o  # noqa: E402
import workloads as wl  # noqa: E402
from worker import run_cli  # noqa: E402


def _same(label, got, want):
    if got != want:
        raise SystemExit(f"{label}: library gives {got!r}, oracle {want!r}")


def laws():
    from permutokit.axioms import INSTANCES, check_all
    from permutokit.opens import check_indexing
    from permutokit.setcomp import GroundSet

    out = {}
    for inst, n in wl.LAW_EXHAUSTIVE:
        reports = check_all(INSTANCES[inst](), GroundSet.of(range(1, n + 1)), exhaustive=True)
        counts = wl.law_counts(reports)
        _same(f"exhaustive {inst} n={n} passed", all(p for _, p in counts.values()), True)
        for law, want in o.exhaustive_law_counts(n).items():
            _same(f"exhaustive {inst} n={n} {law}", counts[law][0], want)
        out[f"exhaustive/{inst}/{n}"] = {law: c for law, (c, _) in counts.items()}
    for inst, n, _, budget in wl.LAW_SAMPLED:
        reports = check_all(INSTANCES[inst](), GroundSet.of(range(1, n + 1)), seed=0, budget=budget)
        # a sampled law draws exactly `budget` cases
        _same(f"sampled {inst} n={n}", wl.law_counts(reports),
              {r.law: (budget, True) for r in reports})
        out[f"sampled/{inst}/{n}/{budget}"] = {r.law: budget for r in reports}
    for n in wl.INDEXING_SIZES:
        report = check_indexing(GroundSet.of(range(1, n + 1)))
        _same(f"indexing n={n}", (report.passed, report.checked_mul, report.checked_comul),
              (True,) + o.indexing_counts(n))
        out[f"indexing/{n}"] = list(o.indexing_counts(n))
    return out


def _rows_digest(label, got, want):
    _same(label, got, want)
    return wl.digest(repr(want))


def windows():
    from permutokit.boolfun import BooleanFunction
    from permutokit.cones import Box, cone_lattice_points
    from permutokit.plates import Plate, plate_lattice_points
    from permutokit.preposet import Preposet
    from permutokit.sections import global_sections, sections_mul
    from permutokit.setcomp import Composition, GroundSet

    out = {}
    n = wl.WINDOW_N
    g = GroundSet.of(range(1, n + 1))
    tables = {"perm": wl.perm_table(n)}
    tables.update({j: t for j, t in enumerate(wl.sub5_pool())})
    for F in wl.compositions(range(1, n + 1)):
        key = wl.comp_key(F)
        p = Preposet.from_pairs(g, wl.total_pairs(F))
        got = wl.point_rows(cone_lattice_points(p, Box(wl.CONE_BOUND)))
        out[f"cone/{key}/{wl.CONE_BOUND}"] = _rows_digest(
            f"cone {key}", got, o.cone_window(F, wl.CONE_BOUND))
        for name, table in tables.items():
            P = Plate(Composition.of(F), BooleanFunction(g, tuple(table)))
            got = wl.point_rows(plate_lattice_points(P, Box(wl.PLATE_BOUND)))
            want = o.plate_window(F, table, wl.PLATE_BOUND)
            k = (f"plate-perm/{key}/{wl.PLATE_BOUND}" if name == "perm"
                 else f"plate-sub/{name}/{key}/{wl.PLATE_BOUND}")
            out[k] = _rows_digest(k, got, want)
    for m in range(3, 7):
        z = BooleanFunction(GroundSet.of(range(1, m + 1)), tuple(wl.perm_table(m)))
        got = wl.point_rows(global_sections(z))
        _same(f"permutohedron n={m} forests", len(got), o.forest_count(m))
        digest = _rows_digest(f"permutohedron n={m}", got, o.sections(wl.perm_table(m), m))
        if m == 6:
            out["sections-perm/6"] = digest
    g6 = GroundSet.of(range(1, 7))
    for j, table in enumerate(wl.sub6_pool()):
        got = wl.point_rows(global_sections(BooleanFunction(g6, tuple(table))))
        out[f"sections-sub/{j}"] = _rows_digest(f"sections-sub {j}", got, o.sections(table, 6))
    left, right = wl.smul_pools()
    gl, gr = GroundSet.of(wl.SMUL_LEFT), GroundSet.of(wl.SMUL_RIGHT)
    nl, nr = len(wl.SMUL_LEFT), len(wl.SMUL_RIGHT)
    for i, tl in enumerate(left):
        for j, tr in enumerate(right):
            s = sections_mul(global_sections(BooleanFunction(gl, tuple(tl))),
                             global_sections(BooleanFunction(gr, tuple(tr))))
            want = o.sections(o.product_table(tl, nl, tr, nr), nl + nr)
            out[f"sections-mul/{i}/{j}"] = _rows_digest(
                f"sections-mul {i} {j}", wl.point_rows(s), want)
    return out


def cli():
    from permutokit.cli import main

    out = []
    for i, (argv, text, malformed) in enumerate(wl.cli_pool()):
        code, stdout, stderr = run_cli(main, argv, text)
        if malformed:
            ok = code == 2 and stdout == "" and stderr.count("\n") == 1 and stderr.startswith("error: ")
            _same(f"malformed request {i} {argv}", ok, True)
            out.append("malformed")
            continue
        _same(f"request {i} {argv} exit code", code, 0)
        _check_cli_oracle(i, argv, text, stdout)
        out.append(wl.digest(f"{code}\n{stdout}"))
    return out


def _check_cli_oracle(i, argv, text, stdout):
    is_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
    if argv[:2] == ["sections", "count"]:
        z = json.loads(text)["z"]
        labels = z["ground"]
        table = [z["values"][",".join(str(x) for k, x in enumerate(labels) if m >> k & 1)]
                 for m in range(1 << len(labels))]
        got = json.loads(stdout)["count"] if is_json else int(stdout)
        _same(f"request {i} section count", got, len(o.sections(table, len(labels))))
    elif argv[:2] == ["comp", "enumerate"] and is_json:
        size = int(argv[argv.index("--size") + 1])
        got = len(json.loads(stdout)["compositions"])
        _same(f"request {i} compositions", got, len(wl.compositions(range(size))))
    elif argv[:2] == ["preposet", "enumerate"] and is_json:
        size = int(argv[argv.index("--size") + 1])
        got = len(json.loads(stdout)["preposets"])
        want = o.preorder_count(size) + ("--augmented" in argv)
        _same(f"request {i} preposets", got, want)


def main():
    expected = {
        "about": "expected outputs for perfbench; regenerate with make_expected.py",
        "permutohedron_sections": {str(m): o.forest_count(m) for m in range(3, 7)},
        "laws": laws(),
        "windows": windows(),
        "cli": cli(),
    }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(expected['windows'])} window, {len(expected['cli'])} cli and "
          f"{len(expected['laws'])} law expectations")


if __name__ == "__main__":
    main()
