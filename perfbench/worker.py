"""One fresh-process pass of a workload; run by run.py, not by hand.

The process imports the library from ./src of the current directory, warms
its caches, reports the set-up time, then (unless --setup-only) runs every
operation of the workload once, timing each call and checking each output
against expected.json outside the timed region. It prints one JSON object.

    python3 perfbench/worker.py --workload windows --seed 1 \
        --spawned-at <time.perf_counter() of the parent> [--trace 1]
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import dataclasses
import io
import itertools
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def _import_library():
    sys.path.insert(0, SRC)
    import permutokit

    origin = os.path.dirname(os.path.abspath(permutokit.__file__))
    if origin != os.path.join(SRC, "permutokit"):
        raise RuntimeError(f"permutokit imported from {origin}, not from {SRC}")
    from permutokit import (  # noqa: F401  (set-up includes importing every layer)
        _kernels, axioms, boolfun, cli, cones, jsonio, opens, plates, points,
        preposet, sections, setcomp,
    )
    return _kernels


def _subsets(labels):
    for r in range(len(labels) + 1):
        yield from itertools.combinations(labels, r)


def warm_up(workload):
    """Fill the caches the first timed operation would otherwise fill:
    the preposet lists, the composition lists and the zero-sum boxes."""
    from permutokit import _kernels, axioms, opens
    from permutokit.preposet import enumerate_preposets
    from permutokit.setcomp import GroundSet

    comp_caches = [getattr(m, "_comps", None) for m in (axioms, opens)]
    if workload == "laws":
        grounds, boxes = _subsets(range(1, 6)), ()
    elif workload == "windows":
        grounds = ()
        boxes = ((wl.WINDOW_N, wl.CONE_BOUND), (wl.WINDOW_N, wl.PLATE_BOUND))
    else:
        grounds = _subsets(range(1, 5))
        boxes = [(n, b) for n in range(1, 5) for b in range(1, 4)]
    for labels in grounds:
        g = GroundSet.of(labels)
        for fill in [enumerate_preposets] + [c for c in comp_caches if c is not None]:
            list(fill(g))
    for n, b in boxes:
        _kernels.zero_sum_box(n, b)


# ---------------------------------------------------------------------------
# operations


def _law_ops(spec_list, entry):
    from permutokit import axioms, opens
    from permutokit.setcomp import GroundSet

    check_all = entry(axioms.check_all)
    check_indexing = entry(opens.check_indexing)
    ground = {n: GroundSet.of(range(1, n + 1)) for n in range(1, 6)}
    ops = []
    for kind, inst, n, seed, budget in spec_list:
        if kind == "indexing":
            ops.append((kind, f"indexing/{n}", lambda g=ground[n]: check_indexing(g)))
            continue
        factory = axioms.INSTANCES[inst]
        key = f"{kind}/{inst}/{n}" if kind == "exhaustive" else f"{kind}/{inst}/{n}/{budget}"
        ops.append((kind, key, lambda f=factory, g=ground[n], s=seed, b=budget, e=kind == "exhaustive":
                    check_all(f(), g, seed=s, budget=b, exhaustive=e)))
    return ops


def _window_ops(spec_list, entry):
    from permutokit import cones, plates, sections
    from permutokit.boolfun import BooleanFunction
    from permutokit.preposet import Preposet
    from permutokit.setcomp import Composition, GroundSet

    cone_points = entry(cones.cone_lattice_points)
    plate_points = entry(plates.plate_lattice_points)
    global_sections = entry(sections.global_sections)
    sections_mul = entry(sections.sections_mul)

    g5 = GroundSet.of(range(1, wl.WINDOW_N + 1))
    perm5 = BooleanFunction(g5, tuple(wl.perm_table(wl.WINDOW_N)))
    sub5 = [BooleanFunction(g5, tuple(t)) for t in wl.sub5_pool()]
    g6 = GroundSet.of(range(1, 7))
    sub6 = [BooleanFunction(g6, tuple(t)) for t in wl.sub6_pool()]
    left, right = wl.smul_pools()
    gl, gr = GroundSet.of(wl.SMUL_LEFT), GroundSet.of(wl.SMUL_RIGHT)
    # the factors of a product are inputs, built untimed with the raw function
    left = [sections.global_sections(BooleanFunction(gl, tuple(t))) for t in left]
    right = [sections.global_sections(BooleanFunction(gr, tuple(t))) for t in right]

    ops = []
    for spec in spec_list:
        kind = spec[0]
        if kind == "cone":
            _, key, bound = spec
            p = Preposet.from_pairs(g5, wl.total_pairs(wl.parse_comp_key(key)))
            ops.append((kind, f"cone/{key}/{bound}",
                        lambda p=p, b=cones.Box(bound): cone_points(p, b)))
        elif kind in ("plate-perm", "plate-sub"):
            key, bound = spec[1], spec[2]
            H = Composition.of(wl.parse_comp_key(key))
            if kind == "plate-perm":
                z, name = perm5, f"plate-perm/{key}/{bound}"
            else:
                z, name = sub5[spec[3]], f"plate-sub/{spec[3]}/{key}/{bound}"
            ops.append((kind, name, lambda P=plates.Plate(H, z), b=cones.Box(bound): plate_points(P, b)))
        elif kind == "sections-perm":
            z = BooleanFunction(GroundSet.of(range(1, spec[1] + 1)), tuple(wl.perm_table(spec[1])))
            ops.append((kind, f"sections-perm/{spec[1]}", lambda z=z: global_sections(z)))
        elif kind == "sections-sub":
            ops.append((kind, f"sections-sub/{spec[1]}", lambda z=sub6[spec[1]]: global_sections(z)))
        else:
            _, i, j = spec
            ops.append((kind, f"sections-mul/{i}/{j}",
                        lambda a=left[i], b=right[j]: sections_mul(a, b)))
    return ops


def run_cli(main, argv, text):
    """Run one request through main() with in-memory stdin and stdout."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _cli_ops(spec_list, entry, counters=None):
    from permutokit import cli

    main = entry(cli.main)
    pool = wl.cli_pool()
    ops = []
    for _, i in spec_list:
        argv, text, malformed = pool[i]

        def op(argv=argv, text=text):
            if counters is not None:
                counters["jsonio.bytes_in"] += len(text.encode())
            return run_cli(main, argv, text)

        ops.append(("cli-malformed" if malformed else "cli", f"{i}", op))
    return ops


def build_ops(workload, spec_list, entry, counters=None):
    if workload == "laws":
        return _law_ops(spec_list, entry)
    if workload == "windows":
        return _window_ops(spec_list, entry)
    return _cli_ops(spec_list, entry, counters)


# ---------------------------------------------------------------------------
# checks


def check(workload, kind, key, result, expected):
    """Whether one output equals its stored expected value."""
    if workload == "laws":
        want = expected["laws"][key]
        if kind == "indexing":
            return bool(result.passed) and [result.checked_mul, result.checked_comul] == want
        got = wl.law_counts(result)
        return got == {law: (n, True) for law, n in want.items()}
    if workload == "windows":
        return wl.digest(repr(wl.point_rows(result))) == expected["windows"][key]
    code, out, err = result
    want = expected["cli"][int(key)]
    if want == "malformed":
        return code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
    return wl.digest(f"{code}\n{out}") == want


def corrupt(workload, kind, result):
    """A deliberately wrong copy of a result, for the self-test."""
    if workload == "laws":
        if kind == "indexing":
            return dataclasses.replace(result, checked_mul=result.checked_mul + 1)
        return [dataclasses.replace(result[0], checked=result[0].checked + 1)] + list(result[1:])
    if workload == "windows":
        rows = wl.point_rows(result)
        return rows[:-1] if rows else [(0,)]
    code, out, err = result
    return code, out + " ", err


# ---------------------------------------------------------------------------
# tracing counters


def _trace_hooks(counters):
    def count_points(name):
        def after(args, result, dt):
            counters[name] += len(getattr(result, "points", result))
        return after

    def enumerate_after(args, result, dt):
        counters["_kernels.enumerate_s"] += dt / 1e9

    def filter_after(args, mask, dt):
        cands, A = args[0], args[1]
        rows, n = cands.shape
        counters["_kernels.filter_s"] += dt / 1e9
        counters["_kernels.rows_enumerated"] += rows
        counters["_kernels.rows_kept"] += int(mask.sum())
        counters["_kernels.filter_macs"] += rows * len(A) * n
        counters["_kernels.cand_bytes"] += rows * n * 8

    def laws_after(args, reports, dt):
        counters["axioms.cases_checked"] += sum(r.checked for r in reports)

    def indexing_after(args, report, dt):
        counters["opens.identities_checked"] += report.checked_mul + report.checked_comul

    def dumps_after(args, text, dt):
        counters["jsonio.bytes_out"] += len(text.encode())

    return {
        "_kernels.zero_sum_box": enumerate_after,
        "_kernels.ranged_sum_box": enumerate_after,
        "_kernels.lattice_filter": filter_after,
        "cones.cone_lattice_points": count_points("cones.points_out"),
        "plates.plate_lattice_points": count_points("plates.points_out"),
        "sections.global_sections": count_points("sections.points_out"),
        "sections.sections_mul": count_points("sections.points_out"),
        "axioms.check_all": laws_after,
        "opens.check_indexing": indexing_after,
        "jsonio.dumps": dumps_after,
    }


def _time_section_bases(counters):
    """Charge the building and validating of SectionBasis to a timer."""
    from permutokit import sections

    cls = getattr(sections, "SectionBasis", None)
    if cls is None:
        return
    init = cls.__init__

    def timed_init(self, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            init(self, *args, **kwargs)
        finally:
            counters["sections.basis_s"] += (time.perf_counter_ns() - t0) / 1e9

    cls.__init__ = timed_init


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="one pass of a benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after the warm-up")
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--corrupt", type=int, default=-1, help="corrupt the result of this op")
    ap.add_argument("--limit", type=int, default=0, help="run only the first N ops")
    ap.add_argument("--spans", default=None, help="write the traced spans to this .npz")
    args = ap.parse_args(argv)

    kernels = _import_library()
    warm_up(args.workload)
    t_ready = time.perf_counter()
    setup_s = t_ready - (args.spawned_at if args.spawned_at is not None else _T_START)
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    from tracer import BENCH, Tracer

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    spec_list = wl.specs(args.workload, args.seed)
    if args.limit:
        spec_list = spec_list[: args.limit]

    tracer = Tracer() if args.trace else None
    counters = tracer.counters if tracer else None
    if tracer:
        tracer.wrap(_trace_hooks(counters))
        entry = tracer.entry
    else:
        entry = lambda fn: fn  # noqa: E731
    # inputs are built before patching, so building them records no spans
    ops = build_ops(args.workload, spec_list, entry, counters)
    roots = {}
    if tracer:
        for kind, _, _ in ops:
            if kind not in roots:
                roots[kind] = tracer.span(lambda f: f(), f"{BENCH}.{kind}", BENCH)
        tracer.patch()
        _time_section_bases(counters)

    clock = time.perf_counter_ns
    latencies = []
    failures = []
    for i, (kind, key, fn) in enumerate(ops):
        root = roots.get(kind)
        t0 = clock()
        try:
            result = root(fn) if root else fn()
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        latencies.append((t1 - t0) / 1e6)
        if error is None:
            if i == args.corrupt:
                result = corrupt(args.workload, kind, result)
            try:
                ok = check(args.workload, kind, key, result, expected)
            except Exception as exc:  # an output of the wrong shape is a failure
                ok, error = False, f"check raised {type(exc).__name__}: {exc}"
        if error is not None or not ok:
            failures.append(f"{key}: {error or 'output differs from the expected value'}")
        # free the output here, or the next operation's timer pays for it
        result = None

    out.update(
        wall_s=sum(latencies) / 1e3,
        latencies_ms=latencies,
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:10],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        use_numba=bool(getattr(kernels, "use_numba", False)),
        input_digest=wl.input_digest(spec_list),
    )
    if tracer:
        tracer.uninstall()
        stats = tracer.layer_stats()
        out["layer_stats"] = stats
        out["counters"] = dict(counters)
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
