"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

They check that the same seed gives the same inputs, that a corrupted
result is counted as failed, that the layer self times of a traced pass add
up to its wall time, that the stored expected values agree with the
independent oracles, and that the benchmark refuses to run without the
library. About a minute on two cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles as o  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(HERE, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def worker(workload, *extra, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), *extra],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_inputs():
    for w in wl.WORKLOADS:
        assert wl.input_digest(wl.specs(w, 3)) == wl.input_digest(wl.specs(w, 3)), w
        assert wl.input_digest(wl.specs(w, 3)) != wl.input_digest(wl.specs(w, 4)), w
    assert wl.cli_pool() == wl.cli_pool()
    r = worker("windows", "--limit", "30")
    assert r["input_digest"] == wl.input_digest(wl.specs("windows", 3)[:30])


def test_corrupted_result_is_counted_as_failed():
    for w, limit, bad in (("windows", 40, 7), ("cli", 60, 11), ("laws", 1, 0)):
        clean = worker(w, "--limit", str(limit))
        assert (clean["attempted"], clean["failed"]) == (limit, 0), (w, clean["failures"])
        broken = worker(w, "--limit", str(limit), "--corrupt", str(bad))
        assert (broken["attempted"], broken["failed"]) == (limit, 1), (w, broken["failures"])


def test_layer_self_times_add_up_to_traced_wall():
    for w, limit in (("windows", 200), ("cli", 150)):
        r = worker(w, "--limit", str(limit), "--trace", "1")
        stats = r["layer_stats"]
        self_sum = sum(v for k, v in stats.items() if k.endswith(".self_s"))
        assert abs(self_sum - stats["root_s"]) < 1e-6 * max(1.0, stats["root_s"]), (w, stats)
        # the op timer runs outside the root span, so it may only exceed it
        # by the root wrapper's own cost
        assert 0 <= r["wall_s"] - self_sum < 0.01 * r["wall_s"], (w, r["wall_s"], self_sum)
        if w == "windows":
            assert stats["jsonio.calls"] == 0 and stats["cli.calls"] == 0, stats


def test_stored_values_match_oracles():
    assert EXPECTED["permutohedron_sections"] == {
        str(n): c for n, c in zip(range(3, 7), (7, 38, 291, 2932))}
    for n in range(3, 7):
        assert o.forest_count(n) == EXPECTED["permutohedron_sections"][str(n)]
    exhaustive = EXPECTED["laws"]["exhaustive/o-bullet/3"]
    for law, count in o.exhaustive_law_counts(3).items():
        assert exhaustive[law] == count, law
    for n in wl.INDEXING_SIZES:
        assert tuple(EXPECTED["laws"][f"indexing/{n}"]) == o.indexing_counts(n), n
    assert EXPECTED["laws"]["indexing/4"] == [2090, 26700]
    win = EXPECTED["windows"]
    assert win["sections-perm/6"] == wl.digest(repr(o.sections(wl.perm_table(6), 6)))
    for j, table in enumerate(wl.sub6_pool()):
        assert win[f"sections-sub/{j}"] == wl.digest(repr(o.sections(table, 6))), j
    left, right = wl.smul_pools()
    nl, nr = len(wl.SMUL_LEFT), len(wl.SMUL_RIGHT)
    for i, tl in enumerate(left):
        for j, tr in enumerate(right):
            want = o.sections(o.product_table(tl, nl, tr, nr), nl + nr)
            assert win[f"sections-mul/{i}/{j}"] == wl.digest(repr(want)), (i, j)
    for F in wl.compositions(range(1, wl.WINDOW_N + 1))[::37]:
        key = wl.comp_key(F)
        assert win[f"cone/{key}/{wl.CONE_BOUND}"] == wl.digest(repr(o.cone_window(F, wl.CONE_BOUND)))
        want = o.plate_window(F, wl.perm_table(wl.WINDOW_N), wl.PLATE_BOUND)
        assert win[f"plate-perm/{key}/{wl.PLATE_BOUND}"] == wl.digest(repr(want))


def test_refuses_to_run_without_the_library():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
