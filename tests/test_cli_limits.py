"""CLI exit codes at the numeric and memory limits: oversized numbers and
failed allocations exit 2 with a one-line message, never a traceback (exit 1
is reserved for law counterexamples)."""
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import permutokit.cli as cli_mod
from permutokit import axioms
from permutokit.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(monkeypatch, capsys, argv, payload):
    return run_raw(monkeypatch, capsys, argv, json.dumps(payload))


def run_raw(monkeypatch, capsys, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def modular_z(weights):
    labels = list(range(1, len(weights) + 1))
    values = {}
    for m in range(1 << len(labels)):
        key = ",".join(str(x) for k, x in enumerate(labels) if m >> k & 1)
        values[key] = sum(w for k, w in enumerate(weights) if m >> k & 1)
    return {"ground": labels, "values": values}


def assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_plate_points_beyond_int64(monkeypatch, capsys):
    payload = {"H": [[1], [2], [3]], "z": modular_z([2**63, 0, -(2**63)])}
    assert_one_line_error(*run_cli(monkeypatch, capsys, ["plate", "points"], payload))


def test_plate_points_wraparound_window(monkeypatch, capsys):
    B = 2**62
    payload = {"H": [[1], [2], [3]], "z": modular_z([B, B - 1, -B])}
    argv = ["plate", "points", "--bound", "1"]
    assert_one_line_error(*run_cli(monkeypatch, capsys, argv, payload))


def test_overflow_error_exits_two(monkeypatch, capsys):
    # JSON 1e400 decodes to inf; int(inf) raises OverflowError
    payload = {"z": {"ground": [1], "values": {"": 0, "1": 1e400}}}
    code, out, err = run_cli(monkeypatch, capsys, ["sections", "count"], payload)
    assert_one_line_error(code, out, err)
    assert "infinity" in err


@pytest.mark.parametrize("e", [3_000_000, 30_000_000, 10**9])
def test_point_eval_past_the_bit_budget_exits_two(monkeypatch, capsys, e):
    # ±3,000,000 used to compute for a second, then fail to print; ±30,000,000
    # ran for longer than 20 s
    payload = {
        "x": {"orbit": [[1, 2]], "coords": {"1": "1", "2": "3/2"}},
        "H": [[1, 2]],
        "h": {"coords": {"1": -e, "2": e}},
    }
    code, out, err = run_cli(monkeypatch, capsys, ["point", "eval"], payload)
    assert_one_line_error(code, out, err)
    assert err == f"error: evaluation needs up to {6 * e} bits, above the budget of 1048576\n"


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 671. GiB for an array\nwith shape (1,)")

    row = cli_mod.COMMANDS["sections", "count"]._replace(keys=(), body=exhausted)
    monkeypatch.setitem(cli_mod.COMMANDS, ("sections", "count"), row)
    code, out, err = run_cli(monkeypatch, capsys, ["sections", "count"], {})
    assert_one_line_error(code, out, err)
    assert "671. GiB" in err


def test_bare_memory_error_names_itself(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    row = cli_mod.COMMANDS["cone", "points"]._replace(keys=(), body=exhausted)
    monkeypatch.setitem(cli_mod.COMMANDS, ("cone", "points"), row)
    code, out, err = run_cli(monkeypatch, capsys, ["cone", "points"], {})
    assert_one_line_error(code, out, err)
    assert err == "error: MemoryError\n"


# Windows whose candidate grid is over the work budget are refused before any
# array is allocated: 7 * 13^6 grid rows for the cone of the 8-label chain,
# whose up-sets pin the first label to [0, 6] and the last to [-6, 0], and
# (10^5 + 1)^3 for the sections.
CHAIN_8 = {"ground": list(range(1, 9)), "rel": [[a, b] for a in range(1, 9) for b in range(a + 1, 9)]}
OVERSIZED = {
    "cone-points-n8-bound6": (["cone", "points", "--bound", "6"], {"p": CHAIN_8}),
    "sections-count-singletons-1e5": (
        ["sections", "count"],
        {"z": {"ground": [1, 2, 3, 4], "values": {
            ",".join(str(x) for x in range(1, 5) if m >> (x - 1) & 1): 10**5 if m else 0
            for m in range(16)
        }}},
    ),
}


@pytest.mark.parametrize("argv, payload", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_window_exits_two_before_allocating(monkeypatch, capsys, argv, payload):
    tracemalloc.start()
    try:
        result = run_cli(monkeypatch, capsys, argv, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_one_line_error(*result)
    assert "candidate rows on" in result[2]
    assert "units of work, above the budget of 4194304" in result[2]
    assert peak < 32 << 20


def test_cone_window_pinned_by_its_up_sets_answers(monkeypatch, capsys):
    # every label and every complement of a label is an up-set of the
    # antichain, so each side is [0, 0]: one grid row, not 13^7 box rows
    payload = {"p": {"ground": list(range(1, 9)), "rel": []}}
    argv = ["cone", "points", "--bound", "6"]
    assert run_cli(monkeypatch, capsys, argv, payload) == (
        0, 'points: [{"coords": {"1": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0}}]\n', ""
    )
    code, _, err = run_cli(monkeypatch, capsys, argv, {"p": CHAIN_8})
    assert code == 2
    assert err == ("error: a window of 33787663 candidate rows on 8 labels needs 16893831 units"
                   " of work, above the budget of 4194304\n")


def test_sections_mul_with_empty_ground_factor(monkeypatch, capsys):
    payload = {
        "z1": {"ground": [], "values": {"": 0}},
        "z2": {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,2": 1}},
    }
    code, out, _ = run_cli(monkeypatch, capsys, ["sections", "mul", "--format", "json"], payload)
    assert code == 0
    assert json.loads(out)["points"] == [
        {"coords": {"1": 0, "2": 1}},
        {"coords": {"1": 1, "2": 0}},
    ]


# Malformed payloads are rejected where the JSON is decoded, so they exit 2
# with one line instead of escaping the handler as a TypeError,
# AttributeError or ZeroDivisionError.
MALFORMED = {
    "point-mul-zero-denominator": (
        ["point", "mul"],
        {
            "x1": {"orbit": [[1]], "coords": {"1": "1/0"}},
            "x2": {"orbit": [[2]], "coords": {"2": "1"}},
        },
    ),
    "point-eval-zero-denominator": (
        ["point", "eval"],
        {
            "x": {"orbit": [[1, 2]], "coords": {"1": "1", "2": "1/0"}},
            "H": [[1, 2]],
            "h": {"coords": {"1": 0, "2": 0}},
        },
    ),
    "comp-tits-array-label": (["comp", "tits"], {"F": [[1, [2]]], "G": [[1, 2]]}),
    "comp-tits-object-label": (["comp", "tits"], {"F": [[1, {"a": 1}]], "G": [[1, 2]]}),
    "comp-restrict-scalar-S": (["comp", "restrict"], {"F": [[1, 2]], "S": 5}),
    "comp-restrict-repeated-S": (["comp", "restrict"], {"F": [[1, 2]], "S": [1, 1]}),
    "comp-permute-string-image": (["comp", "permute"], {"F": [[1], [2]], "beta": [1, "a"]}),
    "comp-relabel-array-image": (["comp", "relabel"], {"sigma": {"1": [2]}, "F": [[1]]}),
    "comp-enumerate-array-label": (["comp", "enumerate"], {"ground": [1, [2]]}),
    "point-mul-coords-array": (
        ["point", "mul"],
        {"x1": {"orbit": [[1]], "coords": [1]}, "x2": {"orbit": [[2]], "coords": {"2": "1"}}},
    ),
    "preposet-upward-scalar-pair": (["preposet", "upward"], {"p": {"ground": [1, 2], "rel": [5]}}),
    "preposet-upward-scalar-rel": (["preposet", "upward"], {"p": {"ground": [1, 2], "rel": 5}}),
    "opens-pullback-scalar-orbit": (
        ["opens", "pullback", "--via", "mu"],
        {"F": [[1, 2]], "U": {"shape": [[1, 2]], "orbits": [5]}},
    ),
    "opens-pullback-scalar-orbits": (
        ["opens", "pullback", "--via", "mu"],
        {"F": [[1, 2]], "U": {"shape": [[1, 2]], "orbits": 5}},
    ),
    "point-mul-extra-coordinate": (
        ["point", "mul"],
        {
            "x1": {"orbit": [[1]], "coords": {"1": "1", "3": "2"}},
            "x2": {"orbit": [[2]], "coords": {"2": "1"}},
        },
    ),
    "point-mul-missing-coordinate": (
        ["point", "mul"],
        {
            "x1": {"orbit": [[1, 3]], "coords": {"1": "1"}},
            "x2": {"orbit": [[2]], "coords": {"2": "1"}},
        },
    ),
    "preposet-upward-foreign-rel-label": (
        ["preposet", "upward"],
        {"p": {"ground": [1, 2], "rel": [[1, 3]]}},
    ),
    "preposet-mul-foreign-rel-label": (
        ["preposet", "mul"],
        {"p": {"ground": [1], "rel": [[1, 3]]}, "q": {"ground": [2]}},
    ),
    "bf-mul-foreign-subset-label": (
        ["bf", "mul"],
        {
            "z1": {"ground": [1], "values": {"": 0, "1": 1, "1,3": 2}},
            "z2": {"ground": [2], "values": {"": 0, "2": 1}},
        },
    ),
    # `bottom` is JSON true or false, and a bottom has no relation pairs
    "cone-points-string-bottom": (
        ["cone", "points", "--bound", "1"],
        {"p": {"ground": [1, 2], "bottom": "false", "rel": [[1, 2]]}},
    ),
    "cone-points-array-bottom": (
        ["cone", "points", "--bound", "1"],
        {"p": {"ground": [1, 2], "bottom": [0], "rel": [[1, 2]]}},
    ),
    "cone-points-bottom-with-rel": (
        ["cone", "points", "--bound", "1"],
        {"p": {"ground": [1, 2], "bottom": True, "rel": [[1, 2], [2, 9]]}},
    ),
}


@pytest.mark.parametrize("argv, payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_payload_exits_two(monkeypatch, capsys, argv, payload):
    assert_one_line_error(*run_cli(monkeypatch, capsys, argv, payload))


@pytest.mark.parametrize(
    "case",
    [
        "point-mul-extra-coordinate",
        "point-mul-missing-coordinate",
        "preposet-upward-foreign-rel-label",
        "preposet-mul-foreign-rel-label",
        "bf-mul-foreign-subset-label",
    ],
)
def test_label_outside_the_ground_is_named(monkeypatch, capsys, case):
    _, _, err = run_cli(monkeypatch, capsys, *MALFORMED[case])
    assert "label 3" in err


# JSON nested past the interpreter's recursion limit is refused where stdin
# is decoded. Given as raw text: json.dumps itself recurses on such values.
DEEP = {
    "unclosed-arrays": "[" * 50_000,
    "envelope-with-deep-F": json.dumps({"schema": "permutokit/1", "F": None, "G": [[1]]}).replace(
        "null", "[" * 5_000 + "]" * 5_000
    ),
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deeply_nested_payload_exits_two(monkeypatch, capsys, text):
    code, out, err = run_raw(monkeypatch, capsys, ["comp", "tits"], text)
    assert_one_line_error(code, out, err)
    assert err == "error: stdin payload nests too deeply to decode\n"


# Two object keys that decode to one label ("1" and "01"), or to one subset
# ("1,2" and "2,1", or a key naming a label twice), are rejected instead of
# the last one silently winning.
DUPLICATE_KEYS = {
    "cone-contains-coords": (
        ["cone", "contains"],
        {"p": {"ground": [1, 2], "rel": []}, "h": {"coords": {"1": 7, "01": 0, "2": 0}}},
        "label 1 twice",
    ),
    "comp-relabel-sigma": (
        ["comp", "relabel"],
        {"sigma": {"01": 2, "1": 1, "2": 2}, "F": [[1], [2]]},
        "label 1 twice",
    ),
    "point-relabel-coords": (
        ["point", "relabel"],
        {
            "sigma": {"1": 1, "2": 2},
            "x": {"orbit": [[1, 2]], "coords": {"1": "1", "2": "3", " 2": "5"}},
        },
        "label 2 twice",
    ),
    "bf-is-gp-reordered-subset": (
        ["bf", "is-gp"],
        {"z": {"ground": [1, 2], "values": {"": 0, "1": 5, "2": 1, "1,2": 3, "2,1": 9}}},
        "'1,2' and '2,1'",
    ),
    "bf-is-gp-repeated-label": (
        ["bf", "is-gp"],
        {"z": {"ground": [1, 2], "values": {"": 0, "1": 5, "2": 1, "1,2": 3, "1,1": 0}}},
        "'1,1' repeats",
    ),
}


@pytest.mark.parametrize(
    "argv, payload, named", DUPLICATE_KEYS.values(), ids=DUPLICATE_KEYS.keys()
)
def test_keys_that_decode_alike_exit_two(monkeypatch, capsys, argv, payload, named):
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert_one_line_error(code, out, err)
    assert named in err


# Numbers where integers are required are rejected, not truncated or coerced
# (1.5 -> 1, "7" -> 7, true -> 1).
NON_INTEGERS = {
    "bf-mul-float-value": (
        ["bf", "mul"],
        {
            "z1": {"ground": [1], "values": {"": 0, "1": 1.5}},
            "z2": {"ground": [2], "values": {"": 0, "2": 1}},
        },
    ),
    "bf-mul-string-value": (
        ["bf", "mul"],
        {
            "z1": {"ground": [1], "values": {"": 0, "1": 1}},
            "z2": {"ground": [2], "values": {"": 0, "2": "7"}},
        },
    ),
    "sections-count-boolean-value": (
        ["sections", "count"],
        {"z": {"ground": [1], "values": {"": 0, "1": True}}},
    ),
    "cone-contains-half-coordinates": (
        ["cone", "contains"],
        {"p": {"ground": [1, 2], "rel": [[1, 2]]}, "h": {"coords": {"1": 0.5, "2": -0.5}}},
    ),
    "cone-contains-negated-half-coordinates": (
        ["cone", "contains"],
        {"p": {"ground": [1, 2], "rel": [[1, 2]]}, "h": {"coords": {"1": -0.5, "2": 0.5}}},
    ),
}


@pytest.mark.parametrize("argv, payload", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_non_integer_number_exits_two(monkeypatch, capsys, argv, payload):
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert_one_line_error(code, out, err)
    assert "must be a JSON integer" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "sigma", "--size", "-2"], "--size"),
        (["check", "sigma", "--budget", "-1"], "--budget"),
        (["comp", "enumerate", "--size", "-1"], "--size"),
        (["preposet", "enumerate", "--size", "-1"], "--size"),
        (["opens", "check-indexing", "--size", "-1"], "--size"),
    ],
)
def test_negative_count_exits_two(monkeypatch, capsys, argv, flag):
    code, out, err = run_cli(monkeypatch, capsys, argv, {})
    assert_one_line_error(code, out, err)
    assert err == f"error: {flag} must be nonnegative, got {argv[-1]}\n"


def test_negative_bound_keeps_its_message(monkeypatch, capsys):
    payload = {"p": {"ground": [1, 2], "rel": []}}
    code, out, err = run_cli(monkeypatch, capsys, ["cone", "points", "--bound", "-1"], payload)
    assert_one_line_error(code, out, err)
    assert err == "error: bound must be nonnegative\n"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["comp", "enumerate", "--size", "8"], {}),
        (["comp", "enumerate"], {"ground": list(range(1, 9))}),
    ],
    ids=["size-flag", "ground-payload"],
)
def test_composition_enumeration_is_capped(monkeypatch, capsys, argv, payload):
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert_one_line_error(code, out, err)
    assert err == (
        "error: listing the compositions of 8 labels needs 4912515 units of work,"
        " above the budget of 4194304\n"
    )


# `check` sizes past what the harness can sample or enumerate are refused
# before any law runs: compositions are drawn from the full list of the
# ground's (7087261 at 9 labels), and o-bullet enumerates its preposets.
# The refusal is check_all's own, so the guard sits where every law runs.
CHECK_CAPS = {"sigma": 7, "bf": 7, "points": 7, "o-bullet": 5}


@pytest.mark.parametrize("instance, size", [
    ("sigma", 9), ("sigma", 8), ("bf", 12), ("points", 40), ("o-bullet", 6),
])
def test_check_size_past_its_cap_exits_two_before_any_law(monkeypatch, capsys, instance, size):
    def no_laws(*args, **kwargs):
        raise AssertionError("a law ran")

    monkeypatch.setattr(axioms, "_report", no_laws)
    argv = ["check", instance, "--size", str(size), "--budget", "1"]
    code, out, err = run_cli(monkeypatch, capsys, argv, {})
    assert_one_line_error(code, out, err)
    listed = "scanning the 2^30 relations on" if instance == "o-bullet" else "listing the compositions of"
    assert f"{listed} {size} labels needs" in err


@pytest.mark.parametrize("instance", sorted(CHECK_CAPS))
def test_check_size_at_its_cap_runs(monkeypatch, capsys, instance):
    sizes = []
    monkeypatch.setattr(cli_mod, "check_all", lambda inst, ground, **kw: sizes.append(len(ground)) or [])
    argv = ["check", instance, "--size", str(CHECK_CAPS[instance])]
    assert run_cli(monkeypatch, capsys, argv, {})[0] == 0
    assert sizes == [CHECK_CAPS[instance]]


def test_cone_face_of_a_bottom_checks_the_split(monkeypatch, capsys):
    # S and T repeat a label, so they do not decompose the ground: a bottom p
    # is no exception to that check
    payload = {"p": {"ground": [1, 2], "bottom": True}, "S": [1], "T": [1]}
    code, out, err = run_cli(monkeypatch, capsys, ["cone", "face"], payload)
    assert_one_line_error(code, out, err)
    assert err == "error: S,T do not decompose the ground set\n"


def _labels(n, start=1):
    return list(range(start, start + n))


# Opens list orbits of the compositions of their labels (47293 at 7 labels,
# 7087261 at 9): a payload whose orbit tuples are over the work budget is
# refused with one line before any composition list is built. A subset
# function with too few values is refused by counting them, not by looking
# each of the 2^40 subsets up.
OVER_BUDGET = "units of work, above the budget of 4194304"
OVER_CAP = {
    "of-preposet-8-labels": (
        ["opens", "of-preposet"], {"p": {"ground": _labels(8)}},
        f"visiting the orbit tuples on 8 labels needs 4912515 {OVER_BUDGET}",
    ),
    "pullback-delta-empty-9-label-open": (
        ["opens", "pullback", "--via", "delta"],
        {"F": [_labels(9)], "U": {"shape": [_labels(9)], "orbits": []}},
        f"visiting the orbit tuples on 9 labels needs 70872610 {OVER_BUDGET}",
    ),
    # each lump is a 7-label list, but the product of their composition lists
    # has 47293^2 tuples
    "pullback-mu-two-7-label-lumps": (
        ["opens", "pullback", "--via", "mu"],
        {"F": [_labels(7), _labels(7, 8)], "U": {"shape": [_labels(14)], "orbits": []}},
        f"visiting the orbit tuples on 14 labels needs 33549417735 {OVER_BUDGET}",
    ),
    "bf-is-gp-40-labels-one-value": (
        ["bf", "is-gp"], {"z": {"ground": _labels(40), "values": {"": 0}}},
        "subset function is missing values for some subsets",
    ),
}


@pytest.mark.parametrize("argv, payload, message", OVER_CAP.values(), ids=OVER_CAP.keys())
def test_payload_past_a_cap_exits_two_before_any_composition_list(
    monkeypatch, capsys, argv, payload, message
):
    def no_list(ground):
        raise AssertionError("a composition list was built")

    monkeypatch.setattr("permutokit.opens._comps", no_list)
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert_one_line_error(code, out, err)
    assert err == f"error: {message}\n"


def test_long_labels_short_of_values_are_refused_within_the_payload_size(monkeypatch, capsys):
    """Decoding a subset function holds memory bounded by its payload, however
    long its labels: 12 labels of 40,000 characters with one value are
    refused as missing values."""
    labels = [f"{k:02d}" + "x" * 40_000 for k in range(12)]
    text = json.dumps({"z": {"ground": labels, "values": {"": 0}}})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        code = main(["bf", "is-gp"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: subset function is missing values for some subsets\n")
    assert peak < 4 * len(text)


# At the caps the answers are the same bytes as before the caps existed.
AT_CAP = {
    "of-preposet-7-labels": (
        ["opens", "of-preposet"], {"p": {"ground": _labels(7)}},
        "62254eaeb407f933efc44f21ce9ed9836ad2ad9b1cf77fa17b3d181ab3a5ef8b",
    ),
    "preposet-upward-12-labels": (
        ["preposet", "upward"], {"p": {"ground": _labels(12)}},
        "a49fa9dba05ea9f8029dd47158c5d71079bab80110e872ffcaff9e9cf0f34d73",
    ),
}


@pytest.mark.parametrize("argv, payload, sha256", AT_CAP.values(), ids=AT_CAP.keys())
def test_payload_at_a_cap_answers_unchanged(monkeypatch, capsys, argv, payload, sha256):
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_opens_of_distinct_preposets_are_not_kept(monkeypatch, capsys):
    """An in-process caller keeps no open it asked for: once the first 6-label
    request has filled the composition caches, further distinct one-pair
    preposets leave the memory retained flat (each cached open held about
    0.25 MiB here, and 3.3 MB at 7 labels, for the life of the process)."""
    retained = []
    tracemalloc.start()
    try:
        for pair in ([1, 2], [1, 3], [2, 4], [3, 6], [5, 4]):
            payload = {"p": {"ground": _labels(6), "rel": [pair]}}
            code, out, err = run_cli(monkeypatch, capsys, ["opens", "of-preposet"], payload)
            assert (code, err) == (0, "")
            out = None
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(retained[1:]) - retained[1] < 64 << 10


# Inputs refused by a size cap before the work budget, and now answered: a
# 13-label antichain's upward splits and cone membership read 2^13 subsets.
# Each answer is checked against a brute-force scan of every subset.
def _antichain_splits(n):
    """Every proper nonempty S of 1..n with its complement, in mask order:
    the upward splits of the antichain, which relates no label to another."""
    labels = _labels(n)
    return [
        [[x for k, x in enumerate(labels) if m >> k & 1], [x for k, x in enumerate(labels) if not m >> k & 1]]
        for m in range(1, (1 << n) - 1)
    ]


def _in_antichain_cone(coords):
    """Whether every proper nonempty subset sum of coords is at most zero."""
    n = len(coords)
    return all(
        sum(c for k, c in enumerate(coords) if m >> k & 1) <= 0 for m in range(1, (1 << n) - 1)
    )


def test_preposet_upward_on_13_labels_answers(monkeypatch, capsys):
    payload = {"p": {"ground": _labels(13)}}
    code, out, err = run_cli(monkeypatch, capsys, ["preposet", "upward", "--format", "json"], payload)
    assert (code, err) == (0, "")
    assert json.loads(out)["pairs"] == _antichain_splits(13)


@pytest.mark.parametrize(
    "coords", [[0] * 13, [1, -1] + [0] * 11, [-1] * 12 + [12]], ids=["zero", "one-pair", "spread"]
)
def test_cone_contains_on_13_labels_answers(monkeypatch, capsys, coords):
    payload = {
        "p": {"ground": _labels(13)},
        "h": {"coords": {str(x): c for x, c in zip(_labels(13), coords)}},
    }
    code, out, err = run_cli(monkeypatch, capsys, ["cone", "contains"], payload)
    assert (code, err) == (0, "")
    assert out == ("true\n" if _in_antichain_cone(coords) else "false\n")


def _section_z(n, cap, start=1):
    """z(A) = 3 * min(|A|, cap) on the labels start..start+n-1, as JSON."""
    labels = _labels(n, start)
    values = {
        ",".join(str(x) for k, x in enumerate(labels) if m >> k & 1): 3 * min(bin(m).count("1"), cap)
        for m in range(1 << n)
    }
    return {"ground": labels, "values": values}


def _permutohedron(n, start=1):
    """z(A) = n + (n - 1) + ... over |A| terms: the permutohedron on n labels."""
    labels = _labels(n, start)
    values = {
        ",".join(str(x) for k, x in enumerate(labels) if m >> k & 1): sum(range(n, n - bin(m).count("1"), -1))
        for m in range(1 << n)
    }
    return {"ground": labels, "values": values}


# `bf is-gp` compares n(n - 1)/2 * 2^(n - 2) squares of subsets: 16 labels
# (1966080) are inside the budget, 17 labels (4456448) are not.
@pytest.mark.parametrize("n, bumped, answer", [(12, False, "true"), (12, True, "false"),
                                               (16, False, "true")])
def test_is_gp_answers_on_up_to_16_labels(monkeypatch, capsys, n, bumped, answer):
    z = _permutohedron(n)
    if bumped:  # z({1}) raised breaks the squares whose bottom is {1}
        z["values"]["1"] += 2 * n
    assert run_cli(monkeypatch, capsys, ["bf", "is-gp"], {"z": z}) == (0, f"{answer}\n", "")


def test_is_gp_on_17_labels_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["bf", "is-gp"], {"z": _permutohedron(17)})
    assert_one_line_error(code, out, err)
    assert err == f"error: comparing the squares of subsets on 17 labels needs 4456448 {OVER_BUDGET}\n"


def _fail(what):
    def guard(*args, **kwargs):
        raise AssertionError(f"{what} was started")

    return guard


# Four payloads that ran until `timeout` ended them before the work budget,
# each with a guard on the work it must not start, and its estimate.
UNBOUNDED = {
    # 4^11 grid rows, each filtered over 2^12 subsets
    "sections-count-12-labels": (
        ["sections", "count"], {"z": _section_z(12, 6)},
        ("permutokit._kernels.exact_type", "a grid"),
        "a window of 4194304 candidate rows on 12 labels needs 33554432",
    ),
    # 2932^2 product rows, each guarded over 2^12 subsets
    "sections-mul-two-6-label-permutohedra": (
        ["sections", "mul"], {"z1": _permutohedron(6), "z2": _permutohedron(6, 7)},
        ("permutokit.sections.bf_mul", "a product"),
        "a product of 2932 by 2932 sections needs 68772992",
    ),
    # 2906411 exhaustive cases and 800 sampled ones, about 37 us each
    "check-sigma-5-exhaustive": (
        ["check", "sigma", "--size", "5", "--exhaustive"], {},
        ("permutokit.axioms._report", "a law"),
        "checking 2907211 law cases on 5 labels needs 26186499",
    ),
    # ten laws of 10^9 sampled cases each
    "check-sigma-3-budget-1e9": (
        ["check", "sigma", "--size", "3", "--budget", "1000000000"], {},
        ("permutokit.axioms._report", "a law"),
        "checking 10000000000 law cases on 3 labels needs 280000000000",
    ),
}


@pytest.mark.parametrize("argv, payload, guard, message", UNBOUNDED.values(), ids=UNBOUNDED.keys())
def test_unbounded_payload_exits_two_within_a_second(monkeypatch, capsys, argv, payload, guard, message):
    monkeypatch.setattr(guard[0], _fail(guard[1]))
    monkeypatch.setattr("permutokit.axioms._comps", _fail("a composition list"))
    t0 = time.perf_counter()
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    elapsed = time.perf_counter() - t0
    assert_one_line_error(code, out, err)
    assert err == f"error: {message} {OVER_BUDGET}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, payload, guard, message", UNBOUNDED.values(), ids=UNBOUNDED.keys())
def test_unbounded_payload_exits_two_through_the_module(argv, payload, guard, message):
    proc = subprocess.run(
        [sys.executable, "-m", "permutokit.cli", *argv],
        input=json.dumps(payload) if payload else "",
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message} {OVER_BUDGET}\n")


# A value whose numerator or denominator has more digits than the
# interpreter prints is refused with its size; (3/2)^9012 has a 4300-digit
# numerator, the most that prints.
def _eval_payload(e):
    return {
        "x": {"orbit": [[1, 2]], "coords": {"1": "1", "2": "3/2"}},
        "H": [[1, 2]],
        "h": {"coords": {"1": -e, "2": e}},
    }


@pytest.mark.parametrize("e, digits", [(20_000, 9543), (100_000, 47713)])
def test_point_eval_past_the_output_limit_exits_two(monkeypatch, capsys, e, digits):
    code, out, err = run_cli(monkeypatch, capsys, ["point", "eval"], _eval_payload(e))
    assert_one_line_error(code, out, err)
    assert err == f"error: the value has {digits} digits, above the output limit of 4300\n"


def test_point_eval_at_the_output_limit_prints(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["point", "eval"], _eval_payload(9012))
    assert (code, err) == (0, "")
    num, den = out.strip().split("/")
    assert (len(num), int(num), int(den)) == (4300, 3**9012, 2**9012)


def test_upward_masks_of_distinct_preposets_are_bounded(capsys):
    """`cone contains` keeps the upward masks of at most 1024 preposets: past
    that, further distinct 7-label preposets leave the memory retained flat.
    Each is the total preposet of a distinct four-lump composition, so each
    has 14 upward masks; unbounded, each one kept about 0.4 KiB for the
    life of the process."""
    from permutokit.setcomp import GroundSet, all_compositions

    compositions = (F.lumps for F in all_compositions(GroundSet.of(_labels(7))) if len(F.lumps) == 4)
    zero = {str(x): 0 for x in _labels(7)}
    retained = []
    # stdin is swapped by hand: monkeypatch keeps every value it replaced
    stdin = sys.stdin
    tracemalloc.start()
    try:
        for k, lumps in enumerate(itertools.islice(compositions, 1600), start=1):
            rel = [[a, b] for i, L in enumerate(lumps) for M in lumps[i:] for a in L for b in M if a != b]
            payload = {"p": {"ground": _labels(7), "rel": rel}, "h": {"coords": zero}}
            sys.stdin = io.StringIO(json.dumps(payload))
            code = main(["cone", "contains"])
            assert (code, *capsys.readouterr()) == (0, "true\n", "")
            if k in (1200, 1400, 1600):
                retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        sys.stdin = stdin
    assert max(retained) - retained[0] < 64 << 10


# Subset functions past 12 labels and opens past 7, refused by size caps
# before the work budget, answer when their work is inside it. Each answer is
# checked against a brute-force oracle over every subset or orbit pair.
def _table(labels, fn):
    """The subset function A -> fn(A) on labels, as JSON; fn(()) is 0."""
    n = len(labels)
    subsets = [tuple(x for k, x in enumerate(labels) if m >> k & 1) for m in range(1 << n)]
    return {"ground": labels, "values": {",".join(map(str, A)): fn(A) for A in subsets}}


def _square(A):
    return len(A) ** 2


def _mod7(A):
    return sum(A) % 7


def test_bf_mul_past_twelve_labels_answers(monkeypatch, capsys):
    payload = {"z1": _table(_labels(6), _square), "z2": _table(_labels(7, 7), _mod7)}
    code, out, err = run_cli(monkeypatch, capsys, ["bf", "mul", "--format", "json"], payload)
    assert (code, err) == (0, "")
    got = json.loads(out)["bf"]
    def z(A):  # z1(A ∩ S) + z2(A ∩ T)
        return _square([x for x in A if x <= 6]) + _mod7([x for x in A if x > 6])

    assert got == _table(_labels(13), z)


def test_bf_comul_past_twelve_labels_answers(monkeypatch, capsys):
    def z(A):
        return _square(A) + _mod7(A)

    S, T = _labels(6), _labels(7, 7)
    payload = {"z": _table(_labels(13), z), "S": S, "T": T}
    code, out, err = run_cli(monkeypatch, capsys, ["bf", "comul", "--format", "json"], payload)
    assert (code, err) == (0, "")
    # the S half is z restricted to S; the T half is A -> z(A + S) - z(S)
    assert json.loads(out)["parts"] == [_table(S, z), _table(T, lambda A: z(tuple(S) + A) - z(S))]


def test_opens_pullback_mu_past_seven_labels_answers(monkeypatch, capsys):
    from permutokit.setcomp import GroundSet, all_compositions, concatenate

    F = [_labels(4), _labels(4, 5)]
    payload = {"F": F, "U": {"shape": [_labels(8)], "orbits": [[[_labels(8)]]]}}
    argv = ["opens", "pullback", "--via", "mu", "--format", "json"]
    code, out, err = run_cli(monkeypatch, capsys, argv, payload)
    assert (code, err) == (0, "")
    # the pairs of compositions of the two lumps whose concatenation is in U
    pairs = itertools.product(*(all_compositions(GroundSet.of(lump)) for lump in F))
    expected = [[H.lumps, K.lumps] for H, K in pairs if concatenate(H, K).lumps == (tuple(_labels(8)),)]
    assert json.loads(out)["open"] == {"shape": F, "orbits": expected}
