"""CLI exit codes at the numeric and memory limits: oversized numbers and
failed allocations exit 2 with a one-line message, never a traceback (exit 1
is reserved for law counterexamples)."""
import hashlib
import io
import json
import tracemalloc

import pytest

import permutokit.cli as cli_mod
from permutokit.cli import main


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


# Windows whose candidate grid exceeds the row budget are refused before any
# array is allocated: 13^7 grid rows for the cone, (10^5 + 1)^3 for the sections.
OVERSIZED = {
    "cone-points-n8-bound6": (
        ["cone", "points", "--bound", "6"],
        {"p": {"ground": list(range(1, 9)), "rel": []}},
    ),
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
    assert "candidate rows, above the budget" in result[2]
    assert peak < 32 << 20


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
    assert err == "error: enumeration capped at 7 labels\n"


# `check` sizes past what the harness can sample or enumerate are refused
# before any law runs: compositions are drawn from the full list of the
# ground's (7087261 at 9 labels), and o-bullet enumerates its preposets.
CHECK_CAPS = {"sigma": 7, "bf": 7, "points": 7, "o-bullet": 5}


@pytest.mark.parametrize("instance, size", [
    ("sigma", 9), ("sigma", 8), ("bf", 12), ("points", 40), ("o-bullet", 6),
])
def test_check_size_past_its_cap_exits_two_before_any_law(monkeypatch, capsys, instance, size):
    def no_laws(*args, **kwargs):
        raise AssertionError("a law ran")

    monkeypatch.setattr(cli_mod, "check_all", no_laws)
    argv = ["check", instance, "--size", str(size), "--budget", "1"]
    code, out, err = run_cli(monkeypatch, capsys, argv, {})
    assert_one_line_error(code, out, err)
    assert f"capped at --size {CHECK_CAPS[instance]}" in err


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
# 7087261 at 9), and upward masks read a table over every subset of the
# ground: a payload past either cap is refused with one line. A subset
# function with too few values is refused by counting them, not by looking
# each of the 2^40 subsets up.
OVER_CAP = {
    "of-preposet-8-labels": (
        ["opens", "of-preposet"], {"p": {"ground": _labels(8)}},
        "open sets capped at 7 labels",
    ),
    "pullback-delta-empty-9-label-open": (
        ["opens", "pullback", "--via", "delta"],
        {"F": [_labels(9)], "U": {"shape": [_labels(9)], "orbits": []}},
        "open sets capped at 7 labels",
    ),
    # each lump is under the cap, but the product of their composition lists
    # has 47293^2 tuples
    "pullback-mu-two-7-label-lumps": (
        ["opens", "pullback", "--via", "mu"],
        {"F": [_labels(7), _labels(7, 8)], "U": {"shape": [_labels(14)], "orbits": []}},
        "open sets capped at 7 labels",
    ),
    "preposet-upward-13-labels": (
        ["preposet", "upward"], {"p": {"ground": _labels(13)}},
        "ground sets capped at 12 labels",
    ),
    "cone-contains-13-labels": (
        ["cone", "contains"],
        {"p": {"ground": _labels(13)}, "h": {"coords": {str(x): 0 for x in _labels(13)}}},
        "ground sets capped at 12 labels",
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
