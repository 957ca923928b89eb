"""JSON round-trips for every value type, the output envelope, and the
command-line front end run in-process through main()."""
import dataclasses
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permutokit.cli as cli_mod
from permutokit import jsonio
from permutokit.axioms import sigma_instance
from permutokit.boolfun import BooleanFunction
from permutokit.cli import main
from permutokit.cones import CoweightVector
from permutokit.opens import open_of_preposet
from permutokit.plates import AffinePoint
from permutokit.points import PermPoint
from permutokit.preposet import Bottom, Preposet
from permutokit.sections import TensorWord
from permutokit.setcomp import Bijection, Composition, GroundSet, Perm, restrict
from test_cli_commands import CHECK_ARGV, REQUESTS

import permutokit

G3 = GroundSet.of([1, 2, 3])


def comp(*lumps):
    return Composition.of([list(l) for l in lumps])


def bf(ground_labels, table):
    g = GroundSet.of(ground_labels)
    n = len(g)
    vals = []
    for mask in range(1 << n):
        key = frozenset(g.labels[k] for k in range(n) if mask >> k & 1)
        vals.append(table[key])
    return BooleanFunction(g, tuple(vals))


PERM3 = {
    frozenset(): 0,
    frozenset({1}): 3, frozenset({2}): 3, frozenset({3}): 3,
    frozenset({1, 2}): 5, frozenset({1, 3}): 5, frozenset({2, 3}): 5,
    frozenset({1, 2, 3}): 6,
}


def perm3_json():
    return {
        "ground": [1, 2, 3],
        "values": {
            "": 0, "1": 3, "2": 3, "3": 3,
            "1,2": 5, "1,3": 5, "2,3": 5, "1,2,3": 6,
        },
    }


# JSON values as the CLI emits them: str keys; strings with quotes,
# backslashes, control and non-ASCII characters; ints past 2^63; tuples
# beside lists; empty containers at any depth.
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e') | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestEnvelope:
    def test_envelope_carries_schema(self):
        assert jsonio.envelope({"x": 1}) == {"schema": "permutokit/1", "x": 1}

    def test_check_envelope_accepts_matching_or_absent_schema(self):
        jsonio.check_envelope({"schema": "permutokit/1"})
        jsonio.check_envelope({"no": "schema"})
        jsonio.check_envelope([1, 2])

    def test_check_envelope_rejects_other_versions(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            jsonio.check_envelope({"schema": "permutokit/9"})

    def test_dumps_is_sorted_and_reparseable(self):
        text = jsonio.dumps(jsonio.envelope({"b": 1, "a": [2, 3]}))
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"schema": "permutokit/1", "a": [2, 3], "b": 1}

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(JSON_VALUES)
    def test_dumps_matches_json_dumps_byte_for_byte(self, value):
        assert jsonio.dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_dumps_refuses_what_json_cannot_encode(self):
        for value in ({"x": {1, 2}}, [object()]):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                jsonio.dumps(value)

    def test_parse_label_restores_integer_keys(self):
        assert jsonio.parse_label("7") == 7
        assert jsonio.parse_label("x1") == "x1"


class TestRoundTrips:
    def test_ground(self):
        assert jsonio.decode_ground(jsonio.encode_ground(G3)) == G3
        with pytest.raises(ValueError):
            jsonio.decode_ground({"not": "a list"})

    def test_composition(self):
        F = comp([2, 3], [1])
        assert jsonio.decode_composition(jsonio.encode_composition(F)) == F
        with pytest.raises(ValueError):
            jsonio.decode_composition([1, 2])

    def test_bijection(self):
        sig = Bijection.of({1: 2, 2: 3, 3: 1})
        assert jsonio.decode_bijection({"1": 2, "2": 3, "3": 1}) == sig
        with pytest.raises(ValueError):
            jsonio.decode_bijection([[1, 2]])

    def test_perm(self):
        beta = Perm((2, 3, 1))
        assert jsonio.decode_perm(jsonio.encode_perm(beta)) == beta

    def test_preposet_and_bottom(self):
        p = Preposet.from_pairs(G3, [(1, 2), (1, 3)])
        assert jsonio.decode_preposet(jsonio.encode_preposet(p)) == p
        b = Bottom(G3)
        assert jsonio.decode_preposet(jsonio.encode_preposet(b)) == b
        with pytest.raises(ValueError):
            jsonio.decode_preposet({"rel": []})

    def test_preposet_relation_is_sorted_in_output(self):
        p = Preposet.from_pairs(G3, [(3, 1), (2, 1)])
        enc = jsonio.encode_preposet(p)
        assert enc["rel"] == sorted(enc["rel"])

    def test_coweight(self):
        h = CoweightVector.of(G3, {1: 2, 2: -1, 3: -1})
        assert jsonio.decode_coweight(jsonio.encode_coweight(h)) == h

    def test_affine_point(self):
        h = AffinePoint.of(G3, {1: 3, 2: 2, 3: 1})
        assert jsonio.decode_affine_point(jsonio.encode_affine_point(h)) == h
        with pytest.raises(ValueError):
            jsonio.decode_affine_point({"coords": [1, 2]})

    def test_one_codec_for_both_point_classes(self):
        g = GroundSet.of([1, "a"])
        h, a = CoweightVector(g, (2, -2)), AffinePoint(g, (2, -2))
        assert jsonio.encode_coweight(h) == jsonio.encode_affine_point(a)
        assert jsonio.encode_coweight(h) == {"coords": {"1": 2, "a": -2}}
        assert type(jsonio.decode_coweight(jsonio.encode_coweight(h))) is CoweightVector
        assert type(jsonio.decode_affine_point(jsonio.encode_coweight(h))) is AffinePoint
        # integral Fractions are written as integers, as before
        assert jsonio.encode_coweight(AffinePoint(g, (Fraction(4, 2), 5))) == {
            "coords": {"1": 2, "a": 5}
        }

    @pytest.mark.parametrize(
        "point",
        [
            CoweightVector(GroundSet.of([1, 2]), (Fraction(1, 2), Fraction(-1, 2))),
            AffinePoint(GroundSet.of([1, 2]), (0, Fraction(7, 2))),
            AffinePoint(GroundSet.of([1, 2]), (4, 2.9)),
        ],
    )
    def test_non_integral_coordinate_is_named_not_truncated(self, point):
        label = next(x for x, v in zip(point.ground, point.coords) if v != int(v))
        with pytest.raises(ValueError, match=f"coordinate {label!r} is not an integer"):
            jsonio.encode_coweight(point)
        with pytest.raises(ValueError, match=f"coordinate {label!r} is not an integer"):
            jsonio.encode_affine_point(point)

    def test_boolean_function(self):
        z = bf([1, 2, 3], PERM3)
        assert jsonio.decode_bf(jsonio.encode_bf(z)) == z

    def test_boolean_function_requires_every_subset(self):
        broken = perm3_json()
        del broken["values"]["1,2"]
        with pytest.raises(ValueError, match="missing values"):
            jsonio.decode_bf(broken)
        with pytest.raises(ValueError):
            jsonio.decode_bf({"values": {}})

    def test_tensor_word(self):
        assert jsonio.encode_tensor_word(TensorWord.zero(), jsonio.encode_affine_point) == {
            "zero": True
        }
        h = AffinePoint.of(GroundSet.of([1]), {1: 3})
        enc = jsonio.encode_tensor_word(TensorWord((h,)), jsonio.encode_affine_point)
        assert enc == {"parts": [{"coords": {"1": 3}}]}

    def test_point(self):
        x = PermPoint.of(comp([1, 3], [2]), {1: 1, 2: Fraction(3, 4), 3: Fraction(-2, 5)})
        assert jsonio.decode_point(jsonio.encode_point(x)) == x

    def test_point_decoding_normalizes(self):
        obj = {"orbit": [[1], [2]], "coords": {"1": "2", "2": "3/4"}}
        x = jsonio.decode_point(obj)
        assert x == PermPoint.of(comp([1], [2]), {1: 1, 2: 1})

    def test_open(self):
        U = open_of_preposet(Preposet.from_pairs(G3, []))
        assert jsonio.decode_open(jsonio.encode_open(U)) == U
        with pytest.raises(ValueError):
            jsonio.decode_open({"shape": [[1]]})


class TestStrictDecoding:
    """Integer fields take JSON integers only; labels are integers or
    strings. Nothing is truncated or coerced."""

    @pytest.mark.parametrize("v", [1.5, 2.0, "7", True, None, [1]])
    def test_subset_function_values_must_be_integers(self, v):
        with pytest.raises(ValueError, match="JSON integer"):
            jsonio.decode_bf({"ground": [1], "values": {"": 0, "1": v}})

    @pytest.mark.parametrize("decode", [jsonio.decode_coweight, jsonio.decode_affine_point])
    def test_coordinates_must_be_integers(self, decode):
        with pytest.raises(ValueError, match="JSON integer"):
            decode({"coords": {"1": 0.5, "2": -0.5}})
        with pytest.raises(ValueError, match="JSON integer"):
            decode({"coords": {"1": "1", "2": -1}})

    def test_non_finite_values_overflow(self):
        with pytest.raises(OverflowError, match="infinity"):
            jsonio.decode_bf({"ground": [1], "values": {"": 0, "1": float("inf")}})

    def test_permutation_images_must_be_integers(self):
        with pytest.raises(ValueError, match="JSON integer"):
            jsonio.decode_perm([1, "a"])
        with pytest.raises(ValueError, match="JSON integer"):
            jsonio.decode_perm([True, 2])

    @pytest.mark.parametrize("bad", [[2], {"a": 1}, 1.5, None, True])
    def test_labels_are_integers_or_strings(self, bad):
        with pytest.raises(ValueError, match="label"):
            jsonio.decode_composition([[1, bad]])
        with pytest.raises(ValueError, match="label"):
            jsonio.decode_ground([1, bad])
        with pytest.raises(ValueError, match="label"):
            jsonio.decode_bijection({"1": bad})
        with pytest.raises(ValueError, match="label"):
            jsonio.decode_preposet({"ground": [1, 2], "rel": [[1, bad]]})

    def test_mixed_int_and_string_labels_still_decode(self):
        F = jsonio.decode_composition([["a", 1], [2]])
        assert F == Composition.of([[1, "a"], [2]])
        assert jsonio.decode_labels(["x", 3], "S") == ["x", 3]

    def test_label_arrays_must_be_arrays(self):
        with pytest.raises(ValueError, match="S must be an array"):
            jsonio.decode_labels(5, "S")

    def test_preposet_relation_holds_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            jsonio.decode_preposet({"ground": [1, 2], "rel": [[1, 2, 1]]})

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            jsonio.decode_point({"orbit": [[1]], "coords": {"1": "1/0"}})

    def test_open_orbits_are_arrays(self):
        with pytest.raises(ValueError, match="orbit"):
            jsonio.decode_open({"shape": [[1]], "orbits": [5]})


# ---------------------------------------------------------------------------
# CLI


def run_cli(monkeypatch, capsys, argv, payload=None):
    if payload is None:
        text = ""
    elif isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCliBasics:
    def test_comp_tits(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["comp", "tits"],
            {"F": [[1, 2], [3]], "G": [[3], [1, 2]]},
        )
        assert code == 0
        assert out.strip() == "composition: [[1, 2], [3]]"

    def test_comp_enumerate_size_three(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["comp", "enumerate", "--size", "3", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "permutokit/1"
        assert len(doc["compositions"]) == 13

    def test_preposet_comul_emits_bottom_parts(self, monkeypatch, capsys):
        payload = {"p": {"ground": [1, 2], "rel": [[2, 1]]}, "S": [1], "T": [2]}
        code, out, _ = run_cli(
            monkeypatch, capsys, ["preposet", "comul", "--format", "json"], payload
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["parts"] == [
            {"bottom": True, "ground": [1]},
            {"bottom": True, "ground": [2]},
        ]

    def test_cone_points_bound_zero_is_origin_only(self, monkeypatch, capsys):
        payload = {"p": {"ground": [1, 2, 3], "rel": [[1, 2]]}}
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["cone", "points", "--bound", "0", "--format", "json"],
            payload,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == [{"coords": {"1": 0, "2": 0, "3": 0}}]

    def test_bf_is_gp_prints_bare_boolean(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["bf", "is-gp"], {"z": perm3_json()})
        assert code == 0
        assert out.strip() == "true"

    def test_sections_count_prints_bare_seven(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["sections", "count"], {"z": perm3_json()}
        )
        assert code == 0
        assert out.strip() == "7"

    def test_sections_comul_zero_and_parts(self, monkeypatch, capsys):
        base = {"z": perm3_json(), "S": [1], "T": [2, 3]}
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["sections", "comul", "--format", "json"],
            {**base, "h": {"coords": {"1": 3, "2": 2, "3": 1}}},
        )
        assert code == 0
        assert json.loads(out)["parts"] == [
            {"coords": {"1": 3}},
            {"coords": {"2": 2, "3": 1}},
        ]
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["sections", "comul", "--format", "json"],
            {**base, "h": {"coords": {"1": 2, "2": 2, "3": 2}}},
        )
        assert code == 0
        assert json.loads(out)["zero"] is True

    def test_point_eval_reports_rational_value(self, monkeypatch, capsys):
        payload = {
            "x": {"orbit": [[1, 2, 3]], "coords": {"1": "1", "2": "2", "3": "4"}},
            "H": [[1], [2], [3]],
            "h": {"coords": {"1": -1, "2": 1, "3": 0}},
        }
        code, out, _ = run_cli(monkeypatch, capsys, ["point", "eval"], payload)
        assert code == 0
        assert out.strip() == "2"
        code, out, _ = run_cli(
            monkeypatch, capsys, ["point", "eval", "--format", "json"], payload
        )
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_opens_check_indexing_table(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["opens", "check-indexing", "--size", "2"])
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
        assert lines["passed"] == "true"
        assert lines["checked_mul"] == "13"
        assert lines["checked_comul"] == "15"
        assert lines["counterexample"] == "null"

    def test_opens_pullback_delta(self, monkeypatch, capsys):
        # the whole shape-F product pulls back to the whole ambient space
        U = {"shape": [[1], [2]], "orbits": [[[[1]], [[2]]]]}
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["opens", "pullback", "--via", "delta", "--format", "json"],
            {"F": [[1], [2]], "U": U},
        )
        assert code == 0
        assert len(json.loads(out)["open"]["orbits"]) == 3

    def test_opens_pullback_mu(self, monkeypatch, capsys):
        U = {"shape": [[1, 2]], "orbits": [[[[1, 2]]], [[[1], [2]]], [[[2], [1]]]]}
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["opens", "pullback", "--via", "mu", "--format", "json"],
            {"F": [[1], [2]], "U": U},
        )
        assert code == 0
        assert json.loads(out)["open"]["orbits"] == [[[[1]], [[2]]]]

    def test_check_o_bullet_passes(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["check", "o-bullet", "--size", "3", "--budget", "40"]
        )
        assert code == 0
        assert "FAIL" not in out
        assert "zero-absorption" in out

    def test_plate_center(self, monkeypatch, capsys):
        payload = {"H": [[1, 2, 3]], "z": perm3_json()}
        code, out, _ = run_cli(
            monkeypatch, capsys, ["plate", "center", "--format", "json"], payload
        )
        assert code == 0
        assert json.loads(out)["point"] == {"coords": {"1": 2, "2": 2, "3": 2}}


class TestClosedStdout:
    """A reader that leaves early (`| head -c 10`) closes the pipe under a
    reply longer than the pipe holds: exit 141 (128 + SIGPIPE), not 1, and no
    traceback, whether stdout is buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_a_closed_pipe_exits_141_without_a_traceback(self, unbuffered):
        src = str(pathlib.Path(permutokit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        argv = ["comp", "enumerate", "--size", "6", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "permutokit.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
            proc.wait()
        assert head == b'{\n  "compo'
        assert proc.returncode == 141, err
        assert b"Traceback" not in err and b"Error" not in err, err


class TestCliErrors:
    def test_malformed_json_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["comp", "tits"], "{not json")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_key_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["comp", "tits"], {"F": [[1]]})
        assert code == 2
        assert "missing" in err

    def test_wrong_schema_exits_two(self, monkeypatch, capsys):
        payload = {"schema": "permutokit/9", "F": [[1]], "G": [[1]]}
        code, _, err = run_cli(monkeypatch, capsys, ["comp", "tits"], payload)
        assert code == 2
        assert "unsupported schema" in err

    def test_missing_size_and_ground_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["comp", "enumerate"])
        assert code == 2
        assert "--size" in err

    def test_bottom_rejected_where_undefined(self, monkeypatch, capsys):
        payload = {"p": {"bottom": True, "ground": [1, 2]}}
        code, _, err = run_cli(monkeypatch, capsys, ["preposet", "comp-of"], payload)
        assert code == 2
        assert "bottom" in err

    def test_unknown_group_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_law_violation_exits_one(self, monkeypatch, capsys):
        broken = dataclasses.replace(
            sigma_instance(),
            comul=lambda F, S, T: (restrict(F, T), restrict(F, S)),
        )
        monkeypatch.setitem(cli_mod.INSTANCES, "sigma", lambda: broken)
        code, out, _ = run_cli(
            monkeypatch, capsys, ["check", "sigma", "--size", "3", "--budget", "20"]
        )
        assert code == 1
        assert "FAIL" in out


class TestCliDeterminism:
    def test_identical_seeds_give_identical_bytes(self, monkeypatch, capsys):
        argv = ["check", "points", "--size", "3", "--seed", "5", "--budget", "25", "--format", "json"]
        _, first, _ = run_cli(monkeypatch, capsys, argv)
        _, second, _ = run_cli(monkeypatch, capsys, argv)
        assert first == second

    def test_emitted_json_reparses_to_equal_values(self, monkeypatch, capsys):
        payload = {"z1": perm3_json(), "z2": perm3_json()}
        # relabel the second factor off to a disjoint ground first
        z2 = {
            "ground": [4, 5, 6],
            "values": {
                k.replace("1", "4").replace("2", "5").replace("3", "6"): v
                for k, v in perm3_json()["values"].items()
            },
        }
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["bf", "mul", "--format", "json"],
            {"z1": perm3_json(), "z2": z2},
        )
        assert code == 0
        doc = json.loads(out)
        z = jsonio.decode_bf(doc["bf"])
        assert jsonio.decode_bf(json.loads(jsonio.dumps(jsonio.encode_bf(z)))) == z


class TestCliParserReuse:
    """main() builds its argparse tree once per process; a reused parser
    must give the same bytes as a freshly built one for every request."""

    # each "on" request comes right before its "off" twin, so a flag or
    # default leaking from one call into the next would change the second
    SEQUENCE = [
        (["comp", "tits", "--format", "json"], {"F": [[1, 2], [3]], "G": [[3], [1, 2]]}),
        (["comp", "tits"], {"F": [[1, 2], [3]], "G": [[3], [1, 2]]}),
        (
            ["opens", "pullback", "--via", "delta"],
            {"F": [[1], [2]], "U": {"shape": [[1], [2]], "orbits": [[[[1]], [[2]]]]}},
        ),
        (
            ["opens", "pullback", "--via", "mu"],
            {
                "F": [[1], [2]],
                "U": {"shape": [[1, 2]], "orbits": [[[[1, 2]]], [[[1], [2]]], [[[2], [1]]]]},
            },
        ),
        (["preposet", "enumerate", "--size", "2", "--augmented"], None),
        (["preposet", "enumerate", "--size", "2"], None),
        (["comp"], None),
        (["comp", "enumerate", "--size", "2"], None),
    ]

    @staticmethod
    def run(monkeypatch, capsys, argv, payload):
        try:
            return run_cli(monkeypatch, capsys, argv, payload)
        except SystemExit as exc:
            out, err = capsys.readouterr()
            return exc.code, out, err

    def test_parser_is_built_once(self):
        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_reused_parser_matches_a_fresh_one(self, monkeypatch, capsys):
        fresh = []
        for argv, payload in self.SEQUENCE:
            cli_mod._build_parser.cache_clear()
            fresh.append(self.run(monkeypatch, capsys, argv, payload))
        cli_mod._build_parser.cache_clear()
        reused = [self.run(monkeypatch, capsys, argv, payload) for argv, payload in self.SEQUENCE]
        assert cli_mod._build_parser.cache_info().misses == 1
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 0]
        for on, off in ((0, 1), (2, 3), (4, 5)):
            assert reused[on][1] != reused[off][1]
        assert json.loads(reused[0][1])["composition"] == [[1, 2], [3]]
        assert reused[1][1] == "composition: [[1, 2], [3]]\n"
        assert reused[6][1] == "" and "usage: permutokit comp" in reused[6][2]


class TestCliParseMemo:
    """main() parses each distinct argv once per parser (cli._parsed): a
    memoised parse must give the same exit code and bytes as a fresh one,
    and no call may see what an earlier call did to its args."""

    @staticmethod
    def requests():
        out = [([*w, *flags], json.dumps(payload)) for w, (flags, payload) in REQUESTS.items()]
        out.append((CHECK_ARGV, ""))
        # --help and usage errors raise SystemExit and are never memoised
        out += [(["--help"], ""), (["comp", "nope"], ""), (["cone", "points", "--bound", "x"], "")]
        return out

    run = staticmethod(TestCliParserReuse.run)

    def test_memoised_parse_matches_a_cleared_memo(self, monkeypatch, capsys):
        requests = self.requests()
        fresh = []
        for argv, text in requests:
            cli_mod._parsed.cache_clear()
            fresh.append(self.run(monkeypatch, capsys, argv, text))
        cli_mod._parsed.cache_clear()
        twice = [
            self.run(monkeypatch, capsys, argv, text) for _ in range(2) for argv, text in requests
        ]
        assert twice == fresh + fresh
        assert [code for code, _, _ in fresh[-3:]] == [0, 2, 2]
        info = cli_mod._parsed.cache_info()
        assert info.hits == info.currsize == len(requests) - 3

    def test_a_body_cannot_change_the_next_calls_args(self, monkeypatch, capsys):
        seen = []

        def meddle(args):
            seen.append(dict(vars(args)))
            args.bound = 99
            args.extra = True
            return {"count": 0}

        row = cli_mod.COMMANDS["cone", "points"]._replace(keys=(), body=meddle)
        monkeypatch.setitem(cli_mod.COMMANDS, ("cone", "points"), row)
        cli_mod._parsed.cache_clear()
        argv = ["cone", "points", "--bound", "1"]
        for _ in range(2):
            assert run_cli(monkeypatch, capsys, argv) == (0, "0\n", "")
        assert cli_mod._parsed.cache_info().hits == 1
        assert seen[0] == seen[1]
        assert seen[0]["bound"] == 1 and "extra" not in seen[0]

    def test_a_repeated_usage_error_prints_its_usage_each_time(self, monkeypatch, capsys):
        cli_mod._parsed.cache_clear()
        errors = [self.run(monkeypatch, capsys, ["comp"], None) for _ in range(2)]
        assert errors[0] == errors[1]
        code, out, err = errors[0]
        assert code == 2 and out == "" and err.startswith("usage: permutokit comp")
        assert cli_mod._parsed.cache_info().currsize == 0

    def test_no_argv_reads_sys_argv(self, monkeypatch, capsys):
        for size, count in (("2", 3), ("3", 13)):
            argv = ["comp", "enumerate", "--size", size, "--format", "json"]
            monkeypatch.setattr("sys.argv", ["permutokit", *argv])
            code, out, _ = run_cli(monkeypatch, capsys, None)
            assert code == 0 and len(json.loads(out)["compositions"]) == count
            assert run_cli(monkeypatch, capsys, argv) == (code, out, "")

    def test_the_memo_holds_at_most_its_bound(self):
        cli_mod._parsed.cache_clear()
        parser = cli_mod._build_parser()
        for seed in range(cli_mod._PARSED_MAX + 40):
            cli_mod._parsed(parser, ("check", "sigma", "--seed", str(seed)))
            assert cli_mod._parsed.cache_info().currsize <= cli_mod._PARSED_MAX
        info = cli_mod._parsed.cache_info()
        assert info.maxsize == info.currsize == cli_mod._PARSED_MAX


class TestUnknownKeys:
    """Every JSON object is checked against its row of jsonio.OBJECTS, and
    the stdin payload against its command's keys plus "schema": an unknown
    key at any depth exits 2 with one error line naming the key."""

    # (argv, payload, the error line), one unknown key each: a misspelt
    # relation key, one per object kind, the payload's top level, and a
    # "schema" inside an object, where it is no envelope
    CASES = {
        "rels": (
            ["cone", "points", "--bound", "1"],
            {"p": {"ground": [1, 2], "rels": [[1, 2]]}},
            "error: a preposet has unknown key 'rels'",
        ),
        "preposet": (
            ["preposet", "upward"],
            {"p": {"ground": [1, 2], "rel": [], "bogus": 1}},
            "error: a preposet has unknown key 'bogus'",
        ),
        "subset function": (
            ["bf", "is-gp"],
            {"z": {"ground": [1], "values": {"": 0, "1": 1}, "valuez": {}}},
            "error: a subset function has unknown key 'valuez'",
        ),
        "orbit point": (
            ["point", "comul"],
            {"x": {"orbit": [[1], [2]], "coords": {"1": "1", "2": "3"}, "shape": []},
             "S": [1], "T": [2]},
            "error: an orbit point has unknown key 'shape'",
        ),
        "integer point": (
            ["cone", "contains"],
            {"p": {"ground": [1, 2]}, "h": {"coords": {"1": 1, "2": -1}, "orbit": [[1, 2]]}},
            "error: an integer point has unknown key 'orbit'",
        ),
        "open union": (
            ["opens", "pullback", "--via", "delta"],
            {"F": [[1], [2]], "U": {"shape": [[1], [2]], "orbits": [], "rel": []}},
            "error: an open union has unknown key 'rel'",
        ),
        "payload": (
            ["comp", "tits"],
            {"F": [[1]], "G": [[1]], "bogus": 1},
            "error: stdin payload has unknown key 'bogus'",
        ),
        "nested schema": (
            ["preposet", "upward"],
            {"p": {"schema": "permutokit/1", "ground": [1, 2]}},
            "error: a preposet has unknown key 'schema'",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_unknown_key_exits_two_naming_it(self, monkeypatch, capsys, name):
        argv, payload, line = self.CASES[name]
        assert run_cli(monkeypatch, capsys, argv, payload) == (2, "", line + "\n")

    def test_every_object_kind_has_a_case(self):
        assert set(jsonio.OBJECTS) <= set(self.CASES)

    def test_top_level_schema_is_still_accepted(self, monkeypatch, capsys):
        payload = {"F": [[1, 2], [3]], "G": [[3], [1, 2]]}
        bare = run_cli(monkeypatch, capsys, ["comp", "tits"], payload)
        assert bare[0] == 0
        with_schema = {"schema": jsonio.SCHEMA, **payload}
        assert run_cli(monkeypatch, capsys, ["comp", "tits"], with_schema) == bare

    def test_the_cases_fail_when_unknown_keys_are_ignored(self, monkeypatch, capsys):
        fields = jsonio._fields

        def lenient(obj, what, required, optional=()):
            fields(obj, what, required, tuple(obj) if isinstance(obj, dict) else optional)

        monkeypatch.setattr(jsonio, "_fields", lenient)
        for name, (argv, payload, _) in self.CASES.items():
            code, out, err = run_cli(monkeypatch, capsys, argv, payload)
            assert code == 0 and out and not err, name


class TestSchemaTable:
    def test_every_payload_key_resolves_to_a_decoder(self):
        named = set()
        for words, command in cli_mod.COMMANDS.items():
            for key in command.keys:
                if isinstance(key, tuple):
                    assert callable(key[1]), words
                else:
                    assert callable(cli_mod._DECODE[key]), (words, key)
                    named.add(key)
        assert named == set(cli_mod._DECODE)

    def test_every_row_is_read_by_some_command(self, monkeypatch, capsys):
        read = set()
        fields = jsonio._fields

        def spy(obj, what, required, optional=()):
            read.add((what, tuple(required), tuple(optional)))
            fields(obj, what, required, optional)

        monkeypatch.setattr(jsonio, "_fields", spy)
        for words, (flags, payload) in REQUESTS.items():
            assert run_cli(monkeypatch, capsys, [*words, *flags], payload)[0] == 0, words
        assert set(jsonio.OBJECTS.values()) <= read
