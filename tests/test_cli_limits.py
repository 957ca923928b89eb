"""CLI exit codes at the numeric and memory limits: oversized numbers and
failed allocations exit 2 with a one-line message, never a traceback (exit 1
is reserved for law counterexamples)."""
import io
import json

import permutokit.cli as cli_mod
from permutokit.cli import main


def run_cli(monkeypatch, capsys, argv, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
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
    def exhausted(args, payload):
        raise MemoryError("Unable to allocate 671. GiB for an array\nwith shape (1,)")

    monkeypatch.setitem(cli_mod._GROUPS, "sections", exhausted)
    code, out, err = run_cli(monkeypatch, capsys, ["sections", "count"], {})
    assert_one_line_error(code, out, err)
    assert "671. GiB" in err


def test_bare_memory_error_names_itself(monkeypatch, capsys):
    def exhausted(args, payload):
        raise MemoryError

    monkeypatch.setitem(cli_mod._GROUPS, "cone", exhausted)
    code, out, err = run_cli(monkeypatch, capsys, ["cone", "points"], {})
    assert_one_line_error(code, out, err)
    assert err == "error: MemoryError\n"


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
