"""The command table: pinned bytes for one valid request per subcommand and
for the same request without its first payload key, and the README's list
of groups and verbs kept equal to the table."""
import hashlib
import io
import json
import pathlib
import re

import pytest

import permutokit.cli as cli_mod
from permutokit.axioms import INSTANCES

P12 = {"ground": [1, 2], "rel": [[1, 2]]}
P123 = {"ground": [1, 2, 3], "rel": [[1, 2]]}
Z12 = {"ground": [1, 2], "values": {"": 0, "1": 1, "2": 1, "1,2": 1}}
Z1 = {"ground": [1], "values": {"": 0, "1": 2}}
Z2 = {"ground": [2], "values": {"": 0, "2": 3}}
H10 = {"coords": {"1": 1, "2": 0}}
X12 = {"orbit": [[1], [2]], "coords": {"1": "1/2", "2": "3"}}

JSON = ["--format", "json"]

# (group, sub) -> (flags, payload); each request exits 0
REQUESTS = {
    ("comp", "tits"): ([], {"F": [[1, 2], [3]], "G": [[3], [1, 2]]}),
    ("comp", "concat"): ([], {"F": [[1]], "G": [[2], [3]]}),
    ("comp", "restrict"): ([], {"F": [[1, 3], [2]], "S": [1, 2]}),
    ("comp", "refines"): (JSON, {"G": [[1, 2], [3]], "F": [[2], [1], [3]]}),
    ("comp", "relabel"): ([], {"sigma": {"11": 2, "12": 1}, "F": [[1], [2]]}),
    ("comp", "permute"): ([], {"beta": [2, 1], "F": [[1], [2, 3]]}),
    ("comp", "hat-beta"): ([], {"beta": [2, 1], "F": [[1], [2], [3]], "G": [[1, 2], [3]]}),
    ("comp", "enumerate"): ([], {"ground": [1, 2]}),
    ("preposet", "leq"): (JSON, {"q": P12, "p": {"ground": [1, 2], "rel": []}}),
    ("preposet", "mul"): ([], {"p": P12, "q": {"ground": [3], "rel": []}}),
    ("preposet", "comul"): ([], {"p": P123, "S": [1, 3], "T": [2]}),
    ("preposet", "total-of"): ([], {"F": [[2], [1, 3]]}),
    ("preposet", "comp-of"): ([], {"p": {"ground": [1, 2], "rel": [[2, 1]]}}),
    ("preposet", "upward"): ([], {"p": P123}),
    ("preposet", "enumerate"): (["--augmented"], {"ground": [1, 2]}),
    ("cone", "points"): (["--bound", "1"], {"p": P123}),
    ("cone", "contains"): (JSON, {"p": P123, "h": {"coords": {"1": 1, "2": -1, "3": 0}}}),
    ("cone", "face"): ([], {"p": {"ground": [1, 2, 3], "rel": []}, "S": [1], "T": [2, 3]}),
    ("bf", "mul"): ([], {"z1": Z1, "z2": Z2}),
    ("bf", "comul"): ([], {"z": Z12, "S": [1], "T": [2]}),
    ("bf", "equiv"): (
        [], {"z1": Z12, "z2": {"ground": [1, 2], "values": {"": 0, "1": 2, "2": 0, "1,2": 1}}}
    ),
    ("bf", "is-gp"): (JSON, {"z": Z12}),
    ("plate", "points"): (["--bound", "1"], {"H": [[1], [2]], "z": Z12}),
    ("plate", "contains"): (JSON, {"H": [[1], [2]], "z": Z12, "h": H10}),
    ("plate", "face"): (JSON, {"H": [[1], [2]], "z": Z12, "F": [[1, 2]], "h": H10}),
    ("plate", "center"): ([], {"H": [[1], [2]], "z": Z12}),
    ("sections", "basis"): ([], {"z": Z12}),
    ("sections", "count"): (JSON, {"z": Z12}),
    ("sections", "mul"): ([], {"z1": Z1, "z2": Z2}),
    ("sections", "comul"): ([], {"z": Z12, "h": H10, "S": [1], "T": [2]}),
    ("point", "mul"): (
        [],
        {
            "x1": {"orbit": [[1]], "coords": {"1": "1/2"}},
            "x2": {"orbit": [[2]], "coords": {"2": "3"}},
        },
    ),
    ("point", "comul"): ([], {"x": X12, "S": [1], "T": [2]}),
    ("point", "eval"): (
        [],
        {
            "x": {"orbit": [[1, 2]], "coords": {"1": "1/2", "2": "3"}},
            "H": [[1], [2]],
            "h": {"coords": {"1": -1, "2": 1}},
        },
    ),
    ("point", "relabel"): ([], {"sigma": {"11": 2, "12": 1}, "x": X12}),
    ("opens", "of-preposet"): ([], {"p": P12}),
    ("opens", "pullback"): (
        ["--via", "delta"],
        {"F": [[1], [2]], "U": {"shape": [[1], [2]], "orbits": [[[[1]], [[2]]]]}},
    ),
    ("opens", "check-indexing"): ([], {"ground": [1, 2]}),
}

# sha256 of json.dumps([exit code, stdout, stderr]), first 16 hex digits, as
# printed by the implementation that had one handler per group: the valid
# request, then the request without its first payload key
PINNED = {
    ("comp", "tits"): ("e03746d150d193a7", "43dc9436b8b35372"),
    ("comp", "concat"): ("7a3aad998801a00d", "43dc9436b8b35372"),
    ("comp", "restrict"): ("3900dc62b412e285", "43dc9436b8b35372"),
    ("comp", "refines"): ("6a7a029d7668e2b0", "54a18877c807c56b"),
    ("comp", "relabel"): ("2bcfe8a9ed6fa501", "09f526419c13aa25"),
    ("comp", "permute"): ("b5528387dc743aef", "ad52b0399a3eb213"),
    ("comp", "hat-beta"): ("312a700bdb9d025a", "ad52b0399a3eb213"),
    ("comp", "enumerate"): ("19bf94c5fa155f4a", "44200f66fdac61a2"),
    ("preposet", "leq"): ("b63271901308d22c", "e943edb6371067cb"),
    ("preposet", "mul"): ("b8306627c289b555", "446a3850efc6e443"),
    ("preposet", "comul"): ("03a925e0964fd5f2", "446a3850efc6e443"),
    ("preposet", "total-of"): ("cde11df3d7558b07", "43dc9436b8b35372"),
    ("preposet", "comp-of"): ("08f5ba76b327112a", "446a3850efc6e443"),
    ("preposet", "upward"): ("1a77ca2683160798", "446a3850efc6e443"),
    ("preposet", "enumerate"): ("16bf06c79beedf52", "44200f66fdac61a2"),
    ("cone", "points"): ("b76edeace7c31810", "446a3850efc6e443"),
    ("cone", "contains"): ("f46c38729a4769a2", "446a3850efc6e443"),
    ("cone", "face"): ("bb2a78fcd24fef69", "446a3850efc6e443"),
    ("bf", "mul"): ("5ffe59ea2e1096b5", "b53e443457f087e3"),
    ("bf", "comul"): ("e7af91f81e7b47dc", "88c561242749d5f3"),
    ("bf", "equiv"): ("f5b9732daf128ab7", "b53e443457f087e3"),
    ("bf", "is-gp"): ("80ea5c7ad97c130a", "88c561242749d5f3"),
    ("plate", "points"): ("8e7339947bafe2ce", "b0f1bae7f0967335"),
    ("plate", "contains"): ("f2dfab3ab6f1a7b7", "b0f1bae7f0967335"),
    ("plate", "face"): ("f2dfab3ab6f1a7b7", "b0f1bae7f0967335"),
    ("plate", "center"): ("b0e27cddf752b8de", "b0f1bae7f0967335"),
    ("sections", "basis"): ("26900e515fdfea08", "88c561242749d5f3"),
    ("sections", "count"): ("27f489da67f18844", "88c561242749d5f3"),
    ("sections", "mul"): ("a717eccbcffb0709", "b53e443457f087e3"),
    ("sections", "comul"): ("2c5dcd85b7a71c20", "88c561242749d5f3"),
    ("point", "mul"): ("b73bfd673fce326d", "fdbea89fcdb9daab"),
    ("point", "comul"): ("b2adc087bbb2f8fb", "51df918d227fadd4"),
    ("point", "eval"): ("d031547bdabb3351", "51df918d227fadd4"),
    ("point", "relabel"): ("2bff99db94738034", "09f526419c13aa25"),
    ("opens", "of-preposet"): ("0296ce8b871b1346", "446a3850efc6e443"),
    ("opens", "pullback"): ("6e38e1fc40f85468", "43dc9436b8b35372"),
    ("opens", "check-indexing"): ("01ec914bc7a76a71", "44200f66fdac61a2"),
}
CHECK_ARGV = ["check", "sigma", "--size", "2"]
PINNED_CHECK = "89050ffb565fd81f"


def run_bytes(monkeypatch, capsys, argv, payload) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli_mod.main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def without_first_key(payload: dict) -> dict:
    return dict(list(payload.items())[1:])


@pytest.mark.parametrize("words", REQUESTS, ids=" ".join)
def test_subcommand_bytes_are_pinned(monkeypatch, capsys, words):
    flags, payload = REQUESTS[words]
    argv = [*words, *flags]
    got = (
        run_bytes(monkeypatch, capsys, argv, payload),
        run_bytes(monkeypatch, capsys, argv, without_first_key(payload)),
    )
    assert got == PINNED[words]


def test_check_bytes_are_pinned(monkeypatch, capsys):
    assert run_bytes(monkeypatch, capsys, CHECK_ARGV, {}) == PINNED_CHECK


class OpenPipe(io.StringIO):
    """A stdin whose writer has not closed it: reading would block, so a
    read fails the test instead."""

    def read(self, *args):
        raise AssertionError("stdin was read")


SIZE_COMMANDS = [words for words, command in cli_mod.COMMANDS.items() if "ground" in command.keys]


@pytest.mark.parametrize("words", SIZE_COMMANDS, ids=" ".join)
def test_size_leaves_stdin_unread(monkeypatch, capsys, words):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"ground": [1, 2]})))
    assert cli_mod.main([*words, *JSON]) == 0
    from_stdin = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", OpenPipe())
    assert cli_mod.main([*words, *JSON, "--size", "2"]) == 0
    assert capsys.readouterr() == from_stdin


def test_every_subcommand_has_a_pinned_request():
    assert set(REQUESTS) == set(PINNED) == {w for w in cli_mod.COMMANDS if len(w) == 2}


def test_first_key_of_each_request_is_the_first_key_of_its_row():
    for words, (_, payload) in REQUESTS.items():
        first = cli_mod.COMMANDS[words].keys[0]
        assert next(iter(payload)) == (first[0] if isinstance(first, tuple) else first)


def readme_verbs() -> dict:
    """The README's "Groups and verbs" list: group -> set of verbs, with
    flag notes in parentheses dropped."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Groups and verbs", 1)[1].split(":\n\n", 1)[1].split("\n\n", 1)[0]
    verbs = {}
    for line in block.splitlines():
        m = re.fullmatch(r"- `([a-z-]+)` (.*)", line)
        assert m, line
        verbs[m[1]] = {v.split(" (")[0] for v in m[2].split(" | ")}
    return verbs


def test_readme_lists_the_command_table():
    table = {}
    for group, *sub in cli_mod.COMMANDS:
        table.setdefault(group, set()).update(sub)
    table["check"] = set(INSTANCES)
    assert readme_verbs() == table
