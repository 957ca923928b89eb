"""The CLI's exit-code contract under mutated input. Each example takes one
pinned request of tests/test_cli_commands.py and mutates its payload: values
swapped for values of other pinned requests, keys dropped, labels repeated,
values nested deeply, and unknown keys added to the payload and to the
objects it holds. Whatever the mutation, a request exits 0 or 2; exit 2
prints one `error:` line and nothing on stdout; exit 1 (a failed law or
identity) comes only from `check` and `opens check-indexing`; and a request
with an unknown key exits 2."""
import io
import json
import os
import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import permutokit.cli as cli_mod
from permutokit import jsonio
from test_cli_commands import REQUESTS

# payload keys decoded as one object kind of jsonio.OBJECTS
KIND_OF_KEY = {
    **dict.fromkeys("pq", "preposet"),
    **dict.fromkeys(("z", "z1", "z2"), "subset function"),
    **dict.fromkeys(("x", "x1", "x2"), "orbit point"),
    "h": "integer point",
    "U": "open union",
}
# keys no row holds, besides every key of every other row
STRANGERS = ("bogus", "rels", "valuez", "schema", "", "Ground", "0")
MAY_FAIL_A_LAW = {("check",), ("opens", "check-indexing")}
DEEP = "__deep__"


def paths(value, path=()):
    """Every position in a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from paths(v, (*path, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from paths(v, (*path, i))


def get(value, path):
    for step in path:
        value = value[step]
    return value


def put(value, path, new):
    if not path:
        return new
    get(value, path[:-1])[path[-1]] = new
    return value


# every value found anywhere in a pinned payload, as JSON text
POOL = sorted(
    {json.dumps(get(p, path), sort_keys=True) for _, p in REQUESTS.values() for path in paths(p)}
)


@st.composite
def requests(draw):
    """(words, argv, stdin text, the unknown keys added)."""
    words = draw(st.sampled_from(sorted(REQUESTS)))
    flags, pinned = REQUESTS[words]
    payload = json.loads(json.dumps(pinned))
    deep = None
    for op in draw(st.lists(st.sampled_from(("swap", "drop", "repeat", "deep")), max_size=3)):
        path = draw(st.sampled_from(list(paths(payload))))
        target = get(payload, path)
        if op == "swap" and path:
            payload = put(payload, path, json.loads(draw(st.sampled_from(POOL))))
        elif op == "drop" and isinstance(target, dict) and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif op == "repeat" and isinstance(target, list) and target:
            target.append(json.loads(json.dumps(draw(st.sampled_from(target)))))
        elif op == "repeat" and isinstance(target, dict):
            labels = [k for k in target if k.isdigit()]
            if labels:  # "01" names the label of "1" again
                target["0" + labels[0]] = target[labels[0]]
        elif op == "deep" and path and deep is None:
            deep = (draw(st.sampled_from((2, 50, 400, 900, 5000))), json.dumps(target))
            payload = put(payload, path, DEEP)
    added = []
    if isinstance(payload, dict):
        read = [k if isinstance(k, str) else k[0] for k in cli_mod.COMMANDS[words].keys]
        holders = [(payload, set(read) | {"schema"})]
        for key in read:
            if key in KIND_OF_KEY and isinstance(payload.get(key), dict):
                _, required, optional = jsonio.OBJECTS[KIND_OF_KEY[key]]
                holders.append((payload[key], {*required, *optional}))
        others = {k for row in jsonio.OBJECTS.values() for k in (*row[1], *row[2])}
        for _ in range(draw(st.integers(0, 2))):
            holder, known = draw(st.sampled_from(holders))
            key = draw(st.sampled_from(sorted(({*STRANGERS, *others, *KIND_OF_KEY}) - known)))
            holder[key] = json.loads(draw(st.sampled_from(POOL)))
            added.append(key)
    text = json.dumps(payload)
    if deep is not None:
        depth, inner = deep
        text = text.replace(json.dumps(DEEP), "[" * depth + inner + "]" * depth, 1)
    return words, [*words, *flags], text, added


def run(argv, text):
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = cli_mod.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=1500,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(requests())
def test_mutated_requests_keep_the_exit_code_contract(request):
    words, argv, text, added = request
    code, out, err = run(argv, text)
    assert code in (0, 1, 2), (argv, text, code)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (argv, text, err)
    else:
        assert err == "", (argv, text, err)
    if code == 1:
        assert words in MAY_FAIL_A_LAW, (argv, text, out)
    if added:
        assert code == 2, (argv, text, added, out)


# ---------------------------------------------------------------------------
# The work budget's contract: whatever its size, a request is answered or
# refused, in a child process whose CPU time and address space are limited.

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CPU_SECONDS = 60
ADDRESS_SPACE = 3 << 30


def _limits():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _labels(n, start=1):
    return list(range(start, start + n))


def _subset_function(labels, scale, cap):
    """z(A) = scale * min(|A|, cap): submodular, with sections for cap >= 1."""
    return {
        "ground": labels,
        "values": {
            ",".join(str(x) for k, x in enumerate(labels) if m >> k & 1):
                scale * min(bin(m).count("1"), cap)
            for m in range(1 << len(labels))
        },
    }


def _preposet(labels, chain):
    rel = [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]] if chain else []
    return {"ground": labels, "rel": rel}


@st.composite
def sized_requests(draw):
    """(argv, stdin text) of one request on 0 to 14 labels, its bound or
    budget up to 10^6, spread over the orders of magnitude."""
    n = draw(st.integers(0, 14))
    bound = draw(st.integers(0, 6).flatmap(lambda e: st.integers(0, 10**e)))
    labels = _labels(n)
    p = _preposet(labels, draw(st.booleans()))
    z = _subset_function(labels, draw(st.integers(1, 3)), draw(st.integers(1, max(n, 1))))
    kind = draw(st.sampled_from([
        "comp enumerate", "preposet enumerate", "preposet upward", "cone points",
        "cone contains", "opens of-preposet", "opens check-indexing", "sections count",
        "sections mul", "bf is-gp", "plate points", "check",
    ]))
    size = ["--size", str(n)]
    if kind in ("comp enumerate", "preposet enumerate", "opens check-indexing"):
        return [*kind.split(), *size], ""
    if kind == "check":
        instance = draw(st.sampled_from(["sigma", "o-bullet", "bf", "points"]))
        exhaustive = ["--exhaustive"] if draw(st.booleans()) else []
        return ["check", instance, *size, "--budget", str(bound), *exhaustive], ""
    payload = {
        "preposet upward": {"p": p},
        "cone points": {"p": p},
        "cone contains": {"p": p, "h": {"coords": {str(x): 0 for x in labels}}},
        "opens of-preposet": {"p": p},
        "sections count": {"z": z},
        "sections mul": {
            "z1": _subset_function(labels[: n // 2], 1, n),
            "z2": _subset_function(labels[n // 2:], 2, n),
        },
        "bf is-gp": {"z": z},
        "plate points": {"H": [labels] if labels else [], "z": z},
    }[kind]
    flags = ["--bound", str(bound)] if kind in ("cone points", "plate points") else []
    return [*kind.split(), *flags], json.dumps(payload)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(sized_requests())
def test_sized_requests_are_answered_or_refused_within_the_limits(request):
    argv, text = request
    proc = subprocess.run(
        [sys.executable, "-m", "permutokit.cli", *argv], input=text,
        capture_output=True, text=True, preexec_fn=_limits, timeout=2 * CPU_SECONDS,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode in (0, 2), (argv, proc.returncode, proc.stderr[-300:])
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1, (argv, proc.stderr[-300:])
        assert proc.stderr.startswith("error: "), (argv, proc.stderr[-300:])
