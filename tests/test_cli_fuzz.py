"""In-process fuzzing of `pm`: whatever the argv and stdin, main ends with exit code 0-3."""

import contextlib
import io
import os
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from posetmatrix.cli import main

# Small sizes reach the computations, far ones the range checks.  A size shifted before
# its check shows too: 1 << 10**20 raises OverflowError without allocating anything.
FAR = st.sampled_from([-(10**20), -(10**10), 7, 64, 10**20])
SIZE = st.one_of(st.integers(-2, 5), FAR)
ALPHA = st.lists(st.integers(-1, 40), max_size=6).map(lambda xs: ",".join(str(x) for x in xs))
MATRIX_TEXTS = (
    "100\n110\n101\n",
    "100\n110\n011\n",
    "10\n11\n",
    "1 0\n0 1\n",
    '{"n": 2, "rows": ["10", "11"]}',
    '{"n": 3, "rows": ["100", "110", "111"]}',
    '{"n": true, "rows": ["1"]}',
    '{"n": 2, "rows": "10"}',
    '{"n": [[[[',
    '{"n": ' + "[" * 100000,
    "",
)
STDIN = st.one_of(st.binary(max_size=64), st.sampled_from(MATRIX_TEXTS).map(str.encode))


def flag(name, values):
    """Either no tokens or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *groups):
    return st.tuples(*groups).map(lambda gs: [name] + [tok for g in gs for tok in g])


SOURCE = st.just(["-"])
N = SIZE.map(lambda n: ["--n", str(n)])
ARGV = st.one_of(
    command("validate", SOURCE),
    command("embed", SOURCE),
    command("dual", SOURCE),
    command("canonical", SOURCE),
    command("induce", N, ALPHA.map(lambda a: ["--alpha", a])),
    command("dual-index", N, ALPHA.map(lambda a: ["--alpha", a])),
    command(
        "orbit",
        st.one_of(st.integers(-2, 4), FAR).map(lambda n: ["--n", str(n)]),
        ALPHA.map(lambda a: ["--alpha", a]),
        flag("--method", st.sampled_from(["domination", "exhaustive", "other"])),
        flag("--budget", st.integers(-1, 50)),
    ),
    command("enumerate", N, flag("--emit", st.sampled_from(["matrices", "canonical", "counts", "other"]))),
    command("ideals", N, switch("--list"), switch("--check-fixed-points")),
    command("dedekind", SIZE.map(lambda k: ["--k", str(k)])),
    command("selftest"),
)
# --jobs is tried on every subcommand, including those that do not take it.
OPTIONS = st.tuples(
    flag("--format", st.sampled_from(["text", "json", "xml"])),
    flag("--jobs", st.sampled_from(["1", "2", "0", "-1", "x"])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=ARGV, options=OPTIONS, data=STDIN)
def test_cli_exits_with_a_documented_code(argv, options, data):
    argv = argv + options[0] + options[1]
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), mock.patch.object(sys, "stdin", stdin):
        os.environ.pop("PM_CACHE_DIR", None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, data, err.getvalue())
