import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest

from posetmatrix.bmatrix import BoolMatrix
from posetmatrix.cli import main
from posetmatrix.enumeration import _class_walk, _poset_rows, canonical_form, enumerate_poset_matrices

V_MATRIX = "100\n110\n101\n"
CHAIN_BAD = "100\n110\n011\n"
# SHA-256 of `pm orbit --n 5 --alpha 3,5,9,17,30` stdout: an exhausted orbit
# prints the same bytes whatever order the search visits its states in
ORBIT_N5_SHA256 = {
    "text": "be5eabe6efa1d56471de84551ce3b94bac239f3dd577e7ad4b5df6dc2405a8bc",
    "json": "15b974e54766c0bb2107eb818d8f44c15d2ae160ff7dbe36a0d1b6601eb36733",
}
# SHA-256 of `pm enumerate --n 7` stdout (96428 records, written one group per 6-row prefix)
ENUMERATE_N7_SHA256 = {
    "text": "56aa1a013faa9887e2ba126d70c4778b6cac3ec38ead204fd909adcedbf24b44",
    "json": "015db86680fabdff1d1d619b92733869ab05e3af1dfcd9c0170b44f0c644294b",
}
# SHA-256 of `pm enumerate --n 7 --emit canonical --format json` stdout, as the level-set route printed it
ENUMERATE_CANONICAL_N7_JSON_SHA256 = "ab68a0743de4156b8e4e631e7d4cd82cf2180984c4535c4e2241e442e8e8d1f6"


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return captured


def stdin_bytes(data):
    """A stand-in for sys.stdin holding data (a str as its UTF-8 bytes), with the error handler of a C-locale interpreter."""
    if isinstance(data, str):
        data = data.encode()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def write_matrix(tmp_path, text, name="m.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---- validate ----


def test_validate_ok(tmp_path, capsys):
    path = write_matrix(tmp_path, V_MATRIX)
    out = run_cli(capsys, "validate", path)
    assert out.out == "valid poset matrix (n=3)\n"


def test_validate_json_diagnostics(tmp_path, capsys):
    path = write_matrix(tmp_path, CHAIN_BAD)
    out = run_cli(capsys, "validate", path, "--format", "json", expect=1)
    obj = json.loads(out.out)
    assert obj == {"valid": False, "error": {"kind": "not-transitive", "witness": [2, 1, 0]}}


def test_validate_json_ok(tmp_path, capsys):
    path = write_matrix(tmp_path, V_MATRIX)
    out = run_cli(capsys, "validate", path, "--format", "json")
    assert json.loads(out.out) == {"valid": True, "n": 3}


def test_validate_not_unit_lower_triangular(tmp_path, capsys):
    path = write_matrix(tmp_path, "11\n01\n")
    out = run_cli(capsys, "validate", path, "--format", "json", expect=1)
    assert json.loads(out.out)["error"] == {"kind": "not-unit-lower-triangular", "position": [0, 1]}


def test_validate_not_square(tmp_path, capsys):
    path = write_matrix(tmp_path, "10\n110\n")
    out = run_cli(capsys, "validate", path, "--format", "json", expect=1)
    assert json.loads(out.out)["error"]["kind"] == "not-square"


def test_validate_json_matrix_input(tmp_path, capsys):
    path = write_matrix(tmp_path, json.dumps({"n": 2, "rows": ["10", "11"]}))
    out = run_cli(capsys, "validate", path)
    assert "valid poset matrix" in out.out


def test_validate_rejects_boolean_side(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_bytes('{"n": true, "rows": ["1"]}'))
    run_cli(capsys, "validate", "-", expect=1)


def test_missing_file_is_io_error(capsys):
    run_cli(capsys, "validate", "/no/such/file", expect=3)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("data", [b"1\xff\n", b"10\r\n11\r\n", b"\xef\xbb\xbf10\n11\n", V_MATRIX.encode()])
def test_stdin_and_file_decode_alike(capsys, monkeypatch, tmp_path, data, fmt):
    # the same bytes give the same stdout, stderr and exit code from a file and from stdin
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    from_file = main(["validate", str(path), "--format", fmt]), capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", stdin_bytes(data))
    from_stdin = main(["validate", "-", "--format", fmt]), capsys.readouterr()
    assert from_stdin == from_file


def test_stdin_and_file_decode_alike_in_a_c_locale(tmp_path):
    path = tmp_path / "not-utf8.txt"
    path.write_bytes(b"1\xff\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8"))}
    env["LC_ALL"] = "C"  # stdin then decodes with surrogateescape
    argv = [sys.executable, "-m", "posetmatrix", "validate", "--format", "json"]
    runs = [subprocess.run(argv + [source], input=b"1\xff\n", capture_output=True, env=env, timeout=60) for source in (str(path), "-")]
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout == b""
    assert runs[0].stderr == runs[1].stderr


def test_non_utf8_stdin_is_a_decode_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"1\xff\n"))
    out = run_cli(capsys, "validate", "-", "--format", "json", expect=1)
    assert out.out == ""
    assert out.err.startswith("pm: 'utf-8' codec can't decode byte 0xff")


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_bytes(V_MATRIX))
    out = run_cli(capsys, "embed", "-")
    assert out.out == "1,3,5\n"


# ---- embed / induce / dual ----


def test_embed_json(tmp_path, capsys):
    path = write_matrix(tmp_path, V_MATRIX)
    out = run_cli(capsys, "embed", path, "--format", "json")
    assert json.loads(out.out) == {"n": 3, "alpha": [1, 3, 5], "universe": 8}


def test_induce_round_trips_embed(tmp_path, capsys):
    out = run_cli(capsys, "induce", "--n", "3", "--alpha", "1,3,5")
    assert out.out == "100\n110\n101\n"


def test_induce_json(capsys):
    out = run_cli(capsys, "induce", "--n", "4", "--alpha", "2,5,9,13", "--format", "json")
    assert json.loads(out.out) == {"n": 4, "rows": ["1000", "0100", "0010", "0111"]}


@pytest.mark.parametrize("command", ["induce", "dual-index"])
@pytest.mark.parametrize("n", ["-1", "7"])
def test_ambient_exponent_out_of_range_names_the_flag(capsys, command, n):
    out = run_cli(capsys, command, "--n", n, "--alpha", "1,2", expect=1)
    assert out.out == ""
    assert out.err == f"pm: ambient exponent must be in [0, 6], got {n}\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("n", ["-1", "7", str(10**10), str(10**20), str(-(10**20))])
def test_orbit_ambient_exponent_out_of_range_allocates_nothing(n):
    # Under a 512 MB address-space cap, 1 << n for n = 10**10 (a 1.25 GB integer) fails
    # if it runs before the range check, so this fails unless --n is checked first.
    proc = subprocess.run(
        [sys.executable, "-m", "posetmatrix", "orbit", "--n", n, "--alpha", "1"],
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"pm: ambient exponent must be in [0, 6], got {n}\n"


def test_dual_text(tmp_path, capsys):
    path = write_matrix(tmp_path, V_MATRIX)
    out = run_cli(capsys, "dual", path)
    assert out.out == "100\n010\n111\n"


def test_dual_index(capsys):
    out = run_cli(capsys, "dual-index", "--n", "4", "--alpha", "0,1,3,12")
    assert out.out == "3,12,14,15\n"


def test_dual_index_json(capsys):
    out = run_cli(capsys, "dual-index", "--n", "3", "--alpha", "1,2,4", "--format", "json")
    assert json.loads(out.out) == {"alpha": [1, 2, 4], "n": 3, "dual": [3, 5, 6]}


def test_bad_alpha_is_domain_error(capsys):
    run_cli(capsys, "induce", "--n", "3", "--alpha", "5,3", expect=1)
    run_cli(capsys, "orbit", "--n", "3", "--alpha", "1,2,9", expect=1)


# ---- enumerate / canonical ----


def test_enumerate_counts_text(capsys):
    out = run_cli(capsys, "enumerate", "--n", "4", "--emit", "counts")
    assert out.out == "poset matrices: 40\nisomorphism classes: 16\n"


def test_enumerate_counts_json(capsys):
    out = run_cli(capsys, "enumerate", "--n", "3", "--emit", "counts", "--format", "json")
    assert json.loads(out.out) == {"n": 3, "poset_matrices": 7, "isomorphism_classes": 5}


def test_enumerate_matrices_text(capsys):
    out = run_cli(capsys, "enumerate", "--n", "2")
    assert out.out == "10\n01\n\n10\n11\n"


def test_enumerate_matrices_json(capsys):
    out = run_cli(capsys, "enumerate", "--n", "3", "--format", "json")
    obj = json.loads(out.out)
    assert obj["n"] == 3
    assert len(obj["matrices"]) == 7
    assert obj["matrices"][0] == {"n": 3, "rows": ["100", "010", "001"]}


def test_enumerate_canonical_json(capsys):
    out = run_cli(capsys, "enumerate", "--n", "3", "--emit", "canonical", "--format", "json")
    assert len(json.loads(out.out)["canonical_forms"]) == 5


def test_enumerate_counts_bound(capsys):
    # one check for both ends of the range, before the cache is read
    for n in ("-1", "10"):
        err = run_cli(capsys, "enumerate", "--n", n, "--emit", "counts", expect=1).err
        assert err == f"pm: count emission supports n in [0, 9], got {n}\n"


@pytest.mark.parametrize("emit, field", [("matrices", "matrices"), ("canonical", "canonical_forms")])
def test_enumerate_stream_equals_whole_list_output(capsys, emit, field):
    # the records are written one group per (n-1)-row prefix; build the whole list here instead
    for n in range(7):
        posets = list(enumerate_poset_matrices(n))
        if emit == "canonical":
            mats = [BoolMatrix(n, rows) for rows in sorted({canonical_form(a).rows for a in posets})]
        else:
            mats = [a.matrix for a in posets]
        out = run_cli(capsys, "enumerate", "--n", str(n), "--emit", emit, "--format", "json")
        assert out.out == json.dumps({"n": n, field: [m.to_json_obj() for m in mats]}, indent=2) + "\n"
        out = run_cli(capsys, "enumerate", "--n", str(n), "--emit", emit)
        assert out.out == "\n\n".join(m.to_text() for m in mats) + "\n"


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_N7_SHA256))
def test_enumerate_matrices_side_7_is_pinned(capsys, fmt):
    mats = [BoolMatrix(7, rows) for rows in _poset_rows(7)]  # validated in the slow suite
    if fmt == "json":
        expected = json.dumps({"n": 7, "matrices": [m.to_json_obj() for m in mats]}, indent=2) + "\n"
    else:
        expected = "\n\n".join(m.to_text() for m in mats) + "\n"
    digest = hashlib.sha256(expected.encode()).hexdigest()
    assert digest == ENUMERATE_N7_SHA256[fmt]
    out = run_cli(capsys, "enumerate", "--n", "7", "--format", fmt)
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def class_forms(n):
    """Canonical forms of every n-element class (n >= 1), ascending, from the walk kept to canonical prefixes."""
    top = 1 << (n - 1)
    return [prefix + (below | top,) for prefix, lasts in _class_walk(n) for below in lasts]


def test_enumerate_canonical_side_7_json_equals_json_dumps(capsys):
    forms = [BoolMatrix(7, rows).to_json_obj() for rows in class_forms(7)]
    assert len(forms) == 2045
    out = run_cli(capsys, "enumerate", "--n", "7", "--emit", "canonical", "--format", "json")
    assert out.out == json.dumps({"n": 7, "canonical_forms": forms}, indent=2) + "\n"
    assert hashlib.sha256(out.out.encode()).hexdigest() == ENUMERATE_CANONICAL_N7_JSON_SHA256


@pytest.mark.parametrize("n", ["-1", "9"])
@pytest.mark.parametrize("emit", ["matrices", "canonical"])
def test_enumerate_out_of_range_prints_nothing(capsys, emit, n):
    out = run_cli(capsys, "enumerate", "--n", n, "--emit", emit, "--format", "json", expect=1)
    assert out.out == ""


@pytest.mark.parametrize(
    "command, n, err",
    [
        ("canonical", 9, "pm: canonical labelling supports n in [0, 8], got 9\n"),
        ("embed", 7, "pm: embedding supports n in [0, 6], got 7\n"),
    ],
)
def test_matrix_side_out_of_range_is_one_line(tmp_path, capsys, command, n, err):
    path = write_matrix(tmp_path, "".join("0" * i + "1" + "0" * (n - 1 - i) + "\n" for i in range(n)))
    out = run_cli(capsys, command, path, expect=1)
    assert (out.out, out.err) == ("", err)


def test_canonical_reports_witness(tmp_path, capsys):
    # 0 < 1 plus a point relabels to the canonical copy, which parks the pair last
    path = write_matrix(tmp_path, "100\n110\n001\n")
    out = run_cli(capsys, "canonical", path)
    lines = out.out.splitlines()
    assert lines[:3] == ["100", "010", "011"]
    assert lines[3] == "witness: 1,2,0"


def test_canonical_json_witness_conjugates(tmp_path, capsys):
    from posetmatrix.bmatrix import BoolMatrix, Permutation, permute_similar

    path = write_matrix(tmp_path, "100\n010\n011\n")
    out = run_cli(capsys, "canonical", path, "--format", "json")
    obj = json.loads(out.out)
    source = BoolMatrix.from_text("100\n010\n011")
    canon = BoolMatrix.from_json_obj(obj["canonical"])
    assert permute_similar(source, Permutation(tuple(obj["witness"]))) == canon


# ---- orbit ----


def test_orbit_domination_text(capsys):
    out = run_cli(capsys, "orbit", "--n", "3", "--alpha", "1,2,4")
    assert out.out == "1,2,4\n"


def test_orbit_exhaustive_includes_dual(capsys):
    out = run_cli(capsys, "orbit", "--n", "3", "--alpha", "1,2,4", "--method", "exhaustive")
    assert out.out.splitlines() == ["1,2,4", "3,5,6"]


def test_orbit_exhaustive_side_5(capsys):
    out = run_cli(capsys, "orbit", "--n", "5", "--alpha", "1,2,4,8,16", "--method", "exhaustive")
    lines = out.out.splitlines()
    assert len(lines) == 2146
    assert lines[:2] == ["1,2,4,8,16", "1,2,12,20,24"]


def test_orbit_json_schema(capsys):
    out = run_cli(capsys, "orbit", "--n", "4", "--alpha", "2,5,9,13", "--format", "json")
    obj = json.loads(out.out)
    assert list(obj) == ["alpha", "n", "members", "exhausted", "states_visited"]
    assert obj["alpha"] == [2, 5, 9, 13]
    assert obj["exhausted"] is True
    assert [1, 2, 4, 14] in obj["members"]


@pytest.mark.parametrize("fmt", sorted(ORBIT_N5_SHA256))
def test_orbit_n5_stdout_is_pinned(capsys, fmt):
    out = run_cli(capsys, "orbit", "--n", "5", "--alpha", "3,5,9,17,30", "--format", fmt)
    assert hashlib.sha256(out.out.encode()).hexdigest() == ORBIT_N5_SHA256[fmt]


def test_orbit_budget_warning(capsys):
    out = run_cli(capsys, "orbit", "--n", "4", "--alpha", "2,5,9,13", "--budget", "2")
    assert "budget hit" in out.err


# ---- ideals / dedekind ----


def test_ideals_count(capsys):
    out = run_cli(capsys, "ideals", "--n", "5")
    assert out.out == "11\n"


def test_ideals_json_with_check(capsys):
    out = run_cli(capsys, "ideals", "--n", "6", "--check-fixed-points", "--format", "json")
    assert json.loads(out.out) == {"n": 6, "count": 14, "fixed_point_count": 14}


def test_ideals_list_matches_frozen_table(capsys):
    out = run_cli(capsys, "ideals", "--n", "5", "--list")
    rows = [json.loads(line) for line in out.out.splitlines()]
    assert rows[0] == {"antichain": [], "ideal": [], "fixed_point": "00000"}
    assert {tuple(r["antichain"]) for r in rows} == {
        (), (0,), (1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 4), (3, 4), (1, 2, 4),
    }
    assert len(rows) == 11


def test_ideals_list_json_format(capsys):
    out = run_cli(capsys, "ideals", "--n", "3", "--list", "--format", "json")
    obj = json.loads(out.out)
    assert obj["n"] == 3 and obj["count"] == 5
    assert obj["ideals"][-1]["fixed_point"] == "111"


def test_dedekind(capsys):
    out = run_cli(capsys, "dedekind", "--k", "3")
    assert out.out == "20\n"
    out = run_cli(capsys, "dedekind", "--k", "4", "--format", "json")
    assert json.loads(out.out) == {"k": 4, "ground_size": 16, "count": 168}
    out = run_cli(capsys, "dedekind", "--k", "7", "--format", "json")
    assert json.loads(out.out) == {"k": 7, "ground_size": 128, "count": 2414682040998}


def test_dedekind_bound(capsys):
    run_cli(capsys, "dedekind", "--k", "8", expect=1)


# ---- selftest ----


def test_selftest_passes(capsys):
    out = run_cli(capsys, "selftest")
    assert "selftest: 12/12 checks passed" in out.out


def test_selftest_json(capsys):
    out = run_cli(capsys, "selftest", "--format", "json")
    obj = json.loads(out.out)
    assert obj["ok"] is True
    assert len(obj["checks"]) == 12


def test_selftest_reports_failed_and_raising_checks(capsys, monkeypatch):
    from posetmatrix import refdata

    def failing():
        return False, "wrong answer"

    def raising():
        raise ZeroDivisionError("division by zero")

    checks = list(refdata.CHECKS)
    monkeypatch.setattr(refdata, "CHECKS", tuple([("always-fails", failing)] + checks[1:]))
    out = run_cli(capsys, "selftest", expect=1)
    assert out.out.splitlines()[0] == "FAIL always-fails: wrong answer"
    assert out.out.endswith("selftest: 11/12 checks passed\n")
    obj = json.loads(run_cli(capsys, "selftest", "--format", "json", expect=1).out)
    assert obj["ok"] is False and [c["ok"] for c in obj["checks"]] == [False] + [True] * 11

    monkeypatch.setattr(refdata, "CHECKS", tuple(checks[:5] + [("raises", raising)] + checks[6:]))
    lines = run_cli(capsys, "selftest", expect=1).out.splitlines()
    assert lines[5] == "FAIL raises: raised ZeroDivisionError: division by zero"
    assert all(line.startswith("ok   ") for line in lines[6:12])  # the checks after it still ran
    assert lines[12] == "selftest: 11/12 checks passed"


# ---- cache ----


COUNTS_3 = ("enumerate", "--n", "3", "--emit", "counts")
COUNTS_3_TEXT = "poset matrices: 7\nisomorphism classes: 5\n"


def test_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    first = run_cli(capsys, *COUNTS_3, "--cache-dir", cache_dir)
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].name == "enumerate-n-3-emit-counts.json"
    assert files[0].read_text().count("\n") == 1  # one-line JSON
    second = run_cli(capsys, *COUNTS_3, "--cache-dir", cache_dir)
    assert first.out == second.out == COUNTS_3_TEXT


def test_indented_cache_entries_still_hit(tmp_path, capsys, monkeypatch):
    # entries were written with indent=2 before they were one line; those files must still be read
    from posetmatrix import __version__, cli
    from posetmatrix.cache import _checksum

    value = {"poset_matrices": 7, "isomorphism_classes": 5}
    entry = {"key": "enumerate:n=3:emit=counts", "version": __version__, "value": value, "checksum": _checksum(value)}
    (tmp_path / "enumerate-n-3-emit-counts.json").write_text(json.dumps(entry, indent=2) + "\n")

    def compute(n):
        raise AssertionError("a hit must not compute")

    monkeypatch.setattr(cli, "_counts", compute)
    assert run_cli(capsys, *COUNTS_3, "--cache-dir", str(tmp_path)).out == COUNTS_3_TEXT


def test_cache_put_leaves_no_cyclic_garbage(tmp_path):
    # json.dump with indent=2 built recursive closures: 33 objects for the collector per write
    from posetmatrix.cache import ResultCache

    cache = ResultCache(str(tmp_path))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for n in range(10):
            cache.put(f"k{n}", {"poset_matrices": n, "isomorphism_classes": n})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_cache_corruption_recomputes(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run_cli(capsys, *COUNTS_3, "--cache-dir", str(cache_dir))
    victim = next(cache_dir.iterdir())
    entry = json.loads(victim.read_text())
    entry["value"]["poset_matrices"] = 1000
    victim.write_text(json.dumps(entry))
    out = run_cli(capsys, *COUNTS_3, "--cache-dir", str(cache_dir))
    assert out.out == COUNTS_3_TEXT  # checksum mismatch forces recomputation


@pytest.mark.parametrize(
    "content",
    [
        "[" * 200000 + "]" * 200000,  # nested past the JSON parser's recursion limit
        None,  # a well-formed entry with a valid checksum whose value lacks a count
    ],
    ids=["deep-nesting", "partial-value"],
)
def test_cache_corrupt_entry_is_a_miss(tmp_path, capsys, content):
    from posetmatrix import __version__
    from posetmatrix.cache import _checksum

    if content is None:
        value = {"poset_matrices": 7}
        entry = {"key": "enumerate:n=3:emit=counts", "version": __version__, "value": value, "checksum": _checksum(value)}
        content = json.dumps(entry)
    (tmp_path / "enumerate-n-3-emit-counts.json").write_text(content)
    out = run_cli(capsys, *COUNTS_3, "--cache-dir", str(tmp_path))
    assert out.out == COUNTS_3_TEXT
    assert "Traceback" not in out.err


@pytest.mark.parametrize("below", ["sub", None])
def test_cache_dir_blocked_by_regular_file(tmp_path, capsys, below):
    # A regular file as the cache directory, or as its parent: the count is
    # still printed and the failed write is only a warning.
    blocker = tmp_path / "afile"
    blocker.write_text("a regular file\n")
    cache_dir = blocker / below if below else blocker
    out = run_cli(capsys, *COUNTS_3, "--cache-dir", str(cache_dir))
    assert out.out == COUNTS_3_TEXT
    assert out.err.startswith("pm: warning: ") and "Traceback" not in out.err
    assert blocker.read_text() == "a regular file\n"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PM_CACHE_DIR", str(tmp_path / "envcache"))
    run_cli(capsys, "enumerate", "--n", "3", "--emit", "counts")
    assert (tmp_path / "envcache" / "enumerate-n-3-emit-counts.json").exists()


# ---- every command's bytes ----

EMPTY = hashlib.sha256(b"").hexdigest()
V_JSON = '{"n": 3, "rows": ["100", "110", "101"]}'
# pm ARGV --format FORMAT with STDIN: exit code, SHA-256 of stdout, SHA-256 of stderr.  Every
# subcommand in both formats, with its failure paths: invalid and unparsable matrices, a missing
# file, a file that is not UTF-8, out-of-range sizes, a cut orbit, usage errors.
GOLDEN = [
    ("validate -", V_MATRIX, "text", 0, "b7a17ce7b3af22244f7bc4bf360fae6dc5f43b1dee363bb75d01708d3c908d23", EMPTY),
    ("validate -", V_MATRIX, "json", 0, "20a0e75571e93cc5b026d1ca49ab4c249fe16a1d752c694068c0f7138d4b23fb", EMPTY),
    ("validate -", V_JSON, "text", 0, "b7a17ce7b3af22244f7bc4bf360fae6dc5f43b1dee363bb75d01708d3c908d23", EMPTY),
    ("validate -", V_JSON, "json", 0, "20a0e75571e93cc5b026d1ca49ab4c249fe16a1d752c694068c0f7138d4b23fb", EMPTY),
    ("validate -", CHAIN_BAD, "text", 1, EMPTY, "6266596ba7191b01656015e0e4a518e48a1f1ef3a056a70e2b8e7fa0ae7cfde0"),
    ("validate -", CHAIN_BAD, "json", 1, "c662026624d23fa7d474ef35bedc55f69efd8464f41bd59e99a0250bf97be466", EMPTY),
    ("validate -", "110\n010\n001\n", "text", 1, EMPTY, "d626aa53f44a5b6bc1d704049837aefca83cd57a8303bb09fd6099813ddf93c2"),
    ("validate -", "110\n010\n001\n", "json", 1, "c19a50fa7d9891bc20621173cfcbaf37546f4eeecbf63e273b08cbaea52e9bd6", EMPTY),
    ("validate -", "10\n1\n", "text", 1, EMPTY, "5030ccbc4554b28f766f9630aca16e66d3259e135dfb9cc47493850f88fd6056"),
    ("validate -", "10\n1\n", "json", 1, "c0585a0bd0a4e2e923f2fe2321fcee99eca88b9968b7064e032ab8706507ea87", EMPTY),
    ("validate -", "1x\n01\n", "text", 1, EMPTY, "b66ee0b7d1d9798d0838620a46c815658fdb87ef4eb50332129dfdcb514ed94d"),
    ("validate -", "1x\n01\n", "json", 1, "467a4a829a8a610fb0f4e6635d379391e24a7155b2c7b8af2310017a66750bc8", EMPTY),
    ("validate -", "{\"n\": 2", "text", 1, EMPTY, "992c7175b6a7f96a186887ee2ff388253f7154317e5998b3108d372f50980c47"),
    ("validate -", "{\"n\": 2", "json", 1, "7c4f45737164069fb439cb53f1bee38a234557269a1075b39ccac6c61502b4f3", EMPTY),
    ("validate no-such-matrix.txt", "", "text", 3, EMPTY, "4aa969a78ef235e1edf4de484a4a1bf8c7194a5d0cd6cc55427157bfe478d14c"),
    ("validate no-such-matrix.txt", "", "json", 3, EMPTY, "4aa969a78ef235e1edf4de484a4a1bf8c7194a5d0cd6cc55427157bfe478d14c"),
    ("validate not-utf8.txt", "", "text", 1, EMPTY, "06243d5c91c064d9fafdca946086735af4a3f0454decee8482d27baec4b5f628"),
    ("validate not-utf8.txt", "", "json", 1, EMPTY, "06243d5c91c064d9fafdca946086735af4a3f0454decee8482d27baec4b5f628"),
    ("embed -", V_MATRIX, "text", 0, "4e8e0dc710c17723fa04728e3d5328ed5d74906d84f362cb3aa7c454066bd3c9", EMPTY),
    ("embed -", V_MATRIX, "json", 0, "382fd7a50a170a3bd1aece37eb38a671377ffa66559e1330911a86432b6d3a13", EMPTY),
    ("embed -", CHAIN_BAD, "text", 1, EMPTY, "6266596ba7191b01656015e0e4a518e48a1f1ef3a056a70e2b8e7fa0ae7cfde0"),
    ("embed -", CHAIN_BAD, "json", 1, EMPTY, "6266596ba7191b01656015e0e4a518e48a1f1ef3a056a70e2b8e7fa0ae7cfde0"),
    ("induce --n 4 --alpha 2,5,9,13", "", "text", 0, "69df14a4d762c544ef71753d2c2100c41d55f0a6f968882811b5596a5c3796e8", EMPTY),
    ("induce --n 4 --alpha 2,5,9,13", "", "json", 0, "75bd15b02ea13b823f0e202345171b65b83ddccc2521ae4fc0e813e1b331663e", EMPTY),
    ("induce --n 99 --alpha 1", "", "text", 1, EMPTY, "4153884652ef4cfd4d740151320c1909752ab2f59b154fb32d306be90d360685"),
    ("induce --n 99 --alpha 1", "", "json", 1, EMPTY, "4153884652ef4cfd4d740151320c1909752ab2f59b154fb32d306be90d360685"),
    ("dual -", V_MATRIX, "text", 0, "3e8aad8b5d5acc1df3728e4756b88c7b23b4ec0a2d8f425f78a48296307ecb54", EMPTY),
    ("dual -", V_MATRIX, "json", 0, "4b6d2d21907a68857f3dfab3bb4ed1856ddd8e511cd0228babada112eb8fc5c3", EMPTY),
    ("dual -", "1x\n", "text", 1, EMPTY, "4ff569c9da9bd91003f97c239912818ec9dbe6d71a24b24e2cbcbd49cd9bc4e7"),
    ("dual -", "1x\n", "json", 1, EMPTY, "4ff569c9da9bd91003f97c239912818ec9dbe6d71a24b24e2cbcbd49cd9bc4e7"),
    ("dual-index --n 4 --alpha 2,5,9,13", "", "text", 0, "5c6ec49d49e6815f6cacbb852ea5e915e7ffa5e7f579f157a3077ea0edde9c35", EMPTY),
    ("dual-index --n 4 --alpha 2,5,9,13", "", "json", 0, "7d383faa1c76c3202fca93317ed82656c84e183b8811aec9362bb3b009ca3c2f", EMPTY),
    ("dual-index --n 2 --alpha 3,1", "", "text", 1, EMPTY, "ecea8293c3ba41c9f1bffc8344f881c2753ce37a75ce0ba092718f2376faac32"),
    ("dual-index --n 2 --alpha 3,1", "", "json", 1, EMPTY, "ecea8293c3ba41c9f1bffc8344f881c2753ce37a75ce0ba092718f2376faac32"),
    ("enumerate --n 0", "", "text", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", EMPTY),
    ("enumerate --n 0", "", "json", 0, "fb66304039248360e119421ba2f1e3ca807d01e27a11becb3e8b7b486dcc92a8", EMPTY),
    ("enumerate --n 4", "", "text", 0, "f844872b776b5fab52bee72af13336a689c800d92f159d8c1ea20192d94edd0b", EMPTY),
    ("enumerate --n 4", "", "json", 0, "b4c503e763849f8421542352102c3b535d601d4ce8b8d047e50e75a41fabe77a", EMPTY),
    ("enumerate --n 9", "", "text", 1, EMPTY, "5906cd8adcc246657783039de12f3caeb4bf4aacc7ea58b6adb1c168cbb08ad5"),
    ("enumerate --n 9", "", "json", 1, EMPTY, "5906cd8adcc246657783039de12f3caeb4bf4aacc7ea58b6adb1c168cbb08ad5"),
    ("enumerate --n 0 --emit canonical", "", "text", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", EMPTY),
    ("enumerate --n 0 --emit canonical", "", "json", 0, "7df1c797771b818b9cc751141f950a98935880df7bdc4305e2aa2ff73c5a6ba5", EMPTY),
    ("enumerate --n 4 --emit canonical", "", "text", 0, "2fd66988386836d39684e5c205c3d9a6c776f97c911d5e0a263b126756fffd93", EMPTY),
    ("enumerate --n 4 --emit canonical", "", "json", 0, "8a7c558f530758022ea1b799071f5f876184a7ee593ddd9bd6284223056475d0", EMPTY),
    ("enumerate --n 0 --emit counts", "", "text", 0, "4f11c23212723c842ca042a788ee59a877880ac7eeb31370291b782a8e430d23", EMPTY),
    ("enumerate --n 0 --emit counts", "", "json", 0, "91ebfb7184b087a3f0c08f3e871f471c46dee8c76e6fe1ec42dc277908ed13fd", EMPTY),
    ("enumerate --n 5 --emit counts", "", "text", 0, "8183f9423a4678bbc6282857de0375195a1af1a460d79664291a3fc489d1c6bf", EMPTY),
    ("enumerate --n 5 --emit counts", "", "json", 0, "1e7dfa884b6f1e32084114b597f41e6698193d4c1af113bae24c7abe73ee394b", EMPTY),
    ("enumerate --n 10 --emit counts", "", "text", 1, EMPTY, "d4d1365a461a34c2c76736e1e3f24d417c9696664a6e9a8f38c7e86f398bdec5"),
    ("enumerate --n 10 --emit counts", "", "json", 1, EMPTY, "d4d1365a461a34c2c76736e1e3f24d417c9696664a6e9a8f38c7e86f398bdec5"),
    ("enumerate", "", "text", 2, EMPTY, "178e8f913bd9e4218142329a9b2f47b86391cb178cc86a73111da8ef51f0f91c"),
    ("enumerate", "", "json", 2, EMPTY, "178e8f913bd9e4218142329a9b2f47b86391cb178cc86a73111da8ef51f0f91c"),
    ("canonical -", V_MATRIX, "text", 0, "0a5112d06fecaeaea7658f7c36a92e6a9f3090b98937e766c1a6010361759d1b", EMPTY),
    ("canonical -", V_MATRIX, "json", 0, "c3bdeee5db7b1edf1235281004c2bf675f917bcafa3197097e44508217f57402", EMPTY),
    ("canonical -", "", "text", 0, "cd14a4af43f0eb320871262a17998fcb4ac28845fcf8981c44f1252fa5733ec2", EMPTY),
    ("canonical -", "", "json", 0, "3b6c9fb64a16ba60e6b7756dd4b39114128a11ec864c3f9d532b52d038041198", EMPTY),
    ("canonical -", CHAIN_BAD, "text", 1, EMPTY, "6266596ba7191b01656015e0e4a518e48a1f1ef3a056a70e2b8e7fa0ae7cfde0"),
    ("canonical -", CHAIN_BAD, "json", 1, EMPTY, "6266596ba7191b01656015e0e4a518e48a1f1ef3a056a70e2b8e7fa0ae7cfde0"),
    ("orbit --n 4 --alpha 2,5,9,13", "", "text", 0, "ff12da9fe5d4266a3d1d6d9eb45e360792baace941423c8072530b4f38e3908c", EMPTY),
    ("orbit --n 4 --alpha 2,5,9,13", "", "json", 0, "3fcf40d1be47ee0d3173842b972239da4bc5d3d943a8fcfe81953c63a6e22f27", EMPTY),
    ("orbit --n 4 --alpha 1,2,4,8 --method exhaustive", "", "text", 0, "e6bbf848578d6ebea8974e9db340588ce0b778582f69a6b241e3512430db9da5", EMPTY),
    ("orbit --n 4 --alpha 1,2,4,8 --method exhaustive", "", "json", 0, "de9f41c9919c602701e4f98108e4a4f131728e6696228374c34da90d850e6e6b", EMPTY),
    ("orbit --n 4 --alpha 2,5,9,13 --budget 3", "", "text", 0, "9f47dabeadcd78557ecefa4f2960956808eebea8ab8aa4dac57c5035432d7451", "9124f8d6ef85ad4633bfd8776dc78d49d67c838b5b6c3f1a8c81097eb84803e6"),
    ("orbit --n 4 --alpha 2,5,9,13 --budget 3", "", "json", 0, "011bfbccc9696f83e0ab0123ae3db716a0326ff81ce23b02afb6c52011077c27", EMPTY),
    ("orbit --n -1 --alpha 1,2", "", "text", 1, EMPTY, "2d0f6d3f84c2c105bb6e7d0849547201dddf5f4687ca69c1ed655274e8989364"),
    ("orbit --n -1 --alpha 1,2", "", "json", 1, EMPTY, "2d0f6d3f84c2c105bb6e7d0849547201dddf5f4687ca69c1ed655274e8989364"),
    ("ideals --n 5", "", "text", 0, "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e", EMPTY),
    ("ideals --n 5", "", "json", 0, "08d65e2f4bf71e0abaf9588163efe376c692b409f501778a3bc8889a95e3b5bd", EMPTY),
    ("ideals --n 12 --check-fixed-points", "", "text", 0, "4b9258d432ecb4511cfe5471a58f3feea9e8aa513e1d32294894693827d3b0d4", EMPTY),
    ("ideals --n 12 --check-fixed-points", "", "json", 0, "48fb651a788fb05a4c269a7cad79e048a2386dc39010e96a47433cf55d2ee302", EMPTY),
    ("ideals --n 0 --list", "", "text", 0, "4c34c68b473313c6b300fef8294da1bca642e708be77203c5ac60ba25e89e1eb", EMPTY),
    ("ideals --n 0 --list", "", "json", 0, "6142d76f50f4401d101224e559d793309c63d9fa169ffa35931e965bedd8e0d1", EMPTY),
    ("ideals --n 5 --list", "", "text", 0, "66dce1a86004a92d16c86a31005c575d16894ea54637ca7abace9889391e4553", EMPTY),
    ("ideals --n 5 --list", "", "json", 0, "7106075d918139bfd62a36ef3e891f883c3d9c236c5e8a1bd4612f2a94c7d786", EMPTY),
    ("ideals --n 99", "", "text", 1, EMPTY, "a2e4d5bde55b8875a9f194e8b44437c28d887b778bad53105f6ea9f2ce174c28"),
    ("ideals --n 99", "", "json", 1, EMPTY, "a2e4d5bde55b8875a9f194e8b44437c28d887b778bad53105f6ea9f2ce174c28"),
    ("ideals --n 5 --jobs 0", "", "text", 2, EMPTY, "5e8a1af8385aef47ab0dddd1c5b439de7087d660b2d792fde651e0c21517716e"),
    ("ideals --n 5 --jobs 0", "", "json", 2, EMPTY, "5e8a1af8385aef47ab0dddd1c5b439de7087d660b2d792fde651e0c21517716e"),
    ("dedekind --k 3", "", "text", 0, "5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3", EMPTY),
    ("dedekind --k 3", "", "json", 0, "0134a10865c72538e18c63b4d71c403d93d401d34b1879809f37588f4dd166d1", EMPTY),
    ("dedekind --k 9", "", "text", 1, EMPTY, "d5988acfc9a116f7587f00b17ed33857c7fd0ec9bcad6dff811291e55ea33996"),
    ("dedekind --k 9", "", "json", 1, EMPTY, "d5988acfc9a116f7587f00b17ed33857c7fd0ec9bcad6dff811291e55ea33996"),
    ("selftest", "", "text", 0, "bc71edeb94b8f9beb597a743b2ac9948fee9e172494c24f53a1642a1a39a2e4e", EMPTY),
    ("selftest", "", "json", 0, "0a4d1b8eba9436b874761e5d9902b43939b7471b37a1466f1282dc961efe7942", EMPTY),
]


@pytest.mark.parametrize(
    "argv, stdin, fmt, code, out_sha, err_sha", GOLDEN, ids=[f"{i // 2:02d} {row[0]} {row[2]}" for i, row in enumerate(GOLDEN)]
)
def test_output_bytes_are_pinned(capsys, monkeypatch, tmp_path, argv, stdin, fmt, code, out_sha, err_sha):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage errors to the terminal width
    monkeypatch.delenv("PM_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # where no-such-matrix.txt is missing
    (tmp_path / "not-utf8.txt").write_bytes(b"1\xff\n")
    monkeypatch.setattr(sys, "stdin", stdin_bytes(stdin))
    try:
        got = main(argv.split() + ["--format", fmt])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, out + err
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha, out
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha, err


# ---- process-level behaviour ----


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["enumerate"])  # missing required --n
    assert info.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as info:
        main(["ideals", "--n", "5", "--jobs", jobs])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_output_identical(capsys):
    serial = run_cli(capsys, "enumerate", "--n", "5", "--emit", "counts", "--format", "json")
    parallel = run_cli(capsys, "enumerate", "--n", "5", "--emit", "counts", "--format", "json", "--jobs", "2")
    assert serial.out == parallel.out
    serial = run_cli(capsys, "ideals", "--n", "13")
    parallel = run_cli(capsys, "ideals", "--n", "13", "--jobs", "2")
    assert serial.out == parallel.out


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-"],
        ["embed", "-"],
        ["induce", "--n", "2", "--alpha", "1,2"],
        ["dual", "-"],
        ["dual-index", "--n", "2", "--alpha", "1"],
        ["canonical", "-"],
        ["orbit", "--n", "2", "--alpha", "1,2"],
        ["dedekind", "--k", "1"],
        ["selftest"],
    ],
)
@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--cache-dir", "d"]])
def test_jobs_and_cache_dir_only_on_enumerate_and_ideals(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv + flag)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "embed", "dual", "canonical"])
def test_deeply_nested_matrix_json_is_domain_error(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdin", stdin_bytes('{"n": ' + "[" * 100000))
    out = run_cli(capsys, command, "-", expect=1)
    assert out.err.startswith("pm: bad matrix JSON: ")
    assert "Traceback" not in out.err


def test_deeply_nested_matrix_json_validate_json_format(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_bytes('{"n": ' + "[" * 100000))
    out = run_cli(capsys, "validate", "-", "--format", "json", expect=1)
    obj = json.loads(out.out)
    assert obj["valid"] is False
    assert obj["error"]["kind"] == "invalid"
    assert obj["error"]["detail"].startswith("bad matrix JSON: ")


def test_matrix_json_rows_that_are_numbers_are_refused(capsys, monkeypatch):
    # 10 could be read as the digits "10" or as the row mask 0b1010, so neither is taken
    detail = "matrix JSON rows must be strings of 0 and 1, got 10"
    monkeypatch.setattr(sys, "stdin", stdin_bytes('{"n": 2, "rows": [10, 11]}'))
    out = run_cli(capsys, "validate", "-", expect=1)
    assert (out.out, out.err) == ("", f"pm: {detail}\n")
    monkeypatch.setattr(sys, "stdin", stdin_bytes('{"n": 2, "rows": [10, 11]}'))
    out = run_cli(capsys, "validate", "-", "--format", "json", expect=1)
    assert json.loads(out.out) == {"valid": False, "error": {"kind": "invalid", "detail": detail}}
    assert out.err == ""


@pytest.mark.parametrize(
    "argv, head",
    [
        # the reader takes 20 bytes and goes away, as `pm enumerate --n 6 | head -c 20` does
        (["enumerate", "--n", "6"], b"100000\n010000\n001000"),
        # the reader is gone before a short output, still buffered, is written
        (["ideals", "--n", "5"], b""),
    ],
)
def test_closed_stdout_is_io_error_without_traceback(argv, head):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "posetmatrix", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    got = proc.stdout.read(len(head))
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert got == head
    assert "Traceback" not in err and "Exception ignored" not in err


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "posetmatrix", "ideals", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "11\n"


def test_subprocess_validate_exit_codes(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(V_MATRIX)
    bad = tmp_path / "bad.txt"
    bad.write_text(CHAIN_BAD)
    ok = subprocess.run([sys.executable, "-m", "posetmatrix", "validate", str(good)], capture_output=True)
    assert ok.returncode == 0
    fail = subprocess.run([sys.executable, "-m", "posetmatrix", "validate", str(bad)], capture_output=True)
    assert fail.returncode == 1
    missing = subprocess.run(
        [sys.executable, "-m", "posetmatrix", "validate", str(tmp_path / "nope.txt")], capture_output=True
    )
    assert missing.returncode == 3
