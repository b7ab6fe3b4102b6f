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
from posetmatrix.enumeration import _poset_rows, _walk, canonical_form, enumerate_poset_matrices

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
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": true, "rows": ["1"]}'))
    run_cli(capsys, "validate", "-", expect=1)


def test_missing_file_is_io_error(capsys):
    run_cli(capsys, "validate", "/no/such/file", expect=3)


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(V_MATRIX))
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
    run_cli(capsys, "enumerate", "--n", "10", "--emit", "counts", expect=1)


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
    return [prefix + (below | top,) for prefix, lasts in _walk(n, canonical=True) for below in lasts]


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


# ---- cache ----


COUNTS_3 = ("enumerate", "--n", "3", "--emit", "counts")
COUNTS_3_TEXT = "poset matrices: 7\nisomorphism classes: 5\n"


def test_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    first = run_cli(capsys, *COUNTS_3, "--cache-dir", cache_dir)
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].name == "enumerate-n-3-emit-counts.json"
    second = run_cli(capsys, *COUNTS_3, "--cache-dir", cache_dir)
    assert first.out == second.out == COUNTS_3_TEXT


def test_cache_corruption_recomputes(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run_cli(capsys, *COUNTS_3, "--cache-dir", str(cache_dir))
    victim = next(cache_dir.iterdir())
    entry = json.loads(victim.read_text())
    entry["value"]["poset_matrices"] = 1000
    victim.write_text(json.dumps(entry))
    out = run_cli(capsys, *COUNTS_3, "--cache-dir", str(cache_dir))
    assert out.out == COUNTS_3_TEXT  # checksum mismatch forces recomputation


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
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": ' + "[" * 100000))
    out = run_cli(capsys, command, "-", expect=1)
    assert out.err.startswith("pm: bad matrix JSON: ")
    assert "Traceback" not in out.err


def test_deeply_nested_matrix_json_validate_json_format(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": ' + "[" * 100000))
    out = run_cli(capsys, "validate", "-", "--format", "json", expect=1)
    obj = json.loads(out.out)
    assert obj["valid"] is False
    assert obj["error"]["kind"] == "invalid"
    assert obj["error"]["detail"].startswith("bad matrix JSON: ")


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
