"""The import surface: public names resolve on first access, and each `pm` command loads only its layers."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import posetmatrix
from posetmatrix.cli import main

PUBLIC_NAMES = """
BoolMatrix ClassReport NotChangeableError NotSquareError NotTransitiveError NotUnitLowerTriangularError
OrbitResult Permutation PosetMatrix PosetValidationError antichain_table antichain_to_ideal bool_mul
canonical_form canonical_labelling changeable_entries check_index_vector classify_index_vectors
count_fixed_points count_ideals count_isomorphism_classes count_poset_matrices dedekind domination_orbit
domination_relations dual dual_class_check dual_index embed enumerate_poset_matrices even_odd_moves
flip_entry flip_transpose format_index_vector ideal_to_antichain identity identity_antichain_check
incidence_matrix index_of induced_submatrix is_antichain is_fixed_point is_ideal is_idempotent is_self_dual_index
iter_ideals lucas_entry parse_index_vector pascal_class pascal_matrix permute permute_similar principal_ideal realize
reduce_to_poset_matrix support support_poset_matrix validate
""".split()

# `pm [command] --help` at 80 columns, keyed by command ("" for pm itself).
with open(os.path.join(os.path.dirname(__file__), "cli_help.json"), encoding="utf-8") as _fh:
    HELP_TEXTS = json.load(_fh)

# Runs `pm ARGS...` as the console script does and writes to the file OUT the posetmatrix modules it
# loaded, and dataclasses and inspect if it loaded them.
PROBE = """
import json, sys
from posetmatrix.cli import main
out, argv = sys.argv[1], sys.argv[2:]
try:
    code = main(argv)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    recorded = ("posetmatrix", "dataclasses", "inspect")
    json.dump([code, sorted(m for m in sys.modules if m.split(".")[0] in recorded)], fh)
"""


def _env(**extra):
    """The environment with PYTHONPATH at this posetmatrix copy and without PM_CACHE_DIR, plus extra."""
    env = {k: v for k, v in os.environ.items() if k != "PM_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(posetmatrix.__file__))
    env.update(extra)
    return env


def loaded_by(tmp_path, *argv, **env):
    """Exit code of `pm argv...` in a fresh interpreter, and the modules it loaded that PROBE records."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv], env=_env(**env), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    code, modules = json.loads(out.read_text())
    return code, set(modules)


def test_all_is_unchanged():
    assert posetmatrix.__all__ == PUBLIC_NAMES


def test_import_and_dir_load_no_module():
    code = (
        "import sys, posetmatrix; names = set(dir(posetmatrix));"
        "print(sorted(m for m in sys.modules if m.startswith('posetmatrix')));"
        "print(names >= set(posetmatrix.__all__))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['posetmatrix']\nTrue\n"


def test_permute_loads_only_bmatrix():
    code = "import sys, posetmatrix; posetmatrix.permute; print(sorted(m for m in sys.modules if m.startswith('posetmatrix')))"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['posetmatrix', 'posetmatrix.bmatrix']\n"


def test_public_names_resolve_to_their_modules():
    for name in posetmatrix.__all__:
        value = getattr(posetmatrix, name)
        module = importlib.import_module(f"posetmatrix.{posetmatrix._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from posetmatrix import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(posetmatrix.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        posetmatrix.no_such_name
    with pytest.raises(ImportError):
        exec("from posetmatrix import no_such_name", {})


def test_version_loads_only_the_cli(tmp_path):
    assert loaded_by(tmp_path, "--version") == (0, {"posetmatrix", "posetmatrix.cli"})


def test_ideals_loads_only_its_layers(tmp_path):
    code, modules = loaded_by(tmp_path, "ideals", "--n", "5")
    assert code == 0
    assert "posetmatrix.ideals" in modules
    for layer in ("enumeration", "domination", "refdata", "cache"):
        assert f"posetmatrix.{layer}" not in modules


def test_cache_loads_only_with_a_cache_directory(tmp_path):
    argv = ("enumerate", "--n", "3", "--emit", "counts")
    assert "posetmatrix.cache" not in loaded_by(tmp_path, *argv)[1]
    assert "posetmatrix.cache" in loaded_by(tmp_path, *argv, "--cache-dir", str(tmp_path / "flag"))[1]
    assert "posetmatrix.cache" in loaded_by(tmp_path, *argv, PM_CACHE_DIR=str(tmp_path / "env"))[1]


def test_counts_cache_hit_loads_no_search(tmp_path):
    argv = ("enumerate", "--n", "6", "--emit", "counts", "--cache-dir", str(tmp_path / "cache"))
    assert "posetmatrix.enumeration" in loaded_by(tmp_path, *argv)[1]
    code, modules = loaded_by(tmp_path, *argv)
    assert code == 0
    assert modules == {"posetmatrix", "posetmatrix.cli", "posetmatrix.cache"}


def test_ideals_ignores_the_cache_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PM_CACHE_DIR", raising=False)
    cache_dir = tmp_path / "cache"
    assert main(["ideals", "--n", "9", "--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr() == ("39\n", "")
    assert not cache_dir.exists()
    argv = ("ideals", "--n", "9", "--cache-dir", str(cache_dir))
    assert "posetmatrix.cache" not in loaded_by(tmp_path, *argv, PM_CACHE_DIR=str(cache_dir))[1]
    assert not cache_dir.exists()


MATRIX = "100\n110\n101\n"
COMMANDS = (
    ["--version"],
    ["validate", "M"],
    ["embed", "M"],
    ["induce", "--n", "2", "--alpha", "1,2"],
    ["dual", "M"],
    ["dual-index", "--n", "2", "--alpha", "1"],
    ["enumerate", "--n", "3", "--format", "json"],
    ["enumerate", "--n", "3", "--emit", "canonical"],
    ["enumerate", "--n", "3", "--emit", "counts", "--cache-dir", "D"],
    ["canonical", "M"],
    ["orbit", "--n", "3", "--alpha", "1,2,4", "--format", "json"],
    ["orbit", "--n", "2", "--alpha", "1,2", "--method", "exhaustive"],
    ["ideals", "--n", "5", "--list"],
    ["ideals", "--n", "5", "--check-fixed-points"],
    ["dedekind", "--k", "2"],
    ["selftest"],
)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv):
    matrix = tmp_path / "m.txt"
    matrix.write_text(MATRIX)
    argv = [{"M": str(matrix), "D": str(tmp_path / "cache")}.get(arg, arg) for arg in argv]
    code, modules = loaded_by(tmp_path, *argv)
    assert code == 0
    assert "posetmatrix.cli" in modules
    assert not modules & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", sorted(HELP_TEXTS))
def test_help_text_is_unchanged(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert out.getvalue() == HELP_TEXTS[command]
