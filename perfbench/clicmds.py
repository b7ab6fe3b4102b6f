"""The cli workload: ``python -m posetmatrix`` commands, one fresh
interpreter each, in a fixed order, with a check for each command's stdout."""

from __future__ import annotations

import json
import os
import re
from typing import Callable, NamedTuple

import checks
import oracle


class Command(NamedTuple):
    cid: str
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout -> errors
    stdin: str = ""


def _matrix_json(rows) -> str:
    return json.dumps({"n": len(rows), "rows": oracle.row_text(rows).splitlines()})


def _int_is(expected):
    """Check that stdout is one integer; ``expected`` computes it when first needed."""

    def check(out):
        value = expected()
        return [] if out.strip() == str(value) else [f"printed {out.strip()[:80]!r}, expected {value}"]

    return check


def _ideal_count(n):
    return lambda: len(oracle.all_ideals(n))


def _version(out):
    return [] if re.fullmatch(r"pm \d+\.\d+\.\d+\n", out) else [f"bad version line {out!r}"]


def _valid(n):
    def check(out):
        return [] if json.loads(out) == {"valid": True, "n": n} else [f"validate printed {out!r}"]

    return check


def _text_is(rows):
    def check(out):
        got = oracle.parse_row_text(out)
        return [] if got == tuple(rows) else [f"printed matrix {got}, expected {tuple(rows)}"]

    return check


def _canonical(rows):
    def check(out):
        *matrix, witness = out.strip().splitlines()
        form = oracle.parse_row_text("\n".join(matrix))
        mapping = [int(x) for x in witness.removeprefix("witness: ").split(",")]
        errors = []
        if form != oracle.brute_canonical(rows):
            errors.append(f"canonical form {form} is not the least relabelling of {tuple(rows)}")
        if sorted(mapping) != list(range(len(rows))) or oracle.relabel(rows, mapping) != form:
            errors.append(f"witness {mapping} does not give the form")
        return errors

    return check


def _orbit(alpha, n):
    def check(out):
        obj = json.loads(out)
        return checks.check_orbit_result(alpha, n, obj["members"], obj["exhausted"], obj["states_visited"])

    return check


def _counts(n):
    expected = f"poset matrices: {checks.A006455[n]}\nisomorphism classes: {checks.A000112[n]}\n"
    return lambda out: [] if out == expected else [f"counts printed {out!r}"]


def _canonical_forms(n):
    def check(out):
        forms = [oracle.parse_row_text(block) for block in out.strip().split("\n\n")]
        errors = []
        if len(forms) != checks.A000112[n] or len(set(forms)) != len(forms):
            errors.append(f"{len(forms)} canonical forms ({len(set(forms))} distinct), expected {checks.A000112[n]}")
        if forms != sorted(forms):
            errors.append("canonical forms are not in increasing order")
        bad = [f for f in forms if not oracle.is_poset_rows(f) or oracle.brute_canonical(f) != f]
        if bad:
            errors.append(f"{len(bad)} printed forms are not canonical, e.g. {bad[0]}")
        return errors

    return check


def _matrices_json(n):
    def check(out):
        obj = json.loads(out)
        rows = [oracle.parse_row_text("\n".join(m["rows"])) for m in obj["matrices"]]
        errors = []
        if obj["n"] != n or any(m["n"] != n for m in obj["matrices"]):
            errors.append("matrix sides disagree with n")
        if len(rows) != checks.A006455[n] or len(set(rows)) != len(rows):
            errors.append(f"{len(rows)} matrices ({len(set(rows))} distinct), expected {checks.A006455[n]}")
        if not all(len(r) == n and oracle.is_poset_rows(r) for r in rows):
            errors.append("a listed matrix is not a poset matrix")
        return errors

    return check


def _selftest(out):
    lines = out.strip().splitlines()
    m = re.fullmatch(r"selftest: (\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2) or not all(line.startswith("ok") for line in lines[:-1]):
        return [f"selftest reported {lines[-1:]!r}"]
    return []


def _vec(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def _int_list_is(rows):
    # embed prints row i read as an integer; that vector must realize the matrix again.
    def check(out):
        alpha = tuple(int(x) for x in out.strip().split(","))
        if alpha != tuple(rows) or oracle.subset_matrix(alpha) != tuple(rows):
            return [f"embed printed {alpha}, expected {tuple(rows)}"]
        return []

    return check


def commands(inp, scratch: str, round_no: int) -> list[Command]:
    """The commands of one round; ``scratch`` is a directory the run owns."""
    cache_dir = os.path.join(scratch, f"cache-{round_no}")
    blocker = os.path.join(scratch, "not-a-directory")
    with open(blocker, "w", encoding="utf-8") as fh:
        fh.write("a regular file\n")
    n, k, m = inp["enumerate_n"], inp["dedekind_k"], inp["ideals_n"]
    counts = ["enumerate", "--n", str(n), "--emit", "counts"]
    return [
        Command("version", ["--version"], _version),
        Command("validate", ["validate", "-", "--format", "json"], _valid(len(inp["validate"])), _matrix_json(inp["validate"])),
        Command("embed", ["embed", "-"], _int_list_is(inp["embed"]), oracle.row_text(inp["embed"])),
        Command("canonical", ["canonical", "-"], _canonical(inp["canonical"]), oracle.row_text(inp["canonical"])),
        Command("dual", ["dual", "-"], _text_is(oracle.flip_transpose(inp["dual"])), oracle.row_text(inp["dual"])),
        Command("induce", ["induce", "--n", "4", "--alpha", _vec(inp["induce"])], _text_is(oracle.subset_matrix(inp["induce"]))),
        Command("orbit", ["orbit", "--n", "4", "--alpha", _vec(inp["orbit"]), "--format", "json"], _orbit(inp["orbit"], 4)),
        Command("ideals_jobs1", ["ideals", "--n", str(m), "--jobs", "1"], _int_is(_ideal_count(m))),
        Command("ideals_jobs2", ["ideals", "--n", str(m), "--jobs", "2"], _int_is(_ideal_count(m))),
        Command("dedekind", ["dedekind", "--k", str(k)], _int_is(lambda: checks.A000372[k])),
        Command("counts_miss", counts + ["--cache-dir", cache_dir], _counts(n)),
        Command("counts_hit", counts + ["--cache-dir", cache_dir], _counts(n)),
        Command("counts_jobs2", counts + ["--jobs", "2"], _counts(n)),
        Command("enumerate_canonical", ["enumerate", "--n", str(n), "--emit", "canonical"], _canonical_forms(n)),
        Command("enumerate_json", ["enumerate", "--n", str(inp["json_n"]), "--format", "json"], _matrices_json(inp["json_n"])),
        Command("selftest", ["selftest"], _selftest),
        Command(
            "broken_cache",
            ["ideals", "--n", str(inp["broken_cache_n"]), "--cache-dir", os.path.join(blocker, "sub")],
            _int_is(_ideal_count(inp["broken_cache_n"])),
        ),
    ]


# Commands whose stdout must be byte-identical to another command's.
SAME_STDOUT = (("counts_hit", "counts_miss"), ("counts_jobs2", "counts_miss"), ("ideals_jobs2", "ideals_jobs1"))
