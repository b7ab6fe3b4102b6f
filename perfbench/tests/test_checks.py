"""Every checker reports a failure when fed one wrong answer."""

import copy
import os

import pytest

import checks
import clicmds
import inputs
import oracle
from conftest import BENCH


def wrong(workload, quick_outputs, mutate):
    inp, out = quick_outputs[workload]
    out = copy.deepcopy(out)
    mutate(inp, out)
    return inp, out


def test_checkers_accept_the_right_answers(quick_outputs, pm):
    for workload, (inp, out) in quick_outputs.items():
        assert checks.CHECKERS[workload](inp, out, pm) == [], workload


def _first_orbit_drop_member(inp, out):
    members = out["orbit0"]["members"]
    members.remove([m for m in members if m != inp["orbits"][0]["alpha"]][0])


def _swap_canonical_witness(inp, out):
    form, witness = out["canonical"][-1]
    out["canonical"][-1] = [form, witness[::-1]]


def _accept_a_refused_flip(inp, out):
    k = out["flip"][0].index(None)
    n = inp["matrices"][0]["n"]
    out["flip"][0][k] = list(inp["matrices"][0]["alpha"])
    out["flip"][0][k][k // n] ^= 1 << (k % n)


MUTATIONS = {
    "census": {
        "labelled count": lambda i, o: o["count"].__setitem__(-1, o["count"][-1] + 1),
        "class count": lambda i, o: o["classes"].__setitem__(-1, o["classes"][-1] - 1),
        "classify drops a class": lambda i, o: o["classify"].pop(),
        "dual check": lambda i, o: o.__setitem__("dual_check", False),
        "canonical witness": _swap_canonical_witness,
        "canonical form": lambda i, o: o["canonical"][0].__setitem__(0, i["samples"][0]["rows"][::-1]),
        "bool_mul": lambda i, o: o["kernels"][0].__setitem__("square", o["kernels"][0]["square"][:-1] + [0]),
        "dual": lambda i, o: o["kernels"][1].__setitem__("dual", o["kernels"][1]["parsed"][::-1]),
        "realize": lambda i, o: o["kernels"][0].__setitem__("realized", [1] * len(o["kernels"][0]["realized"])),
    },
    "orbit": {
        "orbit misses a member": _first_orbit_drop_member,
        "orbit gains a foreign member": lambda i, o: o["orbit0"]["members"].append([0, 1, 2, 4]),
        "orbit not exhausted": lambda i, o: o["orbit1"].__setitem__("exhausted", False),
        "changeable entries": lambda i, o: o["changeable"][0].append([0, 0]) if [0, 0] not in o["changeable"][0] else o["changeable"][0].remove([0, 0]),
        "domination relations": lambda i, o: o["relations"][0].pop() if o["relations"][0] else o["relations"][0].append([0, 1]),
        "flip accepted": _accept_a_refused_flip,
    },
    "antichains": {
        "ideal count": lambda i, o: o["count"].__setitem__(5, o["count"][5] + 1),
        "dedekind": lambda i, o: o["dedekind"].__setitem__(-1, 0),
        "iter misses an ideal": lambda i, o: o["iter"][0].pop(),
        "table antichain": lambda i, o: o["table8"][-1].__setitem__(0, o["table8"][-1][1]),
        "to_antichain": lambda i, o: o["to_antichain"].__setitem__(3, o["to_antichain"][3] ^ 1),
        "to_ideal": lambda i, o: o["to_ideal"].__setitem__(3, 0),
        "is_ideal": lambda i, o: o["is_ideal"].__setitem__(-1, not o["is_ideal"][-1]),
        "is_antichain": lambda i, o: o["is_antichain"].__setitem__(0, not o["is_antichain"][0]),
    },
    "clilib": {
        "cache hit value": lambda i, o: o["cache_hit"].__setitem__(0, {"count": -1}),
        "cache miss finds a value": lambda i, o: o["cache_miss"].__setitem__(0, {"count": 0}),
        "selftest failure": lambda i, o: o["run_selftest"][0].__setitem__(1, False),
    },
}


@pytest.mark.parametrize(
    "workload,case", [(w, c) for w, cases in MUTATIONS.items() for c in cases]
)
def test_library_checker_reports_a_wrong_answer(workload, case, quick_outputs, pm):
    inp, out = wrong(workload, quick_outputs, MUTATIONS[workload][case])
    assert checks.CHECKERS[workload](inp, out, pm) != []


def cli_command(cid):
    inp = inputs.cli(5, quick=True)
    scratch = os.path.join(BENCH, "out")
    os.makedirs(scratch, exist_ok=True)
    return inp, next(c for c in clicmds.commands(inp, scratch, 0) if c.cid == cid)


def _text(rows):
    return oracle.row_text(rows) + "\n"


CLI_WRONG = {
    "version": lambda inp: "pm version unknown\n",
    "validate": lambda inp: '{"valid": false}\n',
    "embed": lambda inp: ",".join(str(r + 1) for r in inp["embed"]) + "\n",
    "canonical": lambda inp: _text(inp["canonical"]) + "witness: " + ",".join(map(str, range(6)))[::-1] + "\n",
    "dual": lambda inp: _text(inp["dual"]),
    "induce": lambda inp: _text([1, 2, 4, 8]),
    "orbit": lambda inp: '{"alpha": [], "n": 4, "members": [[0, 1, 2, 4]], "exhausted": true, "states_visited": 1}',
    "ideals_jobs1": lambda inp: "7580\n",
    "dedekind": lambda inp: "169\n",
    "counts_miss": lambda inp: "poset matrices: 40\nisomorphism classes: 15\n",
    "enumerate_canonical": lambda inp: "1000\n0100\n0010\n0001\n\n1000\n1100\n0010\n0001\n",
    "enumerate_json": lambda inp: '{"n": 4, "matrices": [{"n": 4, "rows": ["1000", "0100", "0010", "0001"]}]}',
    "selftest": lambda inp: "FAIL ideal-count-table: counts ()\nselftest: 10/11 checks passed\n",
    "broken_cache": lambda inp: "0\n",
}


@pytest.mark.parametrize("cid", sorted(CLI_WRONG))
def test_cli_checker_reports_a_wrong_answer(cid):
    inp, cmd = cli_command(cid)
    assert cmd.check(CLI_WRONG[cid](inp)) != []
