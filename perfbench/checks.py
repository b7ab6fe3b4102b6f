"""Checks of the program's outputs against independent computations.

Each checker takes a workload's inputs and one round's outputs and returns a
list of error strings; an empty list means every output is right.  Reference
values are published tables (OEIS) or are recomputed by ``oracle`` from the
definitions; none is a stored copy of the program's output.  ``pm`` is the
program module, used only for the few cross-checks that compare two of its
own routes (a relabelled input, the fixed-point scan).
"""

from __future__ import annotations

from math import comb

import oracle

# Brinkmann & McKay, "Posets on up to 16 points", Order 19 (2002); OEIS.
A006455 = (1, 1, 2, 7, 40, 357, 4824, 96428)  # naturally labelled posets
A000112 = (1, 1, 2, 5, 16, 63, 318)  # unlabelled posets
A000372 = (2, 3, 6, 20, 168, 7581)  # Dedekind numbers

BRUTE_IDEALS_MAX = 16
FIXED_POINT_MAX = 18


def _tuples(pairs):
    return {tuple(p) for p in pairs}


def _expect(errors, ok, message):
    if not ok:
        errors.append(message)


# ---- census -------------------------------------------------------------


def check_census(inp, out, pm) -> list[str]:
    errors: list[str] = []
    sizes = inp["count_sizes"]
    _expect(errors, out["count"] == [A006455[n] for n in sizes], f"labelled counts {out['count']} != A006455")
    sizes = inp["class_sizes"]
    _expect(errors, out["classes"] == [A000112[n] for n in sizes], f"class counts {out['classes']} != A000112")

    n = inp["classify_n"]
    reports = out["classify"]
    _expect(errors, len(reports) == A000112[n], f"classify({n}) has {len(reports)} classes, not {A000112[n]}")
    _expect(errors, sum(r[2] for r in reports) == comb(1 << n, n), f"classify({n}) does not cover all index vectors")
    _expect(errors, sum(r[1] for r in reports) == A006455[n], f"classify({n}) does not cover all labelled matrices")
    forms = [tuple(r[0]) for r in reports]
    _expect(errors, len(set(forms)) == len(forms), f"classify({n}) repeats a class")
    for form in forms:
        _expect(errors, oracle.brute_canonical(form) == form, f"classify({n}) class {form} is not canonical")
    _expect(errors, out["dual_check"] is True, f"dual_class_check({n}) returned {out['dual_check']!r}")

    for sample, (form, witness) in zip(inp["samples"], out["canonical"]):
        rows, form = tuple(sample["rows"]), tuple(form)
        label = f"canonical_labelling{rows}"
        if sorted(witness) != list(range(len(rows))):
            errors.append(f"{label}: witness {witness} is not a permutation")
            continue
        _expect(errors, oracle.relabel(rows, witness) == form, f"{label}: witness does not give the form")
        _expect(errors, oracle.is_poset_rows(form), f"{label}: form is not a poset matrix")
        if len(rows) <= 6:
            _expect(errors, form == oracle.brute_canonical(rows), f"{label}: form is not the least relabelling")
        moved = oracle.relabel(rows, sample["relabel"])
        again = pm.canonical_labelling(pm.validate(pm.BoolMatrix(len(moved), moved)))[0].rows
        _expect(errors, tuple(again) == form, f"{label}: a relabelled copy has another form")
    _expect(errors, len(out["canonical"]) == len(inp["samples"]), "canonical outputs missing")

    for sample, got in zip(inp["samples"], out["kernels"]):
        rows = tuple(sample["rows"])
        label = f"kernels{rows}"
        _expect(errors, tuple(got["parsed"]) == rows, f"{label}: from_text")
        _expect(errors, tuple(got["square"]) == oracle.bool_square(rows), f"{label}: bool_mul")
        _expect(errors, tuple(got["permuted"]) == oracle.relabel(rows, sample["relabel"]), f"{label}: permute_similar")
        _expect(errors, tuple(got["dual"]) == oracle.flip_transpose(rows), f"{label}: dual")
        if len(rows) <= 6:
            # Row i read as an integer is the index vector, and the subset
            # test on those integers gives the matrix back.
            _expect(errors, tuple(got["realized"]) == oracle.subset_matrix(rows), f"{label}: realize")
            _expect(errors, tuple(got["induced"]) == oracle.subset_matrix(rows), f"{label}: induced_submatrix")
    _expect(errors, len(out["kernels"]) == len(inp["samples"]), "kernel outputs missing")
    return errors


# ---- orbit --------------------------------------------------------------


def check_orbit_result(alpha, n, members, exhausted, states) -> list[str]:
    """An orbit is a set of index vectors realizing alpha's poset, closed under
    column transpositions when exhausted."""
    errors: list[str] = []
    label = f"domination_orbit({tuple(alpha)}, {n})"
    members = [tuple(m) for m in members]
    member_set = set(members)
    _expect(errors, tuple(alpha) in member_set, f"{label}: alpha is not a member")
    _expect(errors, len(member_set) == len(members), f"{label}: repeated members")
    bad = [m for m in members if len(m) != n or list(m) != sorted(set(m)) or m[0] < 0 or m[-1] >= 1 << n]
    _expect(errors, not bad, f"{label}: members that are not index vectors, e.g. {bad[:1]}")
    if bad:
        return errors
    _expect(errors, exhausted is True, f"{label}: not exhausted")
    _expect(errors, states == len(members), f"{label}: {states} states expanded for {len(members)} members")
    target = oracle.brute_canonical(oracle.subset_matrix(alpha))
    for realized in {oracle.subset_matrix(m) for m in members}:
        if oracle.brute_canonical(realized) != target:
            errors.append(f"{label}: a member realizes a poset not isomorphic to alpha's")
            break
    if exhausted:
        pairs = [(c1, c2) for c1 in range(n) for c2 in range(c1 + 1, n)]
        for m in members:
            if any(oracle.swap_columns(m, c1, c2) not in member_set for c1, c2 in pairs):
                errors.append(f"{label}: not closed under column transpositions at {m}")
                break
    return errors


def check_orbit(inp, out, pm=None) -> list[str]:
    errors: list[str] = []
    for k, o in enumerate(inp["orbits"]):
        got = out[f"orbit{k}"]
        errors += check_orbit_result(o["alpha"], o["n"], got["members"], got["exhausted"], got["states"])
    for mat, changeable, relations, flips in zip(inp["matrices"], out["changeable"], out["relations"], out["flip"]):
        rows, n = tuple(mat["alpha"]), mat["n"]
        label = f"incidence{rows}"
        expected = oracle.changeable(rows, n)
        _expect(errors, _tuples(changeable) == expected, f"{label}: changeable_entries")
        _expect(errors, _tuples(relations) == oracle.profile(rows), f"{label}: domination_relations")
        for pos, got in enumerate(flips):
            i, j = divmod(pos, n)
            if (i, j) in expected:
                flipped = list(rows)
                flipped[i] ^= 1 << j
                _expect(errors, got == flipped, f"{label}: flip_entry({i}, {j})")
            else:
                _expect(errors, got is None, f"{label}: flip_entry({i}, {j}) accepted a non-changeable entry")
    _expect(errors, len(out["flip"]) == len(inp["matrices"]), "flip outputs missing")
    return errors


# ---- antichains -----------------------------------------------------------


def check_antichains(inp, out, pm) -> list[str]:
    errors: list[str] = []
    counts = out["count"]
    for n, got in zip(inp["count_sizes"], counts):
        _expect(errors, got == len(oracle.all_ideals(n)), f"count_ideals({n}) = {got}, down-set enumeration disagrees")
        if n <= BRUTE_IDEALS_MAX:
            _expect(errors, got == oracle.brute_count_ideals(n), f"count_ideals({n}) = {got}, brute force disagrees")
        if n <= FIXED_POINT_MAX:
            _expect(errors, got == pm.count_fixed_points(n), f"count_ideals({n}) = {got}, fixed-point scan disagrees")
    _expect(errors, len(counts) == len(inp["count_sizes"]), "count outputs missing")
    ks = inp["dedekind_ks"]
    _expect(errors, out["dedekind"] == [A000372[k] for k in ks], f"dedekind {out['dedekind']} != A000372")

    tables = [out[f"table{size}"] for size in inp["table_sizes"]]
    for n, ideals, table in zip(inp["table_sizes"], out["iter"], tables):
        expected = oracle.all_ideals(n)
        _expect(errors, sorted(ideals) == sorted(expected), f"iter_ideals({n}) is not the set of down-sets")
        _expect(errors, len(table) == len(expected), f"antichain_table({n}) has {len(table)} rows")
        seen = set()
        for anti, ideal, fixed in table:
            anti_mask = sum(1 << e for e in anti)
            ideal_mask = sum(1 << e for e in ideal)
            seen.add(ideal_mask)
            if not (
                anti == sorted(set(anti))
                and ideal == sorted(set(ideal))
                and oracle.is_antichain(anti_mask, n)
                and oracle.down_closure(anti_mask, n) == ideal_mask
                and fixed == "".join("1" if ideal_mask >> j & 1 else "0" for j in range(n))
            ):
                errors.append(f"antichain_table({n}): bad row {anti}, {ideal}, {fixed}")
                break
        _expect(errors, len(seen) == len(table), f"antichain_table({n}) repeats an ideal")
        keys = [(len(row[0]), row[0]) for row in table]
        _expect(errors, keys == sorted(keys), f"antichain_table({n}) is not in antichain order")

    n = inp["conversion_n"]
    expected = [oracle.maximal_elements(m, n) for m in inp["ideals"]]
    _expect(errors, out["to_antichain"] == expected, "ideal_to_antichain disagrees with the maximal elements")
    _expect(errors, out["to_ideal"] == inp["ideals"], "antichain_to_ideal does not give the ideal back")
    masks = inp["ideals"] + inp["masks"]
    _expect(errors, out["is_ideal"] == [oracle.is_down_set(m, n) for m in masks], "is_ideal disagrees")
    masks = inp["antichains"] + inp["masks"]
    _expect(errors, out["is_antichain"] == [oracle.is_antichain(m, n) for m in masks], "is_antichain disagrees")
    return errors


# ---- the library part of the cli workload --------------------------------------


def check_clilib(inp, out, pm=None) -> list[str]:
    errors: list[str] = []
    keys = inp["cache_keys"]
    _expect(errors, out["cache_miss"] == [None] * len(keys), "ResultCache.get found a key never stored")
    _expect(errors, out["cache_put"] == [None] * len(keys), "ResultCache.put returned a value")
    values = [{"count": i, "key": k} for i, k in enumerate(keys)]
    _expect(errors, out["cache_hit"] == values, "ResultCache.get did not return what was stored")
    failed = [r for r in out["run_selftest"] if r[1] is not True]
    _expect(errors, out["run_selftest"] and not failed, f"run_selftest failures: {failed}")
    return errors


CHECKERS = {"census": check_census, "orbit": check_orbit, "antichains": check_antichains, "clilib": check_clilib}
