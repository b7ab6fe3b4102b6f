"""One fresh interpreter that runs one round of a library workload.

Reads a JSON request on stdin: {"src", "workload", "inputs", "trace",
"full", "scratch"}.  Imports the program from "src", then runs the
workload's tasks in order, each bracketed by the reference loop, and prints
one JSON object: per-task timings, the outputs for the checks (only their
digests unless "full"), the units of work done, the peak resident set at
the end of the timed part, and the spans when tracing.

Every round runs in its own interpreter because the program memoizes
(canonical forms, class tables, Pascal matrices, predecessor masks) for the
life of the interpreter; a fresh one starts from what a user's ``pm`` holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys

import oracle
from refloop import bracketed
from spans import Tracer


def _digest(value) -> str:
    """Fingerprint of an output; rounds after the checked one send only this."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _drain(fn):
    return lambda *args: list(fn(*args))


def layer_calls(pm) -> dict:
    """Public program functions the workloads call, by ``<layer>.<name>``."""
    from posetmatrix import cache, refdata

    return {
        "bmatrix.from_text": pm.BoolMatrix.from_text,
        "bmatrix.bool_mul": pm.bool_mul,
        "bmatrix.permute_similar": pm.permute_similar,
        "posetcore.validate": pm.validate,
        "posetcore.embed": pm.embed,
        "posetcore.realize": pm.realize,
        "posetcore.dual": pm.dual,
        "pascal.pascal_matrix": pm.pascal_matrix,
        "pascal.induced_submatrix": pm.induced_submatrix,
        "enumeration.count_poset_matrices": pm.count_poset_matrices,
        "enumeration.count_isomorphism_classes": pm.count_isomorphism_classes,
        "enumeration.classify_index_vectors": pm.classify_index_vectors,
        "enumeration.dual_class_check": pm.dual_class_check,
        "enumeration.canonical_labelling": pm.canonical_labelling,
        "domination.domination_orbit": pm.domination_orbit,
        "domination.changeable_entries": pm.changeable_entries,
        "domination.domination_relations": pm.domination_relations,
        "domination.flip_entry": pm.flip_entry,
        "ideals.count_ideals": pm.count_ideals,
        "ideals.dedekind": pm.dedekind,
        "ideals.iter_ideals": _drain(pm.iter_ideals),
        "ideals.antichain_table": pm.antichain_table,
        "ideals.ideal_to_antichain": pm.ideal_to_antichain,
        "ideals.antichain_to_ideal": pm.antichain_to_ideal,
        "ideals.is_ideal": pm.is_ideal,
        "ideals.is_antichain": pm.is_antichain,
        "cache.ResultCache.get": cache.ResultCache.get,
        "cache.ResultCache.put": cache.ResultCache.put,
        "refdata.run_selftest": refdata.run_selftest,
    }


# ---- task lists -------------------------------------------------------------
# Each maker returns [(task name, zero-argument callable)].  Everything a task
# needs is built before it and its result is turned into JSON after it
# (to_json), so only program calls fall inside the timing.


def census_tasks(pm, c, inp, scratch):
    samples = [pm.validate(pm.BoolMatrix(len(s["rows"]), tuple(s["rows"]))) for s in inp["samples"]]
    texts = [oracle.row_text(s["rows"]) for s in inp["samples"]]
    perms = [pm.Permutation(tuple(s["relabel"])) for s in inp["samples"]]

    def kernels():
        out = []
        for text, perm in zip(texts, perms):
            m = c["bmatrix.from_text"](text)
            a = c["posetcore.validate"](m)
            row = {
                "parsed": m,
                "square": c["bmatrix.bool_mul"](m, m),
                "permuted": c["bmatrix.permute_similar"](m, perm),
                "dual": c["posetcore.dual"](a),
            }
            if m.n <= 6:
                alpha = c["posetcore.embed"](a)
                row["realized"] = c["posetcore.realize"](alpha, m.n)
                row["induced"] = c["pascal.induced_submatrix"](c["pascal.pascal_matrix"](1 << m.n), alpha)
            out.append(row)
        return out

    return [
        ("count", lambda: [c["enumeration.count_poset_matrices"](n) for n in inp["count_sizes"]]),
        ("classes", lambda: [c["enumeration.count_isomorphism_classes"](n) for n in inp["class_sizes"]]),
        ("classify", lambda: c["enumeration.classify_index_vectors"](inp["classify_n"])),
        ("dual_check", lambda: c["enumeration.dual_class_check"](inp["classify_n"])),
        ("canonical", lambda: [c["enumeration.canonical_labelling"](a) for a in samples]),
        ("kernels", kernels),
    ]


def orbit_tasks(pm, c, inp, scratch):
    mats = [pm.incidence_matrix(m["alpha"], m["n"]) for m in inp["matrices"]]

    def flip(m, i, j):
        try:
            return c["domination.flip_entry"](m, i, j)
        except pm.NotChangeableError:
            return None

    orbit = c["domination.domination_orbit"]
    tasks = [(f"orbit{k}", lambda o=o: orbit(o["alpha"], o["n"])) for k, o in enumerate(inp["orbits"])]
    return tasks + [
        ("changeable", lambda: [c["domination.changeable_entries"](m) for m in mats]),
        ("relations", lambda: [c["domination.domination_relations"](m) for m in mats]),
        ("flip", lambda: [[flip(m, i, j) for i in range(m.n) for j in range(m.n)] for m in mats]),
    ]


def antichains_tasks(pm, c, inp, scratch):
    n = inp["conversion_n"]
    # One task per table size: shorter samples follow the reference loop better.
    tables = [(f"table{size}", lambda size=size: c["ideals.antichain_table"](size)) for size in inp["table_sizes"]]
    return [
        ("count", lambda: [c["ideals.count_ideals"](k) for k in inp["count_sizes"]]),
        ("dedekind", lambda: [c["ideals.dedekind"](k) for k in inp["dedekind_ks"]]),
        ("iter", lambda: [c["ideals.iter_ideals"](size) for size in inp["table_sizes"]]),
        *tables,
        ("to_antichain", lambda: [c["ideals.ideal_to_antichain"](m, n) for m in inp["ideals"]]),
        ("to_ideal", lambda: [c["ideals.antichain_to_ideal"](a, n) for a in inp["antichains"]]),
        ("is_ideal", lambda: [c["ideals.is_ideal"](m, n) for m in inp["ideals"] + inp["masks"]]),
        ("is_antichain", lambda: [c["ideals.is_antichain"](m, n) for m in inp["antichains"] + inp["masks"]]),
    ]


def clilib_tasks(pm, c, inp, scratch):
    from posetmatrix.cache import ResultCache

    store = ResultCache(scratch)
    keys = inp["cache_keys"]
    values = [{"count": i, "key": k} for i, k in enumerate(keys)]
    return [
        ("cache_miss", lambda: [c["cache.ResultCache.get"](store, k) for k in keys]),
        ("cache_put", lambda: [c["cache.ResultCache.put"](store, k, v) for k, v in zip(keys, values)]),
        ("cache_hit", lambda: [c["cache.ResultCache.get"](store, k) for k in keys]),
        ("run_selftest", lambda: c["refdata.run_selftest"]()),
    ]


def _guarded(fn, tracer, span_name):
    """fn as a sample that returns (output, error): a task that raises is
    counted as failed, not fatal to the round."""

    def sample():
        try:
            if tracer:
                with tracer.span(span_name):
                    return fn(), None
            return fn(), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    return sample


def to_json(pm, value):
    """A task's result in the JSON form the checks read: matrices as row
    lists, permutations as image lists, sets sorted."""
    if isinstance(value, (list, tuple)):
        return [to_json(pm, v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_json(pm, v) for v in value)
    if isinstance(value, dict):
        return {k: to_json(pm, v) for k, v in value.items()}
    if isinstance(value, (pm.BoolMatrix, pm.PosetMatrix)):
        return list(value.rows)
    if isinstance(value, pm.Permutation):
        return list(value.mapping)
    if isinstance(value, pm.OrbitResult):
        return {"members": to_json(pm, value.members), "exhausted": value.exhausted, "states": value.states_visited}
    if isinstance(value, pm.ClassReport):
        return [list(value.canonical.rows), value.class_size_labelled, value.index_vector_count]
    return value


TASKS = {"census": census_tasks, "orbit": orbit_tasks, "antichains": antichains_tasks, "clilib": clilib_tasks}


def work_done(workload: str, outputs) -> dict[str, int]:
    """Units of work a round did, for the per-layer throughput metrics."""
    if workload == "census" and outputs["count"] is not None:
        return {"matrices": sum(outputs["count"])}
    if workload == "orbit":
        return {"states": sum(o["states"] for k, o in outputs.items() if k.startswith("orbit") and o)}
    if workload == "antichains" and outputs["iter"] is not None:
        return {"ideals": sum(len(ideals) for ideals in outputs["iter"])}
    return {}


def main() -> int:
    req = json.load(sys.stdin)
    src = os.path.abspath(req["src"])
    sys.path.insert(0, src)
    import posetmatrix as pm

    if os.path.dirname(os.path.abspath(pm.__file__)) != os.path.join(src, "posetmatrix"):
        print(f"imported posetmatrix from {pm.__file__}, not from {src}", file=sys.stderr)
        return 2
    calls = layer_calls(pm)
    tracer = Tracer() if req["trace"] else None
    if tracer:
        calls = {name: tracer.wrap(name, fn) for name, fn in calls.items()}
    workload = req["workload"]
    tasks = TASKS[workload](pm, calls, req["inputs"], req["scratch"])

    results, outputs = [], {}
    for name, fn in tasks:
        first = len(tracer.spans) if tracer else 0
        out, error, br = bracketed(_guarded(fn, tracer, f"bench.{workload}.{name}"))
        if tracer:
            for span in tracer.spans[first:]:
                span[5] *= br.scale
        outputs[name] = to_json(pm, out)
        results.append(
            {"name": name, "raw": br.raw, "ref_before": br.ref_before, "ref_after": br.ref_after,
             "wall": br.wall, "error": error}
        )
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    work = work_done(workload, outputs)
    if not req["full"]:
        outputs = {name: _digest(out) for name, out in outputs.items()}
    json.dump(
        {
            "tasks": results,
            "outputs": outputs,
            "maxrss_kb": maxrss_kb,
            "work": work,
            "spans": tracer.spans if tracer else [],
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
