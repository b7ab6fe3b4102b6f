#!/usr/bin/env python3
"""Benchmark of the posetmatrix library and the ``pm`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, orbit, antichains, cli (see perfbench/README.md).  A run
repeats whole rounds of the workload's fixed task list for ``--seconds``
seconds, each library round in a fresh interpreter and each CLI command in
its own.  Every time is rescaled by the reference loop (refloop.py).  Every
output is checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import checks
import clicmds
import inputs
from refloop import Bracket, median, reference_time
from spans import Tracer, self_times

WORKLOADS = ("census", "orbit", "antichains", "cli")
# Which workload reaches each program layer; a traced run measures every
# layer, borrowing one traced round of the owning workload when needed.
LAYER_OWNER = {
    "bmatrix": "census",
    "posetcore": "census",
    "pascal": "census",
    "enumeration": "census",
    "domination": "orbit",
    "ideals": "antichains",
    "cache": "cli",
    "cli": "cli",
    "refdata": "cli",
}
SETUP_SAMPLES = 11
PROCESS_TIMEOUT_S = 150
MB = 1 << 20


class Round:
    """One whole round of a workload: per-operation timings and outputs."""

    def __init__(self, workload: str):
        self.workload = workload
        self.ops: dict[str, dict] = {}  # name -> {"seconds", "error", ...}
        self.outputs: dict[str, object] = {}
        self.peak_kb = 0
        self.spans: list[list] = []  # [id, parent, name, start, end, seconds, proc]
        self.command_checks: dict[str, object] = {}  # cli command -> stdout check
        self.work: dict[str, int] = {}  # units of work done, for throughput


class Bench:
    """Starts and times the child processes of one run, inside its checkout."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        self.env = dict(os.environ)
        self.env.pop("PM_CACHE_DIR", None)
        self.env["PYTHONPATH"] = self.src
        self.refs: list[float] = []  # every raw reference time seen, for the summary line

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ---- processes --------------------------------------------------------

    def spawn(self, argv: list[str], stdin: bytes = b""):
        """Run a child to its end; return (stdout, stderr, exit code, rusage, Bracket).

        The sample is the CPU time of the child and of every descendant it
        waited for (pool workers), from wait4; the reference loop runs here,
        in the parent, right before and after."""
        with tempfile.TemporaryFile(dir=self.scratch) as fin, tempfile.TemporaryFile(dir=self.scratch) as ferr:
            fin.write(stdin)
            fin.seek(0)
            before = reference_time()
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=fin, stdout=subprocess.PIPE, stderr=ferr)
            try:
                out = _read_all(proc, PROCESS_TIMEOUT_S)
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            cpu = usage.ru_utime + usage.ru_stime
            bracket = Bracket(cpu, before, reference_time(), perf_counter() - t0)
            ferr.seek(0)
            err = ferr.read().decode("utf-8", "replace")
        self.refs += [bracket.ref_before, bracket.ref_after]
        return out, err, proc.returncode, usage, bracket

    def setup_sample(self) -> float:
        out, err, code, _, bracket = self.spawn([sys.executable, "-c", "import posetmatrix"])
        if code != 0:
            raise SystemExit(f"importing posetmatrix from {self.src} failed:\n{err}")
        return bracket.rescaled

    # ---- rounds -------------------------------------------------------------

    def library_round(self, workload: str, inp, traced: bool, round_no: int, full: bool, name=None) -> Round:
        """One round in a fresh worker; with full=False it returns output digests only."""
        rnd = Round(name or workload)
        scratch = os.path.join(self.scratch, f"lib-{round_no}")
        req = {"src": self.src, "workload": workload, "inputs": inp, "trace": traced, "full": full,
               "scratch": scratch}
        worker = os.path.join(self.root, "perfbench", "worker.py")
        out, err, code, _, _ = self.spawn([sys.executable, worker], json.dumps(req).encode())
        if code != 0:
            raise RuntimeError(f"{workload} worker exited with {code}:\n{err[-2000:]}")
        res = json.loads(out)
        for task in res["tasks"]:
            bracket = Bracket(task["raw"], task["ref_before"], task["ref_after"], task["wall"])
            self.refs += [bracket.ref_before, bracket.ref_after]
            rnd.ops[task["name"]] = {"seconds": bracket.rescaled, "raw": bracket.raw, "wall": bracket.wall,
                                     "error": task["error"]}
        rnd.outputs = res["outputs"]
        rnd.peak_kb = res["maxrss_kb"]
        rnd.spans = [span + ["worker"] for span in res["spans"]]
        rnd.work = res["work"]
        return rnd

    def cli_round(self, inp, traced: bool, round_no: int, full: bool) -> Round:
        rnd = self.library_round("clilib", inp, traced, round_no, full, name="cli")
        tracer = Tracer()
        for cmd in clicmds.commands(inp, self.scratch, round_no):
            argv = [sys.executable, "-m", "posetmatrix"] + cmd.argv
            first = len(tracer.spans)
            with tracer.span(f"cli.{cmd.cid}"):
                out, err, code, usage, bracket = self.spawn(argv, cmd.stdin.encode())
            for span in tracer.spans[first:]:
                span[5] = bracket.rescaled
                span.append("main")
            rnd.ops[cmd.cid] = {
                "seconds": bracket.rescaled,
                "raw": bracket.raw,
                "wall": bracket.wall,
                "error": None if code == 0 else f"exit {code}: {(err.strip().splitlines() or [''])[-1]}",
                "rss_kb": usage.ru_maxrss,
                "stdout_bytes": len(out),
            }
            rnd.outputs[cmd.cid] = out
            rnd.command_checks[cmd.cid] = cmd.check
            rnd.peak_kb = max(rnd.peak_kb, usage.ru_maxrss)
        if traced:
            rnd.spans += tracer.spans
        return rnd


def _read_all(proc, timeout: float) -> bytes:
    """Read a child's stdout to EOF, killing it if it runs past the timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.stdout.read()
    finally:
        timer.cancel()


# ---- checking -----------------------------------------------------------------


def _digest(value) -> str:
    """Same fingerprint as the worker's; a string output already is one."""
    if isinstance(value, str):
        return value
    data = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _run_checker(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as exc:  # malformed output is a wrong answer, not a crash
        return [f"checker raised {type(exc).__name__}: {exc}"]


class Checker:
    """Checks the first successful output of every operation in full against
    independent computations, and every later one for equality with it.
    Outputs of failed operations are not checked; they are counted."""

    def __init__(self, inputs_by_workload, load_program):
        self.inputs = inputs_by_workload
        self.load_program = load_program
        self.digests: dict[tuple[str, str], str] = {}
        self.library_checked: set[str] = set()
        self.errors: list[str] = []

    def _note(self, where: str, errors) -> None:
        self.errors += [f"{where}: {e}" for e in errors]

    def check(self, rnd: Round) -> None:
        w, inp = rnd.workload, self.inputs[rnd.workload]
        library = [n for n in rnd.outputs if n not in rnd.command_checks]
        ok = {n for n, op in rnd.ops.items() if op["error"] is None}
        if library and w not in self.library_checked and ok.issuperset(library):
            checker = checks.CHECKERS["clilib" if w == "cli" else w]
            out = {n: rnd.outputs[n] for n in library}
            self._note(w, _run_checker(checker, inp, out, self.load_program()))
            self.library_checked.add(w)
            self.digests.update({(w, n): _digest(rnd.outputs[n]) for n in library})
        for name in sorted(ok):
            key, out = (w, name), rnd.outputs[name]
            if key in self.digests:
                if _digest(out) != self.digests[key]:
                    self.errors.append(f"{w}/{name}: output differs between rounds")
            elif name in rnd.command_checks:
                check = rnd.command_checks[name]
                self._note(f"{w}/{name}", _run_checker(lambda: check(out.decode())))
                self.digests[key] = _digest(out)
        for a, b in clicmds.SAME_STDOUT:
            if {a, b} <= ok and rnd.outputs[a] != rnd.outputs[b]:
                self.errors.append(f"{w}/{a}: stdout differs from {b}")
        rnd.outputs = None  # checked; keep memory flat over long runs

    def unchecked(self, workloads) -> list[str]:
        return [f"{w}: no round finished every library task, so none was checked"
                for w in workloads if w not in self.library_checked]


# ---- metrics --------------------------------------------------------------------


def solve_seconds(rounds: list[Round]) -> float:
    """Sum over operations of each one's median rescaled time."""
    names = rounds[0].ops.keys()
    return sum(median([r.ops[n]["seconds"] for r in rounds if n in r.ops]) for n in names)


def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    return {
        "setup_s": (median(setup), "s"),
        "solve_s": (solve_seconds(rounds), "s"),
        "peak_rss_mb": (median([r.peak_kb for r in rounds]) * 1024 / MB, "MB"),
    }


def per_layer(traced: dict[str, list[Round]], overhead_s: float) -> dict:
    """Per-layer metrics; ``traced`` maps each workload to its traced rounds."""
    calls: dict[str, list[float]] = {}
    sums: dict[str, list[float]] = {}
    worst: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    for rounds in traced.values():
        for rnd in rounds:
            names = {(s[6], s[0]): s[2] for s in rnd.spans}
            per_name: dict[str, list[float]] = {}
            for s in rnd.spans:
                name = s[2]
                if name == "cache.ResultCache.get":
                    name += "@" + names[(s[6], s[1])].rsplit(".", 1)[-1]
                per_name.setdefault(name, []).append(s[5])
            for name, values in per_name.items():
                calls.setdefault(name, []).extend(values)
                sums.setdefault(name, []).append(sum(values))
                worst.setdefault(name, []).append(max(values))
            for proc in ("worker", "main"):
                group = [s for s in rnd.spans if s[6] == proc]
                for layer, seconds in self_times(group).items():
                    if layer in LAYER_OWNER:
                        selfs.setdefault(layer, []).append(seconds)

    def per_call(name, scale):
        return median(calls.get(name, [])) * scale

    def per_round(name, scale=1.0):
        return median(sums.get(name, [])) * scale

    def rate(workload, unit, name):
        pairs = [(r.work.get(unit, 0), sum(s[5] for s in r.spans if s[2] == name)) for r in traced[workload]]
        return median([units / secs for units, secs in pairs if secs > 0])

    cli = traced["cli"]

    def cli_op(field, cid, scale=1.0):
        return median([r.ops[cid][field] for r in cli]) * scale

    us, ms = 1e6, 1e3
    m = {
        "bmatrix.bool_mul_us": (per_call("bmatrix.bool_mul", us), "us"),
        "bmatrix.permute_similar_us": (per_call("bmatrix.permute_similar", us), "us"),
        "bmatrix.from_text_us": (per_call("bmatrix.from_text", us), "us"),
        "posetcore.validate_us": (per_call("posetcore.validate", us), "us"),
        "posetcore.realize_us": (per_call("posetcore.realize", us), "us"),
        "posetcore.dual_us": (per_call("posetcore.dual", us), "us"),
        "pascal.induced_submatrix_us": (per_call("pascal.induced_submatrix", us), "us"),
        "enumeration.count_s": (per_round("enumeration.count_poset_matrices"), "s"),
        "enumeration.matrices_per_s": (rate("census", "matrices", "enumeration.count_poset_matrices"), "1/s"),
        "enumeration.classes_s": (per_round("enumeration.count_isomorphism_classes"), "s"),
        "enumeration.canonical_us": (per_call("enumeration.canonical_labelling", us), "us"),
        "enumeration.canonical_worst_ms": (median(worst.get("enumeration.canonical_labelling", [])) * ms, "ms"),
        "enumeration.classify_s": (per_round("enumeration.classify_index_vectors"), "s"),
        "domination.orbit_s": (per_round("domination.domination_orbit"), "s"),
        "domination.states_per_s": (rate("orbit", "states", "domination.domination_orbit"), "1/s"),
        "domination.states": (median([r.work["states"] for r in traced["orbit"]]), "count"),
        "domination.changeable_us": (per_call("domination.changeable_entries", us), "us"),
        "domination.relations_us": (per_call("domination.domination_relations", us), "us"),
        "domination.flip_us": (per_call("domination.flip_entry", us), "us"),
        "ideals.count_ms": (per_round("ideals.count_ideals", ms), "ms"),
        "ideals.ideals_per_s": (rate("antichains", "ideals", "ideals.iter_ideals"), "1/s"),
        "ideals.antichain_table_s": (per_round("ideals.antichain_table"), "s"),
        "ideals.to_antichain_us": (per_call("ideals.ideal_to_antichain", us), "us"),
        "cache.get_hit_us": (per_call("cache.ResultCache.get@cache_hit", us), "us"),
        "cache.get_miss_us": (per_call("cache.ResultCache.get@cache_miss", us), "us"),
        "cache.put_us": (per_call("cache.ResultCache.put", us), "us"),
        "cli.startup_s": (cli_op("seconds", "version"), "s"),
        "cli.enumerate_json_s": (cli_op("seconds", "enumerate_json"), "s"),
        "cli.enumerate_json_rss_mb": (cli_op("rss_kb", "enumerate_json", 1024 / MB), "MB"),
        "cli.stdout_mb": (median([sum(op.get("stdout_bytes", 0) for op in r.ops.values()) for r in cli]) / MB, "MB"),
        "cli.counts_miss_s": (cli_op("seconds", "counts_miss"), "s"),
        "cli.counts_hit_s": (cli_op("seconds", "counts_hit"), "s"),
        "cli.ideals_jobs1_s": (cli_op("seconds", "ideals_jobs1"), "s"),
        "cli.ideals_jobs2_s": (cli_op("seconds", "ideals_jobs2"), "s"),
        "cli.cpu_s": (median([sum(r.ops[c]["seconds"] for c in r.command_checks) for r in cli]), "s"),
        "refdata.selftest_s": (per_round("refdata.run_selftest"), "s"),
    }
    for layer in LAYER_OWNER:
        m[f"{layer}.self_s"] = (median(selfs.get(layer, [])), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ---- the run ---------------------------------------------------------------------


def git_revision(root: str) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to repeat whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs and few set-up samples, for the tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "posetmatrix", "__init__.py")):
        print("perfbench: run from the root of a posetmatrix checkout (no src/posetmatrix here)", file=sys.stderr)
        return 2
    bench = Bench(root)
    try:
        return _run(bench, args)
    finally:
        bench.close()


def _run(bench: Bench, args) -> int:
    refs0 = [reference_time() for _ in range(15)]
    print(f"python {platform.python_version()} | nproc {os.cpu_count()} | git {git_revision(bench.root)}")
    print(f"workload {args.workload} | seed {args.seed} | seconds {args.seconds} | trace {args.trace}"
          f" | reference loop raw median {median(refs0) * 1e3:.3f} ms CPU")

    workloads = [args.workload]
    if args.trace:
        workloads += [w for w in WORKLOADS if w != args.workload]
    made = {w: inputs.MAKERS[w](args.seed, args.quick) for w in workloads}

    program = []

    def load_program():
        if not program:
            sys.path.insert(0, bench.src)
            import posetmatrix

            program.append(posetmatrix)
        return program[0]

    checker = Checker(made, load_program)

    def one_round(workload, traced, k):
        full = workload not in checker.library_checked
        if workload == "cli":
            return bench.cli_round(made["cli"], traced, k, full)
        return bench.library_round(workload, made[workload], traced, k, full)

    bench.setup_sample()  # untimed: compiles bytecode on a fresh checkout
    setup = [bench.setup_sample() for _ in range(2 if args.quick else SETUP_SAMPLES)]

    plain: list[Round] = []
    traced: dict[str, list[Round]] = {w: [] for w in WORKLOADS}
    spent = 0.0
    k = 0
    while not plain or (args.trace and not traced[args.workload]) or spent < args.seconds:
        trace_this = bool(args.trace) and len(traced[args.workload]) < len(plain)
        t0 = perf_counter()
        rnd = one_round(args.workload, trace_this, k)
        spent += perf_counter() - t0  # checking is not measured time
        checker.check(rnd)
        (traced[args.workload] if trace_this else plain).append(rnd)
        k += 1
    for w in workloads[1:]:
        rnd = one_round(w, True, k)
        checker.check(rnd)
        traced[w].append(rnd)
        k += 1

    main_rounds = plain + traced[args.workload]
    attempted = sum(len(r.ops) for r in main_rounds)
    failed = sum(1 for r in main_rounds for op in r.ops.values() if op["error"] is not None)
    for w in workloads:
        rounds = main_rounds if w == args.workload else traced[w]
        bad = [f"{name}: {op['error']}" for r in rounds for name, op in r.ops.items() if op["error"]]
        print(f"ops {w}: rounds {len(rounds)} attempted {sum(len(r.ops) for r in rounds)} failed {len(bad)}"
              + (f" (first: {bad[0]})" if bad else ""))
    errors = checker.errors + checker.unchecked(workloads)
    for e in errors[:20]:
        print(f"CHECK FAILED {e}")

    if args.trace:
        overhead = solve_seconds(traced[args.workload]) - solve_seconds(plain)
        metrics = per_layer(traced, overhead)
    else:
        metrics = end_to_end(plain, setup)
    print(f"reference loop raw median over the run {median(bench.refs or refs0) * 1e3:.3f} ms CPU "
          f"over {len(bench.refs)} brackets")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = os.path.join(bench.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        ops = {
            name: {"seconds": median([r.ops[name]["seconds"] for r in main_rounds]),
                   "raw": median([r.ops[name]["raw"] for r in main_rounds]),
                   "wall": median([r.ops[name]["wall"] for r in main_rounds]),
                   "rounds": [r.ops[name]["seconds"] for r in main_rounds]}
            for name in main_rounds[0].ops
        }
        json.dump({**result, "errors": errors, "rounds": len(main_rounds), "setup": setup, "ops": ops}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
            spans = [
                {"run": run_id, "round": i, "proc": s[6], "id": s[0], "parent": s[1], "name": s[2],
                 "start": s[3], "end": s[4], "seconds": s[5]}
                for w, rounds in traced.items() for i, r in enumerate(rounds) for s in r.spans
            ]
            json.dump(spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
