"""Command-line front end: the `pm` command.

Exit codes: 0 success, 1 domain failure (invalid matrix, bad vector,
failed check), 2 usage error (argparse), 3 I/O error.  Output goes to
stdout, diagnostics to stderr; --format json selects machine-readable
output with a stable field order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import islice

from . import __version__, refdata
from .bmatrix import BoolMatrix, NotSquareError, _row_text, format_index_vector, parse_index_vector
from .cache import ResultCache
from .domination import OrbitResult, DEFAULT_ORBIT_BUDGET, domination_orbit
from .enumeration import (
    MAX_CLASS_SIDE,
    _class_level,
    _poset_rows,
    canonical_labelling,
    count_isomorphism_classes,
    count_poset_matrices,
    pascal_class,
)
from .ideals import antichain_table, count_fixed_points, count_ideals, dedekind
from .pascal import check_index_vector, induced_submatrix, pascal_matrix
from .posetcore import (
    NotTransitiveError,
    NotUnitLowerTriangularError,
    dual,
    dual_index,
    embed,
    validate,
)


class CliIOError(Exception):
    """File or stream problem; mapped to exit code 3."""


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliIOError(str(exc)) from exc


def _parse_matrix(text: str) -> BoolMatrix:
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ValueError(f"bad matrix JSON: {exc}") from exc
        return BoolMatrix.from_json_obj(obj)
    return BoolMatrix.from_text(text)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _record_text(n: int, json_format: bool):
    """Text of one side-n matrix record from its row masks, read from a table of the 2**n row strings.

    A JSON record is the matrix's to_json_obj() as json.dumps(indent=2)
    prints it as an item of a list that is a field of the top-level object.
    """
    table = [_row_text(row, n) for row in range(1 << n)]
    if not json_format:
        return lambda rows: "\n".join(map(table.__getitem__, rows))
    if n == 0:
        return lambda rows: '    {\n      "n": 0,\n      "rows": []\n    }'
    head = f'    {{\n      "n": {n},\n      "rows": [\n        "'
    return lambda rows: head + '",\n        "'.join(map(table.__getitem__, rows)) + '"\n      ]\n    }'


def _cached(args, key: str, compute) -> dict:
    """Value for key from the --cache-dir cache, or compute() stored there on a miss.

    The cache is best-effort: a failed write is a warning and the value is kept.
    """
    directory = args.cache_dir or os.environ.get("PM_CACHE_DIR")
    if not directory:
        return compute()
    cache = ResultCache(directory)
    value = cache.get(key)
    if value is None:
        value = compute()
        try:
            cache.put(key, value)
        except OSError as exc:
            print(f"pm: warning: result not cached: {exc}", file=sys.stderr)
    return value


# ---- subcommand handlers ---------------------------------------------------


def _failure_obj(exc: Exception) -> dict:
    if isinstance(exc, NotUnitLowerTriangularError):
        return {"kind": "not-unit-lower-triangular", "position": list(exc.position)}
    if isinstance(exc, NotTransitiveError):
        return {"kind": "not-transitive", "witness": list(exc.witness)}
    if isinstance(exc, NotSquareError):
        return {"kind": "not-square", "detail": str(exc)}
    return {"kind": "invalid", "detail": str(exc)}


def _cmd_validate(args) -> int:
    text = _read_source(args.source)
    try:
        a = validate(_parse_matrix(text))
    except ValueError as exc:
        if args.format == "json":
            _emit_json({"valid": False, "error": _failure_obj(exc)})
        else:
            print(f"pm: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"valid": True, "n": a.n})
    else:
        print(f"valid poset matrix (n={a.n})")
    return 0


def _cmd_embed(args) -> int:
    a = validate(_parse_matrix(_read_source(args.source)))
    alpha = embed(a)
    if args.format == "json":
        _emit_json({"n": a.n, "alpha": list(alpha), "universe": 1 << a.n})
    else:
        print(format_index_vector(alpha))
    return 0


def _cmd_induce(args) -> int:
    alpha = check_index_vector(parse_index_vector(args.alpha), 1 << args.n)
    sub = induced_submatrix(pascal_matrix(1 << args.n), alpha)
    if args.format == "json":
        _emit_json(sub.to_json_obj())
    else:
        print(sub.to_text())
    return 0


def _cmd_dual(args) -> int:
    a = validate(_parse_matrix(_read_source(args.source)))
    b = dual(a)
    if args.format == "json":
        _emit_json(b.matrix.to_json_obj())
    else:
        print(b.matrix.to_text())
    return 0


def _cmd_dual_index(args) -> int:
    alpha = parse_index_vector(args.alpha)
    beta = dual_index(alpha, args.n)
    if args.format == "json":
        _emit_json({"alpha": list(alpha), "n": args.n, "dual": list(beta)})
    else:
        print(format_index_vector(beta))
    return 0


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.emit == "counts":
        if n > MAX_CLASS_SIDE:
            raise ValueError(f"count emission includes class counts and supports n up to {MAX_CLASS_SIDE}")
        value = _cached(
            args,
            f"enumerate:n={n}:emit=counts",
            lambda: {
                "poset_matrices": count_poset_matrices(n),
                "isomorphism_classes": count_isomorphism_classes(n),
            },
        )
        if args.format == "json":
            _emit_json({"n": n, **value})
        else:
            print(f"poset matrices: {value['poset_matrices']}")
            print(f"isomorphism classes: {value['isomorphism_classes']}")
        return 0
    if args.emit == "canonical":
        if not 0 <= n <= MAX_CLASS_SIDE:
            raise ValueError(f"canonical emission supports n in [0, {MAX_CLASS_SIDE}], got {n}")
        masks = sorted(_class_level(n))
        field = "canonical_forms"
    else:
        masks = _poset_rows(n)
        field = "matrices"
    record = _record_text(n, args.format == "json")
    if args.format == "json":  # the text of _emit_json({"n": n, field: [record, ...]})
        head, sep, tail = f'{{\n  "n": {n},\n  "{field}": [\n', ",\n", "\n  ]\n}\n"
    else:
        head, sep, tail = "", "\n\n", "\n"
    sys.stdout.write(head)
    records = map(record, masks)
    gap = ""  # every side in range has at least one record, so the JSON list is never empty
    while batch := list(islice(records, 1024)):  # one write per record costs more CPU
        sys.stdout.write(gap + sep.join(batch))
        gap = sep
    sys.stdout.write(tail)
    return 0


def _cmd_canonical(args) -> int:
    a = validate(_parse_matrix(_read_source(args.source)))
    canon, witness = canonical_labelling(a)
    if args.format == "json":
        _emit_json({"canonical": canon.matrix.to_json_obj(), "witness": list(witness.mapping)})
    else:
        print(canon.matrix.to_text())
        print(f"witness: {format_index_vector(witness.mapping)}")
    return 0


def _cmd_orbit(args) -> int:
    alpha = check_index_vector(parse_index_vector(args.alpha), 1 << args.n)
    if args.method == "domination":
        result = domination_orbit(alpha, args.n, budget=args.budget)
    else:
        members = tuple(sorted(pascal_class(alpha, args.n)))
        result = OrbitResult(alpha, args.n, members, True, math.comb(1 << args.n, args.n))
    if args.format == "json":
        _emit_json(result.to_json_obj())
    else:
        for member in result.members:
            print(format_index_vector(member))
        if not result.exhausted:
            print(
                f"pm: warning: budget hit after {result.states_visited} states; orbit may be incomplete",
                file=sys.stderr,
            )
    return 0


def _cmd_ideals(args) -> int:
    n = args.n
    if args.list_triples:
        records = [{"antichain": list(a), "ideal": list(i), "fixed_point": f} for a, i, f in antichain_table(n)]
        if args.format == "json":
            _emit_json({"n": n, "count": len(records), "ideals": records})
        else:
            for record in records:
                print(json.dumps(record))
        return 0
    count = _cached(args, f"ideals:n={n}", lambda: {"count": count_ideals(n)})["count"]
    scanned = None
    if args.check_fixed_points:
        scanned = count_fixed_points(n)
        if scanned != count:
            print(
                f"pm: fixed-point scan found {scanned} but the ideal count is {count}",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        obj = {"n": n, "count": count}
        if scanned is not None:
            obj["fixed_point_count"] = scanned
        _emit_json(obj)
    else:
        print(count)
    return 0


def _cmd_dedekind(args) -> int:
    value = dedekind(args.k)
    if args.format == "json":
        _emit_json({"k": args.k, "ground_size": 1 << args.k, "count": value})
    else:
        print(value)
    return 0


def _cmd_selftest(args) -> int:
    results = refdata.run_selftest()
    ok_all = all(ok for _, ok, _ in results)
    if args.format == "json":
        _emit_json(
            {
                "ok": ok_all,
                "checks": [{"id": cid, "ok": ok, "detail": detail} for cid, ok, detail in results],
            }
        )
    else:
        for cid, ok, detail in results:
            print(f"{'ok   ' if ok else 'FAIL '}{cid}: {detail}")
        passed = sum(1 for _, ok, _ in results if ok)
        print(f"selftest: {passed}/{len(results)} checks passed")
    return 0 if ok_all else 1


# ---- parser ----------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_flags(sub: argparse.ArgumentParser, cached: bool = False) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    if not cached:  # --jobs and --cache-dir belong to the subcommands that read the cache
        return
    sub.add_argument("--jobs", type=_positive_int, default=1, help="accepted and ignored (N >= 1); every command runs in one process")
    sub.add_argument(
        "--cache-dir",
        default=None,
        help="directory for memoized counts (falls back to $PM_CACHE_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pm",
        description="Finite posets as Boolean triangular matrices: validate, embed, enumerate, count.",
    )
    parser.add_argument("--version", action="version", version=f"pm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("validate", help="check that a Boolean matrix is a poset matrix")
    p.add_argument("source", metavar="file|-", help="matrix file (text or JSON), or - for stdin")
    _common_flags(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("embed", help="index vector of a poset matrix inside the 2**n Pascal matrix")
    p.add_argument("source", metavar="file|-", help="matrix file (text or JSON), or - for stdin")
    _common_flags(p)
    p.set_defaults(handler=_cmd_embed)

    p = subs.add_parser("induce", help="principal submatrix of the 2**n Pascal matrix at --alpha")
    p.add_argument("--n", type=int, required=True, help="ambient exponent: the Pascal matrix has side 2**n")
    p.add_argument("--alpha", required=True, help="comma-separated index vector, e.g. 2,5,9,13")
    _common_flags(p)
    p.set_defaults(handler=_cmd_induce)

    p = subs.add_parser("dual", help="matrix of the dual poset (anti-diagonal reflection)")
    p.add_argument("source", metavar="file|-", help="matrix file (text or JSON), or - for stdin")
    _common_flags(p)
    p.set_defaults(handler=_cmd_dual)

    p = subs.add_parser("dual-index", help="dual of an index vector: complement against 2**n - 1 and reverse")
    p.add_argument("--n", type=int, required=True, help="ambient exponent")
    p.add_argument("--alpha", required=True, help="comma-separated index vector")
    _common_flags(p)
    p.set_defaults(handler=_cmd_dual_index)

    p = subs.add_parser("enumerate", help="all n x n poset matrices, their canonical forms, or counts")
    p.add_argument("--n", type=int, required=True, help="matrix side")
    p.add_argument(
        "--emit",
        choices=("matrices", "canonical", "counts"),
        default="matrices",
        help="what to print (default: matrices)",
    )
    _common_flags(p, cached=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = subs.add_parser("canonical", help="canonical form of a poset matrix plus a witness relabelling")
    p.add_argument("source", metavar="file|-", help="matrix file (text or JSON), or - for stdin")
    _common_flags(p)
    p.set_defaults(handler=_cmd_canonical)

    p = subs.add_parser("orbit", help="vectors reachable from --alpha, or its whole equivalence class")
    p.add_argument("--n", type=int, required=True, help="ambient exponent; alpha has n entries below 2**n")
    p.add_argument("--alpha", required=True, help="comma-separated index vector")
    p.add_argument(
        "--method",
        choices=("domination", "exhaustive"),
        default="domination",
        help="breadth-first rewrite search, or exhaustive class scan (default: domination)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ORBIT_BUDGET,
        help=f"max states to expand before flagging the result partial (default {DEFAULT_ORBIT_BUDGET})",
    )
    _common_flags(p)
    p.set_defaults(handler=_cmd_orbit)

    p = subs.add_parser("ideals", help="count (or list) the order ideals of the size-n Pascal poset")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--list", action="store_true", dest="list_triples", help="list antichain/ideal/fixed-point triples")
    p.add_argument(
        "--check-fixed-points",
        action="store_true",
        help="cross-check the count against the exhaustive fixed-point scan",
    )
    _common_flags(p, cached=True)
    p.set_defaults(handler=_cmd_ideals)

    p = subs.add_parser("dedekind", help="Dedekind number via the ideal count on 2**k elements")
    p.add_argument("--k", type=int, required=True, help="number of generators (0..5)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_dedekind)

    p = subs.add_parser("selftest", help="replay the bundled reference expectations")
    _common_flags(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except CliIOError as exc:
            print(f"pm: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"pm: {exc}", file=sys.stderr)
            return 1
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit flush
    except BrokenPipeError:  # the reader left, as in `pm enumerate --n 6 | head`: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
