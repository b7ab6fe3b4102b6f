"""Command-line front end: the `pm` command.

Exit codes: 0 success, 1 domain failure (invalid matrix, bad vector,
failed check), 2 usage error (argparse), 3 I/O error.  Output goes to
stdout, diagnostics to stderr; --format json selects machine-readable
output with a stable field order.

Each handler imports the library layers it runs, so a command compiles
only those: `pm --version` loads no layer, and the result cache (with
hashlib) loads only for `enumerate --emit counts` with a cache directory.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

from . import DEFAULT_ORBIT_BUDGET, __version__


class CliIOError(Exception):
    """File or stream problem; mapped to exit code 3."""


def _read_source(path: str) -> str:
    """The text of a file, or of stdin for -, decoded the same way: strict UTF-8, universal newlines."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise CliIOError(str(exc)) from exc
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _parse_matrix(text: str):
    from .bmatrix import BoolMatrix

    if text.lstrip().startswith("{"):
        import json

        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ValueError(f"bad matrix JSON: {exc}") from exc
        return BoolMatrix.from_json_obj(obj)
    return BoolMatrix.from_text(text)


def _read_poset(args):
    """The poset matrix in args.source (a file, or - for stdin), as text or JSON."""
    from .posetcore import validate

    return validate(_parse_matrix(_read_source(args.source)))


def _emit(args, obj, text) -> None:
    """Print obj as indented JSON under --format json, and text otherwise."""
    if args.format == "json":
        import json

        text = json.dumps(obj, indent=2)
    print(text)


def _write_records(n: int, field: str, groups, json_format: bool) -> None:
    """Write the side-n matrices of (prefix rows, last-row down-sets) groups as one list.

    The text is what _emit prints for {"n": n, field: [to_json_obj(), ...]}
    in JSON, and that of to_text() with a blank line between records in text.
    Records in a group differ only in their last row, so a group is its
    prefix's text, joined to each last row's text: one join per prefix,
    from a table of the 2**n row strings.  At n = 0 the one record is the
    empty matrix, with no last row to group by, and groups is not read.
    """
    from .bmatrix import _row_text

    rows_text = [_row_text(row, n) for row in range(1 << n)]
    if json_format:
        head, sep, tail = f'{{\n  "n": {n},\n  "{field}": [\n', ",\n", "\n  ]\n}\n"
        start, mid, end = f'    {{\n      "n": {n},\n      "rows": [\n        "', '",\n        "', '"\n      ]\n    }'
    else:
        head, sep, tail = "", "\n\n", "\n"
        start, mid, end = "", "\n", ""
    write = sys.stdout.write
    write(head)
    if n == 0:
        write('    {\n      "n": 0,\n      "rows": []\n    }' if json_format else "")
    else:
        top = 1 << (n - 1)
        lasts = [rows_text[below | top] + end for below in range(top)]
        gap = ""  # every side in range has at least one record, so the JSON list is never empty
        for prefix, sets in groups:
            text = start + "".join([rows_text[row] + mid for row in prefix])
            write(gap + text + (sep + text).join(map(lasts.__getitem__, sets)))
            gap = sep
    write(tail)


def _cached(args, key: str, compute, valid) -> dict:
    """Value for key from the --cache-dir cache, or compute() stored there on a miss.

    A stored value that valid rejects is a miss too.  The cache is
    best-effort: a failed write is a warning and the value is kept.
    """
    directory = args.cache_dir or os.environ.get("PM_CACHE_DIR")
    if not directory:
        return compute()
    from .cache import ResultCache

    cache = ResultCache(directory)
    value = cache.get(key)
    if value is None or not valid(value):
        value = compute()
        try:
            cache.put(key, value)
        except OSError as exc:
            print(f"pm: warning: result not cached: {exc}", file=sys.stderr)
    return value


# ---- subcommand handlers ---------------------------------------------------


def _failure_obj(exc: Exception) -> dict:
    from .bmatrix import NotSquareError
    from .posetcore import NotTransitiveError, NotUnitLowerTriangularError

    if isinstance(exc, NotUnitLowerTriangularError):
        return {"kind": "not-unit-lower-triangular", "position": list(exc.position)}
    if isinstance(exc, NotTransitiveError):
        return {"kind": "not-transitive", "witness": list(exc.witness)}
    if isinstance(exc, NotSquareError):
        return {"kind": "not-square", "detail": str(exc)}
    return {"kind": "invalid", "detail": str(exc)}


def _cmd_validate(args) -> int:
    try:
        a = _read_poset(args)
    except ValueError as exc:
        # main prints the text failure; a file that is not UTF-8 is unread input, not an invalid matrix
        if args.format == "text" or isinstance(exc, UnicodeDecodeError):
            raise
        _emit(args, {"valid": False, "error": _failure_obj(exc)}, None)
        return 1
    _emit(args, {"valid": True, "n": a.n}, f"valid poset matrix (n={a.n})")
    return 0


def _cmd_embed(args) -> int:
    from .bmatrix import format_index_vector
    from .posetcore import embed

    a = _read_poset(args)
    alpha = embed(a)
    _emit(args, {"n": a.n, "alpha": list(alpha), "universe": 1 << a.n}, format_index_vector(alpha))
    return 0


def _cmd_induce(args) -> int:
    from .bmatrix import parse_index_vector
    from .pascal import check_index_vector, induced_submatrix, pascal_matrix
    from .posetcore import _check_ambient

    size = 1 << _check_ambient(args.n)
    alpha = check_index_vector(parse_index_vector(args.alpha), size)
    sub = induced_submatrix(pascal_matrix(size), alpha)
    _emit(args, sub.to_json_obj(), sub.to_text())
    return 0


def _cmd_dual(args) -> int:
    from .posetcore import dual

    b = dual(_read_poset(args)).matrix
    _emit(args, b.to_json_obj(), b.to_text())
    return 0


def _cmd_dual_index(args) -> int:
    from .bmatrix import format_index_vector, parse_index_vector
    from .posetcore import dual_index

    alpha = parse_index_vector(args.alpha)
    beta = dual_index(alpha, args.n)
    _emit(args, {"alpha": list(alpha), "n": args.n, "dual": list(beta)}, format_index_vector(beta))
    return 0


def _is_counts(value) -> bool:
    """True for a {poset_matrices, isomorphism_classes} dict of ints, the shape of a stored count."""
    return (
        isinstance(value, dict)
        and value.keys() == {"poset_matrices", "isomorphism_classes"}
        and all(type(count) is int for count in value.values())
    )


def _cmd_enumerate(args) -> int:
    from .enumeration import (
        MAX_CLASS_SIDE,
        MAX_ENUM_SIDE,
        _class_walk,
        _walk,
        count_isomorphism_classes,
        count_poset_matrices,
    )

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
            _is_counts,
        )
        text = f"poset matrices: {value['poset_matrices']}\nisomorphism classes: {value['isomorphism_classes']}"
        _emit(args, {"n": n, **value}, text)
        return 0
    canonical = args.emit == "canonical"
    if not 0 <= n <= MAX_ENUM_SIDE:
        what = "canonical emission" if canonical else "enumeration"
        raise ValueError(f"{what} supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    groups = _class_walk(n) if canonical else _walk(n)
    _write_records(n, "canonical_forms" if canonical else "matrices", groups, args.format == "json")
    return 0


def _cmd_canonical(args) -> int:
    from .bmatrix import format_index_vector
    from .enumeration import canonical_labelling

    canon, witness = canonical_labelling(_read_poset(args))
    obj = {"canonical": canon.matrix.to_json_obj(), "witness": list(witness.mapping)}
    _emit(args, obj, f"{canon.matrix.to_text()}\nwitness: {format_index_vector(witness.mapping)}")
    return 0


def _cmd_orbit(args) -> int:
    from .bmatrix import format_index_vector, parse_index_vector
    from .domination import OrbitResult, domination_orbit

    alpha = parse_index_vector(args.alpha)
    if args.method == "domination":
        result = domination_orbit(alpha, args.n, budget=args.budget)
    else:
        from .enumeration import pascal_class

        members = pascal_class(alpha, args.n)
        result = OrbitResult(alpha, args.n, members, True, math.comb(1 << args.n, args.n))
    if args.format == "json":
        _emit(args, result.to_json_obj(), None)
        return 0
    for member in result.members:  # one line at a time: the n = 6 orbit has 759 k members
        print(format_index_vector(member))
    if not result.exhausted:
        print(
            f"pm: warning: budget hit after {result.states_visited} states; orbit may be incomplete",
            file=sys.stderr,
        )
    return 0


def _cmd_ideals(args) -> int:
    from .ideals import antichain_table, count_fixed_points, count_ideals

    n = args.n
    if args.list_triples:
        import json

        records = [{"antichain": list(a), "ideal": list(i), "fixed_point": f} for a, i, f in antichain_table(n)]
        _emit(args, {"n": n, "count": len(records), "ideals": records}, "\n".join(map(json.dumps, records)))
        return 0
    count = count_ideals(n)
    obj = {"n": n, "count": count}
    if args.check_fixed_points:
        obj["fixed_point_count"] = scanned = count_fixed_points(n)
        if scanned != count:
            print(
                f"pm: fixed-point scan found {scanned} but the ideal count is {count}",
                file=sys.stderr,
            )
            return 1
    _emit(args, obj, str(count))
    return 0


def _cmd_dedekind(args) -> int:
    from .ideals import dedekind

    value = dedekind(args.k)
    _emit(args, {"k": args.k, "ground_size": 1 << args.k, "count": value}, str(value))
    return 0


def _cmd_selftest(args) -> int:
    from . import refdata

    results = refdata.run_selftest()
    ok_all = all(ok for _, ok, _ in results)
    passed = sum(1 for _, ok, _ in results if ok)
    checks = [{"id": cid, "ok": ok, "detail": detail} for cid, ok, detail in results]
    lines = [f"{'ok   ' if ok else 'FAIL '}{cid}: {detail}" for cid, ok, detail in results]
    lines.append(f"selftest: {passed}/{len(results)} checks passed")
    _emit(args, {"ok": ok_all, "checks": checks}, "\n".join(lines))
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


def _subcommand(subs, name: str, help: str, handler, source: bool = False) -> argparse.ArgumentParser:
    """Add subcommand name running handler; source adds the matrix file positional."""
    p = subs.add_parser(name, help=help)
    if source:
        p.add_argument("source", metavar="file|-", help="matrix file (text or JSON), or - for stdin")
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pm",
        description="Finite posets as Boolean triangular matrices: validate, embed, enumerate, count.",
    )
    parser.add_argument("--version", action="version", version=f"pm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    _subcommand(subs, "validate", "check that a Boolean matrix is a poset matrix", _cmd_validate, source=True)
    _subcommand(subs, "embed", "index vector of a poset matrix inside the 2**n Pascal matrix", _cmd_embed, source=True)

    p = _subcommand(subs, "induce", "principal submatrix of the 2**n Pascal matrix at --alpha", _cmd_induce)
    p.add_argument("--n", type=int, required=True, help="ambient exponent: the Pascal matrix has side 2**n")
    p.add_argument("--alpha", required=True, help="comma-separated index vector, e.g. 2,5,9,13")

    _subcommand(subs, "dual", "matrix of the dual poset (anti-diagonal reflection)", _cmd_dual, source=True)

    p = _subcommand(
        subs, "dual-index", "dual of an index vector: complement against 2**n - 1 and reverse", _cmd_dual_index
    )
    p.add_argument("--n", type=int, required=True, help="ambient exponent")
    p.add_argument("--alpha", required=True, help="comma-separated index vector")

    p = _subcommand(subs, "enumerate", "all n x n poset matrices, their canonical forms, or counts", _cmd_enumerate)
    p.add_argument("--n", type=int, required=True, help="matrix side")
    p.add_argument(
        "--emit",
        choices=("matrices", "canonical", "counts"),
        default="matrices",
        help="what to print (default: matrices)",
    )

    _subcommand(
        subs, "canonical", "canonical form of a poset matrix plus a witness relabelling", _cmd_canonical, source=True
    )

    p = _subcommand(subs, "orbit", "vectors reachable from --alpha, or its whole equivalence class", _cmd_orbit)
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

    p = _subcommand(subs, "ideals", "count (or list) the order ideals of the size-n Pascal poset", _cmd_ideals)
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--list", action="store_true", dest="list_triples", help="list antichain/ideal/fixed-point triples")
    p.add_argument(
        "--check-fixed-points",
        action="store_true",
        help="cross-check the count against the exhaustive fixed-point scan",
    )

    p = _subcommand(subs, "dedekind", "Dedekind number: antichains of the subsets of a k-element set", _cmd_dedekind)
    p.add_argument("--k", type=int, required=True, help="number of generators (0..7)")

    _subcommand(subs, "selftest", "replay the bundled reference expectations", _cmd_selftest)

    # the shared flags, added last so that each command's --help lists them after its own
    for name, p in subs.choices.items():
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if name not in ("enumerate", "ideals"):  # --jobs and --cache-dir belong to enumerate and ideals
            continue
        p.add_argument("--jobs", type=_positive_int, default=1, help="accepted and ignored (N >= 1); every command runs in one process")
        p.add_argument(
            "--cache-dir",
            default=None,
            help="directory for memoized enumerate --emit counts results (falls back to $PM_CACHE_DIR); ideals ignores it",
        )

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
