"""Frozen reference expectations and the selftest that replays them.

Each manifest entry pins a worked example or a small table to literal
values; the selftest recomputes everything from the library and diffs.
Matrices appear as row-mask tuples (row i read as an integer, bit j =
column j).
"""

from __future__ import annotations

from .bmatrix import BoolMatrix, flip_transpose, is_idempotent
from .domination import changeable_entries, domination_orbit, incidence_matrix
from .enumeration import canonical_form, count_isomorphism_classes, count_poset_matrices, enumerate_poset_matrices
from .ideals import antichain_table, count_fixed_points, count_ideals, dedekind
from .pascal import pascal_matrix
from .posetcore import dual, embed, dual_index, is_self_dual_index, realize

REFERENCE_CHECKS = (
    {
        "id": "ideal-count-table",
        "description": "ideal counts of the Pascal posets on 0..9 elements",
        "counts": (1, 2, 3, 5, 6, 11, 14, 19, 20, 39),
    },
    {
        "id": "fixed-point-scan",
        "description": "exhaustive fixed-point scan agrees with the ideal count, sizes 0..9",
        "sizes": tuple(range(10)),
    },
    {
        "id": "antichain-ideal-table",
        "description": "the 11 antichain/ideal/fixed-point triples on five elements",
        "triples": (
            ((), (), "00000"),
            ((0,), (0,), "10000"),
            ((1,), (0, 1), "11000"),
            ((2,), (0, 2), "10100"),
            ((3,), (0, 1, 2, 3), "11110"),
            ((4,), (0, 4), "10001"),
            ((1, 2), (0, 1, 2), "11100"),
            ((1, 4), (0, 1, 4), "11001"),
            ((2, 4), (0, 2, 4), "10101"),
            ((3, 4), (0, 1, 2, 3, 4), "11111"),
            ((1, 2, 4), (0, 1, 2, 4), "11101"),
        ),
    },
    {
        "id": "three-element-census",
        "description": "all seven 3x3 poset matrices, falling into five isomorphism classes",
        "row_masks": ((1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 3, 7)),
        "class_count": 5,
    },
    {
        "id": "three-element-embedding",
        "description": "3x3 poset matrices are fixed points of embed/realize in the size-8 Pascal matrix",
        "index_vectors": ((1, 2, 4), (1, 3, 4), (1, 3, 5), (1, 2, 7), (1, 3, 7)),
    },
    {
        "id": "four-element-orbit-chain",
        "description": "the orbit of (2,5,9,13) reaches the worked rewrite chain",
        "alpha": (2, 5, 9, 13),
        "n": 4,
        "reachable": ((1, 10, 12, 14), (1, 2, 12, 14), (1, 2, 4, 14)),
        "changeable": ((0, 0), (0, 2), (0, 3), (1, 0), (2, 0)),
        "realized_rows": (1, 2, 4, 14),
    },
    {
        "id": "pascal-8-idempotent",
        "description": "the 8x8 Pascal matrix has the expected rows and is Boolean idempotent",
        "rows": (1, 3, 5, 15, 17, 51, 85, 255),
    },
    {
        "id": "dual-index-pair",
        "description": "complement-and-reverse duality on (0,1,3,12) in the size-16 universe",
        "alpha": (0, 1, 3, 12),
        "n": 4,
        "beta": (3, 12, 14, 15),
        "alpha_rows": (1, 3, 7, 9),
        "beta_rows": (1, 2, 6, 15),
    },
    {
        "id": "self-dual-vector",
        "description": "(0,5,10,15) is self-paired and realizes a self-dual poset matrix",
        "alpha": (0, 5, 10, 15),
        "n": 4,
        "rows": (1, 3, 5, 15),
    },
    {
        "id": "flip-transpose-pair",
        "description": "anti-diagonal reflection swaps a worked 4x4 pair of poset matrices",
        "rows": (1, 3, 5, 13),
        "flipped": (1, 3, 4, 15),
    },
    {
        "id": "dedekind-small",
        "description": "free-distributive-lattice sizes for 0..5 generators, via ideal counts",
        "values": (2, 3, 6, 20, 168, 7581),
    },
    {
        "id": "birkhoff-counts",
        "description": "poset matrices (OEIS A006455) and isomorphism classes (OEIS A000112) on 0..6 elements",
        "poset_matrices": (1, 1, 2, 7, 40, 357, 4824),
        "isomorphism_classes": (1, 1, 2, 5, 16, 63, 318),
    },
)


def _check_ideal_count_table(spec_entry) -> tuple[bool, str]:
    got = tuple(count_ideals(n) for n in range(len(spec_entry["counts"])))
    return got == spec_entry["counts"], f"counts {got}"


def _check_fixed_point_scan(spec_entry) -> tuple[bool, str]:
    bad = [n for n in spec_entry["sizes"] if count_fixed_points(n) != count_ideals(n)]
    return not bad, f"disagreeing sizes {bad}" if bad else "all sizes agree"


def _check_antichain_ideal_table(spec_entry) -> tuple[bool, str]:
    got = tuple(antichain_table(5))
    return got == spec_entry["triples"], f"{len(got)} triples"


def _check_three_element_census(spec_entry) -> tuple[bool, str]:
    mats = []
    classes = set()
    for m in enumerate_poset_matrices(3):
        mats.append(m.rows)
        classes.add(canonical_form(m).rows)
    ok = tuple(mats) == spec_entry["row_masks"] and len(classes) == spec_entry["class_count"]
    return ok, f"{len(mats)} matrices, {len(classes)} classes"


def _check_three_element_embedding(spec_entry) -> tuple[bool, str]:
    for alpha in spec_entry["index_vectors"]:
        a = realize(alpha, 3)
        if a.rows != alpha or embed(a) != alpha:
            return False, f"vector {alpha} is not a fixed point"
    return True, f"{len(spec_entry['index_vectors'])} vectors"


def _check_four_element_orbit_chain(spec_entry) -> tuple[bool, str]:
    alpha, n = spec_entry["alpha"], spec_entry["n"]
    result = domination_orbit(alpha, n)
    members = set(result.members)
    if not all(beta in members for beta in spec_entry["reachable"]):
        return False, "chain vector missing from the orbit"
    got = tuple(sorted(changeable_entries(incidence_matrix(alpha, n))))
    if got != spec_entry["changeable"]:
        return False, f"changeable positions {got}"
    for beta in (alpha,) + spec_entry["reachable"]:
        if realize(tuple(sorted(beta)), n).rows != spec_entry["realized_rows"]:
            return False, f"{beta} realizes differently"
    return True, f"orbit of {len(members)} vectors"


def _check_pascal_8_idempotent(spec_entry) -> tuple[bool, str]:
    p = pascal_matrix(8)
    return p.rows == spec_entry["rows"] and is_idempotent(p), "rows and idempotence"


def _check_dual_index_pair(spec_entry) -> tuple[bool, str]:
    alpha, n = spec_entry["alpha"], spec_entry["n"]
    beta = dual_index(alpha, n)
    if beta != spec_entry["beta"]:
        return False, f"dual vector {beta}"
    ok = (
        realize(alpha, n).rows == spec_entry["alpha_rows"]
        and realize(beta, n).rows == spec_entry["beta_rows"]
        and dual(realize(alpha, n)).rows == realize(beta, n).rows
    )
    return ok, "realizations and compatibility"


def _check_self_dual_vector(spec_entry) -> tuple[bool, str]:
    alpha, n = spec_entry["alpha"], spec_entry["n"]
    a = realize(alpha, n)
    ok = (
        is_self_dual_index(alpha, n)
        and dual_index(alpha, n) == alpha
        and a.rows == spec_entry["rows"]
        and dual(a) == a
    )
    return ok, "pairing, realization, self-duality"


def _check_flip_transpose_pair(spec_entry) -> tuple[bool, str]:
    a = BoolMatrix(4, spec_entry["rows"])
    b = BoolMatrix(4, spec_entry["flipped"])
    return flip_transpose(a) == b and flip_transpose(b) == a, "both directions"


def _check_dedekind_small(spec_entry) -> tuple[bool, str]:
    got = tuple(dedekind(k) for k in range(len(spec_entry["values"])))
    return got == spec_entry["values"], f"values {got}"


def _check_birkhoff_counts(spec_entry) -> tuple[bool, str]:
    sizes = range(len(spec_entry["poset_matrices"]))
    got = tuple(count_poset_matrices(n) for n in sizes), tuple(count_isomorphism_classes(n) for n in sizes)
    ok = got == (spec_entry["poset_matrices"], spec_entry["isomorphism_classes"])
    return ok, f"matrices {got[0]}, classes {got[1]}"


def run_selftest() -> list[tuple[str, bool, str]]:
    """Replay every manifest entry, entry "some-id" by _check_some_id; returns (id, ok, detail) in manifest order."""
    results = []
    for entry in REFERENCE_CHECKS:
        checker = globals()["_check_" + entry["id"].replace("-", "_")]
        try:
            ok, detail = checker(entry)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((entry["id"], ok, detail))
    return results
