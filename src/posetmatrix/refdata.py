"""Frozen reference expectations and the selftest that replays them.

Each check pins a worked example or a small table to literal values,
recomputes it from the library and returns (ok, detail).  Matrices appear
as row-mask tuples (row i read as an integer, bit j = column j).
"""

from __future__ import annotations

from .bmatrix import BoolMatrix, flip_transpose, is_idempotent
from .domination import changeable_entries, domination_orbit, incidence_matrix
from .enumeration import canonical_form, count_isomorphism_classes, count_poset_matrices, enumerate_poset_matrices
from .ideals import antichain_table, count_fixed_points, count_ideals, dedekind
from .pascal import pascal_matrix
from .posetcore import dual, embed, dual_index, is_self_dual_index, realize


def _ideal_count_table() -> tuple[bool, str]:
    """Ideal counts of the Pascal posets on 0..9 elements."""
    got = tuple(count_ideals(n) for n in range(10))
    return got == (1, 2, 3, 5, 6, 11, 14, 19, 20, 39), f"counts {got}"


def _fixed_point_scan() -> tuple[bool, str]:
    """Exhaustive fixed-point scan agrees with the ideal count, sizes 0..9."""
    bad = [n for n in range(10) if count_fixed_points(n) != count_ideals(n)]
    return not bad, f"disagreeing sizes {bad}" if bad else "all sizes agree"


def _antichain_ideal_table() -> tuple[bool, str]:
    """The 11 antichain/ideal/fixed-point triples on five elements."""
    got = tuple(antichain_table(5))
    want = (
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
    )
    return got == want, f"{len(got)} triples"


def _three_element_census() -> tuple[bool, str]:
    """All seven 3x3 poset matrices, falling into five isomorphism classes."""
    mats = []
    classes = set()
    for m in enumerate_poset_matrices(3):
        mats.append(m.rows)
        classes.add(canonical_form(m).rows)
    want = ((1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 3, 7))
    ok = tuple(mats) == want and len(classes) == 5
    return ok, f"{len(mats)} matrices, {len(classes)} classes"


def _three_element_embedding() -> tuple[bool, str]:
    """3x3 poset matrices are fixed points of embed/realize in the size-8 Pascal matrix."""
    vectors = ((1, 2, 4), (1, 3, 4), (1, 3, 5), (1, 2, 7), (1, 3, 7))
    for alpha in vectors:
        a = realize(alpha, 3)
        if a.rows != alpha or embed(a) != alpha:
            return False, f"vector {alpha} is not a fixed point"
    return True, f"{len(vectors)} vectors"


def _four_element_orbit_chain() -> tuple[bool, str]:
    """The orbit of (2,5,9,13) reaches the worked rewrite chain."""
    alpha, n = (2, 5, 9, 13), 4
    reachable = ((1, 10, 12, 14), (1, 2, 12, 14), (1, 2, 4, 14))
    members = set(domination_orbit(alpha, n).members)
    if not all(beta in members for beta in reachable):
        return False, "chain vector missing from the orbit"
    got = tuple(sorted(changeable_entries(incidence_matrix(alpha, n))))
    if got != ((0, 0), (0, 2), (0, 3), (1, 0), (2, 0)):
        return False, f"changeable positions {got}"
    for beta in (alpha,) + reachable:
        if realize(tuple(sorted(beta)), n).rows != (1, 2, 4, 14):
            return False, f"{beta} realizes differently"
    return True, f"orbit of {len(members)} vectors"


def _pascal_8_idempotent() -> tuple[bool, str]:
    """The 8x8 Pascal matrix has the expected rows and is Boolean idempotent."""
    p = pascal_matrix(8)
    return p.rows == (1, 3, 5, 15, 17, 51, 85, 255) and is_idempotent(p), "rows and idempotence"


def _dual_index_pair() -> tuple[bool, str]:
    """Complement-and-reverse duality on (0,1,3,12) in the size-16 universe."""
    alpha, n = (0, 1, 3, 12), 4
    beta = dual_index(alpha, n)
    if beta != (3, 12, 14, 15):
        return False, f"dual vector {beta}"
    ok = (
        realize(alpha, n).rows == (1, 3, 7, 9)
        and realize(beta, n).rows == (1, 2, 6, 15)
        and dual(realize(alpha, n)).rows == realize(beta, n).rows
    )
    return ok, "realizations and compatibility"


def _self_dual_vector() -> tuple[bool, str]:
    """(0,5,10,15) is self-paired and realizes a self-dual poset matrix."""
    alpha, n = (0, 5, 10, 15), 4
    a = realize(alpha, n)
    ok = (
        is_self_dual_index(alpha, n)
        and dual_index(alpha, n) == alpha
        and a.rows == (1, 3, 5, 15)
        and dual(a) == a
    )
    return ok, "pairing, realization, self-duality"


def _flip_transpose_pair() -> tuple[bool, str]:
    """Anti-diagonal reflection swaps a worked 4x4 pair of poset matrices."""
    a = BoolMatrix(4, (1, 3, 5, 13))
    b = BoolMatrix(4, (1, 3, 4, 15))
    return flip_transpose(a) == b and flip_transpose(b) == a, "both directions"


def _dedekind_small() -> tuple[bool, str]:
    """Free-distributive-lattice sizes for 0..5 generators, via ideal counts."""
    got = tuple(dedekind(k) for k in range(6))
    return got == (2, 3, 6, 20, 168, 7581), f"values {got}"


def _birkhoff_counts() -> tuple[bool, str]:
    """Poset matrices (OEIS A006455) and isomorphism classes (OEIS A000112) on 0..6 elements."""
    matrices = tuple(count_poset_matrices(n) for n in range(7))
    classes = tuple(count_isomorphism_classes(n) for n in range(7))
    ok = matrices == (1, 1, 2, 7, 40, 357, 4824) and classes == (1, 1, 2, 5, 16, 63, 318)
    return ok, f"matrices {matrices}, classes {classes}"


CHECKS = (
    ("ideal-count-table", _ideal_count_table),
    ("fixed-point-scan", _fixed_point_scan),
    ("antichain-ideal-table", _antichain_ideal_table),
    ("three-element-census", _three_element_census),
    ("three-element-embedding", _three_element_embedding),
    ("four-element-orbit-chain", _four_element_orbit_chain),
    ("pascal-8-idempotent", _pascal_8_idempotent),
    ("dual-index-pair", _dual_index_pair),
    ("self-dual-vector", _self_dual_vector),
    ("flip-transpose-pair", _flip_transpose_pair),
    ("dedekind-small", _dedekind_small),
    ("birkhoff-counts", _birkhoff_counts),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check in CHECKS; returns (id, ok, detail) in CHECKS order."""
    results = []
    for check_id, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((check_id, ok, detail))
    return results
