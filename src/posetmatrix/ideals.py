"""Order ideals and antichains of the Pascal poset, and its Boolean fixed points.

The Pascal poset on {0..n-1} orders labels by binary-support inclusion.
Subsets of the ground set are bitmasks throughout: bit i set means element
i is in the subset.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .bmatrix import _row_text, identity, iter_bits
from .pascal import _submask_row, check_index_vector, induced_submatrix, pascal_matrix

MAX_COUNT_GROUND = 32
MAX_SCAN_GROUND = 20
MAX_DEDEKIND_EXP = 5


def _check_mask(mask: int, n: int) -> None:
    if not 0 <= mask < (1 << n):
        raise ValueError(f"subset mask {mask:#x} does not fit a ground set of size {n}")


def principal_ideal(i: int, n: int) -> int:
    """Mask of everything at or below i in the support order: the submasks of i."""
    if not 0 <= i < n:
        raise ValueError(f"element {i} outside a ground set of size {n}")
    return _submask_row(i)


def is_ideal(mask: int, n: int) -> bool:
    """True when mask is downward closed in the support order."""
    return antichain_to_ideal(mask, n) == mask


def is_antichain(mask: int, n: int) -> bool:
    """True when no element of mask has its support contained in another's."""
    return ideal_to_antichain(mask, n) == mask


def antichain_to_ideal(mask: int, n: int) -> int:
    """Downward closure of mask: union of the principal ideals of its elements."""
    _check_mask(mask, n)
    out = 0
    for e in iter_bits(mask):
        out |= principal_ideal(e, n)
    return out


def ideal_to_antichain(mask: int, n: int) -> int:
    """Maximal elements of mask under the support order: those with no proper superset in mask."""
    _check_mask(mask, n)
    ups = _column_masks(n)  # ups[e]: e and every element whose support contains e's
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        if mask & ups[low.bit_length() - 1] == low:
            out |= low
        rest ^= low
    return out


@lru_cache(maxsize=None)
def _column_masks(n: int) -> tuple[int, ...]:
    """For each column j of the Pascal matrix, the mask of rows i with a 1 at (i, j)."""
    cols = [0] * n
    for i in range(n):
        for s in iter_bits(_submask_row(i)):
            cols[s] |= 1 << i
    return tuple(cols)


def is_fixed_point(x: int, n: int) -> bool:
    """True when the characteristic row vector x satisfies x . P = x over the Boolean semiring.

    Coordinate j of x . P is the OR of x over the rows with a 1 in column j.
    """
    _check_mask(x, n)
    for j, col in enumerate(_column_masks(n)):
        if bool(x & col) != bool(x >> j & 1):
            return False
    return True


@lru_cache(maxsize=None)
def _pred_masks(n: int) -> tuple[int, ...]:
    """Proper predecessors of each element: its proper submasks."""
    return tuple(principal_ideal(i, n) ^ (1 << i) for i in range(n))


def count_ideals(n: int) -> int:
    """Number of downward-closed subsets of the size-n Pascal poset."""
    if not 0 <= n <= MAX_COUNT_GROUND:
        raise ValueError(f"ideal counting supports n in [0, {MAX_COUNT_GROUND}], got {n}")
    return sum(1 for _ in iter_ideals(n))


def iter_ideals(n: int) -> Iterator[int]:
    """Yield every ideal of the size-n Pascal poset as a subset mask.

    Elements are decided in order, element i left out before it is taken
    in, and it can be taken in only once all its predecessors are.
    """
    if not 0 <= n <= MAX_COUNT_GROUND:
        raise ValueError(f"ideal iteration supports n in [0, {MAX_COUNT_GROUND}], got {n}")
    return _walk_ideals(_pred_masks(n), n)


def _walk_ideals(preds: tuple[int, ...], n: int) -> Iterator[int]:
    # A stack entry is a decided prefix (next element, chosen mask); each
    # "taken in" branch waits on the stack until "left out" is walked out.
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        while i < n:
            if preds[i] & ~chosen == 0:
                stack.append((i + 1, chosen | (1 << i)))
            i += 1
        yield chosen


def count_fixed_points(n: int) -> int:
    """Count solutions of x . P = x by scanning all 2**n vectors.

    Deliberately the slow route: an independent cross-check on count_ideals,
    not a second copy of it.
    """
    if not 0 <= n <= MAX_SCAN_GROUND:
        raise ValueError(f"fixed-point scans support n in [0, {MAX_SCAN_GROUND}], got {n}")
    return sum(1 for x in range(1 << n) if is_fixed_point(x, n))


def dedekind(k: int) -> int:
    """k-th Dedekind number: antichains of the subset lattice = ideals of the size-2**k Pascal poset."""
    if not 0 <= k <= MAX_DEDEKIND_EXP:
        raise ValueError(f"dedekind supports k in [0, {MAX_DEDEKIND_EXP}], got {k}")
    return count_ideals(1 << k)


def identity_antichain_check(alpha, n: int) -> bool:
    """True when alpha's induced Pascal submatrix is an identity matrix.

    Equivalent to alpha's entries being pairwise incomparable in the support
    order (an antichain); the empty vector passes.
    """
    entries = check_index_vector(alpha, n)
    return induced_submatrix(pascal_matrix(n), entries) == identity(len(entries))


def antichain_table(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], str]]:
    """(antichain, ideal, fixed-point string) for every ideal, by antichain size then entries."""
    rows = []
    for ideal_mask in iter_ideals(n):
        anti = ideal_to_antichain(ideal_mask, n)
        rows.append((tuple(iter_bits(anti)), tuple(iter_bits(ideal_mask)), _row_text(ideal_mask, n)))
    rows.sort(key=lambda triple: (len(triple[0]), triple[0]))
    return rows
