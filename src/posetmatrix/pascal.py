"""Binary Pascal matrices, binomial parity, supports, and index-vector selection."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from . import _check_size
from .bmatrix import MAX_SIDE, BoolMatrix, _integer_entries


def support(t: int) -> int:
    """Support of t: positions of the 1 digits of its binary expansion, as a bitmask.

    The expansion is its own mask, so this is the identity on non-negative
    integers; it exists to make the subset reasoning explicit at call sites.
    """
    if t.__class__ is not int:
        (t,) = _integer_entries((t,), "support arguments")
    if t < 0:
        raise ValueError("support is defined for non-negative integers")
    return t


def lucas_entry(i: int, j: int) -> int:
    """C(i, j) mod 2, by the subset test on binary supports."""
    if i.__class__ is not int or j.__class__ is not int:
        i, j = _integer_entries((i, j), "binomial arguments")
    if i < 0 or j < 0:
        raise ValueError("binomial arguments must be non-negative")
    return 0 if support(j) & ~support(i) else 1


def _submask_row(i: int) -> int:
    """Mask of all submasks of i, i.e. the j with C(i, j) odd."""
    row = 0
    s = i
    while True:
        row |= 1 << s
        if s == 0:
            return row
        s = (s - 1) & i


@lru_cache(maxsize=None)
def pascal_matrix(n: int) -> BoolMatrix:
    """The n x n matrix of binomials mod 2: entry (i, j) is C(i, j) mod 2."""
    n = _check_size(n, MAX_SIDE, "pascal matrix side must be")
    return BoolMatrix(n, tuple(_submask_row(i) for i in range(n)))


def support_poset_matrix(n: int) -> BoolMatrix:
    """The subset-order matrix on the supports of 0..n-1, from explicit set comparisons.

    Deliberately independent of pascal_matrix: supports are materialized as
    frozensets and compared with issubset rather than with bit arithmetic.
    """
    if not 1 <= n <= MAX_SIDE:
        raise ValueError(f"support poset side must be in [1, {MAX_SIDE}], got {n}")
    supports = [frozenset(p for p in range(6) if t >> p & 1) for t in range(n)]
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if supports[j] <= supports[i]:
                row |= 1 << j
        rows.append(row)
    return BoolMatrix(n, tuple(rows))


def check_index_vector(alpha: Iterable[int], universe: int) -> tuple[int, ...]:
    """Normalize alpha to a tuple of ints; entries must be strictly increasing and lie in [0, universe)."""
    entries = _integer_entries(alpha)
    if any(b <= a for a, b in zip(entries, entries[1:])):
        raise ValueError(f"index vector must be strictly increasing: {entries}")
    if entries and not (0 <= entries[0] and entries[-1] < universe):
        raise ValueError(f"index vector entries must lie in [0, {universe}): {entries}")
    return entries


def _subset_rows(entries: Sequence[int]) -> tuple[int, ...]:
    """Subset-order rows on entries: bit j of row i is set when entries[j] is a submask of entries[i]."""
    rows = []
    for r in entries:
        picked = 0
        for c, other in enumerate(entries):
            if other & ~r == 0:
                picked |= 1 << c
        rows.append(picked)
    return tuple(rows)


def induced_submatrix(m: BoolMatrix, alpha: Sequence[int]) -> BoolMatrix:
    """Principal submatrix of m on the rows and columns selected by alpha."""
    entries = check_index_vector(alpha, m.n)
    rows = []
    for r in entries:
        picked = 0
        for c, other in enumerate(entries):
            if m.rows[r] >> other & 1:
                picked |= 1 << c
        rows.append(picked)
    return BoolMatrix(len(entries), tuple(rows))
