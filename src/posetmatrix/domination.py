"""Row-domination structure of incidence matrices and the orbit search it generates.

An index vector alpha with n entries below 2**n becomes an n x n Boolean
matrix whose row i is the binary expansion of alpha[i].  Row/column
permutations, and single-entry flips that leave every pairwise row
domination as it was, rewrite that matrix without leaving the isomorphism
class of the poset the vector selects from the Pascal matrix.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import chain, permutations
from typing import Sequence

from . import DEFAULT_ORBIT_BUDGET
from .bmatrix import BoolMatrix, _integer_entries, _Value, iter_bits
from .pascal import _subset_rows
from .posetcore import PosetMatrix, _check_orbit_vector, validate


class NotChangeableError(ValueError):
    """Requested flip would create or break a row domination."""

    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"entry ({i}, {j}) is not changeable")


def incidence_matrix(alpha: Sequence[int], n: int) -> BoolMatrix:
    """n x n matrix whose row i is the binary expansion of alpha[i]."""
    return BoolMatrix(n, alpha)


def index_of(m: BoolMatrix) -> tuple[int, ...]:
    """Row values of m in increasing order: the vector that regenerates m up to row order."""
    values = sorted(m.rows)
    for a, b in zip(values, values[1:]):
        if a == b:
            raise ValueError(f"duplicate row value {a}: rows do not form an index vector")
    return tuple(values)


def domination_relations(m: BoolMatrix) -> frozenset[tuple[int, int]]:
    """Ordered pairs (i, j), i != j, where row i is dominated by row j: bit i of _subset_rows(rows)[j]."""
    down = _subset_rows(m.rows)
    return frozenset((i, j) for j in range(m.n) for i in iter_bits(down[j]) if i != j)


def _changeable_columns(rows: Sequence[int], i: int) -> int:
    """Mask of the columns j whose flip of entry (i, j) keeps every pairwise row domination.

    A flip changes row i alone, so it keeps the profile exactly when it moves
    no bit of row i's down-mask (the rows that are submasks of row i) or of
    its up-mask (the rows that row i is a submask of).  Each other row k
    blocks, from below, its own bits while it is a submask of row i, else
    the one bit of it that row i lacks; and from above, the bits outside it
    while row i is its submask, else the one bit of row i that it lacks.
    """
    full = (1 << len(rows)) - 1
    ri = rows[i]
    blocked = 0
    for k, rk in enumerate(rows):
        if k == i:
            continue
        lacking = rk & ~ri  # bits of row k that row i lacks
        if not lacking:
            blocked |= rk  # row k is below row i: clearing one of its bits ends that
        elif not lacking & (lacking - 1):
            blocked |= lacking  # setting the one bit row i lacks puts row k below it
        extra = ri & ~rk  # bits of row i that row k lacks
        if not extra:
            blocked |= full ^ rk  # row i is below row k: setting a bit outside row k ends that
        elif not extra & (extra - 1):
            blocked |= extra  # clearing the one extra bit puts row i below row k
    return full & ~blocked


def changeable_entries(m: BoolMatrix) -> frozenset[tuple[int, int]]:
    """Positions whose single flip leaves every pairwise row domination intact.

    Each position is judged on its own against the unflipped matrix; flips
    are not composed.  On a poset matrix no below-diagonal one is ever
    changeable, but a below-diagonal zero may be: (2, 1) of rows (1, 3, 4)
    flips to rows (1, 3, 6) with the single domination pair (0, 1) intact.
    """
    return frozenset((i, j) for i in range(m.n) for j in iter_bits(_changeable_columns(m.rows, i)))


def flip_entry(m: BoolMatrix, i: int, j: int) -> BoolMatrix:
    """Toggle entry (i, j), refusing flips that would alter the domination profile."""
    if not (0 <= i < m.n and 0 <= j < m.n):
        raise ValueError(f"entry ({i}, {j}) outside a {m.n}x{m.n} matrix")
    if not _changeable_columns(m.rows, i) >> j & 1:
        raise NotChangeableError(i, j)
    rows = list(m.rows)
    rows[i] ^= 1 << j
    return BoolMatrix._trusted(m.n, tuple(rows))


def reduce_to_poset_matrix(m: BoolMatrix) -> PosetMatrix:
    """Collapse an incidence matrix with increasing rows to the poset of its row dominations.

    Entry (i, j) of the result records whether row j is dominated by row i;
    with strictly increasing rows that order is already compatible with the
    row numbering, so the result is a valid poset matrix.
    """
    rows = m.rows
    for a, b in zip(rows, rows[1:]):
        if a >= b:
            raise ValueError("rows not in increasing integer order; permute rows first")
    return validate(BoolMatrix(m.n, _subset_rows(rows)))


class OrbitResult(_Value):
    """Outcome of the breadth-first orbit walk."""

    __slots__ = ("alpha", "n", "members", "exhausted", "states_visited")

    def __init__(self, alpha, n, members, exhausted, states_visited) -> None:
        self._set(alpha, n, members, exhausted, states_visited)

    def to_json_obj(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "n": self.n,
            "members": [list(m) for m in self.members],
            "exhausted": self.exhausted,
            "states_visited": self.states_visited,
        }


@cache
def _column_images(n: int) -> tuple[tuple[int, ...], ...]:
    """For each row mask r below 2**n, its images under the n! column permutations p, identity first.

    images[r][k] is r with bit c moved to p[c], p the k-th permutation.
    """
    tables = []
    for p in permutations(range(n)):
        t = [0] * (1 << n)
        for r in range(1, 1 << n):
            t[r] = t[r & (r - 1)] | 1 << p[(r & -r).bit_length() - 1]
        tables.append(t)
    return tuple(zip(*tables))


def _tuple_order(states: set, n: int) -> tuple[tuple[int, ...], ...]:
    """The row tuples in states (length n, rows below 2**n) as a tuple in tuple order; states is left empty.

    Each state goes to the bucket of its first row, and each bucket is sorted
    by bytes keys: rows are below 2**MAX_EMBED_LOG, so bytes compare as the
    tuples do, but in C.  Emptying states before the sorts frees its table,
    and one bucket's keys at a time keep the peak below one key per state.
    """
    if not n:  # the one state () has no first row
        members = tuple(states)
        states.clear()
        return members
    buckets = [[] for _ in range(1 << n)]
    for state in states:
        buckets[state[0]].append(state)
    states.clear()
    for bucket in buckets:
        bucket.sort(key=bytes)
    return tuple(chain.from_iterable(buckets))


def domination_orbit(alpha: Sequence[int], n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitResult:
    """Breadth-first closure of alpha under column permutations and changeable flips, one column class at a time.

    States are sorted row-value tuples, so row permutations are absorbed by
    the normalization.  The first state of a column class to come off the
    queue stands for that class: all n! column permutations of it become
    members at once, and only it tries the changeable flips.  A column
    permutation sigma keeps every row domination, so the flips of sigma(S)
    are sigma applied to the flips of S, and they are members once the
    class of each flip of S has been visited.  The closure is therefore the
    same set as with every move from every state.

    Admits at most `budget` states, the start vector first; when the budget
    runs out, possibly inside a class, the result carries exhausted=False
    and the members admitted so far (the start vector alone at budget 0).
    """
    entries, n = _check_orbit_vector(alpha, n)
    (budget,) = _integer_entries((budget,), "budgets")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    images = _column_images(n)
    seen = set()
    queue = deque([entries])  # alpha, then flips of class representatives that were not yet members
    while queue:
        state = queue.popleft()
        if state in seen:
            continue  # its class was visited after it was queued
        permuted = zip(*map(images.__getitem__, state)) if n else [()]  # zip() of no rows yields nothing
        for image in map(tuple, map(sorted, permuted)):
            if image not in seen:
                if len(seen) >= budget:
                    visited = len(seen)
                    return OrbitResult(entries, n, _tuple_order(seen or {entries}, n), False, visited)
                seen.add(image)
        rows = list(state)
        for i, r in enumerate(state):
            for j in iter_bits(_changeable_columns(state, i)):
                rows[i] = r ^ 1 << j
                nxt = tuple(sorted(rows))
                if nxt not in seen:
                    queue.append(nxt)
            rows[i] = r
    visited = len(seen)
    return OrbitResult(entries, n, _tuple_order(seen, n), True, visited)
