"""Row-domination structure of incidence matrices and the orbit search it generates.

An index vector alpha with n entries below 2**n becomes an n x n Boolean
matrix whose row i is the binary expansion of alpha[i].  Row/column
permutations, and single-entry flips that leave every pairwise row
domination as it was, rewrite that matrix without leaving the isomorphism
class of the poset the vector selects from the Pascal matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .bmatrix import BoolMatrix, iter_bits, permute  # permute is re-exported
from .pascal import _subset_rows, check_index_vector
from .posetcore import PosetMatrix, validate

DEFAULT_ORBIT_BUDGET = 10**6


class NotChangeableError(ValueError):
    """Requested flip would create or break a row domination."""

    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"entry ({i}, {j}) is not changeable")


def incidence_matrix(alpha: Sequence[int], n: int) -> BoolMatrix:
    """n x n matrix whose row i is the binary expansion of alpha[i]."""
    entries = tuple(int(a) for a in alpha)
    if len(entries) != n:
        raise ValueError(f"need exactly {n} entries, got {len(entries)}")
    limit = 1 << n
    for a in entries:
        if not 0 <= a < limit:
            raise ValueError(f"entry {a} does not fit in {n} binary digits")
    return BoolMatrix(n, entries)


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


def _changeable(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Row-major positions whose single flip leaves every pairwise row domination intact."""
    return [(i, j) for i in range(len(rows)) for j in iter_bits(_changeable_columns(rows, i))]


def changeable_entries(m: BoolMatrix) -> frozenset[tuple[int, int]]:
    """Positions whose single flip leaves every pairwise row domination intact.

    Each position is judged on its own against the unflipped matrix; flips
    are not composed.  On a poset matrix no below-diagonal one is ever
    changeable, but a below-diagonal zero may be: (2, 1) of rows (1, 3, 4)
    flips to rows (1, 3, 6) with the single domination pair (0, 1) intact.
    """
    return frozenset(_changeable(m.rows))


def flip_entry(m: BoolMatrix, i: int, j: int) -> BoolMatrix:
    """Toggle entry (i, j), refusing flips that would alter the domination profile."""
    if not (0 <= i < m.n and 0 <= j < m.n):
        raise ValueError(f"entry ({i}, {j}) outside a {m.n}x{m.n} matrix")
    if not _changeable_columns(m.rows, i) >> j & 1:
        raise NotChangeableError(i, j)
    rows = list(m.rows)
    rows[i] ^= 1 << j
    return BoolMatrix(m.n, tuple(rows))


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


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of the breadth-first orbit walk."""

    alpha: tuple[int, ...]
    n: int
    members: tuple[tuple[int, ...], ...]
    exhausted: bool
    states_visited: int

    def to_json_obj(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "n": self.n,
            "members": [list(m) for m in self.members],
            "exhausted": self.exhausted,
            "states_visited": self.states_visited,
        }


def domination_orbit(alpha: Sequence[int], n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitResult:
    """Breadth-first closure of alpha under column swaps and changeable flips.

    States are sorted row-value tuples, so row permutations are absorbed by
    the normalization.  Every state moves by its n - 1 adjacent column swaps,
    which generate every column permutation over a few steps.  Changeable
    flips are tried only from alpha and from states first reached by a flip:
    a column permutation sigma keeps every row domination, so the flips of
    sigma(S) are sigma applied to the flips of S, and they are reached by
    swaps from the flips of S.  The closure is therefore the same set as
    with flips from every state.

    Expands at most `budget` states, each popped once and with at most
    n - 1 + n * n successors; when the budget runs out the result carries
    exhausted=False and whatever was reached so far.
    """
    entries = check_index_vector(alpha, 1 << n)
    if len(entries) != n:
        raise ValueError(f"need exactly {n} entries, got {len(entries)}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    swaps = [(c, c + 1, 3 << c) for c in range(n - 1)]
    seen = {entries}
    queue = deque([entries])
    # The queued states that try flips, in the order they stand in queue:
    # a popped state tries flips exactly when it is the head of flip_queue.
    flip_queue = deque([entries])
    expanded = 0
    exhausted = True
    while queue:
        if expanded >= budget:
            exhausted = False
            break
        state = queue.popleft()
        expanded += 1
        for c, d, both in swaps:
            nxt = tuple(sorted([r ^ ((r >> c ^ r >> d) & 1) * both for r in state]))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        if not flip_queue or state is not flip_queue[0]:
            continue  # reached by a swap: its flips are swaps of flips already queued
        flip_queue.popleft()
        rows = list(state)
        for i, r in enumerate(state):
            for j in iter_bits(_changeable_columns(state, i)):
                rows[i] = r ^ 1 << j
                nxt = tuple(sorted(rows))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    flip_queue.append(nxt)
            rows[i] = r
    return OrbitResult(entries, n, tuple(sorted(seen)), exhausted, expanded)
