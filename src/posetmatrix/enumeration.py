"""Exhaustive generation and isomorphism classification of poset matrices."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .bmatrix import BoolMatrix, Permutation, _Value, iter_bits
from .posetcore import PosetMatrix, _check_orbit_vector, dual_index, realize

MAX_ENUM_SIDE = 8
MAX_CLASS_SIDE = 8
MAX_CLASSIFY_SIDE = 4

# ---- generation ----------------------------------------------------------


def _down_sets(prefix: tuple[int, ...]) -> list[int]:
    """Masks of the down-sets of the poset whose matrix rows are prefix, ascending.

    Element j is maximal among 0..j, so the down-sets of 0..j are those of
    0..j-1 plus each one that holds all of j's strict predecessors with j
    added; the added masks all exceed the old ones, in the same order.
    """
    sets = [0]
    for j, row in enumerate(prefix):
        below = row ^ (1 << j)
        sets += [s | 1 << j for s in sets if s & below == below]
    return sets


def _extensions(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """One-row extensions in increasing row order: the new row picks a down-set of the earlier elements."""
    top = 1 << len(prefix)
    return (prefix + (s | top,) for s in _down_sets(prefix))


def _complete(prefix: tuple[int, ...], sets: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """Side-n completions of prefix, whose down-sets are sets, in increasing row order.

    The down-sets of prefix + (below | top,) are sets plus, with the new
    element added, those that hold below; so each child gets its list
    without a scan of the 2**i candidate rows.  The last row is read
    straight from sets: lists built for the leaves would cost several
    times the rest of the walk.
    """
    top = 1 << len(prefix)
    if len(prefix) == n - 1:
        for below in sets:
            yield prefix + (below | top,)
        return
    for below in sets:
        child_sets = sets + [s | top for s in sets if s & below == below]
        yield from _complete(prefix + (below | top,), child_sets, n)


def _poset_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Row tuples of every n x n poset matrix, in increasing row-mask order, unvalidated.

    A side out of range raises at the call, before anything is yielded.
    """
    if not 0 <= n <= MAX_ENUM_SIDE:
        raise ValueError(f"enumeration supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    return _complete((), [0], n) if n else iter([()])


def enumerate_poset_matrices(n: int) -> Iterator[PosetMatrix]:
    """Yield every n x n poset matrix exactly once, in increasing row-mask order.

    Each row is chosen as a downward-closed set of earlier elements (it must
    contain the full row of everything it selects), so transitivity holds by
    construction; each matrix is still validated as a PosetMatrix.  A side
    out of range raises at the call, before anything is yielded.
    """
    return (PosetMatrix(BoolMatrix(n, rows)) for rows in _poset_rows(n))


# ---- canonical labelling -------------------------------------------------


def _canonical_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least relabelling of a poset-matrix row tuple, with the old->new witness map.

    Branch-and-bound over position assignments: a position can take any
    element whose predecessors are all placed (so the result stays a poset
    matrix), candidates are tried in row-major bit-string order, and a branch
    dies as soon as its key prefix exceeds the incumbent's.  A row's key is
    its mask with the bit order reversed (column 0 most significant).  Each
    placed element keeps its position's row bit and key bit, so a
    candidate's row and key are its own position's bits or-ed with those
    of its predecessors.

    Twins (elements with equal predecessor and successor masks) are
    interchangeable: swapping two unplaced twins is an automorphism fixing
    every placed element, so a twin's subtree repeats, key for key, that of
    the smaller twin, which is searched earlier.  A candidate is therefore
    skipped while a smaller twin is unplaced; the first minimal leaf, and
    with it the form and the witness, stay the same.
    """
    n = len(rows)
    if n == 0:
        return (), ()
    preds = [rows[i] ^ (1 << i) for i in range(n)]
    pred_lists = [list(iter_bits(p)) for p in preds]
    succs = [0] * n
    for i in range(n):
        for p in pred_lists[i]:
            succs[p] |= 1 << i
    smaller_twins = [0] * n
    twins_so_far: dict[tuple[int, int], int] = {}
    for e in range(n):
        key = (preds[e], succs[e])
        smaller_twins[e] = twins_so_far.get(key, 0)
        twins_so_far[key] = smaller_twins[e] | (1 << e)
    row_bit = [0] * n
    key_bit = [0] * n
    best_keys: list[int] | None = None
    best_rows: tuple[int, ...] = ()
    best_map: tuple[int, ...] = ()

    def walk(order: list[int], used: int, keys: list[int], new_rows: list[int]) -> None:
        nonlocal best_keys, best_rows, best_map
        k = len(order)
        if k == n:
            if best_keys is None or keys < best_keys:
                best_keys = list(keys)
                mapping = [0] * n
                for pos, element in enumerate(order):
                    mapping[element] = pos
                best_rows = tuple(new_rows)
                best_map = tuple(mapping)
            return
        cands = []
        for e in range(n):
            if used >> e & 1 or (preds[e] | smaller_twins[e]) & ~used:
                continue
            row, key = 1 << k, 1 << (n - 1 - k)
            for p in pred_lists[e]:
                row |= row_bit[p]
                key |= key_bit[p]
            cands.append((key, row, e))
        cands.sort()
        for key, row, e in cands:
            keys.append(key)
            if best_keys is None or keys <= best_keys[: k + 1]:
                row_bit[e], key_bit[e] = 1 << k, 1 << (n - 1 - k)
                order.append(e)
                new_rows.append(row)
                walk(order, used | (1 << e), keys, new_rows)
                new_rows.pop()
                order.pop()
            keys.pop()

    walk([], 0, [], [])
    return best_rows, best_map


def canonical_labelling(a: PosetMatrix) -> tuple[PosetMatrix, Permutation]:
    """Least representative of a's isomorphism class and a relabelling onto it.

    'Least' compares row-major bit strings, so column 0 weighs heaviest.
    The witness q satisfies permute_similar(a, q) == canonical.
    """
    if a.n > MAX_ENUM_SIDE:
        raise ValueError(f"canonical labelling supports n up to {MAX_ENUM_SIDE}, got {a.n}")
    rows, mapping = _canonical_rows(a.rows)
    return PosetMatrix(BoolMatrix(a.n, rows)), Permutation(mapping)


def canonical_form(a: PosetMatrix) -> PosetMatrix:
    """Least relabelling of a under simultaneous row/column permutation."""
    return canonical_labelling(a)[0]


# ---- the class tree ------------------------------------------------------


@lru_cache(maxsize=None)
def _class_level(n: int) -> dict[tuple[int, ...], int]:
    """Canonical rows of each n-element isomorphism class -> its number of natural labellings.

    Every n-poset is an (n-1)-poset plus one maximal element whose strict
    down-set is an order ideal, and the completions of a prefix depend only
    on its class, so level n is built from the extensions of the level n-1
    representatives, each weighted by its class's labelling count.
    """
    if n == 0:
        return {(): 1}
    level: dict[tuple[int, ...], int] = {}
    for rows, weight in _class_level(n - 1).items():
        for ext in _extensions(rows):
            canon = _canonical_rows(ext)[0]
            level[canon] = level.get(canon, 0) + weight
    return level


def count_poset_matrices(n: int) -> int:
    """Number of n x n poset matrices."""
    if not 0 <= n <= MAX_ENUM_SIDE:
        raise ValueError(f"enumeration supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    if n == 0:
        return 1
    return sum(w * len(_down_sets(c)) for c, w in _class_level(n - 1).items())


def count_isomorphism_classes(n: int) -> int:
    """Number of isomorphism classes of n-element posets."""
    if not 0 <= n <= MAX_CLASS_SIDE:
        raise ValueError(f"class counting supports n in [0, {MAX_CLASS_SIDE}], got {n}")
    return len(_class_level(n))


# ---- index-vector classification -----------------------------------------


class ClassReport(_Value):
    """One isomorphism class seen through the index vectors that select it."""

    __slots__ = ("n", "canonical", "class_size_labelled", "index_vector_count", "sample_index_vectors")

    def __init__(self, n, canonical, class_size_labelled, index_vector_count, sample_index_vectors) -> None:
        self._set(n, canonical, class_size_labelled, index_vector_count, sample_index_vectors)


@lru_cache(maxsize=None)
def _class_table(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """canonical rows -> all vectors in Q(n, 2**n) selecting that class."""
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    canon_of: dict[tuple[int, ...], tuple[int, ...]] = {}  # at n = 4, 1820 vectors realize 40 matrices
    for combo in combinations(range(1 << n), n):
        rows = realize(combo, n).rows
        if rows not in canon_of:
            canon_of[rows] = _canonical_rows(rows)[0]
        table.setdefault(canon_of[rows], []).append(combo)
    return {canon: tuple(vectors) for canon, vectors in table.items()}


def classify_index_vectors(n: int, sample_limit: int = 8) -> list[ClassReport]:
    """Partition all C(2**n, n) index vectors by the isomorphism class they realize."""
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"classification supports n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    labelled = _class_level(n)
    reports = []
    for canon, vectors in sorted(_class_table(n).items()):
        reports.append(
            ClassReport(
                n=n,
                canonical=PosetMatrix(BoolMatrix(n, canon)),
                class_size_labelled=labelled[canon],
                index_vector_count=len(vectors),
                sample_index_vectors=vectors[:sample_limit],
            )
        )
    return reports


def pascal_class(alpha: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Every index vector whose realization is isomorphic to alpha's, by exhaustive scan."""
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"class scans support n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    entries = _check_orbit_vector(alpha, n)
    return _class_table(n)[_canonical_rows(realize(entries, n).rows)[0]]


@lru_cache(maxsize=None)
def _dual_classes(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Canonical rows of each n-element class -> canonical rows of its dual's class.

    A class's canonical rows, read as integers, are an index vector in
    Q(n, 2**n) that realizes it; dual_index of that vector realizes the dual.
    """
    return {c: _canonical_rows(realize(dual_index(c, n), n).rows)[0] for c in _class_level(n)}


def dual_class_check(n: int, pair_samples: int = 10_000, seed: int = 20240901) -> bool:
    """Whether 'same class' agrees with 'duals in the same class' over Q(n, 2**n).

    Exhaustive over all ordered pairs for n <= 3; for n = 4 a fixed-seed
    random sample of pairs keeps the quadratic blow-up in check.
    """
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"class scans support n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    vectors = list(combinations(range(1 << n), n))
    canon = {v: c for c, members in _class_table(n).items() for v in members}
    dual_of = _dual_classes(n)
    if n <= 3:
        pairs = ((a, b) for a in vectors for b in vectors)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(vectors), rng.choice(vectors)) for _ in range(pair_samples))
    return all((canon[a] == canon[b]) == (dual_of[canon[a]] == dual_of[canon[b]]) for a, b in pairs)
