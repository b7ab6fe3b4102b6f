"""Exhaustive generation and isomorphism classification of poset matrices."""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .bmatrix import BoolMatrix, Permutation, iter_bits
from .pascal import check_index_vector
from .posetcore import PosetMatrix, dual_index, realize

MAX_ENUM_SIDE = 8
MAX_CLASS_SIDE = 7
MAX_CLASSIFY_SIDE = 4

_PARALLEL_MIN_SIDE = 7
_PREFIX_DEPTH = 4

# ---- generation ----------------------------------------------------------


def _extensions(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """One-row extensions: the new row picks a downward-closed set of earlier elements."""
    i = len(prefix)
    for below in range(1 << i):
        row = below | (1 << i)
        rest = below
        while rest:
            low = rest & -rest
            if prefix[low.bit_length() - 1] & ~row:
                break
            rest ^= low
        else:
            yield prefix + (row,)


def _complete(prefix: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    if len(prefix) == n:
        yield prefix
        return
    for ext in _extensions(prefix):
        yield from _complete(ext, n)


def enumerate_poset_matrices(n: int) -> Iterator[PosetMatrix]:
    """Yield every n x n poset matrix exactly once, in increasing row-mask order.

    Each row is chosen as a downward-closed set of earlier elements (it must
    contain the full row of everything it selects), so transitivity holds by
    construction and no validation filter is needed.
    """
    if not 0 <= n <= MAX_ENUM_SIDE:
        raise ValueError(f"enumeration supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    for rows in _complete((), n):
        yield PosetMatrix(BoolMatrix(n, rows))


def _prefixes(n: int, depth: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(min(depth, n)):
        out = [ext for p in out for ext in _extensions(p)]
    return out


def _count_below(prefix: tuple[int, ...], n: int) -> int:
    if len(prefix) == n:
        return 1
    return sum(_count_below(ext, n) for ext in _extensions(prefix))


def _pool_size(jobs: int, n: int) -> int:
    """Worker processes for a count at side n: 1 (serial) below the threshold, else jobs capped at the CPU count."""
    return 1 if n < _PARALLEL_MIN_SIDE else max(1, min(jobs, os.cpu_count() or 1))


def _count_task(args: tuple[tuple[int, ...], int]) -> int:
    prefix, n = args
    return _count_below(prefix, n)


def count_poset_matrices(n: int, jobs: int = 1) -> int:
    """Number of n x n poset matrices."""
    if not 0 <= n <= MAX_ENUM_SIDE:
        raise ValueError(f"enumeration supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    workers = _pool_size(jobs, n)
    if workers == 1:
        return _count_below((), n)
    tasks = [(p, n) for p in _prefixes(n, _PREFIX_DEPTH)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_task, tasks, chunksize=4))


# ---- canonical labelling -------------------------------------------------


def _bit_string_key(row: int, n: int) -> int:
    """Row mask reordered so that column 0 is the most significant comparison bit."""
    key = 0
    for j in iter_bits(row):
        key |= 1 << (n - 1 - j)
    return key


@lru_cache(maxsize=300_000)
def _canonical_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least relabelling of a poset-matrix row tuple, with the old->new witness map.

    Branch-and-bound over position assignments: a position can take any
    element whose predecessors are all placed (so the result stays a poset
    matrix), candidates are tried in row-major bit-string order, and a branch
    dies as soon as its key prefix exceeds the incumbent's.
    """
    n = len(rows)
    if n == 0:
        return (), ()
    preds = [rows[i] ^ (1 << i) for i in range(n)]
    pos_of = [-1] * n
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
            if used >> e & 1 or preds[e] & ~used:
                continue
            row = 1 << k
            for p in iter_bits(preds[e]):
                row |= 1 << pos_of[p]
            cands.append((_bit_string_key(row, n), row, e))
        cands.sort()
        for key, row, e in cands:
            keys.append(key)
            if best_keys is None or keys <= best_keys[: k + 1]:
                pos_of[e] = k
                order.append(e)
                new_rows.append(row)
                walk(order, used | (1 << e), keys, new_rows)
                new_rows.pop()
                order.pop()
                pos_of[e] = -1
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


def _canon_task(args: tuple[tuple[int, ...], int]) -> set[tuple[int, ...]]:
    prefix, n = args
    return {_canonical_rows(rows)[0] for rows in _complete(prefix, n)}


def count_isomorphism_classes(n: int, jobs: int = 1) -> int:
    """Number of isomorphism classes of n-element posets."""
    if not 0 <= n <= MAX_CLASS_SIDE:
        raise ValueError(f"class counting supports n in [0, {MAX_CLASS_SIDE}], got {n}")
    workers = _pool_size(jobs, n)
    if workers == 1:
        return len({_canonical_rows(rows)[0] for rows in _complete((), n)})
    tasks = [(p, n) for p in _prefixes(n, _PREFIX_DEPTH)]
    seen: set[tuple[int, ...]] = set()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_canon_task, tasks, chunksize=4):
            seen.update(part)
    return len(seen)


# ---- index-vector classification -----------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """One isomorphism class seen through the index vectors that select it."""

    n: int
    canonical: PosetMatrix
    class_size_labelled: int
    index_vector_count: int
    sample_index_vectors: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _class_table(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """canonical rows -> all vectors in Q(n, 2**n) selecting that class."""
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in combinations(range(1 << n), n):
        canon = _canonical_rows(realize(combo, n).rows)[0]
        table.setdefault(canon, []).append(combo)
    return {canon: tuple(vectors) for canon, vectors in table.items()}


def classify_index_vectors(n: int, sample_limit: int = 8) -> list[ClassReport]:
    """Partition all C(2**n, n) index vectors by the isomorphism class they realize."""
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"classification supports n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    labelled: dict[tuple[int, ...], int] = {}
    for rows in _complete((), n):
        canon = _canonical_rows(rows)[0]
        labelled[canon] = labelled.get(canon, 0) + 1
    reports = []
    for canon, vectors in sorted(_class_table(n).items()):
        reports.append(
            ClassReport(
                n=n,
                canonical=PosetMatrix(BoolMatrix(n, canon)),
                class_size_labelled=labelled.get(canon, 0),
                index_vector_count=len(vectors),
                sample_index_vectors=vectors[:sample_limit],
            )
        )
    return reports


def pascal_class(alpha: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Every index vector whose realization is isomorphic to alpha's, by exhaustive scan."""
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"class scans support n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    entries = check_index_vector(alpha, 1 << n)
    if len(entries) != n:
        raise ValueError(f"need exactly {n} entries, got {len(entries)}")
    return _class_table(n)[_canonical_rows(realize(entries, n).rows)[0]]


def dual_class_check(n: int, pair_samples: int = 10_000, seed: int = 20240901) -> bool:
    """Whether 'same class' agrees with 'duals in the same class' over Q(n, 2**n).

    Exhaustive over all ordered pairs for n <= 3; for n = 4 a fixed-seed
    random sample of pairs keeps the quadratic blow-up in check.
    """
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"class scans support n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    vectors = list(combinations(range(1 << n), n))
    canon = {v: _canonical_rows(realize(v, n).rows)[0] for v in vectors}
    dual_canon = {v: _canonical_rows(realize(dual_index(v, n), n).rows)[0] for v in vectors}
    if n <= 3:
        pairs = ((a, b) for a in vectors for b in vectors)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(vectors), rng.choice(vectors)) for _ in range(pair_samples))
    return all((canon[a] == canon[b]) == (dual_canon[a] == dual_canon[b]) for a, b in pairs)
