"""Exhaustive generation and isomorphism classification of poset matrices."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

from .bmatrix import BoolMatrix, Permutation, _Value, iter_bits
from .posetcore import PosetMatrix, _check_orbit_vector, dual_index, realize

MAX_ENUM_SIDE = 8
MAX_CLASS_SIDE = 9
MAX_CLASSIFY_SIDE = 5

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


def _walk(n: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each (n-1)-row prefix of a side-n poset matrix with its down-sets, in increasing row-mask order.

    The down-sets of prefix + (below | top,) are those of prefix plus, with
    the new element added, those that hold below; so each child gets its
    list without a scan of the 2**i candidate rows.  Each side-n matrix is
    a yielded prefix plus one row per down-set in its list, so the walk
    stops a level short: lists built for the leaves would cost several
    times the rest of the walk.  An explicit stack, children pushed in
    reverse, keeps the order without a chain of generators per prefix.
    """
    stack = [((), [0])]
    while stack:
        prefix, sets = stack.pop()
        if len(prefix) == n - 1:
            yield prefix, sets
            continue
        top = 1 << len(prefix)
        for below in reversed(sets):
            stack.append((prefix + (below | top,), sets + [s | top for s in sets if s & below == below]))


def _poset_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Row tuples of every n x n poset matrix, in increasing row-mask order, unvalidated.

    A side out of range raises at the call, before anything is yielded.
    """
    if not 0 <= n <= MAX_ENUM_SIDE:
        raise ValueError(f"enumeration supports n in [0, {MAX_ENUM_SIDE}], got {n}")
    if n == 0:
        return iter([()])
    top = 1 << (n - 1)
    return (prefix + (below | top,) for prefix, sets in _walk(n) for below in sets)


def enumerate_poset_matrices(n: int) -> Iterator[PosetMatrix]:
    """Yield every n x n poset matrix exactly once, in increasing row-mask order.

    Each row is chosen as a downward-closed set of earlier elements (it must
    contain the full row of everything it selects), so transitivity holds by
    construction; each matrix is still validated as a PosetMatrix.  A side
    out of range raises at the call, before anything is yielded.
    """
    return (PosetMatrix(BoolMatrix(n, rows)) for rows in _poset_rows(n))


# ---- canonical labelling -------------------------------------------------

_MEMBERS: list[tuple[int, ...]] = [()]  # mask -> its set bits, ascending, for every mask below 2**MAX_CLASS_SIDE
for _e in range(MAX_CLASS_SIDE):
    _MEMBERS += [members + (_e,) for members in _MEMBERS]


def _canonical_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least relabelling of a poset-matrix row tuple, with the old->new witness map.

    Search over position assignments: a position can take any element whose
    predecessors are all placed (so the result stays a poset matrix).  A
    row's key is its mask with the bit order reversed (column 0 most
    significant), and the row at position k holds only positions up to k,
    so its key is fixed by the choice at k.  A minimal leaf therefore takes
    a least key at every depth: the search branches only on the candidates
    that tie for the least key, in element order, and a branch dies as soon
    as its key prefix exceeds the incumbent's.  Keys are carried: placing e
    at position k sets key bit n-1-k in each successor's key, cleared again
    on return.  So is the ready mask: placing e makes ready those it was
    the last to block.

    Twins (elements with equal predecessor and successor masks) are
    interchangeable: swapping two unplaced twins is an automorphism fixing
    every placed element, so a twin's subtree repeats, key for key, that of
    the smaller twin, which is searched earlier.  A candidate is therefore
    blocked while a smaller twin is unplaced; twins are placed in element
    order, so the largest smaller twin is the last to block it.  The first
    minimal leaf, and with it the form and the witness, stay the same.  The
    rows are built once, from that leaf's order.
    """
    n = len(rows)
    if n == 0:
        return (), ()
    bits = [1 << e for e in range(n)]
    preds = [rows[e] ^ bits[e] for e in range(n)]
    succ_lists = [[i for i in range(j + 1, n) if preds[i] & bits[j]] for j in range(n)]
    blockers = preds[:]  # predecessors and smaller twins: all are placed first
    unblocks = [list(succ) for succ in succ_lists]  # the elements e may be the last to block
    twins_so_far: dict[tuple[int, ...], int] = {}
    for e in range(n):
        key = (preds[e], *succ_lists[e])
        twins = twins_so_far.get(key, 0)
        if twins:
            blockers[e] |= twins
            unblocks[twins.bit_length() - 1].append(e)
        twins_so_far[key] = twins | bits[e]
    keys = [0] * n
    order: list[int] = []
    best_order: list[int] = []
    best_keys: list[int] = []

    def walk(k: int, used: int, ready: int, tight: bool) -> bool:
        """Search below order; tight when its keys equal the incumbent's prefix. True if it set a new incumbent."""
        if k == n:
            if tight:  # equal to the incumbent, which was found first
                return False
            best_order[:] = order
            best_keys[:] = [keys[e] for e in order]
            return True
        least = -1
        for e in _MEMBERS[ready]:
            if least < 0 or keys[e] < least:
                least, ties = keys[e], [e]
            elif keys[e] == least:
                ties.append(e)
        if tight:
            if least > best_keys[k]:
                return False
            tight = least == best_keys[k]
        bit = 1 << (n - 1 - k)
        found = False
        for e in ties:
            placed = used | bits[e]
            child_ready = ready ^ bits[e]
            for s in unblocks[e]:
                if not blockers[s] & ~placed:
                    child_ready |= bits[s]
            for s in succ_lists[e]:
                keys[s] |= bit
            order.append(e)
            if walk(k + 1, placed, child_ready, tight):
                found = tight = True  # the new incumbent runs through this node
            order.pop()
            for s in succ_lists[e]:
                keys[s] ^= bit
        return found

    walk(0, 0, sum(bits[e] for e in range(n) if not blockers[e]), False)  # the first leaf is taken
    mapping = [0] * n
    for pos, element in enumerate(best_order):
        mapping[element] = pos
    new_rows = [1 << pos for pos in range(n)]
    for e in range(n):
        for s in succ_lists[e]:
            new_rows[mapping[s]] |= 1 << mapping[e]
    return tuple(new_rows), tuple(mapping)


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


def _largest_last_extensions(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """One-row extensions of rows whose new element has the largest down-set among their maximal elements.

    The new element is above just the down-set D it picks, so the other
    maximal elements are those of rows outside D, with their down-sets
    unchanged; the test is |D| + 1 >= |down(m)| for each of them.
    """
    n = len(rows)
    top = 1 << n
    maximal = top - 1
    for i, row in enumerate(rows):
        maximal &= ~row | (1 << i)
    above = [0] * (n + 2)  # above[s]: the maximal elements whose down-sets have more than s elements
    for m in iter_bits(maximal):
        for s in range(rows[m].bit_count()):
            above[s] |= 1 << m
    for below in _down_sets(rows):
        if not above[below.bit_count() + 1] & ~below:
            yield rows + (below | top,)


@lru_cache(maxsize=None)
def _class_level(n: int) -> frozenset[tuple[int, ...]]:
    """Canonical rows of every n-element isomorphism class.

    Each class is reached by deleting a maximal element x whose down-set is
    largest among the maximal elements: what is left is the class of some
    (n-1)-element form P, x's strict down-set maps to a down-set D of P,
    and every maximal m of P outside D is maximal in the whole poset with
    the same down-set, so |D| + 1 >= |down(m)|.  So level n is the
    canonical forms of the one-row extensions of the level n-1 forms that
    pass this test (a relaxed canonical construction path, after Brinkmann
    and McKay); the others repeat a class that a passing extension
    reaches, and repeats collapse in the set.
    """
    if n == 0:
        return frozenset([()])
    return frozenset(
        _canonical_rows(child)[0] for rows in _class_level(n - 1) for child in _largest_last_extensions(rows)
    )


def count_poset_matrices(n: int) -> int:
    """Number of n x n poset matrices: one per down-set of each (n-1)-row prefix of the walk."""
    if not 0 <= n <= MAX_CLASS_SIDE:
        raise ValueError(f"matrix counting supports n in [0, {MAX_CLASS_SIDE}], got {n}")
    if n == 0:
        return 1
    return sum(len(sets) for _, sets in _walk(n))


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


def _index_walk(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each vector in Q(n, 2**n) with its subset-order rows, in combinations order.

    Entries ascend, so entry j is a submask of entry i only if j <= i: row
    i is fixed once entries 0..i are chosen.  A prefix carries, for each
    candidate x above its last entry, the mask of its entries that are
    submasks of x; a child's row is its candidate's mask plus the diagonal,
    and its own candidates' masks add its bit where its entry is a submask.
    So each row is built once per prefix, not once per vector.  An explicit
    stack, children pushed in reverse, keeps the order, as in _walk.
    """
    if n == 0:
        yield (), ()
        return
    size = 1 << n
    top = 1 << (n - 1)
    stack = [((), (), 0, [0] * size)]
    while stack:
        vector, rows, start, masks = stack.pop()
        k = len(vector)
        if k == n - 1:
            for x, mask in zip(range(start, size), masks):
                yield vector + (x,), rows + (mask | top,)
            continue
        bit = 1 << k
        for x in range(size - n + k, start - 1, -1):  # leaving room for the n - k - 1 entries above x
            i = x - start
            child = [m | bit if x & e == x else m for e, m in zip(range(x + 1, size), masks[i + 1 :])]
            stack.append((vector + (x,), rows + (masks[i] | bit,), x + 1, child))


@lru_cache(maxsize=None)
def _class_table(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """canonical rows -> all vectors in Q(n, 2**n) selecting that class, in combinations order.

    The realizations come from the prefix walk, unvalidated, and each
    distinct one is canonicalized once.
    """
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    bucket_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # at n = 5, 201376 vectors realize 357 matrices
    for vector, rows in _index_walk(n):
        bucket = bucket_of.get(rows)
        if bucket is None:
            bucket = bucket_of[rows] = table.setdefault(_canonical_rows(rows)[0], [])
        bucket.append(vector)
    return {canon: tuple(vectors) for canon, vectors in table.items()}


def classify_index_vectors(n: int, sample_limit: int = 8) -> list[ClassReport]:
    """Partition all C(2**n, n) index vectors by the isomorphism class they realize."""
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"classification supports n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    labelled = Counter(_canonical_rows(rows)[0] for rows in _poset_rows(n))
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


def dual_class_check(n: int) -> bool:
    """Whether 'same class' agrees with 'duals in the same class' over all pairs of Q(n, 2**n).

    Exhaustive, without the pairs: it holds exactly when every vector's
    dual_index lies in the class _dual_classes gives for the vector's
    class, and _dual_classes is injective.  (Each class's canonical rows
    are a vector realizing it, so the all-pairs statement gives the first
    condition, and then the second.)
    """
    if not 0 <= n <= MAX_CLASSIFY_SIDE:
        raise ValueError(f"class scans support n in [0, {MAX_CLASSIFY_SIDE}], got {n}")
    table = _class_table(n)
    dual_of = _dual_classes(n)
    if len(set(dual_of.values())) != len(dual_of):
        return False
    class_of = {v: c for c, members in table.items() for v in members}
    return all(class_of[dual_index(v, n)] == dual_of[c] for c, members in table.items() for v in members)
