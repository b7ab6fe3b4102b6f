"""Exhaustive generation and isomorphism classification of poset matrices."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from . import MAX_CLASS_SIDE, _check_size
from .bmatrix import BoolMatrix, Permutation, _Value
from .posetcore import PosetMatrix, _check_orbit_vector, _dual_entries, realize

MAX_ENUM_SIDE = 8
MAX_CLASSIFY_SIDE = 5
SAMPLE_INDEX_VECTORS = 8  # vectors each ClassReport lists, the first in combinations order

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
    """Each (n-1)-row prefix of a side-n poset matrix with the down-sets that complete it, in increasing row-mask order.

    The down-sets of prefix + (below | top,) are those of prefix plus, with
    the new element added, those that hold below; so each child gets its
    list without a scan of the 2**i candidate rows.  Each side-n matrix is
    a yielded prefix plus one row per down-set in its list, so the walk
    stops a level short: lists built for the leaves would cost several
    times the rest of the walk.  An explicit stack, children pushed in
    reverse, keeps the order without a chain of generators per prefix.
    Side 0 has no (n-1)-row prefix, so it yields nothing.
    """
    if n == 0:
        return
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
    n = _check_size(n, MAX_ENUM_SIDE, "enumeration supports n")
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

# width -> mask -> its row key: the mask's width bits reversed, so column 0 is most significant.  A
# mask on width + 1 bits is one on width bits with bit width on top, which lands in the key's bit 0.
_ROW_KEYS: list[list[int]] = [[0]]
for _e in range(MAX_CLASS_SIDE):
    _ROW_KEYS.append([key << 1 for key in _ROW_KEYS[_e]] + [key << 1 | 1 for key in _ROW_KEYS[_e]])


def _search_tables(rows: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Predecessor masks, successor masks and row keys of a poset-matrix row tuple's elements."""
    preds = [row ^ 1 << e for e, row in enumerate(rows)]
    succs = [0] * len(rows)
    for e, pred in enumerate(preds):
        for j in _MEMBERS[pred]:
            succs[j] |= 1 << e
    keys = _ROW_KEYS[len(rows)]
    return preds, succs, [keys[pred] for pred in preds]


def _twin_classes(preds: list[int], succs: list[int]) -> list[int]:
    """Masks of the twin classes of two or more: elements with equal predecessor and successor sets."""
    classes: dict[tuple[int, int], int] = {}
    for e, key in enumerate(zip(preds, succs)):
        classes[key] = classes.get(key, 0) | 1 << e
    return [c for c in classes.values() if c & (c - 1)]


def _blocks(preds: list[int], succs: list[int]) -> tuple[list[int], list[int], int]:
    """Blocker masks, unblock masks and the initial ready mask of a search over position assignments.

    An element is blocked by its predecessors and by its smaller twins
    (_twin_classes), and a position can take it once its blockers are
    placed; unblocks[e] holds the elements e may be the last to block.
    Twins are placed in element order, so the next smaller twin is the
    last to block one.
    """
    blockers = preds[:]
    unblocks = succs[:]
    for c in _twin_classes(preds, succs):
        members = _MEMBERS[c]
        for smaller, e in zip(members, members[1:]):
            blockers[e] |= c & (1 << e) - 1
            unblocks[smaller] |= 1 << e
    ready = 0
    for e, blocker in enumerate(blockers):
        if not blocker:
            ready |= 1 << e
    return blockers, unblocks, ready


def _least_order(preds: list[int], succs: list[int], keys: list[int], nodes: list[tuple[int, int, list[int], int]] | None = None) -> list[int]:
    """A poset's elements in the order of its least relabelling, from their row keys.

    Search over position assignments: a position can take any element
    whose predecessors are all placed (so the result stays a poset
    matrix).  A row's key is its mask with the bit order reversed (column
    0 most significant), and the row at position k holds only positions
    up to k, so its key is fixed by the choice at k.  Keys are carried:
    placing e at position k sets key bit n-1-k in each successor's key,
    cleared again on return.  So is the ready mask: placing e makes ready
    those it was the last to block.

    The identity is the first incumbent, and keys holds the incumbent's
    row keys, position by position.  At depth k the search branches only
    on the ready elements whose carried key ties the least one, in
    element order, and a branch dies when that key exceeds keys[k].  When
    it is below keys[k], every order through the node is smaller than the
    incumbent: the search lowers keys[k] in place, raises the deeper keys
    above every key, and takes the first leaf it reaches after that as the
    new incumbent.  A later leaf that only ties it is not taken, so the
    result is the first least leaf, and with it the form and the witness.

    Twins are blocked by _blocks.  Swapping two unplaced twins is an
    automorphism fixing every placed element, so a blocked twin's subtree
    repeats, key for key, that of the smaller twin, which is searched
    earlier; blocking drops no key sequence and no first least leaf.

    On a canonical form, which no order undercuts, the nodes entered are
    its tie tree: every prefix of a linear extension, twins in element
    order, whose keys tie the form's.  With nodes, a list, the search
    appends the ones _tie_verdict reads, as it leaves them: those that
    end a path (leaves and dead ends) and those at depth n - 1.  Each is
    (depth t, placed mask, bits, after): bits[e] is placed element e's
    bit in a row key, so a new element's key at the node is the sum of
    its predecessors' bits, and at depth n - 1, after is the carried key
    of the one element left, which it takes last.
    """
    n = len(preds)
    top = 1 << n  # above every key
    blockers, unblocks, ready = _blocks(preds, succs)
    carried = [0] * n
    path = list(range(n))  # path[:k] is the order below the node at depth k
    bits = [0] * n  # e placed at depth k has bit n-1-k; _tie_verdict reads placed elements only, so stale entries are never read
    best = path[:]
    lowered = False  # since the incumbent was last taken

    def walk(k: int, placed: int, ready: int) -> None:
        """Search below path[:k]."""
        nonlocal lowered
        if k == n:
            if nodes is not None:
                nodes.append((n, placed, bits[:], 0))
            if lowered:
                best[:] = path
                lowered = False
            return
        members = _MEMBERS[ready]
        want = least = keys[k]
        for e in members:
            if carried[e] < least:
                least = carried[e]
        if least < want:
            keys[k:] = [least] + [top] * (n - 1 - k)
            lowered = True
        bit = 1 << (n - 1 - k)
        entered = False
        for e in members:
            if carried[e] != least:
                continue
            entered = True
            child_placed = placed | 1 << e
            child_ready = ready ^ 1 << e
            for s in _MEMBERS[unblocks[e]]:
                if not blockers[s] & ~child_placed:
                    child_ready |= 1 << s
            successors = _MEMBERS[succs[e]]
            for s in successors:
                carried[s] |= bit
            path[k] = e
            bits[e] = bit
            walk(k + 1, child_placed, child_ready)
            for s in successors:
                carried[s] ^= bit
        if nodes is not None and (k == n - 1 or not entered):
            nodes.append((k, placed, bits[:], carried[members[0]] if k == n - 1 else 0))

    walk(0, 0, ready)
    del walk  # walk reads itself through its closure cell; dropping it frees the search by reference counting
    return best


def _canonical_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least relabelling of a poset-matrix row tuple, with the old->new witness map.

    The rows come from the least leaf's row keys, which _least_order
    leaves in keys, and the witness from its order.
    """
    n = len(rows)
    preds, succs, keys = _search_tables(rows)
    order = _least_order(preds, succs, keys)
    mapping = [0] * n
    for pos, e in enumerate(order):
        mapping[e] = pos
    masks = _ROW_KEYS[n]  # reversing a key's bits gives back its mask
    return tuple([masks[key] | 1 << pos for pos, key in enumerate(keys)]), tuple(mapping)


def canonical_labelling(a: PosetMatrix) -> tuple[PosetMatrix, Permutation]:
    """Least representative of a's isomorphism class and a relabelling onto it.

    'Least' compares row-major bit strings, so column 0 weighs heaviest.
    The witness q satisfies permute_similar(a, q) == canonical.
    """
    _check_size(a.n, MAX_ENUM_SIDE, "canonical labelling supports n")
    rows, mapping = _canonical_rows(a.rows)
    return PosetMatrix(BoolMatrix(a.n, rows)), Permutation(mapping)


def canonical_form(a: PosetMatrix) -> PosetMatrix:
    """Least relabelling of a under simultaneous row/column permutation."""
    return canonical_labelling(a)[0]


# ---- the class tree ------------------------------------------------------


@lru_cache(maxsize=None)
def _canonical_lasts(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Down-sets D of the canonical form rows for which rows + (D | top,) is canonical, ascending.

    Deleting the last row of a canonical form leaves a canonical form (a
    smaller relabelling of the rest, with the last element kept last, would
    be a smaller relabelling of the whole), so the canonical forms are a
    prefix-closed tree and each class is reached once, from the canonical
    form of its first n-1 rows: orderly generation (Read, 1978).  Callers
    ask for the same forms again (counts for n = 0, 1, 2, ... in turn), so
    they are memoized; the memo holds the forms below the side asked for,
    never its leaves.

    A quick test rejects about half of the children first: if D's key is
    less than the last row's, inserting the new element just before the
    last one is a smaller relabelling (D then misses the last element,
    whose down-set would give a larger key).  On a canonical form, whose
    keys never fall (_tie_verdict), no other insertion point rejects more.
    The prefix's tie tree decides most of the rest: the search on the form
    alone records its deciding nodes (_least_order; the form is canonical,
    so no key is lowered and the tables stay as they were), and
    _tie_verdict reads them with the form's twin classes.  A child it
    cannot decide is canonical when its least relabelling is itself.
    Keys here are on len(rows) columns: a child's keys on one more column
    are these doubled, so the comparisons agree.  The tree lives for this
    call.
    """
    preds, succs, keys = _search_tables(rows)
    last = keys[-1] if keys else 0
    row_keys = _ROW_KEYS[len(rows)]
    top = 1 << len(rows)
    nodes: list[tuple[int, int, list[int], int]] = []
    _least_order(preds, succs, keys, nodes)
    twins = _twin_classes(preds, succs)
    lasts = []
    for below in _down_sets(rows):
        key = row_keys[below]
        if key < last:
            continue
        verdict = _tie_verdict(nodes, twins, keys, below, key)
        if verdict is None:
            child = rows + (below | top,)
            verdict = _canonical_rows(child)[0] == child
        if verdict:
            lasts.append(below)
    return tuple(lasts)


def _tie_verdict(nodes: list[tuple[int, int, list[int], int]], twins: list[int], keys: list[int], below: int, key: int) -> bool | None:
    """Whether rows + (below | top,) is canonical, from the prefix's tie tree; None where the tree cannot tell.

    nodes are the deciding nodes of the tie tree that _least_order records
    on rows, in any order, and twins the masks of rows's _twin_classes.

    Every order of the child places the new element x at some depth t
    after a prefix order of rows.  If that prefix does not tie rows's
    keys, the order is larger before t, as rows is canonical; if it ties,
    it is a tree node up to a permutation of twins, and x's key there is
    read from the node's positions.  A twin class c that below splits
    holds x's predecessors among its |below & c| largest members, or
    swapping twins lowers x's own row (the key of a set drops as its
    members move later); at a node these predecessors can be any of the
    placed members of c, which take c's smallest positions in element
    order, and the latest of them give the least key.  That least key is
    compared with the key at t: that of rows, or key itself at
    t = len(rows).  Lower rejects the child.

    Down a path x's least key never rises (its predecessors keep their
    positions, and a split class's part moves to later members), while
    the keys of a canonical form never fall (element t + 1 would
    otherwise go before t, or holds t and so every predecessor of t).  So
    the deepest node of a path below the last depth decides for the nodes
    above it, and the search records only those, the nodes at depth
    len(rows) - 1 and the leaves.  A tie at depth len(rows) - 1 leaves
    one element to follow x, whose key, after, is compared with key;
    unless the last two keys of rows are equal, as then the tie may start
    higher up.  Any other tie leaves the rest of the order to decide:
    None, for the child's least relabelling.
    """
    m = len(keys)
    split = []
    rest = below
    for c in twins:
        part = below & c
        if part and part != c:
            b = part.bit_count()
            if part != c & -(1 << _MEMBERS[c][-b]):
                return False
            split.append((c, b))
            rest ^= part
    tied = False
    members = _MEMBERS[rest]
    for t, placed, bits, after in nodes:
        if rest & ~placed:
            continue
        k = sum([bits[e] for e in members])
        for c, b in split:
            own = _MEMBERS[placed & c]
            if len(own) < b:
                break
            k += sum([bits[e] for e in own[-b:]])
        else:
            if t == m:
                if k < key:
                    return False
            elif k < keys[t]:
                return False
            elif k == keys[t]:
                if t < m - 1 or t and keys[t - 1] == keys[t]:
                    tied = True
                elif after < key:
                    return False
    return None if tied else True


def _class_walk(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each canonical (n-1)-row prefix of a side-n class with its canonical lasts, in increasing row-mask order.

    Level k + 1 extends each k-row prefix, in order, by its _canonical_lasts,
    so levels ascend.  Side 0 has no (n-1)-row prefix, so it yields nothing.
    """
    if n == 0:
        return
    level = [()]
    for k in range(n - 1):
        level = [prefix + (below | 1 << k,) for prefix in level for below in _canonical_lasts(prefix)]
    for prefix in level:
        yield prefix, _canonical_lasts(prefix)


def _superset_masks(width: int) -> list[int]:
    """For each mask b below 2**width, its supermasks d below 2**width as one int with bit d set.

    On width + 1 bits, a mask without the top bit has its width-bit
    supermasks with and without the top bit (those shifted by 2**width),
    and a mask with it only the shifted ones.
    """
    supersets = [1]
    for w in range(width):
        supersets = [up | up << (1 << w) for up in supersets] + [up << (1 << w) for up in supersets]
    return supersets


def count_poset_matrices(n: int) -> int:
    """Number of n x n poset matrices, from the walk two rows short of them.

    Each (n-2)-row prefix with down-set list L has a child per b in L, and
    that child's down-sets are L plus those of L that hold b, with the new
    element added; so the prefix has |L| + #{d in L : d & b == b}
    completions per b.  The supersets are counted as the bits of L's bit
    set (bit d for each d in L) that lie in b's _superset_masks, so no
    list is built for the last two levels.
    """
    n = _check_size(n, MAX_CLASS_SIDE, "matrix counting supports n")
    if n < 2:
        return 1
    supersets = _superset_masks(n - 2)
    total = 0
    for _, sets in _walk(n - 1):
        members = sum([1 << d for d in sets])
        total += len(sets) ** 2 + sum([(members & supersets[b]).bit_count() for b in sets])
    return total


def count_isomorphism_classes(n: int) -> int:
    """Number of isomorphism classes of n-element posets: one per canonical last of each canonical prefix."""
    n = _check_size(n, MAX_CLASS_SIDE, "class counting supports n")
    if n == 0:
        return 1
    return sum(len(lasts) for _, lasts in _class_walk(n))


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
def _class_table(n: int) -> dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...]]]:
    """canonical rows -> (labelled matrices, vectors in Q(n, 2**n)) of that class, vectors in combinations order.

    The realizations come from the prefix walk, unvalidated, and each
    distinct one is canonicalized once.  Every n x n poset matrix is the
    realization of its own rows, so a class's distinct realizations are
    its labelled matrices, and its canonical rows are one of its vectors.
    """
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    labelled: dict[tuple[int, ...], int] = {}
    bucket_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # at n = 5, 201376 vectors realize 357 matrices
    for vector, rows in _index_walk(n):
        bucket = bucket_of.get(rows)
        if bucket is None:
            canon = _canonical_rows(rows)[0]
            labelled[canon] = labelled.get(canon, 0) + 1
            bucket = bucket_of[rows] = table.setdefault(canon, [])
        bucket.append(vector)
    return {canon: (labelled[canon], tuple(vectors)) for canon, vectors in table.items()}


def classify_index_vectors(n: int) -> list[ClassReport]:
    """Partition all C(2**n, n) index vectors by the isomorphism class they realize."""
    n = _check_size(n, MAX_CLASSIFY_SIDE, "classification supports n")
    return [
        ClassReport(
            n=n,
            canonical=PosetMatrix(BoolMatrix(n, canon)),
            class_size_labelled=labelled,
            index_vector_count=len(vectors),
            sample_index_vectors=vectors[:SAMPLE_INDEX_VECTORS],
        )
        for canon, (labelled, vectors) in sorted(_class_table(n).items())
    ]


def pascal_class(alpha: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Every index vector whose realization is isomorphic to alpha's, by exhaustive scan."""
    n = _check_size(n, MAX_CLASSIFY_SIDE, "class scans support n")
    entries, _ = _check_orbit_vector(alpha, n)
    return _class_table(n)[_canonical_rows(realize(entries, n).rows)[0]][1]


def dual_class_check(n: int) -> bool:
    """Whether 'same class' agrees with 'duals in the same class' over all pairs of Q(n, 2**n).

    Exhaustive, without the pairs: a class's canonical rows c are one of
    its vectors, so read its dual class as the class of dual_index(c); the
    statement holds exactly when every vector's dual_index lies in the dual
    class of its own class, and no two classes share a dual class.  (The
    all-pairs statement gives the first condition, and then the second.)
    """
    n = _check_size(n, MAX_CLASSIFY_SIDE, "class scans support n")
    table = _class_table(n)
    class_of = {v: c for c, (_, members) in table.items() for v in members}
    dual_of = {c: class_of[_dual_entries(c, n)] for c in table}
    if len(set(dual_of.values())) != len(dual_of):
        return False
    for c, (_, members) in table.items():
        dual = dual_of[c]
        for v in members:
            if class_of[_dual_entries(v, n)] != dual:
                return False
    return True
