import hashlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from posetmatrix import enumeration
from posetmatrix.bmatrix import BoolMatrix, Permutation, _row_text, identity, is_idempotent, permute_similar
from posetmatrix.enumeration import (
    MAX_ENUM_SIDE,
    _class_table,
    _index_walk,
    _poset_rows,
    canonical_form,
    canonical_labelling,
    classify_index_vectors,
    count_isomorphism_classes,
    count_poset_matrices,
    dual_class_check,
    enumerate_poset_matrices,
    pascal_class,
)
from posetmatrix.pascal import _subset_rows
from posetmatrix.posetcore import NotTransitiveError, dual, dual_index, realize, validate

A006455 = (1, 1, 2, 7, 40, 357, 4824, 96428, 2800472, 116473461)  # naturally labelled posets, n = 0..9
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)  # unlabelled posets, n = 0..9
POSET_MATRIX_COUNTS = list(A006455[:7])
CLASS_COUNTS = list(A000112[:7])


def brute_force_count(n):
    """Validate every unit lower-triangular candidate; independent of the generator."""
    positions = [(i, j) for i in range(n) for j in range(i)]
    count = 0
    for picks in itertools.product((0, 1), repeat=len(positions)):
        rows = [1 << i for i in range(n)]
        for (i, j), v in zip(positions, picks):
            if v:
                rows[i] |= 1 << j
        try:
            validate(BoolMatrix(n, tuple(rows)))
        except NotTransitiveError:
            continue
        count += 1
    return count


def scan_canonical(rows):
    """Minimum over all n! relabellings, comparing row-major bit strings."""
    n = len(rows)
    best = None
    for mapping in itertools.permutations(range(n)):
        new = [0] * n
        for i, row in enumerate(rows):
            moved = 0
            r = row
            while r:
                low = r & -r
                moved |= 1 << mapping[low.bit_length() - 1]
                r ^= low
            new[mapping[i]] = moved
        if any(row >> (i + 1) for i, row in enumerate(new)):
            continue
        key = tuple(int(format(row, f"0{n}b")[::-1], 2) for row in new)
        if best is None or key < best[0]:
            best = (key, tuple(new))
    return best[1]


def unpruned_canonical_rows(rows):
    """The canonical branch-and-bound without twin pruning: the reference for form and witness."""
    n = len(rows)
    if n == 0:
        return (), ()
    preds = [rows[i] ^ (1 << i) for i in range(n)]
    pos_of = [-1] * n
    best = [None, (), ()]

    def key_of(row):
        return sum(1 << (n - 1 - j) for j in range(n) if row >> j & 1)

    def walk(order, used, keys, new_rows):
        k = len(order)
        if k == n:
            if best[0] is None or keys < best[0]:
                mapping = [0] * n
                for pos, element in enumerate(order):
                    mapping[element] = pos
                best[:] = [list(keys), tuple(new_rows), tuple(mapping)]
            return
        cands = []
        for e in range(n):
            if used >> e & 1 or preds[e] & ~used:
                continue
            row = 1 << k
            for p in range(n):
                if preds[e] >> p & 1:
                    row |= 1 << pos_of[p]
            cands.append((key_of(row), row, e))
        cands.sort()
        for key, row, e in cands:
            keys.append(key)
            if best[0] is None or keys <= best[0][: k + 1]:
                pos_of[e] = k
                walk(order + [e], used | (1 << e), keys, new_rows + [row])
                pos_of[e] = -1
            keys.pop()

    walk([], 0, [], [])
    return best[1], best[2]


def candidate_scan_extensions(prefix):
    """One-row extensions found by testing all 2**i candidate rows bit by bit: the reference for _down_sets."""
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


def candidate_scan_completions(prefix, n):
    """Side-n completions of prefix by recursive candidate scans: the reference for _poset_rows."""
    if len(prefix) == n:
        yield prefix
        return
    for ext in candidate_scan_extensions(prefix):
        yield from candidate_scan_completions(ext, n)


def random_poset_rows(rng, n):
    """A naturally labelled poset: each new row takes a random order ideal of the earlier elements."""
    rows = ()
    for _ in range(n):
        rows = rng.choice(list(candidate_scan_extensions(rows)))
    return rows


def linear_extension_count(rows):
    """e(P): ways to reach each down-set by adding one element whose predecessors are all present."""
    n = len(rows)
    preds = [row & ~(1 << i) for i, row in enumerate(rows)]
    ways = [0] * (1 << n)
    ways[0] = 1
    for down in range(1 << n):
        if ways[down]:
            for e in range(n):
                if not down >> e & 1 and not preds[e] & ~down:
                    ways[down | 1 << e] += ways[down]
    return ways[-1]


def automorphism_count(rows):
    """|Aut(P)| by direct search: bijections preserving the relation in both directions."""
    n = len(rows)

    def related(a, b):
        return rows[a] >> b & 1

    def extend(images):
        k = len(images)
        if k == n:
            return 1
        return sum(
            extend(images + [t])
            for t in range(n)
            if t not in images
            and all(related(k, j) == related(t, images[j]) and related(j, k) == related(images[j], t) for j in range(k))
        )

    return extend([])


def class_forms(n):
    """Canonical forms of every n-element class, ascending, from the walk kept to canonical prefixes."""
    if n == 0:
        return [()]
    top = 1 << (n - 1)
    return [prefix + (below | top,) for prefix, lasts in enumeration._class_walk(n) for below in lasts]


def labelling_count(rows):
    """e(P) / |Aut(P)|: the natural labellings of P's class, asserted exact."""
    labellings, rest = divmod(linear_extension_count(rows), automorphism_count(rows))
    assert rest == 0, rows
    return labellings


# ---- generation ----


def test_counts_match_frozen_table():
    for n, expected in enumerate(POSET_MATRIX_COUNTS):
        assert count_poset_matrices(n) == expected


def test_counts_match_brute_force():
    for n in range(7):
        assert count_poset_matrices(n) == brute_force_count(n)


def test_seven_three_element_matrices():
    got = [a.rows for a in enumerate_poset_matrices(3)]
    assert got == [(1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 3, 7)]


def test_enumeration_in_increasing_row_order():
    for n in range(6):
        rows_list = [a.rows for a in enumerate_poset_matrices(n)]
        assert rows_list == sorted(rows_list)
        assert len(set(rows_list)) == len(rows_list)


def test_enumeration_yields_poset_matrices_only():
    for a in enumerate_poset_matrices(4):
        assert is_idempotent(a.matrix)


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        list(enumerate_poset_matrices(MAX_ENUM_SIDE + 1))
    with pytest.raises(ValueError):
        list(enumerate_poset_matrices(-1))


def test_poset_rows_validate_and_match_enumeration():
    for n in range(7):
        rows_list = list(_poset_rows(n))
        assert [validate(BoolMatrix(n, rows)).rows for rows in rows_list] == rows_list
        assert rows_list == [a.rows for a in enumerate_poset_matrices(n)]
    with pytest.raises(ValueError):
        _poset_rows(MAX_ENUM_SIDE + 1)


@pytest.mark.slow
def test_poset_rows_validate_side_7():
    rows_list = list(_poset_rows(7))
    assert [validate(BoolMatrix(7, rows)).rows for rows in rows_list] == rows_list


def test_extensions_match_candidate_scan():
    prefixes = [rows for n in range(7) for rows in candidate_scan_completions((), n)]
    rng = random.Random(20261018)
    prefixes += [random_poset_rows(rng, n) for n in (7, 8) for _ in range(200)]
    for prefix in prefixes:
        top = 1 << len(prefix)
        extensions = [prefix + (below | top,) for below in enumeration._down_sets(prefix)]
        assert extensions == list(candidate_scan_extensions(prefix)), prefix


def test_poset_rows_match_candidate_scan():
    for n in range(8):
        assert list(_poset_rows(n)) == list(candidate_scan_completions((), n)), n


def test_walk_of_side_0_yields_nothing():
    # side 0 has no (n-1)-row prefix; a walk that looks for one never ends and its lists double per
    # level, so it runs in a child with a memory cap and a timeout, and a hang fails instead of hanging
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from posetmatrix.enumeration import _class_walk, _walk\n"
        "print(list(_walk(0)), list(_class_walk(0)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def test_tree_count_matches_enumeration():
    for n in range(8):
        assert count_poset_matrices(n) == sum(1 for _ in enumerate_poset_matrices(n))


def test_count_matches_the_walk_one_row_short():
    # the second route: one side-n matrix per down-set of each (n-1)-row prefix, lists built to the last level
    for n in range(1, 9):
        assert count_poset_matrices(n) == sum(len(sets) for _, sets in enumeration._walk(n)), n


def test_superset_masks_hold_the_supermasks():
    for width in range(8):
        expected = [sum(1 << d for d in range(1 << width) if d & b == b) for b in range(1 << width)]
        assert enumeration._superset_masks(width) == expected, width


def test_row_keys_reverse_the_row_text():
    assert len(enumeration._ROW_KEYS) == enumeration.MAX_CLASS_SIDE + 1
    for width, keys in enumerate(enumeration._ROW_KEYS):
        assert keys == [int("0" + _row_text(p, width), 2) for p in range(1 << width)], width


def test_counts_pin_oeis():
    assert [count_poset_matrices(n) for n in range(9)] == list(A006455[:9])
    assert [count_isomorphism_classes(n) for n in range(8)] == list(A000112[:8])


def test_counting_functions_take_only_n():
    for count in (count_poset_matrices, count_isomorphism_classes):
        assert list(inspect.signature(count).parameters) == ["n"]


def test_class_counting_bounds():
    for n in (-1, 10):
        with pytest.raises(ValueError):
            count_isomorphism_classes(n)
        with pytest.raises(ValueError):
            count_poset_matrices(n)


def class_count_in_child(n):
    """count_isomorphism_classes(n) in a fresh interpreter, with that interpreter's peak RSS in kB.

    The child reads its own VmHWM: ru_maxrss after exec can carry the parent's high-water mark.
    """
    code = (
        "from posetmatrix.enumeration import count_isomorphism_classes\n"
        f"count = count_isomorphism_classes({n})\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(count, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    count, peak_kb = map(int, proc.stdout.split())
    return count, peak_kb


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from /proc/self/status")
def test_class_tree_side_8_peak_memory():
    # A memo of every side-8 extension's canonical rows, none of them asked for twice, takes it to 46 MB.
    count, peak_kb = class_count_in_child(8)
    assert count == A000112[8]
    assert peak_kb < 30 * 1024


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from /proc/self/status")
def test_class_count_side_9_and_peak_memory():
    # A level set of the side-8 and side-9 forms took it to about 52 MB; the prefix memo holds only
    # the forms of sides up to 8, about 21 MB at the peak.
    count, peak_kb = class_count_in_child(9)
    assert count == A000112[9]
    assert peak_kb < 32 * 1024


@pytest.mark.slow
def test_labelled_count_side_9_by_walk_and_by_forms():
    # each side-9 matrix is a side-8 one plus a down-set, and a side-8 class has e(C) / |Aut(C)| labellings
    by_forms = sum(labelling_count(rows) * len(enumeration._down_sets(rows)) for rows in class_forms(8))
    assert count_poset_matrices(9) == by_forms == A006455[9]


# ---- canonical forms ----


def test_canonical_form_matches_full_scan():
    for n in range(6):
        for a in enumerate_poset_matrices(n):
            assert canonical_form(a).rows == scan_canonical(a.rows)


def test_canonical_form_matches_full_scan_samples_n6():
    rng = random.Random(314)
    mats = [a for a in enumerate_poset_matrices(6)]
    for a in rng.sample(mats, 60):
        assert canonical_form(a).rows == scan_canonical(a.rows)


def test_twin_pruning_keeps_form_and_witness():
    rng = random.Random(2002)
    cases = [a.rows for n in range(7) for a in enumerate_poset_matrices(n)]
    cases += [random_poset_rows(rng, n) for n in (7, 8) for _ in range(60)]
    cases += [tuple(1 << i for i in range(n)) for n in range(9)]
    for rows in cases:
        assert enumeration._canonical_rows(rows) == unpruned_canonical_rows(rows), rows


def test_canonical_form_is_idempotent_map():
    for a in enumerate_poset_matrices(5):
        c = canonical_form(a)
        assert canonical_form(c).rows == c.rows


def test_canonical_witness_conjugates_onto_canonical():
    for a in enumerate_poset_matrices(5):
        c, q = canonical_labelling(a)
        assert permute_similar(a.matrix, q) == c.matrix


def test_canonical_constant_on_classes():
    # conjugating by any relabelling that lands back on a poset matrix
    # never changes the canonical form
    for a in enumerate_poset_matrices(4):
        target = canonical_form(a).rows
        for mapping in itertools.permutations(range(4)):
            moved = permute_similar(a.matrix, Permutation(mapping))
            try:
                b = validate(moved)
            except ValueError:
                continue
            assert canonical_form(b).rows == target


def test_class_counts_match_frozen_table():
    for n, expected in enumerate(CLASS_COUNTS):
        assert count_isomorphism_classes(n) == expected


def test_class_count_equals_distinct_canonical_forms():
    for n in range(6):
        forms = {canonical_form(a).rows for a in enumerate_poset_matrices(n)}
        assert len(forms) == CLASS_COUNTS[n]


def test_class_tree_is_the_set_of_canonical_forms():
    # a list, not a set: each class once, in ascending order
    for n in range(7):
        assert class_forms(n) == sorted({canonical_form(a).rows for a in enumerate_poset_matrices(n)})


def test_canonical_lasts_quick_test_rejects_only_non_canonical_children():
    for n in range(7):
        top = 1 << n
        for rows in class_forms(n):
            children = [rows + (below | top,) for below in enumeration._down_sets(rows)]
            passing = [child[-1] ^ top for child in children if enumeration._canonical_rows(child)[0] == child]
            assert list(enumeration._canonical_lasts(rows)) == passing, rows


def search_tables(rows):
    """Predecessor masks, successor masks and row keys (column 0 most significant) of a poset-matrix row tuple."""
    n = len(rows)
    preds = [row ^ 1 << e for e, row in enumerate(rows)]
    succs = [sum(1 << s for s in range(n) if preds[s] >> e & 1) for e in range(n)]
    return preds, succs, [int(format(pred, f"0{n}b")[::-1], 2) for pred in preds]


def bounded_test_verdicts(prefixes):
    """(children, canonical children, disagreements) of the bounded test against the unpruned search, over every child.

    Each child is decided twice: from its prefix's tables, quick test first,
    and by the bounded search alone on the child's own tables.
    """
    children, canonical, wrong = 0, 0, []
    for rows in prefixes:
        tables = enumeration._prefix_tables(rows)
        top = 1 << len(rows)
        for below in enumeration._down_sets(rows):
            child = rows + (below | top,)
            least = unpruned_canonical_rows(child)[0] == child
            children += 1
            canonical += least
            own = enumeration._least_order(*search_tables(child), True) is not None
            if enumeration._child_is_canonical(tables, below) != least or own != least:
                wrong.append(child)
    return children, canonical, wrong


def test_bounded_canonical_test_matches_full_search_on_side_8_children():
    prefixes = random.Random(7007).sample(class_forms(7), 300)
    children, canonical, wrong = bounded_test_verdicts(prefixes)
    assert wrong == []
    assert 0 < canonical < children


@pytest.mark.slow
def test_bounded_canonical_test_matches_full_search_on_every_side_8_child():
    children, canonical, wrong = bounded_test_verdicts(class_forms(7))
    assert wrong == []
    assert canonical == A000112[8]


def test_deciding_children_leaves_the_prefix_tables_as_they_were():
    # the search lowers its keys in place, so a child must hand it its own lists, never the prefix's
    for n in range(7):
        for rows in class_forms(n):
            tables = enumeration._prefix_tables(rows)
            enumeration._tie_tree(tables)
            for below in enumeration._down_sets(rows):
                enumeration._child_is_canonical(tables, below)
            assert tables == enumeration._prefix_tables(rows), rows


def tie_tree_verdicts(prefixes):
    """(accepted children, disagreements) of _canonical_lasts, unmemoized, against _child_is_canonical alone, over every child."""
    accepted, wrong = 0, []
    for rows in prefixes:
        tables = enumeration._prefix_tables(rows)
        lasts = enumeration._canonical_lasts.__wrapped__(rows)
        accepted += len(lasts)
        if list(lasts) != [below for below in enumeration._down_sets(rows) if enumeration._child_is_canonical(tables, below)]:
            wrong.append(rows)
    return accepted, wrong


def test_tie_tree_verdicts_match_the_bounded_search_on_side_8_children():
    accepted, wrong = tie_tree_verdicts(random.Random(3131).sample(class_forms(7), 300))
    assert wrong == []
    assert accepted > 0


@pytest.mark.slow
def test_tie_tree_verdicts_match_the_bounded_search_on_every_side_9_child():
    accepted, wrong = tie_tree_verdicts(class_forms(8))
    assert wrong == []
    assert accepted == A000112[9]


def test_bounded_search_decides_few_side_7_children(monkeypatch):
    # a tie-tree rule that always deferred to the bounded search would pass every exactness test
    searched = []
    bounded = enumeration._child_is_canonical
    monkeypatch.setattr(enumeration, "_child_is_canonical", lambda tables, below: searched.append(below) or bounded(tables, below))
    passing = 0
    for rows in class_forms(6):
        keys = enumeration._prefix_tables(rows)[2]
        passing += sum(enumeration._ROW_KEYS[7][below] >= keys[-1] for below in enumeration._down_sets(rows))
        enumeration._canonical_lasts.__wrapped__(rows)
    assert passing == 2880
    assert 0 < len(searched) < passing / 2


def test_canonical_form_keys_never_fall():
    # the quick test compares with the last row's key only, and the tie tree reads each path's deepest node only
    for n in range(8):
        for rows in class_forms(n):
            keys = enumeration._prefix_tables(rows)[2]
            assert keys == sorted(keys), rows


def test_tie_tree_leaves_count_the_automorphisms():
    # each leaf is an automorphism up to the order of twins, which the search keeps in element order
    forms = [rows for n in range(7) for rows in class_forms(n)]
    assert len(forms) == 406
    for rows in forms:
        nodes, twins = enumeration._tie_tree(enumeration._prefix_tables(rows))
        leaves = sum(t == len(rows) for t, *_ in nodes)
        swaps = 1
        for c in twins:
            swaps *= math.factorial(c.bit_count())
        assert leaves * swaps == automorphism_count(rows), rows


def test_full_search_lowers_the_keys_to_the_least_forms():
    # without stop the incumbent's keys end as the least form's, and the order relabels rows onto it
    rng = random.Random(2323)
    for rows in [random_poset_rows(rng, n) for n in range(9) for _ in range(40)]:
        form, mapping = unpruned_canonical_rows(rows)
        preds, succs, keys = search_tables(rows)
        order = enumeration._least_order(preds, succs, keys, False)
        assert order == sorted(range(len(rows)), key=mapping.__getitem__), rows
        assert keys == search_tables(form)[2], rows


@pytest.mark.slow
def test_canonical_forms_and_witnesses_are_pinned():
    # the form and witness of every labelled matrix of side 7 or less; a faster search must leave both as they are
    digest = hashlib.sha256()
    for n in range(8):
        for a in enumerate_poset_matrices(n):
            c, q = canonical_labelling(a)
            digest.update(repr((c.rows, q.mapping)).encode())
    assert digest.hexdigest() == "fecdd74afb99e3dd583cbf55e46d73f72d249f3c54d9aa7518848df8a797bc30"


def test_class_weights_are_labelling_counts():
    # a class P has e(P) / |Aut(P)| natural labellings, so the forms and the walk count the same matrices
    for n in range(7):
        assert sum(labelling_count(rows) for rows in class_forms(n)) == count_poset_matrices(n)


def test_labelling_counts_match_classification():
    for n in range(5):
        sizes = {r.canonical.rows: r.class_size_labelled for r in classify_index_vectors(n)}
        assert sizes == {rows: labelling_count(rows) for rows in class_forms(n)}


def test_class_weights_match_classification():
    # the reference tally goes through enumerate_poset_matrices and the public canonical_form
    for n in range(5):
        tally = {}
        for a in enumerate_poset_matrices(n):
            form = canonical_form(a).rows
            tally[form] = tally.get(form, 0) + 1
        sizes = {r.canonical.rows: r.class_size_labelled for r in classify_index_vectors(n)}
        assert sizes == tally


# ---- index-vector classification ----


def subset_rows_class_table(n):
    """The class table from every combination's subset rows, each realization canonicalized once."""
    table, canon_of = {}, {}
    for vector in itertools.combinations(range(1 << n), n):
        rows = _subset_rows(vector)
        if rows not in canon_of:
            canon_of[rows] = canonical_form(validate(BoolMatrix(n, rows))).rows
        table.setdefault(canon_of[rows], []).append(vector)
    realizations = {}
    for canon in canon_of.values():
        realizations[canon] = realizations.get(canon, 0) + 1
    return {canon: (realizations[canon], tuple(vectors)) for canon, vectors in table.items()}


def test_index_walk_is_combinations_with_subset_rows():
    for n in range(5):
        expected = [(v, _subset_rows(v)) for v in itertools.combinations(range(1 << n), n)]
        assert list(_index_walk(n)) == expected


def test_class_table_matches_subset_rows_construction():
    for n in range(5):
        assert _class_table(n) == subset_rows_class_table(n)


@pytest.mark.slow
def test_index_walk_and_class_table_side_5():
    expected = [(v, _subset_rows(v)) for v in itertools.combinations(range(32), 5)]
    assert list(_index_walk(5)) == expected
    assert _class_table(5) == subset_rows_class_table(5)


def test_classify_five_elements():
    reports = classify_index_vectors(5)
    assert len(reports) == 63
    assert sum(r.class_size_labelled for r in reports) == 357
    assert sum(r.index_vector_count for r in reports) == 201376


def test_classify_three_elements():
    reports = classify_index_vectors(3)
    assert len(reports) == 5
    assert sum(r.class_size_labelled for r in reports) == 7
    assert sum(r.index_vector_count for r in reports) == 56
    for r in reports:
        assert canonical_form(r.canonical).rows == r.canonical.rows
        for alpha in r.sample_index_vectors:
            assert canonical_form(realize(alpha, 3)).rows == r.canonical.rows


def test_classify_identity_class_sizes():
    # the antichain class: one labelled matrix; its vectors are the antichain selections
    for n in range(1, 6):
        reports = classify_index_vectors(n)
        identity_report = next(r for r in reports if r.canonical.matrix == identity(n))
        assert identity_report.class_size_labelled == 1


def test_classify_bounds():
    with pytest.raises(ValueError):
        classify_index_vectors(6)
    with pytest.raises(ValueError):
        dual_class_check(6)


def test_pascal_class_of_identity_vector():
    assert set(pascal_class((1, 2, 4), 3)) == {(1, 2, 4), (3, 5, 6)}


def test_pascal_class_partitions_vectors():
    seen = set()
    for alpha in itertools.combinations(range(16), 4):
        if alpha in seen:
            continue
        cls = pascal_class(alpha, 4)
        assert alpha in cls
        assert list(cls) == sorted(cls)  # pm orbit --method exhaustive prints them in this order
        seen.update(cls)
    assert len(seen) == 1820


def test_pascal_class_members_are_isomorphic():
    rng = random.Random(23)
    vectors = rng.sample(list(itertools.combinations(range(16), 4)), 25)
    for alpha in vectors:
        target = canonical_form(realize(alpha, 4)).rows
        for beta in pascal_class(alpha, 4):
            assert canonical_form(realize(beta, 4)).rows == target


# ---- duality across classes ----


def test_dual_respects_classes_exhaustively():
    for n in range(5):
        by_class = {}
        for a in enumerate_poset_matrices(n):
            by_class.setdefault(canonical_form(a).rows, set()).add(canonical_form(dual(a)).rows)
        for duals in by_class.values():
            assert len(duals) == 1


def test_dual_classes_match_dual_matrices():
    # the Pascal table and the class tree reach the same classes; the table's dual class is dual()'s
    for n in range(6):
        table = _class_table(n)
        assert set(table) == set(class_forms(n))
        class_of = {v: c for c, (_, members) in table.items() for v in members}
        for a in enumerate_poset_matrices(n):
            assert class_of[dual_index(canonical_form(a).rows, n)] == canonical_form(dual(a)).rows


def test_dual_class_check_small():
    for n in range(5):
        assert dual_class_check(n)


def test_dual_class_check_fails_on_a_wrong_dual_map(monkeypatch):
    # fixing each canonical form maps each class to itself, an injective map, but not every class is
    # self-dual: the other vectors of a class that is not go to its dual class, so the map breaks classes
    forms = {canonical_form(a).rows for n in (3, 4) for a in enumerate_poset_matrices(n)}
    monkeypatch.setattr(enumeration, "_dual_entries", lambda v, n: v if v in forms else dual_index(v, n))
    assert not dual_class_check(3)
    assert not dual_class_check(4)


def test_dual_class_check_is_the_all_pairs_statement():
    for n in range(4):
        vectors = list(itertools.combinations(range(1 << n), n))
        form = {v: canonical_form(realize(v, n)).rows for v in vectors}
        dual_form = {v: canonical_form(realize(dual_index(v, n), n)).rows for v in vectors}
        holds = all((form[a] == form[b]) == (dual_form[a] == dual_form[b]) for a in vectors for b in vectors)
        assert dual_class_check(n) == holds


@pytest.mark.slow
def test_dual_class_check_side_5():
    assert dual_class_check(5) is True
