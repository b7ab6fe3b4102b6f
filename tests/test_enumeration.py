import itertools
import os
import random

import pytest

from posetmatrix import enumeration
from posetmatrix.bmatrix import BoolMatrix, Permutation, identity, is_idempotent, permute_similar
from posetmatrix.enumeration import (
    canonical_form,
    canonical_labelling,
    classify_index_vectors,
    count_isomorphism_classes,
    count_poset_matrices,
    dual_class_check,
    enumerate_poset_matrices,
    pascal_class,
)
from posetmatrix.posetcore import NotTransitiveError, dual, realize, validate

POSET_MATRIX_COUNTS = [1, 1, 2, 7, 40, 357, 4824]
CLASS_COUNTS = [1, 1, 2, 5, 16, 63, 318]


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
        count_poset_matrices(9)
    with pytest.raises(ValueError):
        list(enumerate_poset_matrices(-1))


def test_parallel_count_matches_serial(monkeypatch):
    # Lower the pool threshold so a real two-worker pool runs at n = 5.
    monkeypatch.setattr(enumeration, "_PARALLEL_MIN_SIDE", 5)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert count_poset_matrices(5, jobs=2) == count_poset_matrices(5)
    assert count_isomorphism_classes(5, jobs=2) == count_isomorphism_classes(5)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process stand-in; the list collects each max_workers asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("cpus, jobs, expected", [(2, 64, [2, 2]), (4, 3, [3, 3]), (None, 8, []), (2, 1, [])])
def test_pool_size_is_capped_at_cpu_count(monkeypatch, pool_sizes, cpus, jobs, expected):
    monkeypatch.setattr(enumeration, "_PARALLEL_MIN_SIDE", 4)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert count_poset_matrices(5, jobs=jobs) == 357
    assert count_isomorphism_classes(5, jobs=jobs) == 63
    assert pool_sizes == expected


def test_pool_unused_below_threshold(pool_sizes):
    assert count_poset_matrices(6, jobs=2) == 4824
    assert pool_sizes == []


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


# ---- index-vector classification ----


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
    for n in range(1, 5):
        reports = classify_index_vectors(n)
        identity_report = next(r for r in reports if r.canonical.matrix == identity(n))
        assert identity_report.class_size_labelled == 1


def test_classify_bounds():
    with pytest.raises(ValueError):
        classify_index_vectors(5)


def test_pascal_class_of_identity_vector():
    assert set(pascal_class((1, 2, 4), 3)) == {(1, 2, 4), (3, 5, 6)}


def test_pascal_class_partitions_vectors():
    seen = set()
    for alpha in itertools.combinations(range(16), 4):
        if alpha in seen:
            continue
        cls = pascal_class(alpha, 4)
        assert alpha in cls
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


def test_dual_class_check_small():
    for n in range(5):
        assert dual_class_check(n)


def test_dual_class_check_is_deterministic():
    assert dual_class_check(4, pair_samples=500) == dual_class_check(4, pair_samples=500)
