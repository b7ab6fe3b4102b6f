import math

import pytest

from posetmatrix.bmatrix import BoolMatrix, identity, is_idempotent
from posetmatrix.pascal import (
    check_index_vector,
    induced_submatrix,
    lucas_entry,
    pascal_matrix,
    support,
    support_poset_matrix,
)


def test_support_is_identity_on_masks():
    assert support(0) == 0
    assert support(13) == 13
    with pytest.raises(ValueError):
        support(-1)


def test_lucas_entry_against_comb():
    for i in range(64):
        for j in range(64):
            assert lucas_entry(i, j) == math.comb(i, j) % 2


def test_lucas_entry_rejects_negatives():
    with pytest.raises(ValueError):
        lucas_entry(-1, 0)


def test_pascal_matrix_frozen_rows():
    assert pascal_matrix(8).rows == (1, 3, 5, 15, 17, 51, 85, 255)
    assert pascal_matrix(5).rows == (1, 3, 5, 15, 17)
    assert pascal_matrix(0).rows == ()
    assert pascal_matrix(1).rows == (1,)


def test_pascal_matrix_entries_are_binomials():
    p = pascal_matrix(20)
    for i in range(20):
        for j in range(20):
            assert p.entry(i, j) == math.comb(i, j) % 2


def test_pascal_matrix_block_doubling():
    # P(2m) = [[P(m), 0], [P(m), P(m)]]
    for m in (1, 2, 4, 8, 16, 32):
        p, d = pascal_matrix(m), pascal_matrix(2 * m)
        for i in range(m):
            assert d.rows[i] == p.rows[i]
            assert d.rows[m + i] == p.rows[i] | (p.rows[i] << m)


def test_pascal_matrix_idempotent():
    for n in (0, 1, 2, 3, 5, 8, 13, 16, 33, 64):
        assert is_idempotent(pascal_matrix(n))


def test_pascal_matrix_bounds():
    with pytest.raises(ValueError):
        pascal_matrix(65)
    with pytest.raises(ValueError):
        pascal_matrix(-1)


def test_support_poset_matrix_agrees_with_pascal():
    for n in (1, 2, 3, 5, 8, 16, 20, 33, 64):
        assert support_poset_matrix(n) == pascal_matrix(n)


def test_support_poset_matrix_bounds():
    with pytest.raises(ValueError):
        support_poset_matrix(0)
    with pytest.raises(ValueError):
        support_poset_matrix(65)


def test_check_index_vector():
    assert check_index_vector((2, 5, 9, 13), 16) == (2, 5, 9, 13)
    assert check_index_vector([], 4) == ()
    with pytest.raises(ValueError):
        check_index_vector((2, 2), 8)
    with pytest.raises(ValueError):
        check_index_vector((5, 3), 8)
    with pytest.raises(ValueError):
        check_index_vector((0, 8), 8)
    with pytest.raises(ValueError):
        check_index_vector((-1, 3), 8)
    # not truncated by int() or read digit by digit: the error names the entry
    for alpha, bad in [((1.5,), "1.5"), ((0.9, 1.2), "0.9"), ("12", "'1'"), ((2, "5"), "'5'"), ((1, None), "None")]:
        with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
            check_index_vector(alpha, 16)


def test_induced_submatrix_examples():
    assert induced_submatrix(pascal_matrix(8), (1, 3, 5)).rows == (1, 3, 5)
    assert induced_submatrix(pascal_matrix(8), (1, 2, 4)) == identity(3)
    assert induced_submatrix(pascal_matrix(16), (7, 11, 13, 14)) == identity(4)
    assert induced_submatrix(pascal_matrix(16), (2, 5, 9, 13)).rows == (1, 2, 4, 14)


def test_induced_submatrix_entrywise():
    p = pascal_matrix(16)
    alpha = (0, 1, 3, 12, 15)
    sub = induced_submatrix(p, alpha)
    for i, r in enumerate(alpha):
        for j, c in enumerate(alpha):
            assert sub.entry(i, j) == p.entry(r, c)


def test_induced_submatrix_validates_vector():
    with pytest.raises(ValueError):
        induced_submatrix(pascal_matrix(8), (3, 1))
