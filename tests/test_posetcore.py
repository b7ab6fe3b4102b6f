import itertools
import random

import pytest

from posetmatrix.bmatrix import BoolMatrix, bool_mul, is_idempotent
from posetmatrix.enumeration import canonical_form, enumerate_poset_matrices
from posetmatrix.pascal import induced_submatrix, pascal_matrix
from posetmatrix.posetcore import (
    NotTransitiveError,
    _first_transitivity_failure,
    NotUnitLowerTriangularError,
    dual,
    dual_index,
    embed,
    even_odd_moves,
    is_self_dual_index,
    realize,
    validate,
)

# the seven 3x3 poset matrices, as row masks in generation order
THREE_ELEMENT_ROWS = [
    (1, 2, 4),
    (1, 2, 5),
    (1, 2, 6),
    (1, 2, 7),
    (1, 3, 4),
    (1, 3, 5),
    (1, 3, 7),
]


def all_unit_lower_triangular(n):
    """Every ULT 0/1 matrix on n elements, free below-diagonal bits."""
    positions = [(i, j) for i in range(n) for j in range(i)]
    for picks in itertools.product((0, 1), repeat=len(positions)):
        rows = [1 << i for i in range(n)]
        for (i, j), v in zip(positions, picks):
            if v:
                rows[i] |= 1 << j
        yield BoolMatrix(n, tuple(rows))


# ---- validate ----


def test_validate_accepts_the_three_element_census():
    for rows in THREE_ELEMENT_ROWS:
        assert validate(BoolMatrix(3, rows)).rows == rows


def test_validate_rejects_above_diagonal_entry():
    with pytest.raises(NotUnitLowerTriangularError) as info:
        validate(BoolMatrix.from_lists([[1, 1], [0, 1]]))
    assert info.value.position == (0, 1)


def test_validate_rejects_zero_diagonal():
    with pytest.raises(NotUnitLowerTriangularError) as info:
        validate(BoolMatrix(2, (1, 0)))
    assert info.value.position == (1, 1)


def test_validate_transitivity_witness():
    # 2 covers 1 covers 0 but (2,0) is missing
    with pytest.raises(NotTransitiveError) as info:
        validate(BoolMatrix.from_lists([[1, 0, 0], [1, 1, 0], [0, 1, 1]]))
    assert info.value.witness == (2, 1, 0)


def test_validate_first_witness_is_lexicographic():
    # rows (1, 3, 6, 10): row 2 misses (2,0) via j=1, row 3 misses (3,0) via j=1 too;
    # the first failure scanning i, then j among set bits, then k, is (2,1,0)
    with pytest.raises(NotTransitiveError) as info:
        validate(BoolMatrix(4, (1, 3, 6, 10)))
    assert info.value.witness == (2, 1, 0)


def transitivity_failure_by_triples(m):
    """Lexicographically first (i, j, k) with (i,j), (j,k) set and (i,k) clear, by a triple loop."""
    e = m.to_lists()
    for i, j, k in itertools.product(range(m.n), repeat=3):
        if e[i][j] and e[j][k] and not e[i][k]:
            return i, j, k
    return None


def test_first_transitivity_failure_matches_triple_loop():
    for n in range(7):
        for m in all_unit_lower_triangular(n):
            assert _first_transitivity_failure(m) == transitivity_failure_by_triples(m)
    for n in range(4):
        for rows in itertools.product(range(1 << n), repeat=n):
            m = BoolMatrix(n, rows)
            assert _first_transitivity_failure(m) == transitivity_failure_by_triples(m)


def test_validate_agrees_with_idempotence_on_ult():
    # on unit lower-triangular matrices, validity is exactly Boolean idempotence
    for n in range(5):
        for m in all_unit_lower_triangular(n):
            ok = True
            try:
                validate(m)
            except NotTransitiveError:
                ok = False
            assert ok == is_idempotent(m)


def test_poset_matrix_squares_to_itself():
    for a in enumerate_poset_matrices(4):
        assert bool_mul(a.matrix, a.matrix) == a.matrix


# ---- embed / realize ----


def test_embed_reads_rows_as_integers():
    a = validate(BoolMatrix.from_text("100\n110\n101"))
    assert embed(a) == (1, 3, 5)


def test_embed_entry_bounds():
    for n in range(5):
        for a in enumerate_poset_matrices(n):
            alpha = embed(a)
            for i, v in enumerate(alpha):
                assert 1 << i <= v < 1 << (i + 1)


def test_realize_worked_example():
    assert realize((2, 5, 9, 13), 4).rows == (1, 2, 4, 14)


def test_realize_is_pascal_submatrix():
    # direct subset formula vs explicit submatrix of the explicit Pascal matrix
    for alpha in itertools.combinations(range(8), 3):
        assert realize(alpha, 3).matrix == induced_submatrix(pascal_matrix(8), alpha)
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randrange(7)
        alpha = tuple(sorted(rng.sample(range(64), k)))
        assert realize(alpha, 6).matrix == induced_submatrix(pascal_matrix(64), alpha)


def test_realize_always_validates():
    for alpha in itertools.combinations(range(16), 4):
        realize(alpha, 4)  # must not raise


def test_embed_realize_round_trip():
    for n in range(5):
        for a in enumerate_poset_matrices(n):
            assert realize(embed(a), n).matrix == a.matrix


def test_realize_rejects_bad_vectors():
    with pytest.raises(ValueError):
        realize((3, 1), 3)
    with pytest.raises(ValueError):
        realize((0, 8), 3)
    with pytest.raises(ValueError):
        realize((0,), 7)
    for alpha in [(1.5,), (0.9, 1.2), "12", (None,)]:
        with pytest.raises(ValueError, match="must be integers"):
            realize(alpha, 2)


def test_embed_size_cap():
    with pytest.raises(ValueError):
        embed(validate(BoolMatrix(7, tuple(1 << i for i in range(7)))))


# ---- duality ----


def test_dual_chain_example():
    chain = validate(BoolMatrix.from_lists([[1, 0], [1, 1]]))
    assert dual(chain).matrix == chain.matrix
    vee = validate(BoolMatrix(3, (1, 3, 5)))  # 0 < 1 and 0 < 2
    assert dual(vee).rows == (1, 2, 7)  # 0 < 2 and 1 < 2


def test_dual_is_involution():
    for n in range(5):
        for a in enumerate_poset_matrices(n):
            assert dual(dual(a)).matrix == a.matrix


def test_dual_index_examples():
    assert dual_index((0, 1, 3, 12), 4) == (3, 12, 14, 15)
    assert dual_index((1, 2, 4), 3) == (3, 5, 6)
    assert dual_index((), 2) == ()


def test_dual_index_refuses_non_integer_entries():
    for alpha in [(1.5,), "12", (1, None)]:
        with pytest.raises(ValueError, match="must be integers"):
            dual_index(alpha, 2)


def test_dual_index_is_involution():
    for alpha in itertools.combinations(range(16), 4):
        assert dual_index(dual_index(alpha, 4), 4) == alpha


def test_dual_index_compatible_with_dual_small():
    for alpha in itertools.combinations(range(8), 3):
        assert realize(dual_index(alpha, 3), 3).matrix == dual(realize(alpha, 3)).matrix


def test_self_dual_index_examples():
    assert is_self_dual_index((0, 5, 10, 15), 4)
    assert realize((0, 5, 10, 15), 4).rows == (1, 3, 5, 15)
    assert not is_self_dual_index((0, 1, 3, 12), 4)


def test_self_dual_index_is_fixed_point_test():
    for alpha in itertools.combinations(range(16), 4):
        assert is_self_dual_index(alpha, 4) == (dual_index(alpha, 4) == alpha)


def test_no_self_dual_vectors_with_odd_length():
    # entries would have to pair off against 2**n - 1, and the middle one
    # cannot be its own partner (it would need to be half of an odd number)
    for alpha in itertools.combinations(range(8), 3):
        assert not is_self_dual_index(alpha, 3)


def test_self_dual_vector_realizes_self_dual_matrix():
    for alpha in itertools.combinations(range(16), 4):
        if is_self_dual_index(alpha, 4):
            a = realize(alpha, 4)
            assert dual(a).matrix == a.matrix


# ---- even/odd moves ----


def test_even_odd_moves_examples():
    assert even_odd_moves((2, 4, 6), 3) == {(1, 2, 3), (3, 5, 7)}
    assert even_odd_moves((1, 3, 5), 3) == {(0, 1, 2), (0, 2, 4)}
    assert even_odd_moves((1, 2, 4), 3) == frozenset()
    assert even_odd_moves((), 3) == frozenset()


def test_even_odd_moves_stay_in_class():
    for alpha in itertools.combinations(range(8), 3):
        target = canonical_form(realize(alpha, 3))
        for beta in even_odd_moves(alpha, 3):
            assert canonical_form(realize(beta, 3)).rows == target.rows


def test_even_odd_moves_stay_in_range():
    for alpha in itertools.combinations(range(16), 4):
        for beta in even_odd_moves(alpha, 4):
            assert all(0 <= b < 16 for b in beta)
            assert all(x < y for x, y in zip(beta, beta[1:]))
