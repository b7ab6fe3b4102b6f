import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from posetmatrix.bmatrix import (
    MAX_SIDE,
    BoolMatrix,
    _row_text,
    NotSquareError,
    Permutation,
    bool_mul,
    flip_transpose,
    format_index_vector,
    identity,
    is_idempotent,
    iter_bits,
    parse_index_vector,
    permute,
    permute_similar,
)
from posetmatrix.domination import changeable_entries, domination_orbit, flip_entry
from posetmatrix.enumeration import (
    MAX_CLASS_SIDE,
    MAX_CLASSIFY_SIDE,
    MAX_ENUM_SIDE,
    canonical_labelling,
    classify_index_vectors,
    count_isomorphism_classes,
    count_poset_matrices,
    dual_class_check,
    enumerate_poset_matrices,
    pascal_class,
)
from posetmatrix.ideals import (
    MAX_COUNT_GROUND,
    MAX_DEDEKIND_EXP,
    MAX_SCAN_GROUND,
    antichain_table,
    antichain_to_ideal,
    count_fixed_points,
    count_ideals,
    dedekind,
    ideal_to_antichain,
    is_antichain,
    is_fixed_point,
    is_ideal,
    iter_ideals,
    principal_ideal,
)
from posetmatrix.pascal import lucas_entry, pascal_matrix, support, support_poset_matrix
from posetmatrix.posetcore import MAX_EMBED_LOG, dual_index, embed, even_odd_moves, is_self_dual_index, realize, validate


def naive_bool_mul(a, b):
    """Triple-loop (or, and) product; the reference the fast path is checked against."""
    n = a.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = int(any(a.entry(i, k) and b.entry(k, j) for k in range(n)))
    return BoolMatrix.from_lists(out)


def random_matrix(rng, n):
    return BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))


@st.composite
def bool_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = tuple(draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n))
    return BoolMatrix(n, rows)


@st.composite
def matrix_triples(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))

    def one():
        return BoolMatrix(n, tuple(draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n)))

    return one(), one(), one()


@st.composite
def matrix_with_permutation(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = tuple(draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n))
    mapping = tuple(draw(st.permutations(list(range(n)))))
    return BoolMatrix(n, rows), Permutation(mapping)


# ---- construction and access ----


def test_entry_bit_layout():
    m = BoolMatrix(3, (1, 6, 4))
    assert m.to_lists() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    assert m.entry(1, 2) == 1
    assert m.entry(2, 0) == 0


def test_entry_out_of_range():
    m = identity(2)
    with pytest.raises(IndexError):
        m.entry(2, 0)
    with pytest.raises(IndexError):
        m.entry(0, -1)


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_positions_must_be_integers(bad):
    # 1.0 raised "tuple indices must be integers" and "1" a comparison TypeError
    m = identity(2)
    with pytest.raises(ValueError, match=f"entry positions must be integers, got {bad!r}$"):
        m.entry(bad, 0)
    with pytest.raises(ValueError, match=f"entry positions must be integers, got {bad!r}$"):
        m.entry(0, bad)
    with pytest.raises(ValueError, match=f"row positions must be integers, got {bad!r}$"):
        m.row_string(bad)
    with pytest.raises(ValueError, match=f"permutation points must be integers, got {bad!r}$"):
        Permutation((1, 0))(bad)


@pytest.mark.parametrize("i", [-1, -2, 2])
def test_positions_out_of_range(i):
    # negative positions wrapped round: row_string(-1) gave the last row and Permutation((1, 0))(-1) gave 0
    m = BoolMatrix(2, (1, 3))
    with pytest.raises(IndexError, match=f"row {i} outside a 2x2 matrix$"):
        m.row_string(i)
    with pytest.raises(IndexError, match=f"point {i} outside a permutation of 2 points$"):
        Permutation((1, 0))(i)


def test_bool_positions_read_as_integers():
    m = BoolMatrix(2, (1, 3))
    assert [m.row_string(True), m.entry(True, False), Permutation((1, 0))(True)] == ["11", 1, 0]


def test_row_count_mismatch():
    with pytest.raises(NotSquareError):
        BoolMatrix(3, (1, 2))


def test_row_overflow():
    with pytest.raises(ValueError):
        BoolMatrix(2, (1, 4))


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_rows_must_be_integers(bad):
    # 1.0 was stored as is and failed later in validate; "1" and None raised TypeError
    with pytest.raises(ValueError, match=f"matrix rows must be integers, got {bad!r}$"):
        BoolMatrix(2, (bad, 3))


def test_side_bounds():
    with pytest.raises(ValueError):
        BoolMatrix(65, tuple([0] * 65))
    assert BoolMatrix(0, ()).rows == ()


def test_from_lists_ragged():
    with pytest.raises(NotSquareError):
        BoolMatrix.from_lists([[1, 0], [1]])


@pytest.mark.parametrize("bad", ["1", "0", 2, -1, 0.5, 1.0, None])
def test_from_lists_refuses_entries_other_than_0_and_1(bad):
    with pytest.raises(ValueError, match=rf"only be 0 or 1, got {re.escape(repr(bad))}$"):
        BoolMatrix.from_lists([[1, 0], [bad, 1]])


def test_from_lists_reads_integer_entries():
    # bools and __index__ objects are integers; the string "0" is not
    assert BoolMatrix.from_lists([[True, False], [Size(1), 1]]) == BoolMatrix(2, (1, 3))


def test_matrix_equality_and_hash():
    assert BoolMatrix(2, (1, 3)) == BoolMatrix(2, (1, 3))
    assert len({BoolMatrix(2, (1, 3)), BoolMatrix(2, (1, 3)), BoolMatrix(2, (1, 2))}) == 2


def test_trusted_results_equal_checked_matrices():
    # bool_mul, permute, flip_transpose, realize and flip_entry build their results unchecked
    rng = random.Random(2808)
    for _ in range(300):
        n = rng.randrange(9)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        p, q = (Permutation(rng.sample(range(n), n)) for _ in range(2))
        results = [bool_mul(a, b), permute(a, p, q), flip_transpose(a)]
        if n <= MAX_EMBED_LOG:
            alpha = sorted(rng.sample(range(1 << n), rng.randrange(min(1 << n, 12) + 1)))
            results.append(realize(alpha, n).matrix)
        flips = sorted(changeable_entries(a))
        if flips:
            results.append(flip_entry(a, *rng.choice(flips)))
        for m in results:
            checked = BoolMatrix(m.n, m.rows)
            assert type(m.rows) is tuple and all(type(row) is int for row in m.rows)
            assert m == checked and hash(m) == hash(checked)


# ---- text and json forms ----


def test_text_round_trip():
    m = BoolMatrix.from_text("100\n110\n101\n")
    assert m.rows == (1, 3, 5)
    assert m.to_text() == "100\n110\n101"
    assert BoolMatrix.from_text(m.to_text()) == m


def test_text_accepts_single_spaces():
    assert BoolMatrix.from_text("1 0\n1 1") == BoolMatrix.from_text("10\n11")


def test_text_rejects_bad_characters_and_ragged_rows():
    with pytest.raises(ValueError):
        BoolMatrix.from_text("10\n1x")
    with pytest.raises(NotSquareError):
        BoolMatrix.from_text("10\n110")


def rows_by_characters(text):
    """Row masks of the text form read one character at a time, column 0 first."""
    lines = [line.strip().replace(" ", "") for line in text.splitlines()]
    return tuple(sum(1 << j for j, ch in enumerate(line) if ch == "1") for line in lines if line)


def test_from_text_matches_per_character_reading():
    rng = random.Random(34)
    for n in range(65):
        m = random_matrix(rng, n)
        text = m.to_text()
        spaced = "\n".join(" ".join(line) for line in text.splitlines())
        for form in (text, spaced):
            assert BoolMatrix.from_text(form).rows == rows_by_characters(form) == m.rows


def test_empty_text_is_empty_matrix():
    assert BoolMatrix.from_text("") == BoolMatrix(0, ())


def row_text_by_entries(mask, n):
    """Row text one entry at a time, column 0 first."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


def test_row_text_matches_per_entry_join():
    for n in range(11):
        for mask in range(1 << n):
            assert _row_text(mask, n) == row_text_by_entries(mask, n)
    rng = random.Random(8)
    for _ in range(2000):
        mask = rng.getrandbits(32)
        assert _row_text(mask, 32) == row_text_by_entries(mask, 32)


def test_json_round_trip():
    m = BoolMatrix(3, (1, 3, 5))
    obj = m.to_json_obj()
    assert obj == {"n": 3, "rows": ["100", "110", "101"]}
    assert BoolMatrix.from_json_obj(obj) == m


def test_json_bad_fields():
    with pytest.raises(ValueError):
        BoolMatrix.from_json_obj({"rows": ["1"]})
    with pytest.raises(NotSquareError):
        BoolMatrix.from_json_obj({"n": 2, "rows": ["10"]})
    with pytest.raises(NotSquareError):
        BoolMatrix.from_json_obj({"n": 1, "rows": [""]})


# ---- product ----


def test_bool_mul_example():
    a = BoolMatrix.from_lists([[1, 0], [1, 1]])
    assert bool_mul(a, a).to_lists() == [[1, 0], [1, 1]]
    b = BoolMatrix.from_lists([[0, 1], [1, 0]])
    assert bool_mul(a, b).to_lists() == [[0, 1], [1, 1]]


def test_bool_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        bool_mul(identity(2), identity(3))


def test_bool_mul_against_naive():
    rng = random.Random(1812)
    for _ in range(200):
        n = rng.randrange(9)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert bool_mul(a, b) == naive_bool_mul(a, b)


def test_identity_is_neutral():
    rng = random.Random(99)
    for n in range(9):
        m = random_matrix(rng, n)
        assert bool_mul(m, identity(n)) == m
        assert bool_mul(identity(n), m) == m


@given(matrix_triples())
def test_bool_mul_associative(triple):
    a, b, c = triple
    assert bool_mul(bool_mul(a, b), c) == bool_mul(a, bool_mul(b, c))


def test_is_idempotent():
    assert is_idempotent(identity(4))
    assert is_idempotent(BoolMatrix.from_lists([[1, 0, 0], [1, 1, 0], [1, 1, 1]]))
    # 0<1 and 1<2 without 0<2: squaring fills in the missing entry
    assert not is_idempotent(BoolMatrix.from_lists([[1, 0, 0], [1, 1, 0], [0, 1, 1]]))


# ---- permutation similarity ----


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("bad", [1.0, "1", None])
def test_permutation_entries_must_be_integers(bad):
    # (1.0, 0) was accepted and permute_similar then raised TypeError
    with pytest.raises(ValueError, match=f"permutation entries must be integers, got {bad!r}$"):
        Permutation((bad, 0))


def test_permutation_inverse():
    q = Permutation((2, 0, 1))
    assert q.inverse().mapping == (1, 2, 0)
    assert q(0) == 2


def test_permute_similar_example():
    # swap labels 0 and 2 of the chain 0<1<2
    a = BoolMatrix.from_lists([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    q = Permutation((2, 1, 0))
    assert permute_similar(a, q).to_lists() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_permute_similar_entrywise():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 7)
        m = random_matrix(rng, n)
        mapping = list(range(n))
        rng.shuffle(mapping)
        q = Permutation(tuple(mapping))
        moved = permute_similar(m, q)
        for i in range(n):
            for j in range(n):
                assert moved.entry(q(i), q(j)) == m.entry(i, j)


@given(matrix_with_permutation())
def test_permute_similar_round_trip(pair):
    m, q = pair
    assert permute_similar(permute_similar(m, q), q.inverse()) == m


def test_permute_similar_size_mismatch():
    with pytest.raises(ValueError):
        permute_similar(identity(3), Permutation((1, 0)))


def test_permute_similar_is_permute_with_equal_factors():
    # Every matrix of side <= 3 and a seeded sample of side 4, under every q.
    rng = random.Random(11)
    for n in range(5):
        if n <= 3:
            matrices = [BoolMatrix(n, rows) for rows in itertools.product(range(1 << n), repeat=n)]
        else:
            matrices = [random_matrix(rng, n) for _ in range(300)]
        for mapping in itertools.permutations(range(n)):
            q = Permutation(mapping)
            for m in matrices:
                assert permute_similar(m, q) == permute(m, q, q)


# ---- flip transpose ----


def test_flip_transpose_examples():
    a = BoolMatrix(4, (1, 3, 5, 13))
    assert flip_transpose(a) == BoolMatrix(4, (1, 3, 4, 15))
    assert flip_transpose(BoolMatrix(4, (1, 3, 4, 15))) == a


def test_flip_transpose_entrywise():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(8)
        m = random_matrix(rng, n)
        f = flip_transpose(m)
        for i in range(n):
            for j in range(n):
                assert f.entry(i, j) == m.entry(n - 1 - j, n - 1 - i)


@given(bool_matrices())
def test_flip_transpose_involution(m):
    assert flip_transpose(flip_transpose(m)) == m


# ---- small helpers ----


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_index_vector_text_forms():
    assert parse_index_vector("2,5,9,13") == (2, 5, 9, 13)
    assert parse_index_vector("") == ()
    assert parse_index_vector(" 7 ") == (7,)
    assert format_index_vector((2, 5, 9, 13)) == "2,5,9,13"
    assert format_index_vector(()) == ""
    with pytest.raises(ValueError):
        parse_index_vector("1,two")


# ---- sizes, exponents and budgets ----


class Size:
    """A size that is not an int but converts through operator.index."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


# name -> (the entry point as a call on one size, the largest size it takes, or None
# where no constant bounds it, and a size it takes)
SIZE_ENTRY_POINTS = {
    "BoolMatrix": (lambda n: BoolMatrix(n, (1, 3)), MAX_SIDE, 2),
    "identity": (identity, MAX_SIDE, 3),
    "Permutation.identity": (Permutation.identity, MAX_SIDE, 3),
    "support_poset_matrix": (support_poset_matrix, None, 3),
    "pascal_matrix": (pascal_matrix, MAX_SIDE, 5),
    "enumerate_poset_matrices": (lambda n: list(enumerate_poset_matrices(n)), MAX_ENUM_SIDE, 3),
    "count_poset_matrices": (count_poset_matrices, MAX_CLASS_SIDE, 4),
    "count_isomorphism_classes": (count_isomorphism_classes, MAX_CLASS_SIDE, 4),
    "classify_index_vectors": (classify_index_vectors, MAX_CLASSIFY_SIDE, 2),
    "pascal_class": (lambda n: pascal_class((1, 2), n), MAX_CLASSIFY_SIDE, 2),
    "dual_class_check": (dual_class_check, MAX_CLASSIFY_SIDE, 2),
    "realize": (lambda n: realize((1, 2), n), MAX_EMBED_LOG, 2),
    "dual_index": (lambda n: dual_index((1, 2), n), MAX_EMBED_LOG, 2),
    "is_self_dual_index": (lambda n: is_self_dual_index((1, 2), n), MAX_EMBED_LOG, 2),
    "even_odd_moves": (lambda n: even_odd_moves((2,), n), MAX_EMBED_LOG, 2),
    "domination_orbit": (lambda n: domination_orbit((1, 2), n), MAX_EMBED_LOG, 2),
    "domination_orbit budget": (lambda b: domination_orbit((1, 2), 2, budget=b), None, 3),
    "count_ideals": (count_ideals, MAX_COUNT_GROUND, 5),
    "iter_ideals": (lambda n: list(iter_ideals(n)), MAX_COUNT_GROUND, 5),
    "antichain_table": (antichain_table, MAX_COUNT_GROUND, 5),
    "count_fixed_points": (count_fixed_points, MAX_SCAN_GROUND, 5),
    "dedekind": (dedekind, MAX_DEDEKIND_EXP, 3),
    "is_ideal": (lambda n: is_ideal(3, n), None, 3),
    "is_antichain": (lambda n: is_antichain(3, n), None, 3),
    "antichain_to_ideal": (lambda n: antichain_to_ideal(2, n), None, 3),
    "ideal_to_antichain": (lambda n: ideal_to_antichain(3, n), None, 3),
    "is_fixed_point": (lambda n: is_fixed_point(3, n), None, 3),
    "principal_ideal element": (lambda i: principal_ideal(i, 5), None, 3),
    "principal_ideal ground size": (lambda n: principal_ideal(1, n), None, 3),
    "support": (support, None, 3),
    "lucas_entry i": (lambda i: lucas_entry(i, 1), None, 3),
    "lucas_entry j": (lambda j: lucas_entry(3, j), None, 1),
    "flip_entry i": (lambda i: flip_entry(BoolMatrix(4, (1, 3, 5, 15)), i, 3), None, 1),
    "flip_entry j": (lambda j: flip_entry(BoolMatrix(4, (1, 3, 5, 15)), 1, j), None, 3),
}


@pytest.mark.parametrize("call, top, good", SIZE_ENTRY_POINTS.values(), ids=SIZE_ENTRY_POINTS.keys())
def test_sizes_are_indices_in_range(call, top, good):
    for bad in [3.0, "3", None, -1] + ([] if top is None else [top + 1]):
        if top is not None:
            message = rf"in \[0, {top}\], got {re.escape(repr(bad))}$"
        elif bad == -1:
            message = None
        else:
            message = rf"must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    assert call(Size(good)) == call(good)


@pytest.mark.parametrize(
    "call, top, message",
    [
        (canonical_labelling, MAX_ENUM_SIDE, "canonical labelling supports n in [0, 8], got 9"),
        (embed, MAX_EMBED_LOG, "embedding supports n in [0, 6], got 7"),
    ],
)
def test_matrix_sides_are_checked_in_range(call, top, message):
    # these take a poset matrix, not a size, so the size check sees its side
    def antichain(n):
        return validate(BoolMatrix(n, tuple(1 << i for i in range(n))))

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(antichain(top + 1))
    call(antichain(top))
