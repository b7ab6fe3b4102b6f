import itertools
import random
from collections import deque

import pytest

from posetmatrix.bmatrix import BoolMatrix, Permutation, identity
from posetmatrix.domination import (
    NotChangeableError,
    changeable_entries,
    domination_orbit,
    domination_relations,
    flip_entry,
    incidence_matrix,
    index_of,
    permute,
    reduce_to_poset_matrix,
)
from posetmatrix.enumeration import canonical_form, enumerate_poset_matrices, pascal_class
from posetmatrix.posetcore import even_odd_moves, realize

WORKED_ALPHA = (2, 5, 9, 13)


def pairs_by_scan(rows):
    """All ordered pairs (i, j), i != j, with row i entrywise at most row j."""
    pairs = set()
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            if i != j and ri & ~rj == 0:
                pairs.add((i, j))
    return pairs


def naive_changeable(m):
    """Flip each entry in a fresh copy and rescan every pair of rows."""
    base = pairs_by_scan(m.rows)
    out = set()
    for i in range(m.n):
        for j in range(m.n):
            rows = list(m.rows)
            rows[i] ^= 1 << j
            if pairs_by_scan(rows) == base:
                out.add((i, j))
    return frozenset(out)


def swap_columns(row, c1, c2):
    """Row mask with bits c1 and c2 exchanged."""
    if (row >> c1 ^ row >> c2) & 1:
        row ^= 1 << c1 | 1 << c2
    return row


def transposition_orbit(alpha, n):
    """The orbit BFS with every column transposition and every changeable flip from every state.

    Returns the sorted members and the number of states expanded.
    """
    start = tuple(alpha)
    seen = {start}
    queue = deque([start])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        moves = []
        for c1, c2 in itertools.combinations(range(n), 2):
            moves.append(tuple(sorted(swap_columns(r, c1, c2) for r in state)))
        for i, j in changeable_entries(BoolMatrix(n, state)):
            rows = list(state)
            rows[i] ^= 1 << j
            moves.append(tuple(sorted(rows)))
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(sorted(seen)), expanded


def assert_matches_transposition_orbit(alpha, n):
    got = domination_orbit(alpha, n)
    assert got.exhausted, alpha
    assert (got.members, got.states_visited) == transposition_orbit(alpha, n), alpha


def all_and_seeded_matrices():
    """Every matrix of side <= 3, duplicate rows included, then 300 seeded ones of side 4..7."""
    for n in range(4):
        for rows in itertools.product(range(1 << n), repeat=n):
            yield BoolMatrix(n, rows)
    rng = random.Random(4077)
    for _ in range(300):
        n = rng.randrange(4, 8)
        yield BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))


# ---- incidence matrices and index vectors ----


def test_incidence_matrix_rows_are_entries():
    m = incidence_matrix(WORKED_ALPHA, 4)
    assert m.rows == WORKED_ALPHA
    assert m.to_lists()[0] == [0, 1, 0, 0]


def test_incidence_matrix_checks_range():
    with pytest.raises(ValueError):
        incidence_matrix((2, 5, 9), 4)
    with pytest.raises(ValueError):
        incidence_matrix((2, 5, 9, 16), 4)


def test_index_of_sorts_rows():
    m = BoolMatrix(3, (6, 1, 3))
    assert index_of(m) == (1, 3, 6)


def test_index_of_rejects_duplicates():
    with pytest.raises(ValueError):
        index_of(BoolMatrix(2, (3, 3)))


# ---- domination relations ----


def test_domination_relations_worked_example():
    m = incidence_matrix(WORKED_ALPHA, 4)
    assert domination_relations(m) == {(1, 3), (2, 3)}


def test_domination_relations_identity_is_empty():
    assert domination_relations(identity(4)) == frozenset()


def test_domination_relations_subset_semantics():
    m = BoolMatrix(3, (1, 3, 7))
    assert domination_relations(m) == {(0, 1), (0, 2), (1, 2)}


def test_domination_relations_match_pair_scan():
    for m in all_and_seeded_matrices():
        assert domination_relations(m) == pairs_by_scan(m.rows), m.rows


# ---- changeable entries ----


def test_changeable_entries_worked_example():
    m = incidence_matrix(WORKED_ALPHA, 4)
    assert sorted(changeable_entries(m)) == [(0, 0), (0, 2), (0, 3), (1, 0), (2, 0)]


def test_changeable_entries_identity_has_none():
    assert changeable_entries(identity(3)) == frozenset()


def test_changeable_entries_against_naive():
    rng = random.Random(271)
    for _ in range(150):
        n = rng.randrange(1, 6)
        m = BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        assert changeable_entries(m) == naive_changeable(m)


def test_below_diagonal_ones_never_changeable():
    # removing a below-diagonal 1 of a poset matrix always breaks the
    # domination of row j by row i (bit j of row i is what contained row j)
    for n in range(5):
        for a in enumerate_poset_matrices(n):
            ce = changeable_entries(a.matrix)
            for i in range(n):
                for j in range(i):
                    if a.matrix.entry(i, j):
                        assert (i, j) not in ce


def test_below_diagonal_zero_can_be_changeable():
    # a changeable below-diagonal zero: rows (1,3,4), flipping (2,1) gives
    # rows (1,3,6) and the only domination pair (0,1) survives untouched
    m = BoolMatrix(3, (1, 3, 4))
    assert (2, 1) in changeable_entries(m)
    flipped = flip_entry(m, 2, 1)
    assert flipped.rows == (1, 3, 6)
    assert domination_relations(flipped) == domination_relations(m)


def test_changeable_flips_stay_in_class():
    for alpha in itertools.combinations(range(8), 3):
        m = incidence_matrix(alpha, 3)
        target = canonical_form(realize(alpha, 3)).rows
        for i, j in changeable_entries(m):
            beta = index_of(flip_entry(m, i, j))
            assert canonical_form(realize(beta, 3)).rows == target


def test_flip_entry_agrees_with_naive_everywhere():
    for m in all_and_seeded_matrices():
        allowed = naive_changeable(m)
        for i in range(m.n):
            for j in range(m.n):
                if (i, j) in allowed:
                    rows = list(m.rows)
                    rows[i] ^= 1 << j
                    assert flip_entry(m, i, j).rows == tuple(rows)
                else:
                    with pytest.raises(NotChangeableError):
                        flip_entry(m, i, j)


def test_flip_entry_refuses_profile_changes():
    m = incidence_matrix(WORKED_ALPHA, 4)
    with pytest.raises(NotChangeableError) as info:
        flip_entry(m, 3, 0)
    assert info.value.position == (3, 0)
    with pytest.raises(ValueError):
        flip_entry(m, 4, 0)


# ---- permute ----


def test_permute_moves_entries():
    m = incidence_matrix(WORKED_ALPHA, 4)
    rho = Permutation((1, 0, 2, 3))
    sigma = Permutation((3, 0, 1, 2))
    moved = permute(m, rho, sigma)
    for i in range(4):
        for j in range(4):
            assert moved.entry(rho(i), sigma(j)) == m.entry(i, j)


def test_permute_identity_is_noop():
    m = incidence_matrix((1, 2, 4), 3)
    e = Permutation.identity(3)
    assert permute(m, e, e) == m


def test_permute_relabels_dominations():
    rng = random.Random(88)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        rho, sigma = Permutation(tuple(rows)), Permutation(tuple(cols))
        base = domination_relations(m)
        moved = domination_relations(permute(m, rho, sigma))
        assert moved == {(rho(i), rho(j)) for i, j in base}


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute(identity(3), Permutation((0, 1)), Permutation((0, 1, 2)))


# ---- reduction ----


def test_reduce_worked_example():
    m = incidence_matrix((1, 2, 4, 14), 4)
    assert reduce_to_poset_matrix(m).rows == (1, 2, 4, 14)


def test_reduce_equal_row_sums_gives_identity():
    m = incidence_matrix((7, 11, 13, 14), 4)
    assert reduce_to_poset_matrix(m).matrix == identity(4)


def test_reduce_requires_increasing_rows():
    with pytest.raises(ValueError):
        reduce_to_poset_matrix(BoolMatrix(2, (3, 1)))
    with pytest.raises(ValueError):
        reduce_to_poset_matrix(BoolMatrix(2, (1, 1)))


def test_reduce_preserves_dominations():
    for alpha in itertools.combinations(range(16), 4):
        m = incidence_matrix(alpha, 4)
        assert domination_relations(reduce_to_poset_matrix(m).matrix) == domination_relations(m)


def test_reduce_matches_realize():
    # the reduction of the incidence matrix is exactly the realization
    for alpha in itertools.combinations(range(16), 4):
        assert reduce_to_poset_matrix(incidence_matrix(alpha, 4)).rows == realize(alpha, 4).rows


def test_equal_popcount_distinct_rows_reduce_to_identity():
    for n in range(1, 5):
        for alpha in itertools.combinations(range(1 << n), n):
            if len({bin(a).count("1") for a in alpha}) == 1:
                assert realize(alpha, n).matrix == identity(n)


def test_identity_realization_iff_incomparable_rows():
    for alpha in itertools.combinations(range(16), 4):
        incomparable = domination_relations(incidence_matrix(alpha, 4)) == frozenset()
        assert (realize(alpha, 4).matrix == identity(4)) == incomparable


# ---- orbits ----


def test_orbit_singleton_for_identity_vector():
    result = domination_orbit((1, 2, 4), 3)
    assert result.members == ((1, 2, 4),)
    assert result.exhausted
    assert result.states_visited == 1


def test_orbit_worked_chain():
    result = domination_orbit(WORKED_ALPHA, 4)
    assert result.exhausted
    members = set(result.members)
    assert WORKED_ALPHA in members
    chain = ((1, 10, 12, 14), (1, 2, 12, 14), (1, 2, 4, 14))
    assert set(chain) <= members
    for beta in chain:
        assert realize(beta, 4).rows == (1, 2, 4, 14)
    # Every orbit member realizes the same matrix up to relabelling, but not
    # literally the same rows: (1, 2, 4, 13) realizes (1, 2, 4, 13).
    target = canonical_form(realize(WORKED_ALPHA, 4)).rows
    for beta in members:
        assert canonical_form(realize(beta, 4)).rows == target


def test_orbit_members_are_sorted_vectors():
    result = domination_orbit((2, 4, 6), 3)
    assert list(result.members) == sorted(result.members)
    for beta in result.members:
        assert all(x < y for x, y in zip(beta, beta[1:]))


def test_orbit_contains_even_odd_moves():
    for alpha in itertools.combinations(range(8), 3):
        members = set(domination_orbit(alpha, 3).members)
        assert even_odd_moves(alpha, 3) <= members


def test_orbit_within_pascal_class():
    for alpha in itertools.combinations(range(8), 3):
        assert set(domination_orbit(alpha, 3).members) <= set(pascal_class(alpha, 3))


def test_orbit_is_symmetric():
    result = domination_orbit(WORKED_ALPHA, 4)
    for beta in list(result.members)[:5]:
        assert set(domination_orbit(beta, 4).members) == set(result.members)


def test_orbit_budget_flags_partial_result():
    full = domination_orbit(WORKED_ALPHA, 4)
    cut = domination_orbit(WORKED_ALPHA, 4, budget=3)
    assert not cut.exhausted
    assert cut.states_visited == 3
    assert set(cut.members) <= set(full.members)
    assert WORKED_ALPHA in set(cut.members)


def test_orbit_rejects_bad_input():
    with pytest.raises(ValueError):
        domination_orbit((1, 2), 3)
    with pytest.raises(ValueError):
        domination_orbit((1, 2, 8), 3)
    with pytest.raises(ValueError):
        domination_orbit((1, 2, 4), 3, budget=-1)


def test_orbit_matches_transposition_bfs():
    for n in range(4):
        for alpha in itertools.combinations(range(1 << n), n):
            assert_matches_transposition_orbit(alpha, n)
    rng = random.Random(9173)
    for _ in range(300):
        assert_matches_transposition_orbit(tuple(sorted(rng.sample(range(16), 4))), 4)
    assert_matches_transposition_orbit((3, 5, 9, 17, 30), 5)


@pytest.mark.slow
def test_orbit_matches_transposition_bfs_all_n4():
    for alpha in itertools.combinations(range(16), 4):
        assert_matches_transposition_orbit(alpha, 4)


def test_orbit_budget_cut_at_every_budget():
    rng = random.Random(5521)
    for _ in range(20):
        n = rng.randrange(1, 5)
        alpha = tuple(sorted(rng.sample(range(1 << n), n)))
        full = set(domination_orbit(alpha, n).members)
        for budget in range(len(full) + 2):
            cut = domination_orbit(alpha, n, budget=budget)
            assert cut.states_visited == min(budget, len(full)), (alpha, budget)
            assert cut.exhausted == (budget >= len(full)), (alpha, budget)
            assert alpha in cut.members
            assert set(cut.members) <= full


@pytest.mark.slow
def test_orbit_n6_is_closed_under_transpositions():
    alpha = (3, 5, 9, 17, 33, 62)
    result = domination_orbit(alpha, 6)
    assert result.exhausted
    assert len(result.members) == result.states_visited == 759_455
    members = set(result.members)
    assert alpha in members
    tables = [[swap_columns(r, c1, c2) for r in range(64)] for c1, c2 in itertools.combinations(range(6), 2)]
    for beta in result.members:
        for table in tables:
            assert tuple(sorted(map(table.__getitem__, beta))) in members, beta
