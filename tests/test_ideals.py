import itertools
import random
import resource
import subprocess
import sys

import pytest

from posetmatrix.bmatrix import identity, iter_bits
from posetmatrix.ideals import (
    _bit_planes,
    _count_by_halves,
    _count_by_quarters,
    _down_counts,
    _halves,
    _strictly_below,
    _variable_orbits,
    antichain_table,
    antichain_to_ideal,
    count_fixed_points,
    count_ideals,
    dedekind,
    ideal_to_antichain,
    identity_antichain_check,
    is_antichain,
    is_fixed_point,
    is_ideal,
    iter_ideals,
    principal_ideal,
)
from posetmatrix.pascal import _submask_row, pascal_matrix

IDEAL_COUNTS = [1, 2, 3, 5, 6, 11, 14, 19, 20, 39]
# OEIS A000372, D(0)..D(7)
DEDEKIND_NUMBERS = [2, 3, 6, 20, 168, 7581, 7828354, 2414682040998]

TABLE_FIVE_ELEMENTS = [
    ((), (), "00000"),
    ((0,), (0,), "10000"),
    ((1,), (0, 1), "11000"),
    ((2,), (0, 2), "10100"),
    ((3,), (0, 1, 2, 3), "11110"),
    ((4,), (0, 4), "10001"),
    ((1, 2), (0, 1, 2), "11100"),
    ((1, 4), (0, 1, 4), "11001"),
    ((2, 4), (0, 2, 4), "10101"),
    ((3, 4), (0, 1, 2, 3, 4), "11111"),
    ((1, 2, 4), (0, 1, 2, 4), "11101"),
]


def naive_leq(a, b):
    return a & ~b == 0


def naive_ideals(n):
    """All downward-closed subsets by scanning the full powerset."""
    out = []
    for mask in range(1 << n):
        elements = [e for e in range(n) if mask >> e & 1]
        if all(naive_leq(d, e) <= (mask >> d & 1 == 1) for e in elements for d in range(n)):
            out.append(mask)
    return out


def ideals_by_recursion(n):
    """Ideals in the order of a recursive walk: element i left out before it is taken in."""
    preds = [principal_ideal(i, n) ^ (1 << i) for i in range(n)]
    out = []

    def rec(i, chosen):
        if i == n:
            out.append(chosen)
            return
        rec(i + 1, chosen)
        if preds[i] & ~chosen == 0:
            rec(i + 1, chosen | (1 << i))

    rec(0, 0)
    return out


def walk_ideals(n):
    """(ideal, its maximal elements) for every ideal, deciding the n elements one at a time.

    The per-element route the library's half split is checked against, and
    a stream: it holds one stack of decided prefixes, never the list.
    """
    preds = [_submask_row(i) ^ (1 << i) for i in range(n)]
    # A stack entry is a decided prefix (next element, chosen mask, its
    # maximal elements); each "taken in" branch waits on the stack until
    # "left out" is walked out.  Only a later element can lie above i, so
    # taking i in makes i maximal and its predecessors not.
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, anti = stack.pop()
        while i < n:
            below = preds[i]
            if below & ~chosen == 0:
                stack.append((i + 1, chosen | (1 << i), anti & ~below | (1 << i)))
            i += 1
        yield chosen, anti


# ---- principal ideals and closures ----


def test_principal_ideal_examples():
    assert principal_ideal(0, 5) == 0b00001
    assert principal_ideal(3, 5) == 0b01111
    assert principal_ideal(4, 5) == 0b10001
    assert principal_ideal(2, 5) == 0b00101


def test_principal_ideal_is_pascal_row():
    for n in (1, 5, 16, 32):
        p = pascal_matrix(n)
        for i in range(n):
            assert principal_ideal(i, n) == p.rows[i]


def test_principal_ideal_bounds():
    with pytest.raises(ValueError):
        principal_ideal(5, 5)
    with pytest.raises(ValueError):
        principal_ideal(-1, 5)


def test_antichain_to_ideal_table():
    for anti, ideal, _ in TABLE_FIVE_ELEMENTS:
        mask = sum(1 << e for e in anti)
        expected = sum(1 << e for e in ideal)
        assert antichain_to_ideal(mask, 5) == expected


def test_ideal_to_antichain_table():
    for anti, ideal, _ in TABLE_FIVE_ELEMENTS:
        mask = sum(1 << e for e in ideal)
        expected = sum(1 << e for e in anti)
        assert ideal_to_antichain(mask, 5) == expected


def maximal_by_pairs(mask, n):
    """Maximal elements of mask by comparing every pair of its elements."""
    elements = [e for e in range(n) if mask >> e & 1]
    return sum(1 << e for e in elements if not any(naive_leq(e, o) for o in elements if o != e))


def is_antichain_by_pairs(mask, n):
    elements = [e for e in range(n) if mask >> e & 1]
    return not any(naive_leq(a, b) for a in elements for b in elements if a != b)


def test_maximal_elements_match_pair_loop():
    # arbitrary masks, not only ideals
    masks = [(n, mask) for n in range(13) for mask in range(1 << n)]
    rng = random.Random(8)
    masks += [(n, rng.getrandbits(n)) for n in range(13, 33) for _ in range(200)]
    for n, mask in masks:
        assert ideal_to_antichain(mask, n) == maximal_by_pairs(mask, n)
        assert is_antichain(mask, n) == is_antichain_by_pairs(mask, n)


def test_antichain_ideal_bijection():
    for n in range(9):
        for ideal in iter_ideals(n):
            anti = ideal_to_antichain(ideal, n)
            assert is_antichain(anti, n)
            assert antichain_to_ideal(anti, n) == ideal
        antichains = [m for m in range(1 << n) if is_antichain(m, n)]
        ideals = set(iter_ideals(n))
        assert len(antichains) == len(ideals)
        assert {antichain_to_ideal(a, n) for a in antichains} == ideals


@pytest.mark.parametrize("n", range(33))
def test_iter_ideals_order_matches_recursion(n):
    expected = ideals_by_recursion(n)
    assert list(iter_ideals(n)) == expected
    assert count_ideals(n) == len(expected)


@pytest.mark.parametrize("n", range(33))
def test_split_carries_the_maximal_elements(n):
    # both halves are the cube's ideals, the second filtered to its n - h elements; the
    # per-element walk lists each half on its own. The maxima are antichain_table's, and
    # test_antichain_table_matches_per_ideal_build checks them.
    h, low, high = _halves(n)
    assert list(low) == [ideal for ideal, _ in walk_ideals(h)]
    assert list(high) == [ideal for ideal, _ in walk_ideals(n - h)]


def test_iter_ideals_checks_n_at_call():
    for n in (-1, 33):
        with pytest.raises(ValueError):
            iter_ideals(n)


@pytest.mark.parametrize("n", range(33))
def test_iter_ideals_lists_the_walk_ideals(n):
    assert list(iter_ideals(n)) == [ideal for ideal, _ in walk_ideals(n)]


class Size:
    """A size that is not an int but converts through operator.index."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


@pytest.mark.parametrize("count", [count_ideals, iter_ideals, antichain_table, _halves, dedekind, count_fixed_points])
@pytest.mark.parametrize("size", [3.0, "3", None, -1, 33])
def test_sizes_must_be_integers_in_range(count, size):
    # floats used to reach n.bit_length() or range() and fail with AttributeError or TypeError
    with pytest.raises(ValueError, match=rf"supports? [nk] in \[0, \d+\], got {size!r}"):
        count(size)


def test_sizes_are_read_through_operator_index():
    assert count_ideals(Size(5)) == IDEAL_COUNTS[5]
    assert list(iter_ideals(Size(5))) == list(iter_ideals(5))
    assert _halves(Size(5)) == _halves(5)
    assert antichain_table(Size(5)) == TABLE_FIVE_ELEMENTS
    assert dedekind(Size(3)) == DEDEKIND_NUMBERS[3]
    assert count_fixed_points(Size(5)) == IDEAL_COUNTS[5]


def test_is_ideal_against_naive():
    for n in range(9):
        naive = set(naive_ideals(n))
        assert {m for m in range(1 << n) if is_ideal(m, n)} == naive
        assert set(iter_ideals(n)) == naive


def test_closure_matches_pair_loop():
    # arbitrary masks past the sizes scanned in full
    rng = random.Random(13)
    for n in range(9, 33):
        for _ in range(100):
            mask = rng.getrandbits(n)
            elements = [e for e in range(n) if mask >> e & 1]
            expected = sum(1 << d for d in range(n) if any(naive_leq(d, e) for e in elements))
            assert antichain_to_ideal(mask, n) == expected
            assert is_ideal(mask, n) == (expected == mask)
            assert is_ideal(expected, n)


def test_closure_cost_follows_the_mask_not_n():
    # Under a 512 MB address-space cap neither a table of 10**9 predecessor masks nor 1 << 10**12
    # can be built, so this fails unless the range check and every table are sized by the mask.
    code = (
        "from posetmatrix.ideals import antichain_to_ideal, ideal_to_antichain, is_antichain, is_fixed_point, is_ideal\n"
        "print(antichain_to_ideal(9, 10**9), is_ideal(3, 10**9), ideal_to_antichain(9, 10**12),"
        " is_antichain(6, 10**12), is_fixed_point(3, 10**12), is_ideal(3, 10**12))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "15 True 8 True True True\n"), proc.stderr


def test_strictly_below_matches_per_element_rows():
    rng = random.Random(4711)
    masks = list(range(1 << 12)) + [rng.getrandbits(32) for _ in range(500)]
    masks += [rng.getrandbits(200) for _ in range(200)]
    masks += [rng.getrandbits(length) | 1 << length >> 1 for length in range(71) for _ in range(20)]
    for mask in masks:
        expected = 0
        for e in iter_bits(mask):
            expected |= _submask_row(e) ^ 1 << e
        assert _strictly_below(mask) == expected, mask


def test_bit_planes_memo_holds_one_entry_per_power_of_two():
    # One entry per mask bit length let outside input grow the memo without bound: 400 lengths
    # from 65536 up held 400 plane tuples and raised peak RSS from 14 to 71 MB.
    _bit_planes.cache_clear()
    for length in range(1, 1025):
        assert is_ideal((1 << length) - 1, length)
    assert _bit_planes.cache_info().currsize == 11  # element bit counts 0..10
    for length in range(65536, 65536 + 400):
        assert is_ideal((1 << length) - 1, length)
    assert _bit_planes.cache_info().currsize == 13


def test_closure_of_a_high_element_builds_no_row_table():
    # One element, at each of 16368..16383: a table of the predecessor rows of every element up to the
    # top bit took 1.6 s and 16 MB per bit length; the bit planes take 14 masked shifts.
    code = (
        "from posetmatrix.ideals import is_antichain\n"
        "print(all(is_antichain(1 << k, k + 1) for k in range(16368, 16384)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_is_ideal_matches_closure():
    # The lower-cover test against the down-closure it replaced: random masks up to 200 bits,
    # ideals with one element taken out (still ideals exactly when it was maximal), and
    # single elements, which are ideals only at 0.
    rng = random.Random(2026)
    cases = [(length, rng.getrandbits(length)) for length in range(201) for _ in range(20)]
    cases += [(length, antichain_to_ideal(rng.getrandbits(length) & rng.getrandbits(length), length)) for length in range(201)]
    for n in (5, 8, 13, 16, 24, 32):
        for ideal in rng.sample(list(iter_ideals(n)), min(count_ideals(n), 150)):
            cases += [(n, ideal ^ 1 << e) for e in iter_bits(ideal)]
    cases += [(k + 1, 1 << k) for k in range(300)]
    closed = 0
    for n, mask in cases:
        expected = antichain_to_ideal(mask, n) == mask
        assert is_ideal(mask, n) == expected, (n, mask)
        closed += expected
    assert 0 < closed < len(cases)


def test_lower_cover_test_of_a_high_element_builds_no_row_table():
    # As for is_antichain: one element at each of 16368..16383 takes at most 14 masked shifts, no row table.
    code = (
        "from posetmatrix.ideals import is_ideal\n"
        "print(any(is_ideal(1 << k, k + 1) for k in range(16368, 16384)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_mask_bounds_checked():
    with pytest.raises(ValueError):
        is_ideal(1 << 5, 5)
    with pytest.raises(ValueError):
        antichain_to_ideal(-1, 5)


@pytest.mark.parametrize("check", [is_ideal, is_antichain, antichain_to_ideal, ideal_to_antichain, is_fixed_point])
@pytest.mark.parametrize("mask", [1.5, "3", None])
def test_masks_must_be_integers(check, mask):
    with pytest.raises(ValueError, match=rf"subset masks must be integers, got {mask!r}"):
        check(mask, 3)


# ---- fixed points ----


def test_is_fixed_point_matches_vector_matrix_product():
    for n in range(9):
        p = pascal_matrix(n)
        for x in range(1 << n):
            product = 0
            for j in range(n):
                if any(x >> i & 1 and p.entry(i, j) for i in range(n)):
                    product |= 1 << j
            assert is_fixed_point(x, n) == (product == x)


def test_fixed_points_are_exactly_ideals():
    for n in range(11):
        assert {x for x in range(1 << n) if is_fixed_point(x, n)} == set(iter_ideals(n))


def test_count_fixed_points_agrees_with_count_ideals():
    for n in range(13):
        assert count_fixed_points(n) == count_ideals(n)


def test_count_fixed_points_bounds():
    with pytest.raises(ValueError):
        count_fixed_points(21)


def test_fixed_point_of_a_high_element_builds_no_column_table():
    # x . P = x is read from the rows of x's elements, so one element at 16383 reads one row: a column
    # per element below the top bit took 11.7 s for it.  principal_ideal(12288) holds four elements.
    code = (
        "from posetmatrix.ideals import is_fixed_point, principal_ideal\n"
        "print(not any(is_fixed_point(1 << k, k + 1) for k in range(16368, 16384)),"
        " is_fixed_point(principal_ideal(12288, 16384), 16384))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "True True\n"), proc.stderr


# ---- counting ----


def test_ideal_count_table():
    assert [count_ideals(n) for n in range(10)] == IDEAL_COUNTS


def test_ideal_count_more_values():
    # 15 (support {0,1,2,3}) tops the 16-element poset, so it adds one ideal
    assert count_ideals(15) == 167
    assert count_ideals(16) == 168
    # independent scan route for sizes past the main table
    for n in (15, 17):
        assert count_ideals(n) == count_fixed_points(n)


def test_ideal_count_bounds():
    with pytest.raises(ValueError):
        count_ideals(33)
    with pytest.raises(ValueError):
        count_ideals(-1)


@pytest.mark.parametrize("n", range(33))
def test_count_ideals_matches_walk(n):
    assert count_ideals(n) == sum(1 for _ in walk_ideals(n)) == sum(1 for _ in iter_ideals(n))


@pytest.mark.parametrize("k", range(5))
def test_down_counts_match_walk(k):
    # |down f| for every ideal f of the k-cube, counted over all its ideals, listed without the split
    ideals = [ideal for ideal, _ in walk_ideals(1 << k)]
    down = _down_counts(k)
    assert sorted(down) == sorted(ideals)
    for f in ideals:
        assert down[f] == sum(1 for g in ideals if g & ~f == 0)


def permute_variables(f, k, perm):
    """The ideal f of the k-cube with variable v renamed perm[v]."""
    out = 0
    for x in range(1 << k):
        if f >> x & 1:
            out |= 1 << sum(1 << perm[v] for v in range(k) if x >> v & 1)
    return out


@pytest.mark.parametrize("k", range(5))
def test_variable_orbits_match_all_permutations(k):
    orbits = _variable_orbits(k)
    # OEIS A003182: monotone Boolean functions of k variables up to permutation
    assert len(orbits) == [2, 3, 5, 10, 30, 210][k]
    perms = list(itertools.permutations(range(k)))
    members = [{permute_variables(f, k, p) for p in perms} for f, _ in orbits]
    assert [len(m) for m in members] == [size for _, size in orbits]
    assert len(set().union(*members)) == sum(size for _, size in orbits) == dedekind(k)


def test_variable_orbits_at_five():
    orbits = _variable_orbits(5)
    assert len(orbits) == 210
    assert sum(size for _, size in orbits) == dedekind(5)


@pytest.mark.parametrize("k", range(2, 7))
def test_halves_and_quarters_agree(k):
    # D(k) by the top-variable split over FD(k-1) and by the top-two split over FD(k-2)
    by_halves = _count_by_halves(k - 1, 1 << (k - 1))
    assert by_halves == _count_by_quarters(k - 2) == dedekind(k) == DEDEKIND_NUMBERS[k]
    if k <= 5:
        assert by_halves == count_ideals(1 << k)


def test_dedekind_six_needs_no_five_cube_table():
    # the top-two split reads FD(4); the top-variable split would build FD(5), 7581 ideals
    _down_counts.cache_clear()
    assert dedekind(6) == DEDEKIND_NUMBERS[6]
    assert _down_counts.cache_info().currsize <= 5


def test_dedekind_values():
    assert [dedekind(k) for k in range(7)] == DEDEKIND_NUMBERS[:7]


@pytest.mark.slow
def test_dedekind_six_matches_walk():
    # the library's split would hold all 7.8 M pairs; the per-element walk streams them
    assert sum(1 for _ in walk_ideals(64)) == dedekind(6) == 7828354


@pytest.mark.slow
def test_dedekind_seven_matches_oeis():
    assert dedekind(7) == DEDEKIND_NUMBERS[7] == 2414682040998


def test_dedekind_bounds():
    for k in (-1, 8):
        with pytest.raises(ValueError, match=rf"dedekind supports k in \[0, 7\], got {k}"):
            dedekind(k)


def test_dedekind_matches_powerset_antichains():
    # antichains of the subset lattice on k generators, counted from scratch
    for k in range(4):
        subsets = list(range(1 << k))
        count = 0
        for picks in itertools.product((0, 1), repeat=len(subsets)):
            chosen = [s for s, p in zip(subsets, picks) if p]
            if all(
                not (a != b and a & ~b == 0)
                for a in chosen
                for b in chosen
            ):
                count += 1
        assert dedekind(k) == count


# ---- antichain table and identity check ----


def antichain_table_per_ideal(n):
    """The table with each ideal's maximal elements found on their own."""
    rows = []
    for ideal in iter_ideals(n):
        anti = ideal_to_antichain(ideal, n)
        text = "".join("1" if ideal >> e & 1 else "0" for e in range(n))
        rows.append((tuple(iter_bits(anti)), tuple(iter_bits(ideal)), text))
    rows.sort(key=lambda triple: (len(triple[0]), triple[0]))
    return rows


@pytest.mark.parametrize("n", range(33))
def test_antichain_table_matches_per_ideal_build(n):
    assert antichain_table(n) == antichain_table_per_ideal(n)


def test_antichain_table_checks_n():
    for n in (-1, 33, 10**20):
        with pytest.raises(ValueError, match="ideal iteration supports n in"):
            antichain_table(n)


def test_antichain_table_five_elements():
    assert antichain_table(5) == TABLE_FIVE_ELEMENTS


def test_antichain_table_sorted_by_size_then_entries():
    table = antichain_table(7)
    keys = [(len(a), a) for a, _, _ in table]
    assert keys == sorted(keys)
    assert len(table) == count_ideals(7)


def test_identity_antichain_check():
    assert identity_antichain_check((), 5)
    assert identity_antichain_check((1, 2, 4), 5)
    assert identity_antichain_check((7, 11, 13, 14), 16)
    assert not identity_antichain_check((1, 3), 5)
    with pytest.raises(ValueError):
        identity_antichain_check((3, 1), 5)


def test_antichain_scan_totals_match_ideal_counts():
    # summing identity-realizing vectors over all lengths recounts the ideals
    for n in range(11):
        total = 0
        for k in range(n + 1):
            for alpha in itertools.combinations(range(n), k):
                if identity_antichain_check(alpha, n):
                    total += 1
        assert total == count_ideals(n)


def test_identity_antichain_check_agrees_with_is_antichain():
    for n in range(9):
        for mask in range(1 << n):
            alpha = tuple(iter_bits(mask))
            assert identity_antichain_check(alpha, n) == is_antichain(mask, n)
