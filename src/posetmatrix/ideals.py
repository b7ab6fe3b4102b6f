"""Order ideals and antichains of the Pascal poset, and its Boolean fixed points.

The Pascal poset on {0..n-1} orders labels by binary-support inclusion.
Subsets of the ground set are bitmasks throughout: bit i set means element
i is in the subset.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

from . import _check_size
from .bmatrix import _integer_entries, _row_text, identity
from .pascal import _submask_row, induced_submatrix, pascal_matrix

MAX_COUNT_GROUND = 32
MAX_SCAN_GROUND = 20
MAX_DEDEKIND_EXP = 7


def _check_mask(mask: int, n: int) -> int:
    if not isinstance(mask, int):  # the check is on every conversion's path, so ints skip the normalization
        (mask,) = _integer_entries((mask,), "subset masks")
    if n.__class__ is not int:
        (n,) = _integer_entries((n,), "ground set sizes")
    if not (mask >= 0 and mask.bit_length() <= n):  # no 1 << n: n may be huge
        raise ValueError(f"subset mask {mask:#x} does not fit a ground set of size {n}")
    return mask


def principal_ideal(i: int, n: int) -> int:
    """Mask of everything at or below i in the support order: the submasks of i."""
    if i.__class__ is not int or n.__class__ is not int:
        i, n = _integer_entries((i, n), "elements and ground set sizes")
    if not 0 <= i < n:
        raise ValueError(f"element {i} outside a ground set of size {n}")
    return _submask_row(i)


def is_ideal(mask: int, n: int) -> bool:
    """True when mask is downward closed in the support order, tested on lower covers.

    The lower covers of x are x with one bit cleared, and for each bit b
    (mask & plane_b) >> 2**b moves every element with bit b set to the one
    below it without b; mask is an ideal when no plane moves an element out
    of it.  This is exact: a proper submask of x is reached from x by
    clearing its missing bits one at a time, each step a lower cover, so a
    mask closed under single-bit clears holds every submask of its
    elements.  Unlike the closure, no union is carried from plane to plane,
    and the first plane that leaves mask answers.
    """
    mask = _check_mask(mask, n)
    for shift, plane in _bit_planes((mask.bit_length() - 1).bit_length()):
        if (mask & plane) >> shift & ~mask:
            return False
    return True


def is_antichain(mask: int, n: int) -> bool:
    """True when no element of mask has its support contained in another's."""
    return ideal_to_antichain(mask, n) == mask


def antichain_to_ideal(mask: int, n: int) -> int:
    """Downward closure of mask: union of the principal ideals of its elements."""
    mask = _check_mask(mask, n)
    return mask | _strictly_below(mask)


def ideal_to_antichain(mask: int, n: int) -> int:
    """Maximal elements of mask under the support order: those with no proper superset in mask."""
    mask = _check_mask(mask, n)
    return mask & ~_strictly_below(mask)


def _strictly_below(mask: int) -> int:
    """Union of the strict predecessors of mask's elements: their proper submasks.

    An element x with bit b set lies just above x - 2**b, so
    (m & plane_b) >> 2**b moves each such element of m one step down.  A
    proper submask of x clears a nonempty set of x's bits, and clearing
    them in ascending order reaches it, so one pass over b, each step taken
    from the mask and from everything already below it, gives every strict
    predecessor.  The cost follows the mask's bit length in big-int
    operations, not the rows of its elements.
    """
    below = 0
    for shift, plane in _bit_planes((mask.bit_length() - 1).bit_length()):
        below |= ((mask | below) & plane) >> shift
    return below


@lru_cache(maxsize=None)
def _bit_planes(count: int) -> tuple[tuple[int, int], ...]:
    """For each bit b below count, 2**b and the mask of the elements below 2**count with bit b set.

    Keyed by the bit count of a mask's elements, not by its bit length, so
    the memo holds one entry per power of two.  A plane may reach past the
    mask's top bit, where _strictly_below's operands have no bits.
    """
    planes = []
    size = 1 << count
    for b in range(count):
        run = 1 << b
        plane, width = ((1 << run) - 1) << run, 2 * run  # one period: run elements without bit b, run with it
        while width < size:
            plane |= plane << width
            width *= 2
        planes.append((run, plane))
    return tuple(planes)


def is_fixed_point(x: int, n: int) -> bool:
    """True when the characteristic row vector x satisfies x . P = x over the Boolean semiring.

    x . P is the OR of the Pascal rows of x's elements, and each row holds
    its own element, so x is fixed exactly when no such row has a bit
    outside x.  The rows are read from the top element down, and the first
    that leaves x answers; the cost follows x's elements, not its top bit.
    """
    x = _check_mask(x, n)
    rest = x
    while rest:
        i = rest.bit_length() - 1
        if _submask_row(i) & ~x:
            return False
        rest ^= 1 << i
    return True


def count_ideals(n: int) -> int:
    """Number of downward-closed subsets of the size-n Pascal poset.

    With 2**m < n <= 2**(m+1), an ideal is a pair of ideals on the first
    2**m elements and on the other n - 2**m (element 2**m + y sits above y),
    the second inside the first; so the count is the sum of |down f| over
    the ideals f of the m-cube, each cut to the first n - 2**m elements.
    iter_ideals lists the same pairs from the same table; the tests keep a
    per-element walk and the fixed-point scan as the independent routes.
    """
    n = _check_size(n, MAX_COUNT_GROUND, "ideal counting supports n")
    if n < 2:
        return n + 1
    m = (n - 1).bit_length() - 1
    return _count_by_halves(m, n - (1 << m))


def iter_ideals(n: int) -> Iterator[int]:
    """Yield every ideal of the size-n Pascal poset as a subset mask.

    The order is lexicographic in element order, element i left out before
    it is taken in.  With 2**m < n <= 2**(m+1), an ideal is f | g << 2**m:
    f an ideal of the m-cube (the first 2**m elements) and g one of the
    other n - 2**m elements with g inside f, so the ideals are listed f by
    f, and for each f every such g in order.  count_ideals sums over the
    same split; the tests keep a per-element walk as the second route.
    """
    h, low, high = _halves(n)  # checks n at the call, not at the first next()
    return (f | g << h for f in low for g in high if not g & ~f)


def _halves(n: int) -> tuple[int, Iterable[int], Iterable[int]]:
    """(h, the ideals of the first h elements, those of the other n - h), h = 2**m < n <= 2**(m+1).

    The first half's ideals are the m-cube's, the keys of _down_counts(m),
    which are in iter_ideals' order; the other r = n - h elements' are the
    cube's ideals below 2**r, in the same order.  Below two elements there
    is nothing to split: the first half is all of them and the second is empty.
    """
    n = _check_size(n, MAX_COUNT_GROUND, "ideal iteration supports n")
    if n < 2:
        return n, (0, 1)[: n + 1], (0,)
    m = (n - 1).bit_length() - 1
    h, cube = 1 << m, _down_counts(m)
    return h, cube, [f for f in cube if not f >> (n - h)]


@lru_cache(maxsize=None)
def _down_counts(k: int) -> dict[int, int]:
    """|down f|, the number of ideals inside f, for every ideal f of the k-cube.

    The k-cube is the Pascal poset on 2**k elements, the subsets of k
    variables.  Split on the top variable, an ideal is (f0, f1): ideals of
    the (k-1)-cube with f1 inside f0.  The ideals inside (f0, f1) are the
    (g, h) with g inside f0 and h inside g & f1, so |down (f0, f1)| sums
    |down (g & f1)| over g.
    """
    if k == 0:
        return {0: 1, 1: 2}
    prev = _down_counts(k - 1)
    half = 1 << (k - 1)
    out = {}
    for f0 in prev:
        inside = [g for g in prev if g & ~f0 == 0]
        for f1 in inside:
            out[f0 | f1 << half] = sum([prev[g & f1] for g in inside])
    return out


def _count_by_halves(m: int, r: int) -> int:
    """Ideals on 2**m + r elements, 0 < r <= 2**m: the sum over the ideals f
    of the m-cube of |down (f cut to its first r elements)|."""
    down = _down_counts(m)
    low = (1 << r) - 1
    return sum([down[f & low] for f in down])


def _count_by_quarters(j: int) -> int:
    """Ideals of the (j+2)-cube, split on its top two variables.

    The quarters are ideals of the j-cube.  The middle two, a and b, are
    any; the lowest one holds a | b and the highest lies inside a & b.  So
    the count is the sum over a, b of |down (a & b)| * |up (a | b)|, where
    |up f| = |down f*| for f* = {~x : x not in f}.  Permuting the j lower
    variables keeps each summand, so a runs over one ideal per orbit,
    weighted by the orbit's size.
    """
    down = _down_counts(j)
    size = 1 << j
    full = (1 << size) - 1
    # reversing the 2**j bits maps each element x to its complement ~x
    up = {f: down[int(_row_text(full ^ f, size), 2)] for f in down}
    return sum(weight * sum([down[a & b] * up[a | b] for b in down]) for a, weight in _variable_orbits(j))


def _variable_orbits(j: int) -> list[tuple[int, int]]:
    """(first member, size) of each orbit of the j-cube's ideals under
    the permutations of its j variables.

    Adjacent transpositions generate them.  Swapping variables v and v + 1
    exchanges the elements with bits (v, v+1) = (1, 0) and (0, 1), which
    sit 2**v apart: a delta swap on the ideal's mask.
    """
    size = 1 << j
    swaps = [(1 << v, sum(1 << x for x in range(size) if x >> v & 3 == 1)) for v in range(j - 1)]
    seen = set()
    orbits = []
    for f in _down_counts(j):
        if f in seen:
            continue
        orbit = {f}
        frontier = [f]
        while frontier:
            g = frontier.pop()
            for shift, low in swaps:
                t = (g ^ g >> shift) & low
                h = g ^ t ^ t << shift
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        seen |= orbit
        orbits.append((f, len(orbit)))
    return orbits


def count_fixed_points(n: int) -> int:
    """Count solutions of x . P = x by scanning all 2**n vectors.

    Deliberately the slow route: an independent cross-check on count_ideals,
    not a second copy of it.
    """
    n = _check_size(n, MAX_SCAN_GROUND, "fixed-point scans support n")
    return sum(1 for x in range(1 << n) if is_fixed_point(x, n))


def dedekind(k: int) -> int:
    """k-th Dedekind number: antichains of the subset lattice = ideals of the size-2**k Pascal poset.

    From k = 2 on it splits on the top two variables and sums pair products
    over the (k-2)-cube's ideals (Fidytek, Mostowski, Somla & Szepietowski,
    "Algorithms counting monotone Boolean functions", IPL 79, 2001).
    """
    k = _check_size(k, MAX_DEDEKIND_EXP, "dedekind supports k")
    return k + 2 if k < 2 else _count_by_quarters(k - 2)


def identity_antichain_check(alpha, n: int) -> bool:
    """True when alpha's induced Pascal submatrix is an identity matrix.

    Equivalent to alpha's entries being pairwise incomparable in the support
    order (an antichain); the empty vector passes.
    """
    sub = induced_submatrix(pascal_matrix(n), alpha)
    return sub == identity(sub.n)


def antichain_table(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], str]]:
    """(antichain, ideal, fixed-point string) for every ideal, by antichain size then entries.

    Each row joins pieces of its two halves, each computed once: the
    positions and text of f, the positions of each of f's maximal elements
    that g leaves maximal, and those of g and its maximal elements shifted
    past the first half (x in f lies below h + y just when x is a submask
    of y, so g, downward closed, leaves maximal the maxima of f outside g).
    The maxima are taken once per first-half ideal, as in
    ideal_to_antichain; the second half's ideals are among them.  Rows are
    built into one bucket per antichain size, so only the buckets need
    sorting.
    """
    n = _check_size(n, MAX_COUNT_GROUND, "ideal iteration supports n")  # before it sizes the tables, as an int
    h, low, high = _halves(n)
    maxima = {f: f & ~_strictly_below(f) for f in low}
    tables = [_byte_positions(k) for k in range((n + 7) // 8)]
    highs = [(g, _positions(maxima[g] << h, tables), _positions(g << h, tables), _row_text(g, n - h)) for g in high]
    buckets = [[] for _ in range(n + 1)]
    for f, a in maxima.items():
        ideal, text = _positions(f, tables), _row_text(f, h)
        maximal = {}  # a & ~g -> its positions; few distinct masks occur per f
        for g, anti_hi, ideal_hi, text_hi in highs:
            if g & ~f:
                continue
            mask = a & ~g
            anti_lo = maximal.get(mask)
            if anti_lo is None:
                anti_lo = maximal[mask] = _positions(mask, tables)
            antichain = anti_lo + anti_hi
            buckets[len(antichain)].append((antichain, ideal + ideal_hi, text + text_hi))
    rows = []
    for bucket in buckets:
        bucket.sort(key=itemgetter(0))
        rows += bucket
    return rows


@lru_cache(maxsize=None)
def _byte_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """For each byte value, the positions its set bits have as byte k of a mask."""
    return tuple(tuple(8 * k + p for p in range(8) if b >> p & 1) for b in range(256))


def _positions(mask: int, tables) -> tuple[int, ...]:
    """tuple(iter_bits(mask)), looked up a byte at a time in _byte_positions tables."""
    out = ()
    for table in tables:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out
