"""Independent computations the checks compare the program against.

Nothing here imports the program.  Posets are row-mask tuples: row i is a
bitmask whose bit j says j <= i, with j <= i as integers (natural labelling).
Everything is computed from the definitions, favouring plain code over speed.
"""

from __future__ import annotations

from functools import lru_cache


def bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


# ---- posets as row masks ----------------------------------------------------


def random_poset(rng, n: int, density: float) -> tuple[int, ...]:
    """Random naturally labelled poset: each j < i is put below i with the given
    probability, then the relation is closed transitively."""
    rows: list[int] = []
    for i in range(n):
        row = 1 << i
        for j in range(i):
            if rng.random() < density:
                row |= rows[j]
        rows.append(row)
    return tuple(rows)


def is_poset_rows(rows) -> bool:
    """Unit lower triangular and transitive."""
    for i, row in enumerate(rows):
        if not row >> i & 1 or row >> (i + 1):
            return False
        for j in bits(row):
            if rows[j] & ~row:
                return False
    return True


def relabel(rows, mapping) -> tuple[int, ...]:
    """Entry (q(i), q(j)) of the result is entry (i, j) of rows, q = mapping."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[mapping[i]] = sum(1 << mapping[j] for j in bits(row))
    return tuple(out)


def random_linear_extension(rng, rows) -> tuple[int, ...]:
    """Old -> new map of a uniformly chosen next-minimal-element relabelling;
    the relabelled matrix is again lower triangular."""
    n = len(rows)
    placed = 0
    mapping = [0] * n
    for pos in range(n):
        ready = [e for e in range(n) if not placed >> e & 1 and (rows[e] ^ (1 << e)) & ~placed == 0]
        e = rng.choice(ready)
        mapping[e] = pos
        placed |= 1 << e
    return tuple(mapping)


def _key(rows) -> tuple[int, ...]:
    """Row-major bit-string key: column 0 is the most significant digit of a row."""
    n = len(rows)
    return tuple(int(format(r, f"0{n}b")[::-1], 2) if n else 0 for r in rows)


def linear_extensions(rows):
    """Every old -> new map that keeps the matrix lower triangular."""
    n = len(rows)
    preds = [row ^ (1 << i) for i, row in enumerate(rows)]
    mapping = [0] * n

    def place(pos: int, placed: int):
        if pos == n:
            yield tuple(mapping)
            return
        for e in range(n):
            if not placed >> e & 1 and preds[e] & ~placed == 0:
                mapping[e] = pos
                yield from place(pos + 1, placed | (1 << e))

    return place(0, 0)


def brute_canonical(rows) -> tuple[int, ...]:
    """Least lower-triangular relabelling under the row-major bit-string order,
    by trying every relabelling that keeps the matrix lower triangular (the
    others cannot be poset matrices); for small n only."""
    return min((relabel(rows, q) for q in linear_extensions(rows)), key=_key)


def bool_square(rows) -> tuple[int, ...]:
    """Boolean product of the matrix with itself: row i ORs the rows it selects."""
    out = []
    for row in rows:
        acc = 0
        for k in bits(row):
            acc |= rows[k]
        out.append(acc)
    return tuple(out)


def flip_transpose(rows) -> tuple[int, ...]:
    """Anti-diagonal reflection: entry (i, j) of the result is entry (n-1-j, n-1-i)."""
    n = len(rows)
    out = [0] * n
    for i, row in enumerate(rows):
        for j in bits(row):
            out[n - 1 - j] |= 1 << (n - 1 - i)
    return tuple(out)


def row_text(rows) -> str:
    n = len(rows)
    return "\n".join("".join("1" if r >> j & 1 else "0" for j in range(n)) for r in rows)


def parse_row_text(text: str) -> tuple[int, ...]:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    return tuple(sum(1 << j for j, ch in enumerate(line) if ch == "1") for line in lines)


# ---- index vectors and row domination --------------------------------------


def subset_matrix(alpha) -> tuple[int, ...]:
    """Entry (i, j) is 1 when alpha[j]'s binary support lies inside alpha[i]'s."""
    return tuple(
        sum(1 << j for j, b in enumerate(alpha) if b & ~a == 0) for a in alpha
    )


def profile(rows) -> frozenset:
    """Ordered pairs (i, j), i != j, with row i entrywise at most row j."""
    return frozenset(
        (i, j)
        for i, a in enumerate(rows)
        for j, b in enumerate(rows)
        if i != j and a & ~b == 0
    )


def changeable(rows, n: int) -> frozenset:
    """Positions whose single flip leaves the whole domination profile as it was."""
    base = profile(rows)
    out = set()
    for i in range(len(rows)):
        for j in range(n):
            flipped = list(rows)
            flipped[i] ^= 1 << j
            if profile(flipped) == base:
                out.add((i, j))
    return frozenset(out)


def swap_columns(vector, c1: int, c2: int) -> tuple[int, ...]:
    out = []
    for r in vector:
        b1, b2 = r >> c1 & 1, r >> c2 & 1
        r &= ~((1 << c1) | (1 << c2))
        out.append(r | b1 << c2 | b2 << c1)
    return tuple(sorted(out))


def random_orbit_walk(rng, vector, n: int, steps: int) -> tuple[int, ...]:
    """Seeded walk by column transpositions and profile-keeping flips; every
    step stays inside the domination orbit of the start."""
    state = tuple(sorted(vector))
    for _ in range(steps):
        if rng.random() < 0.5:
            c1, c2 = rng.sample(range(n), 2)
            state = swap_columns(state, c1, c2)
        else:
            i, j = rng.choice(sorted(changeable(state, n)))
            rows = list(state)
            rows[i] ^= 1 << j
            state = tuple(sorted(rows))
    return state


# ---- order ideals of the support (Pascal) order ---------------------------


@lru_cache(maxsize=None)
def down_masks(n: int) -> tuple[int, ...]:
    """Element i's down-set within 0..n-1: every j whose support lies in i's."""
    return tuple(sum(1 << j for j in range(n) if j & ~i == 0) for i in range(n))


def is_down_set(mask: int, n: int) -> bool:
    down = down_masks(n)
    return all(down[e] & ~mask == 0 for e in bits(mask))


def brute_count_ideals(n: int) -> int:
    """Down-sets counted by testing all 2**n subsets."""
    down = down_masks(n)
    count = 0
    for x in range(1 << n):
        m = x
        while m:
            e = (m & -m).bit_length() - 1
            if down[e] & ~x:
                break
            m &= m - 1
        else:
            count += 1
    return count


def all_ideals(n: int) -> list[int]:
    """Every down-set, decided element by element in decreasing order: an
    element may stay out only while nothing chosen lies above it."""
    down = down_masks(n)
    up = [sum(1 << k for k in range(n) if down[k] >> j & 1) for j in range(n)]
    out: list[int] = []

    def grow(j: int, chosen: int) -> None:
        if j < 0:
            out.append(chosen)
            return
        if (up[j] ^ (1 << j)) & chosen == 0:
            grow(j - 1, chosen)
        grow(j - 1, chosen | (1 << j))

    grow(n - 1, 0)
    return out


def down_closure(mask: int, n: int) -> int:
    down = down_masks(n)
    out = 0
    for e in bits(mask):
        out |= down[e]
    return out


def maximal_elements(mask: int, n: int) -> int:
    down = down_masks(n)
    return sum(
        1 << e for e in bits(mask) if not any(down[f] >> e & 1 for f in bits(mask) if f != e)
    )


def is_antichain(mask: int, n: int) -> bool:
    down = down_masks(n)
    return not any(down[f] >> e & 1 for e in bits(mask) for f in bits(mask) if f != e)
