"""Poset matrices: validation, the Pascal-matrix embedding, and duality.

A poset matrix is unit lower triangular and idempotent over the Boolean
semiring; equivalently, its rows-as-supports are downward compatible with
the integer labelling (transitive closure already taken).  Every such
matrix is the principal submatrix of a binary Pascal matrix on the row
positions given by reading each row as an integer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import _check_size
from .bmatrix import BoolMatrix, _Value, flip_transpose
from .pascal import _subset_rows, check_index_vector

# Embedded vectors index into the Pascal matrix of side 2**n; with rows held
# in 64-bit masks that caps n at 6.
MAX_EMBED_LOG = 6


def _ambient_entries(alpha: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    """(alpha, n) as an index vector in the Pascal matrix of side 2**n and an int ambient exponent in [0, MAX_EMBED_LOG]."""
    n = _check_size(n, MAX_EMBED_LOG, "ambient exponent must be")
    return check_index_vector(alpha, 1 << n), n


def _check_orbit_vector(alpha: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    """_ambient_entries(alpha, n), once alpha has exactly n entries."""
    entries, n = _ambient_entries(alpha, n)
    if len(entries) != n:
        raise ValueError(f"need exactly {n} entries, got {len(entries)}")
    return entries, n


class PosetValidationError(ValueError):
    """A Boolean matrix failed one of the poset-matrix checks."""


class NotUnitLowerTriangularError(PosetValidationError):
    """Carries the first entry breaking 'ones on the diagonal, zeros above it'."""

    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"not unit lower triangular: entry ({i}, {j})")


class NotTransitiveError(PosetValidationError):
    """Carries the first triple with (i,j) and (j,k) set but (i,k) clear."""

    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(
            f"not transitive: entries ({i},{j}) and ({j},{k}) are set but ({i},{k}) is clear"
        )


def _first_triangular_failure(m: BoolMatrix) -> Optional[tuple[int, int]]:
    """Row-major first position where the unit-lower-triangular shape breaks."""
    for i, row in enumerate(m.rows):
        if not row >> i & 1:
            return i, i
        above = row >> (i + 1)
        if above:
            return i, i + 1 + (above & -above).bit_length() - 1
    return None


def _first_transitivity_failure(m: BoolMatrix) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (i, j, k) with entries (i,j), (j,k) set but (i,k) clear."""
    rows = m.rows
    for i, row in enumerate(rows):
        rest = row & ~(1 << i)  # j = i never fails: row i minus itself is empty
        while rest:  # the other set bits j of row i, ascending
            low = rest & -rest
            missing = rows[low.bit_length() - 1] & ~row
            if missing:
                return i, low.bit_length() - 1, (missing & -missing).bit_length() - 1
            rest ^= low
    return None


class PosetMatrix(_Value):
    """A BoolMatrix checked to be unit lower triangular and transitive."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: BoolMatrix) -> None:
        shape = _first_triangular_failure(matrix)
        if shape is not None:
            raise NotUnitLowerTriangularError(*shape)
        triple = _first_transitivity_failure(matrix)
        if triple is not None:
            raise NotTransitiveError(*triple)
        self._set(matrix)

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def rows(self) -> tuple[int, ...]:
        return self.matrix.rows


def validate(m: BoolMatrix) -> PosetMatrix:
    """Check that m encodes a partial order whose relation refines the integer order.

    Reports the row-major first offending entry (shape) or the
    lexicographically first offending triple (transitivity).
    """
    return PosetMatrix(m)


def embed(a: PosetMatrix) -> tuple[int, ...]:
    """Index vector locating a inside the Pascal matrix of side 2**n.

    Entry i is row i read as an integer, so it satisfies
    2**i <= alpha[i] < 2**(i+1) and the vector is strictly increasing.
    """
    _check_size(a.n, MAX_EMBED_LOG, "embedding supports n")
    return a.rows


def realize(alpha: Sequence[int], ambient_log: int) -> PosetMatrix:
    """Poset matrix cut out of the Pascal matrix of side 2**ambient_log at positions alpha.

    Entry (i, j) is the subset test support(alpha[j]) <= support(alpha[i]);
    the result is always a valid poset matrix.
    """
    entries, _ = _ambient_entries(alpha, ambient_log)
    return validate(BoolMatrix._trusted(len(entries), _subset_rows(entries)))


def dual(a: PosetMatrix) -> PosetMatrix:
    """Matrix of the dual poset: relabel i as n-1-i and reverse the order."""
    return validate(flip_transpose(a.matrix))


def _dual_entries(entries: Sequence[int], n: int) -> tuple[int, ...]:
    """dual_index of entries already known to be an index vector in the Pascal matrix of side 2**n."""
    top = (1 << n) - 1
    return tuple(top - a for a in reversed(entries))


def dual_index(alpha: Sequence[int], n: int) -> tuple[int, ...]:
    """Index vector of the dual realization: complement each entry against 2**n - 1 and reverse."""
    return _dual_entries(*_ambient_entries(alpha, n))


def is_self_dual_index(alpha: Sequence[int], n: int) -> bool:
    """True when alpha equals its own dual: alpha[i] + alpha[k-1-i] = 2**n - 1 for all i."""
    entries, n = _ambient_entries(alpha, n)
    return _dual_entries(entries, n) == entries


def even_odd_moves(alpha: Sequence[int], n: int) -> frozenset[tuple[int, ...]]:
    """Class-preserving rewrites available when all entries share a parity.

    All entries even: halve every entry, or add one to every entry.  All
    odd: subtract one from every entry, or subtract one and halve.  Mixed
    parity: no moves.  Every returned vector realizes an isomorphic poset
    in the same 2**n ambient.
    """
    entries, _ = _ambient_entries(alpha, n)
    if not entries:
        return frozenset()
    if all(a % 2 == 0 for a in entries):
        return frozenset({tuple(a // 2 for a in entries), tuple(a + 1 for a in entries)})
    if all(a % 2 == 1 for a in entries):
        return frozenset({tuple((a - 1) // 2 for a in entries), tuple(a - 1 for a in entries)})
    return frozenset()
