"""Boolean matrix kernel: storage, semiring product, permutation similarity.

Matrices are square, at most 64x64, and immutable.  Row i is stored as an
integer bitmask whose bit j holds the entry in row i, column j, so the
Boolean product reduces to OR-accumulating rows of the right factor over
the set bits of each row of the left one.
"""

from __future__ import annotations

from operator import attrgetter, index
from typing import Iterable, Iterator, Sequence

from . import _check_size

MAX_SIDE = 64


class NotSquareError(ValueError):
    """Matrix input whose row count and row lengths disagree."""


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_text(row: int, n: int) -> str:
    """Row mask as n characters '0'/'1', column 0 first.

    bin() of the row with a guard bit at position n is "0b1" followed by
    columns n-1 down to 0; reversing and dropping "0b1" gives the row, and
    the guard keeps n = 0 empty.
    """
    return bin(row | 1 << n)[:2:-1]


def _integer_entries(values: Iterable[int], what: str = "index vector entries") -> tuple[int, ...]:
    """values as a tuple of ints; an entry that is not an integer (a float, a str, None) raises ValueError."""
    entries = []
    for a in values:
        try:
            entries.append(index(a))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {a!r}") from None
    return tuple(entries)


class _Value:
    """Frozen value compared, hashed, shown and pickled as the tuple of its __slots__ values, stored by _set."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)  # past the frozen __setattr__

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BoolMatrix(_Value):
    """Immutable square Boolean matrix; ``rows[i] >> j & 1`` is entry (i, j)."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        n = _check_size(n, MAX_SIDE, "matrix side must be")
        rows = _integer_entries(rows, "matrix rows")
        if len(rows) != n:
            raise NotSquareError(f"expected {n} rows, got {len(rows)}")
        top = (1 << n) - 1
        for i, row in enumerate(rows):
            if not 0 <= row <= top:
                raise ValueError(f"row {i} does not fit in {n} columns")
        self._set(n, rows)

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "BoolMatrix":
        """Matrix from rows the library built itself: an int side in range and a tuple of n ints below 2**n, not checked again."""
        m = cls.__new__(cls)
        m._set(n, rows)
        return m

    def entry(self, i: int, j: int) -> int:
        """Entry (i, j) as 0 or 1."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n}x{self.n} matrix")
        return self.rows[i] >> j & 1

    # ---- conversions ----------------------------------------------------

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BoolMatrix":
        """Build from a sequence of rows, each a sequence of 0/1 entries."""
        n = len(entries)
        rows = []
        for vals in entries:
            if len(vals) != n:
                raise NotSquareError(f"{n} rows but a row of length {len(vals)}")
            rows.append(sum(1 << j for j, v in enumerate(vals) if v))
        return cls(n, tuple(rows))

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    @classmethod
    def from_text(cls, text: str) -> "BoolMatrix":
        """Parse the one-line-per-row text form; single spaces between digits are tolerated."""
        lines = [line.strip().replace(" ", "") for line in text.splitlines()]
        lines = [line for line in lines if line]
        n = len(lines)
        rows = []
        for line in lines:
            if len(line) != n:
                raise NotSquareError(f"{n} rows but a row of {len(line)} characters")
            if set(line) - {"0", "1"}:
                raise ValueError(f"matrix rows may only contain 0 and 1: {line!r}")
            rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
        return cls(n, tuple(rows))

    def row_string(self, i: int) -> str:
        return _row_text(self.rows[i], self.n)

    def to_text(self) -> str:
        return "\n".join([_row_text(row, self.n) for row in self.rows])

    @classmethod
    def from_json_obj(cls, obj) -> "BoolMatrix":
        """Build from the JSON object form {"n": ..., "rows": ["010...", ...]}."""
        try:
            n = obj["n"]
            row_strings = obj["rows"]
        except (TypeError, KeyError) as exc:
            raise ValueError("matrix JSON needs the fields 'n' and 'rows'") from exc
        if type(n) is not int or not isinstance(row_strings, list) or len(row_strings) != n:
            raise NotSquareError("field 'n' disagrees with the number of rows")
        m = cls.from_text("\n".join(str(s) for s in row_strings))
        if m.n != n:
            raise NotSquareError("field 'n' disagrees with the row lengths")
        return m

    def to_json_obj(self) -> dict:
        return {"n": self.n, "rows": [_row_text(row, self.n) for row in self.rows]}


def identity(n: int) -> BoolMatrix:
    """The n x n identity matrix."""
    n = _check_size(n, MAX_SIDE, "matrix side must be")
    return BoolMatrix(n, tuple(1 << i for i in range(n)))


def bool_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product of a and b over the (or, and) semiring."""
    if a.n != b.n:
        raise ValueError(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    rows = []
    for row in a.rows:
        acc = 0
        for k in iter_bits(row):
            acc |= b.rows[k]
        rows.append(acc)
    return BoolMatrix._trusted(a.n, tuple(rows))


def is_idempotent(a: BoolMatrix) -> bool:
    """True when a.a = a over the Boolean semiring."""
    return bool_mul(a, a) == a


class Permutation(_Value):
    """Bijection on {0, ..., n-1}; ``mapping[i]`` is the image of i."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Iterable[int]) -> None:
        mapping = _integer_entries(mapping, "permutation entries")
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a bijection on 0..{len(mapping) - 1}: {mapping}")
        self._set(mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, image in enumerate(self.mapping):
            inv[image] = i
        return Permutation(tuple(inv))


def permute_similar(a: BoolMatrix, q: Permutation) -> BoolMatrix:
    """Conjugate a by q: entry (q(i), q(j)) of the result is entry (i, j) of a."""
    if q.n != a.n:
        raise ValueError(f"permutation on {q.n} points cannot act on a {a.n}x{a.n} matrix")
    return permute(a, q, q)


def permute(m: BoolMatrix, row_perm: Permutation, col_perm: Permutation) -> BoolMatrix:
    """Permute rows and columns independently; entry (i, j) moves to (row_perm(i), col_perm(j))."""
    if row_perm.n != m.n or col_perm.n != m.n:
        raise ValueError("permutation sizes must match the matrix side")
    rows = [0] * m.n
    for i, row in enumerate(m.rows):
        moved = 0
        for j in iter_bits(row):
            moved |= 1 << col_perm.mapping[j]
        rows[row_perm.mapping[i]] = moved
    return BoolMatrix._trusted(m.n, tuple(rows))


def flip_transpose(a: BoolMatrix) -> BoolMatrix:
    """Reflect across the anti-diagonal: entry (i, j) of the result is entry (n-1-j, n-1-i) of a."""
    n = a.n
    rows = [0] * n
    for i in range(n):
        for j in iter_bits(a.rows[i]):
            rows[n - 1 - j] |= 1 << (n - 1 - i)
    return BoolMatrix._trusted(n, tuple(rows))


def parse_index_vector(text: str) -> tuple[int, ...]:
    """Parse the comma-separated vector form, e.g. "2,5,9,13"; empty input is the empty vector."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad index vector: {text!r}") from exc


def format_index_vector(alpha: Iterable[int]) -> str:
    return ",".join(map(str, alpha))
