"""Partitions, Young diagrams, and standard Young tableaux.

Conventions used throughout the package:

* A partition is a plain tuple of positive integers in non-increasing
  order; the empty tuple is the unique partition of 0.
* Cells are 1-based ``(row, col)`` pairs, row 1 at the top, column 1 at
  the left.
* Tableaux are immutable.  The public constructor validates its input;
  tableaux the package derives from valid ones skip that check.
"""

from itertools import chain
from typing import Iterable, Iterator


class TableauError(ValueError):
    """Base class for all domain errors raised by this package."""


class ShapeError(TableauError):
    """Row lengths do not form a partition."""


class EntryError(TableauError):
    """Entries are not a permutation of 1..n."""


class OrderError(TableauError):
    """A row or column is not strictly increasing."""


class EmptyShapeError(TableauError):
    """Operation requires a nonempty shape."""


class EmptyInputError(TableauError):
    """Operation requires a nonempty collection."""


Partition = tuple[int, ...]
Cell = tuple[int, int]


def check_partition(parts: Iterable[int]) -> Partition:
    """Return ``parts`` as a validated partition tuple.

    Raises ShapeError if any part is not an int (bool excluded), is < 1,
    or the parts increase.
    """
    shape = tuple(parts)
    for i, p in enumerate(shape):
        if type(p) is not int:
            raise ShapeError(f"part {i + 1} is {p!r}; parts must be integers")
        if p < 1:
            raise ShapeError(f"part {i + 1} is {p}; parts must be >= 1")
        if i > 0 and p > shape[i - 1]:
            raise ShapeError(
                f"row {i + 1} is longer than row {i} ({p} > {shape[i - 1]})"
            )
    return shape


def conjugate(shape: Iterable[int]) -> Partition:
    """Transpose of a partition: column lengths of its diagram."""
    shape = check_partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > j) for j in range(shape[0]))


def is_rectangular(shape: Iterable[int]) -> bool:
    """True iff all parts are equal (vacuously true for the empty shape)."""
    shape = check_partition(shape)
    return all(p == shape[0] for p in shape)


def outer_corners(shape: Iterable[int]) -> tuple[Cell, ...]:
    """Cells of ``shape`` with no cell to the right or below, in row order.

    These are exactly the cells whose removal leaves a Young diagram.
    """
    shape = check_partition(shape)
    if not shape:
        raise EmptyShapeError("the empty shape has no outer corners")
    corners = []
    for i, p in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if below < p:
            corners.append((i + 1, p))
    return tuple(corners)


def shape_union(shapes: Iterable[Iterable[int]]) -> Partition:
    """Cellwise union of partitions: part i is the max of the inputs' part i."""
    checked = [check_partition(s) for s in shapes]
    if not checked:
        raise EmptyInputError("shape_union of no shapes")
    width = max(len(s) for s in checked)
    return tuple(
        max(s[i] if i < len(s) else 0 for s in checked) for i in range(width)
    )


class StandardTableau:
    """A standard Young tableau: 1..n filled into a Young diagram.

    Rows increase left to right, columns increase top to bottom, every
    entry of 1..n appears exactly once.  The empty tableau (n = 0) is a
    valid first-class value.  Instances are immutable; do not mutate
    ``rows`` after construction.
    """

    __slots__ = ("rows", "shape", "_hash")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = tuple(map(tuple, rows))
        if any(type(v) is not int for v in chain.from_iterable(self.rows)):
            raise EntryError("entries must be integers (bool excluded)")
        self.shape = check_partition(len(row) for row in self.rows)
        n = sum(self.shape)
        seen = sorted(chain.from_iterable(self.rows))
        if seen != list(range(1, n + 1)):
            for i, v in enumerate(seen):
                if v != i + 1:
                    raise EntryError(
                        f"entries are not a permutation of 1..{n} "
                        f"(expected {i + 1}, found {v})"
                    )
        for i, row in enumerate(self.rows):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise OrderError(f"row {i + 1} is not strictly increasing")
        for j in range(self.shape[0] if self.shape else 0):
            col = [row[j] for row in self.rows if len(row) > j]
            if any(a >= b for a, b in zip(col, col[1:])):
                raise OrderError(f"column {j + 1} is not strictly increasing")
        self._hash = hash(self.rows)

    @classmethod
    def _make(cls, rows: Iterable[Iterable[int]]) -> "StandardTableau":
        """Build from rows known to form a standard tableau, unchecked."""
        tableau = object.__new__(cls)
        tableau.rows = tuple(map(tuple, rows))
        tableau.shape = tuple(map(len, tableau.rows))
        tableau._hash = hash(tableau.rows)
        return tableau

    @property
    def n(self) -> int:
        """Number of entries."""
        return sum(self.shape)

    def entry_at(self, cell: Cell) -> int:
        """Entry in the 1-based (row, col) cell."""
        r, c = cell
        return self.rows[r - 1][c - 1]

    def cell_of(self, value: int) -> Cell:
        """1-based (row, col) cell holding ``value``."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return (i + 1, j + 1)
        raise EntryError(f"{value} does not occur in the tableau")

    def transpose(self) -> "StandardTableau":
        """Reflection across the main diagonal; an involution."""
        if not self.rows:
            return self
        cols = [
            tuple(row[j] for row in self.rows if len(row) > j)
            for j in range(self.shape[0])
        ]
        return StandardTableau._make(cols)

    def row_word(self) -> tuple[int, ...]:
        """All entries read row by row, top to bottom."""
        return tuple(chain.from_iterable(self.rows))

    def sort_key(self) -> tuple[Partition, tuple[int, ...]]:
        """Canonical order key: shape lexicographic, then row word."""
        return (self.shape, self.row_word())

    def to_text(self) -> str:
        """Single-line text form, rows joined by " / "; "" for n = 0."""
        return " / ".join(" ".join(str(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str) -> "StandardTableau":
        """Parse the text form; rejects anything that fails validation."""
        text = text.strip()
        if not text:
            return cls(())
        rows = []
        for chunk in text.split("/"):
            try:
                rows.append([int(tok) for tok in chunk.split()])
            except ValueError as exc:
                raise EntryError(f"non-integer entry in {chunk!r}") from exc
        return cls(rows)

    def to_record(self) -> dict:
        """JSON-ready record with ``shape`` and ``rows`` fields."""
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_record(cls, record: dict) -> "StandardTableau":
        """Inverse of to_record; the shape field must match the rows."""
        try:
            tableau, shape = cls(record["rows"]), tuple(record["shape"])
        except (KeyError, TypeError) as exc:
            raise TableauError(f"malformed tableau record: {exc!r}") from None
        if shape != tableau.shape:
            raise ShapeError(
                f"record shape {record['shape']} does not match rows "
                f"{list(tableau.shape)}"
            )
        return tableau

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardTableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "StandardTableau") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "StandardTableau") -> bool:
        return self.sort_key() <= other.sort_key()

    def __repr__(self) -> str:
        return f"StandardTableau({self.to_text()!r})"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order, (n) first."""
    if n < 0:
        raise TableauError(f"cannot partition {n}")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # decrement the rightmost part that exceeds 1, then re-spread the rest
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        remainder = len(parts) - i
        parts[i] -= 1
        del parts[i + 1:]
        while remainder > 0:
            nxt = min(parts[-1], remainder)
            parts.append(nxt)
            remainder -= nxt


def enumerate_syt(shape: Iterable[int]) -> list[StandardTableau]:
    """Every standard tableau of ``shape``, sorted by row-reading word.

    Grows all partial fillings one entry at a time: entry v may go at
    the end of any row that is shorter than its part and than the row
    above it.
    """
    shape = check_partition(shape)
    fillings = [((),) * len(shape)]
    for v in range(1, sum(shape) + 1):
        fillings = [
            rows[:i] + (row + (v,),) + rows[i + 1:]
            for rows in fillings
            for i, row in enumerate(rows)
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row))
        ]
    # equal shapes make row-by-row order the row-reading-word order
    fillings.sort()
    return [StandardTableau._make(rows) for rows in fillings]


def enumerate_syt_all(n: int) -> Iterator[StandardTableau]:
    """Every standard tableau with n entries, streamed shape by shape.

    Shapes follow enumerate_partitions order; within a shape, tableaux
    follow enumerate_syt order.
    """
    for shape in enumerate_partitions(n):
        yield from enumerate_syt(shape)
