"""Partitions, Young diagrams, and standard Young tableaux.

Conventions used throughout the package:

* A partition is a plain tuple of positive integers in non-increasing
  order; the empty tuple is the unique partition of 0.
* Cells are 1-based ``(row, col)`` pairs, row 1 at the top, column 1 at
  the left.
* Tableaux are immutable.  The public constructor validates its input;
  tableaux the package derives from valid ones skip that check.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from math import fsum, lgamma, log, prod
from operator import ge, itemgetter, lt


class TableauError(ValueError):
    """Base class for all domain errors raised by this package."""


class ShapeError(TableauError):
    """Row lengths do not form a partition."""


class EntryError(TableauError):
    """Entries are not a permutation of 1..n."""


class OrderError(TableauError):
    """A row or column is not strictly increasing."""


class ResourceLimitError(TableauError):
    """Requested computation exceeds a fixed size cap."""


class _Record:
    """An immutable value with its class's ``__slots__`` as fields, built by
    position or keyword.  Equality, hash, repr and pickling follow its exact
    type and field values; setting or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the fields past the positional ones, in field order
            args += tuple(kwargs.pop(f) for f in names[len(args):] if f in kwargs)
        # a missing, extra, unknown or twice-given field fails here
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


# most tableaux an exhaustive walk covers: all of 𝒴ₙ for census and the
# suites (n <= 13), one shape (of at most as many cells) for enumerate_syt;
# census time grows ~4x per size (set mode, 2-core Xeon, by the CLI: 0.2 s
# at n = 11, 0.55 s at n = 12, and 2.1-2.7 s with 64 MB peak RSS at n = 13)
CENSUS_CAP = 10**6
# most entries enumerate_syt holds, f^shape * n: every shape with n <= 15
# fits; near the bound (3161, 1) peaks at 92 MB, (7,3,2,2,1,1) at 254 MB
_MAX_ENTRIES = 10**7


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


def is_rectangular(shape: Iterable[int]) -> bool:
    """True iff all parts are equal (vacuously true for the empty shape)."""
    shape = check_partition(shape)
    return all(p == shape[0] for p in shape)


class StandardTableau:
    """A standard Young tableau: 1..n filled into a Young diagram.

    Rows increase left to right, columns increase top to bottom, every
    entry of 1..n appears exactly once.  The empty tableau (n = 0) is a
    valid first-class value.  Instances are immutable; do not mutate
    ``rows`` after construction.
    """

    __slots__ = ("rows", "shape", "_hash")

    def __init__(self, rows: Iterable[Iterable[int]]):
        # checks run as C-level passes; messages are built only on failure
        self.rows = rows = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise EntryError("entries must be integers (bool excluded)")
        self.shape = check_partition(map(len, rows))
        n = sum(self.shape)
        seen = sorted(chain.from_iterable(rows))
        if seen != list(range(1, n + 1)):
            i, v = next((i, v) for i, v in enumerate(seen, 1) if v != i)
            raise EntryError(
                f"entries are not a permutation of 1..{n} (expected {i}, found {v})"
            )
        for i, row in enumerate(rows, 1):
            if not all(map(lt, row, row[1:])):
                raise OrderError(f"row {i} is not strictly increasing")
        # rows shrink downward, so map pairs each cell with the one below it
        below = [list(map(lt, upper, lower)) for upper, lower in zip(rows, rows[1:])]
        if not all(map(all, below)):
            bad = min(flags.index(False) for flags in below if not all(flags))
            raise OrderError(f"column {bad + 1} is not strictly increasing")
        self._hash = hash(rows)

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

    def cell_of(self, value: int) -> Cell:
        """1-based (row, col) cell holding ``value``."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return (i + 1, j + 1)
        raise EntryError(f"{value} does not occur in the tableau")

    def sort_key(self) -> tuple[Partition, tuple[tuple[int, ...], ...]]:
        """Canonical order key: shape lexicographic, then row word (equal
        shapes have equal row lengths, so their rows compare as the words)."""
        return (self.shape, self.rows)

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
                rows.append(list(map(int, chunk.split())))
            except ValueError as exc:
                raise EntryError(f"non-integer entry in {chunk!r}") from exc
        return cls(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardTableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "StandardTableau") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"StandardTableau({self.to_text()!r})"


class _RowMemo(dict):
    """Row text to row tuple, for the member lines of one deck, which
    share most of their rows.  A text that is not a strictly increasing
    row of integers raises ValueError and is not kept."""

    def __missing__(self, text: str) -> tuple[int, ...]:
        row = tuple(map(int, text.split()))
        if not all(map(lt, row, row[1:])):
            raise ValueError(text)
        self[text] = row
        return row

    def tableau(self, text: str) -> StandardTableau:
        """``StandardTableau.from_text(text)`` with the rows read through
        the memo, so only the checks that span rows run per text.  A text
        these refuse is read again by ``from_text``, which raises its own
        error or accepts it (the empty tableau).  Rows are split at " / ",
        as to_text joins them, so a row's text is the same wherever it
        sits; with other spacing a "/" stays in a row text and fails it."""
        try:
            rows = tuple(map(self.__getitem__, text.split(" / ")))
        except ValueError:
            return StandardTableau.from_text(text)
        shape = tuple(map(len, rows))
        n = sum(shape)
        if (
            shape[-1]
            and all(map(ge, shape, shape[1:]))
            # each row against the row below it, cell by cell
            and all(map(all, map(map, repeat(lt), rows, rows[1:])))
            # so rows[0][0] is the least entry and a row's last the greatest
            and rows[0][0] >= 1
            and max(map(itemgetter(-1), rows)) <= n
            and len(set(chain.from_iterable(rows))) == n
        ):
            return StandardTableau._make(rows)
        return StandardTableau.from_text(text)


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


def _conjugate(shape: Partition) -> Partition:
    """The column lengths of ``shape``."""
    cols: list[int] = []
    for i in range(len(shape), 0, -1):
        cols += [i] * (shape[i - 1] - len(cols))
    return tuple(cols)


def _hooks(shape: Partition) -> list[int]:
    """The hook length of every cell of ``shape``, row by row."""
    cols = _conjugate(shape)
    return [p - j + cols[j] - i - 1 for i, p in enumerate(shape) for j in range(p)]


def _syt_count(shape: Partition) -> int:
    """f^shape, the number of standard tableaux of ``shape``, by the
    hook-length formula: n! over the product of the hook lengths.  The
    factors 1..n and the hooks cancel as multisets first; near a row or
    a column nearly all of them do, so a long shape stays cheap."""
    hooks, factors = Counter(_hooks(shape)), Counter(range(1, sum(shape) + 1))
    return prod((factors - hooks).elements()) // prod((hooks - factors).elements())


def _capped(shape: Partition) -> Partition:
    """``shape``, refused if it has more than CENSUS_CAP cells or more
    than _MAX_ENTRIES entries in all (f^shape * n), which also bounds
    f^shape by CENSUS_CAP (f^shape <= 216 for n <= 9).  A float estimate
    of log f^shape refuses a shape far over the cap; the exact count,
    whose big-integer products take minutes for a million cells far from
    a row, decides the rest.
    """
    n = sum(shape)
    if (
        n > CENSUS_CAP
        or lgamma(n + 1) - fsum(map(log, _hooks(shape))) > log(CENSUS_CAP) + 1
        or _syt_count(shape) * n > _MAX_ENTRIES
    ):
        raise ResourceLimitError(
            f"shape {shape} exceeds the cap of {CENSUS_CAP} cells or tableaux "
            f"or {_MAX_ENTRIES} entries"
        )
    return shape


def enumerate_syt(shape: Iterable[int]) -> list[StandardTableau]:
    """Every standard tableau of ``shape``, sorted by row-reading word.

    Refuses a shape over the caps of _capped.  Fills rows in place, depth
    first: entry v may end any row shorter than its part and than the row
    above, and a shape taller than wide is filled by columns alike.  Each
    partial filling extends to a tableau, so this costs O(f^shape * n).
    """
    shape = _capped(check_partition(shape))
    flip = bool(shape) and len(shape) > shape[0]
    lines = _conjugate(shape) if flip else shape
    n, k = sum(shape), len(lines)
    rows, path, fillings = [[] for _ in shape], [], []
    lens = [n + 1] + [0] * k  # lens[i + 1] is the length of line i
    entries = list(range(n + 1))  # one int object per entry for all fillings
    shared: dict = {}  # equal rows of different fillings share one tuple
    v, i = 1, 0  # entry v goes next, on line i or the first valid line after
    while True:
        if v > n:
            full = list(map(tuple, rows))
            fillings.append(tuple(map(shared.setdefault, full, full)))
            i = k
        # line i takes v if it is shorter than the line before and its part
        while i < k and not lens[i] > lens[i + 1] < lines[i]:
            i += 1
        if i < k:
            rows[lens[i + 1] if flip else i].append(entries[v])
            lens[i + 1] += 1
            path.append(i)
            v, i = v + 1, 0
        elif path:
            i = path.pop()
            lens[i + 1] -= 1
            rows[lens[i + 1] if flip else i].pop()
            v, i = v - 1, i + 1
        else:
            break
    # equal shapes make row-by-row order the row-reading-word order
    fillings.sort()
    return list(map(StandardTableau._make, fillings))


def enumerate_syt_all(n: int) -> Iterator[StandardTableau]:
    """Every standard tableau with n entries, streamed shape by shape.

    Shapes follow enumerate_partitions order; within a shape, tableaux
    follow enumerate_syt order.  Before the first tableau, the shapes are
    checked in that order up to the first over the caps of _capped, which
    is refused.
    """
    for shape in list(map(_capped, enumerate_partitions(n))):
        yield from enumerate_syt(shape)
