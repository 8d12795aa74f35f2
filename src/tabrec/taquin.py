"""Jeu-de-taquin deletion and k-minor decks.

Deleting entry m from a tableau vacates its cell, slides the hole right
or down (always swapping with the smaller of the two neighbouring
entries) until it reaches an outer corner, removes that corner, and
renumbers every entry p > m to p - 1.  A k-minor is the result of k
successive deletions.
"""

from collections import Counter
from typing import Iterable

from .core import (
    Cell,
    StandardTableau,
    TableauError,
)


class OutOfRangeError(TableauError):
    """Entry or minor order outside the valid range."""


class NotADeckError(TableauError):
    """Input cannot be a deck of k-minors."""


def _slide(tableau: StandardTableau, m: int) -> tuple[list[Cell], list[list[int]]]:
    """Vacate the cell of m and slide the hole to an outer corner.

    Returns the hole's cell trajectory (1-based, starting at m's cell)
    and the rows after sliding, with the vacated corner removed but
    entries not yet renumbered.
    """
    n = tableau.n
    if not 1 <= m <= n:
        raise OutOfRangeError(f"entry {m} outside 1..{n}")
    rows = [list(row) for row in tableau.rows]
    r, c = tableau.cell_of(m)
    i, j = r - 1, c - 1
    path = [(r, c)]
    while True:
        has_right = j + 1 < len(rows[i])
        has_below = i + 1 < len(rows) and j < len(rows[i + 1])
        if has_right and has_below:
            # entries are distinct, so the comparison never ties
            assert rows[i][j + 1] != rows[i + 1][j]
            go_right = rows[i][j + 1] < rows[i + 1][j]
        elif has_right or has_below:
            go_right = has_right
        else:
            break
        if go_right:
            rows[i][j] = rows[i][j + 1]
            j += 1
        else:
            rows[i][j] = rows[i + 1][j]
            i += 1
        path.append((i + 1, j + 1))
    rows[i].pop()
    if not rows[i]:
        del rows[i]
    return path, rows


def delete_entry(tableau: StandardTableau, m: int) -> StandardTableau:
    """The 1-minor obtained by deleting entry m (size n - 1).

    Deleting the single entry of a one-cell tableau yields the empty
    tableau.
    """
    _, rows = _slide(tableau, m)
    return StandardTableau._make(
        [[v - 1 if v > m else v for v in row] for row in rows]
    )


def slide_path(tableau: StandardTableau, m: int) -> tuple[Cell, ...]:
    """Cell trajectory of the hole when deleting entry m.

    Starts at m's cell, each step goes one cell right or down, and the
    final cell is an outer corner of the original shape.
    """
    path, _ = _slide(tableau, m)
    return tuple(path)


def _check_sizes(members, k: int, n: int, noun: str) -> None:
    """Deck members must have n - k entries, with integers k in 0..n."""
    if type(k) is not int or type(n) is not int:
        raise OutOfRangeError(f"k={k!r} and n={n!r} must be integers")
    if not 0 <= k <= n:
        raise OutOfRangeError(f"minor order {k} outside 0..{n}")
    for member in members:
        if member.n != n - k:
            raise NotADeckError(
                f"{noun} {member.to_text()!r} has {member.n} entries, "
                f"expected {n - k}"
            )


class Deck:
    """The set of k-minors of a size-n tableau.

    Members are stored deduplicated and sorted in canonical order
    (shape-lexicographic, then row-reading word).
    """

    __slots__ = ("members", "k", "n")

    def __init__(self, members: Iterable[StandardTableau], k: int, n: int):
        self.members = tuple(sorted(set(members), key=StandardTableau.sort_key))
        self.k = k
        self.n = n
        _check_sizes(self.members, k, n, "member")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Deck):
            return NotImplemented
        return (self.n, self.k, self.members) == (other.n, other.k, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, tableau) -> bool:
        return tableau in self.members

    def __repr__(self) -> str:
        return f"Deck(k={self.k}, n={self.n}, size={len(self.members)})"

    def transpose(self) -> "Deck":
        """Deck with every member transposed."""
        return Deck((m.transpose() for m in self.members), self.k, self.n)

    def to_text(self) -> str:
        """Header line plus one member per line, canonical order."""
        lines = [f"deck k={self.k} n={self.n} size={len(self.members)}"]
        lines.extend(member.to_text() for member in self.members)
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Deck":
        k, n, members = _parse_deck_lines(text, multiset=False)
        if len(set(members)) != len(members):
            raise NotADeckError("duplicate members in deck text")
        return cls(members, k, n)


class DeckMultiset:
    """The multiset of k-minors, cards stored as (member, multiplicity) pairs.

    Cards are sorted in canonical member order with positive
    multiplicities, so equal multisets have identical representations.
    For k = 1 the total multiplicity is the source size n (one card per
    deleted entry).  For k >= 2 each ordered deletion sequence counts
    once; this is a documented refinement, since distinct sequences can
    reach the same minor.
    """

    __slots__ = ("cards", "k", "n")

    def __init__(
        self,
        cards: Iterable[tuple[StandardTableau, int]],
        k: int,
        n: int,
    ):
        counts: Counter = Counter()
        for member, mult in cards:
            if type(mult) is not int or mult < 1:
                raise NotADeckError(
                    f"multiplicity {mult!r} is not a positive integer"
                )
            counts[member] += mult
        self.cards = tuple(
            sorted(counts.items(), key=lambda item: item[0].sort_key())
        )
        self.k = k
        self.n = n
        _check_sizes((m for m, _ in self.cards), k, n, "card")
        if self.k == 1 and self.total() != self.n:
            raise NotADeckError(
                f"1-minor multiset has total multiplicity {self.total()}, "
                f"expected {self.n}"
            )

    def total(self) -> int:
        """Number of cards counted with multiplicity."""
        return sum(mult for _, mult in self.cards)

    def counter(self) -> Counter:
        """Cards as a Counter keyed by member."""
        return Counter(dict(self.cards))

    def support(self) -> Deck:
        """The underlying set of distinct members."""
        return Deck((member for member, _ in self.cards), self.k, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeckMultiset):
            return NotImplemented
        return (self.n, self.k, self.cards) == (other.n, other.k, other.cards)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.cards))

    def __len__(self) -> int:
        return len(self.cards)

    def __iter__(self):
        return iter(self.cards)

    def __repr__(self) -> str:
        return (
            f"DeckMultiset(k={self.k}, n={self.n}, size={len(self.cards)}, "
            f"total={self.total()})"
        )

    def to_text(self) -> str:
        """Like Deck.to_text but each line carries an ` x<multiplicity>` suffix."""
        lines = [f"deck k={self.k} n={self.n} size={len(self.cards)}"]
        lines.extend(
            f"{member.to_text()} x{mult}" for member, mult in self.cards
        )
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "DeckMultiset":
        k, n, cards = _parse_deck_lines(text, multiset=True)
        return cls(cards, k, n)


def _parse_deck_lines(text: str, multiset: bool):
    """Parse a deck header plus member lines; shared by both formats.

    Member lines may be empty (the empty tableau), so lines are split
    verbatim; one trailing newline beyond the member count is tolerated.
    """
    if not text.strip():
        raise NotADeckError("empty deck text")
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "deck":
        raise NotADeckError(f"bad deck header {lines[0]!r}")
    try:
        fields = dict(item.split("=", 1) for item in header[1:])
        k = int(fields["k"])
        n = int(fields["n"])
        size = int(fields["size"])
    except (ValueError, KeyError) as exc:
        raise NotADeckError(f"bad deck header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) == size + 1 and body[-1] == "":
        body.pop()
    if len(body) != size:
        raise NotADeckError(
            f"header says size={size} but {len(body)} member lines follow"
        )
    if not multiset:
        return k, n, [StandardTableau.from_text(line) for line in body]
    cards = []
    for line in body:
        member_text, sep, mult_text = line.rpartition(" x")
        try:
            if not sep or not mult_text.isdecimal():
                raise ValueError(mult_text)
            mult = int(mult_text)  # fails past int()'s digit limit too
        except ValueError:
            raise NotADeckError(f"missing multiplicity suffix in {line!r}") from None
        cards.append((StandardTableau.from_text(member_text), mult))
    return k, n, cards


def minor_set(tableau: StandardTableau, k: int = 1) -> Deck:
    """All tableaux reachable from ``tableau`` by k successive deletions."""
    n = tableau.n
    if not 0 <= k <= n:
        raise OutOfRangeError(f"minor order {k} outside 0..{n}")
    current = {tableau}
    for _ in range(k):
        current = {
            delete_entry(t, m) for t in current for m in range(1, t.n + 1)
        }
    return Deck(current, k, n)


def minor_multiset(tableau: StandardTableau, k: int = 1) -> DeckMultiset:
    """k-minors counted with multiplicity, one card per deletion sequence."""
    n = tableau.n
    if not 0 <= k <= n:
        raise OutOfRangeError(f"minor order {k} outside 0..{n}")
    current: Counter = Counter({tableau: 1})
    for _ in range(k):
        nxt: Counter = Counter()
        for t, mult in current.items():
            for m in range(1, t.n + 1):
                nxt[delete_entry(t, m)] += mult
        current = nxt
    return DeckMultiset(current.items(), k, n)
