"""Jeu-de-taquin deletion and k-minor decks.

Deleting entry m from a tableau vacates its cell, slides the hole right
or down (always swapping with the smaller of the two neighbouring
entries) until it reaches an outer corner, removes that corner, and
renumbers every entry p > m to p - 1.  A k-minor is the result of k
successive deletions.  Decks walk the hole once per run of entries in
which each next entry sits right of or below the one before, since every
entry of such a run gives the same minor, and splice each minor from T's
own row tuples: only the rows on the hole's path change.
"""

from collections import Counter
from operator import attrgetter, itemgetter

from .core import (
    Cell,
    ResourceLimitError,
    StandardTableau,
    TableauError,
    _Record,
    _RowMemo,
)


class OutOfRangeError(TableauError):
    """Entry or minor order outside the valid range."""


class NotADeckError(TableauError):
    """Input cannot be a deck of k-minors."""


_CANON = attrgetter("shape", "rows")  # StandardTableau.sort_key, in C

# most distinct minors one level of minor_set/minor_multiset may hold.  Levels
# grow fast: on the 55-cell column-filled staircase k = 5, 6, 7 hold 2,064,
# 5,894 and 16,287 members and take about 0.06, 0.2 and 1.0 s (2-core Xeon,
# Python 3.11), so with this cap its --k 20 stops in about 0.9 s instead of
# running for hours
MAX_MINOR_LEVEL = 10**4


def _slide(tableau: StandardTableau, m: int) -> tuple[list[Cell], list[list[int]]]:
    """Vacate the cell of m and slide the hole to an outer corner.

    m is checked against 1..n.  Returns the hole's cell trajectory
    (1-based, starting at m's cell) and the rows after sliding, with the
    vacated corner removed.  Every entry p > m is renumbered to p - 1
    while the rows are copied; that keeps their order, so the slide moves
    the same entries.
    """
    n = tableau.n
    if not 1 <= m <= n:
        raise OutOfRangeError(f"entry {m} outside 1..{n}")
    r, c = tableau.cell_of(m)
    rows = [[v - 1 if v > m else v for v in row] for row in tableau.rows]
    i, j, path = r - 1, c - 1, [(r, c)]
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
    return StandardTableau._make(_slide(tableau, m)[1])


def slide_path(tableau: StandardTableau, m: int) -> tuple[Cell, ...]:
    """Cell trajectory of the hole when deleting entry m.

    Starts at m's cell, each step goes one cell right or down, and the
    final cell is an outer corner of the original shape.
    """
    return tuple(_slide(tableau, m)[0])


# a walk node is (word, row lengths, minor words, slide path ends); the root
# is the empty tableau
_ROOT = (0, (), [], [])


def _grow(node, width: int, leaf: bool = False) -> list:
    """The tableaux grown from ``node`` by its next entry n at each cell
    that can take it, top row first, as walk nodes, or with ``leaf`` as
    (word, minors).

    A word holds the 0-based row of entry v in bits width*(v-1) to
    width*v - 1, so at most 2**width rows; minors[m - 1] is the word of
    T - m, and a cell is packed as col << width | row.  Let T add n at
    cell c of P, and q end m's slide path in P.  If c is right of or
    below q, the slide in T goes on into c, so T - m is P - m with n - 1
    at q and the path ends at c; otherwise T - m is P - m with n - 1 at c
    and the path still ends at q.  T - n = P.  So no minor needs a slide.
    """
    word, lens, minors, ends = node
    p = len(minors)
    grown = []
    for r, col in enumerate(lens + (0,)):
        if r and lens[r - 1] == col:
            continue  # the row above is no longer, so no cell here
        cell = col << width | r
        if r:
            up = cell - 1
            here = r << width * (p - 1)  # bits of the new entry n - 1 in T - m
            above = here - (1 << width * (p - 1))
            kids = [m | (above if q == up else here) for m, q in zip(minors, ends)]
        else:  # n - 1 lands in row 0 of every T - m, so no word changes
            up = -1
            kids = minors[:]
        kids.append(word)
        child = word | r << width * p
        if leaf:
            grown.append((child, kids))
            continue
        left = cell - (1 << width)
        kid_ends = [cell if q == left or q == up else q for q in ends]
        kid_ends.append(cell)
        grown.append((child, lens[:r] + (col + 1,) + lens[r + 1:], kids, kid_ends))
    return grown


def _minor_counts(tableau: StandardTableau, word: int, width: int) -> dict:
    """Each 1-minor's packed row word (as in _grow) mapped to the number of
    entries whose deletion gives it, by one slide per run (see _minors).

    T - m's word is T's, ``word``, with m's bits cut out and the higher
    entries shifted down one place; then each entry the hole passes on a
    down step moves up one row.  The hole only meets cells it has not yet
    passed, so the slide reads T's own rows, and an empty one below them.
    """
    rows = tableau.rows + ((),)
    counts: dict = {}
    for m, (i, j), run in _segment_ends(tableau):
        if not run:
            continue
        low = width * (m - 1)
        minor = (word & (1 << low) - 1) | (word >> low + width) << low
        row, below = rows[i], rows[i + 1]
        while j < len(below):  # past below's end the hole only moves right
            if j + 1 < len(row) and row[j + 1] < below[j]:
                j += 1
            else:
                minor -= 1 << width * (below[j] - 2)
                i, row, below = i + 1, below, rows[i + 2]
        counts[minor] = counts.get(minor, 0) + run
    return counts


def _tableau_of(word: int, n: int, width: int) -> StandardTableau:
    """The size-n tableau with packed row word ``word``."""
    rows: list[list[int]] = [[] for _ in range(n)]
    mask = (1 << width) - 1
    for v in range(1, n + 1):
        rows[word >> width * (v - 1) & mask].append(v)
    return StandardTableau._make(row for row in rows if row)


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


def _check_cards(cards, k: int, n: int) -> None:
    """_check_sizes for cards, and for k = 1 a total multiplicity of n."""
    _check_sizes(map(itemgetter(0), cards), k, n, "card")
    if k == 1 and (total := sum(map(itemgetter(1), cards))) != n:
        raise NotADeckError(
            f"1-minor multiset has total multiplicity {total}, expected {n}"
        )


def _by_member(cards) -> tuple:
    """Cards of distinct members in canonical member order, by C-level keys."""
    keys = map(_CANON, map(itemgetter(0), cards))
    return tuple(map(itemgetter(1), sorted(zip(keys, cards))))


class Deck(_Record):
    """The set of k-minors of a size-n tableau.

    Members, from any iterable, are stored deduplicated and sorted in
    canonical order (shape-lexicographic, then row-reading word).
    """

    __slots__ = ("members", "k", "n")

    def __init__(self, members, k, n):
        members = tuple(sorted(set(members), key=_CANON))
        _check_sizes(members, k, n, "member")
        super().__init__(members, k, n)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"Deck(k={self.k}, n={self.n}, size={len(self.members)})"

    def to_text(self) -> str:
        """Header line plus one member per line, canonical order."""
        lines = [f"deck k={self.k} n={self.n} size={len(self.members)}"]
        lines.extend(member.to_text() for member in self.members)
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Deck":
        k, n, members = _parse_deck_lines(text, multiset=False)
        members.sort(key=_CANON)  # the reader refused duplicates
        _check_sizes(members, k, n, "member")
        return cls._make(tuple(members), k, n)


class DeckMultiset(_Record):
    """The multiset of k-minors, cards stored as (member, multiplicity) pairs.

    Cards are sorted in canonical member order with positive
    multiplicities, so equal multisets have identical representations.
    For k = 1 the total multiplicity is the source size n (one card per
    deleted entry).  For k >= 2 each ordered deletion sequence counts
    once; this is a documented refinement, since distinct sequences can
    reach the same minor.
    """

    __slots__ = ("cards", "k", "n")

    def __init__(self, cards, k, n):
        counts: Counter = Counter()
        for member, mult in cards:
            if type(mult) is not int or mult < 1:
                raise NotADeckError(
                    f"multiplicity {mult!r} is not a positive integer"
                )
            counts[member] += mult
        cards = _by_member(counts.items())
        _check_cards(cards, k, n)
        super().__init__(cards, k, n)

    def total(self) -> int:
        """Number of cards counted with multiplicity."""
        return sum(map(itemgetter(1), self.cards))

    def counter(self) -> Counter:
        """Cards as a Counter keyed by member."""
        return Counter(dict(self.cards))

    def support(self) -> Deck:
        """The underlying set of distinct members."""
        return Deck._make(tuple(map(itemgetter(0), self.cards)), self.k, self.n)

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
        # the reader refused duplicates and read only decimal digits
        if 0 in map(itemgetter(1), cards):
            raise NotADeckError("multiplicity 0 is not a positive integer")
        cards = _by_member(cards)
        _check_cards(cards, k, n)
        return cls._make(cards, k, n)


def _parse_deck_lines(text: str, multiset: bool):
    """Parse a deck header plus member lines; shared by both formats.

    Member lines may be empty (the empty tableau), so lines are split
    verbatim; one trailing newline beyond the member count is tolerated,
    and so is trailing whitespace on a line, such as a CRLF line end.  A
    member on two lines is refused.
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
    read = _RowMemo().tableau
    if not multiset:
        cards = members = list(map(read, body))
    else:
        cards = []
        for line in body:
            # trailing whitespace (a CRLF line end) goes; a leading space
            # stays, since " x1" is the empty tableau's card
            member_text, sep, mult_text = line.rstrip().rpartition(" x")
            try:
                if not sep or not mult_text.isdecimal():
                    raise ValueError(mult_text)
                mult = int(mult_text)  # fails past int()'s digit limit too
            except ValueError:
                raise NotADeckError(
                    f"missing multiplicity suffix in {line!r}"
                ) from None
            cards.append((read(member_text), mult))
        members = [member for member, _ in cards]
    if len(set(members)) != len(members):
        raise NotADeckError("duplicate members in deck text")
    return k, n, cards


def _segment_ends(tableau: StandardTableau) -> list:
    """(m, m's 0-based cell, run) for each entry m that m + 1 does not
    follow in its row, in increasing order of m: run is the length of the
    run m ends (see _minors), or 0 if m + 1 sits below m and the run goes
    on.  m + 1 is in m's row only right next to it, so these entries end
    the rows' horizontal segments, and a run never ends within one."""
    cells = [(-1, -1)] * (tableau.n + 2)  # cells[v] is v's 0-based cell; row -1 past n
    for i, row in enumerate(tableau.rows):
        for j, v in enumerate(row):
            cells[v] = i, j
    ends, start = [], 0
    for m in range(1, tableau.n + 1):
        i, j = cell = cells[m]
        r, c = cells[m + 1]
        if r != i:
            run = 0 if r == i + 1 and c == j else m - start
            ends.append((m, cell, run))
            start += run
    return ends


def _walk(rows, low, minor: list, i: int, j: int) -> StandardTableau:
    """T - T[i][j], by sliding the hole from 0-based cell (i, j) of T's
    ``rows`` (an empty row below them) on T's own entries and splicing its
    path into ``minor``, T's rows renumbered for the deletion; ``low`` is
    ``rows`` less one at every entry.  A row the hole leaves downward takes
    the entries it passed one cell left and the entry below; the row it
    ends in loses its last cell."""
    a, row, below = j, rows[i], rows[i + 1]
    while j < len(below):
        if j + 1 < len(row) and row[j + 1] < below[j]:
            j += 1
        else:
            tail = low[i][a + 1:j + 1] + (low[i + 1][j],) + low[i][j + 1:]
            minor[i] = minor[i][:a] + tail
            i, a, row, below = i + 1, j, below, rows[i + 2]
    minor[i] = minor[i][:a] + low[i][a + 1:]  # nothing below: on to the end
    if not minor[i]:
        del minor[i]  # a one-cell last row goes
    return StandardTableau._make(minor)


def _one_minors(tableau: StandardTableau) -> list:
    """(T - m, run length) for the last entry m of each run (see _minors).

    ``cur`` holds T's rows with the entries up to m kept and the rest less
    one, renewed once per horizontal segment, at its end (once per entry
    would be O(n^2) on a long row).  Each T - m splices into a copy of it.
    """
    rows = tableau.rows + ((),)
    low = [tuple([v - 1 for v in row]) for row in rows]
    cur, out = low[:-1], []
    for m, (i, j), run in _segment_ends(tableau):
        cur[i] = rows[i][:j + 1] + low[i][j + 1:]
        if run:
            out.append((_walk(rows, low, cur[:], i, j), run))
    return out


def _minors(tableau: StandardTableau, k: int) -> dict:
    """Each k-minor of ``tableau`` mapped to its number of deletion sequences.

    If m + 1 sits right of or below m, deleting m first moves m + 1 into
    m's cell and then slides on as deleting m + 1 does, so T - m = T - (m + 1).
    Each tableau's entries therefore split into runs of such neighbours,
    and one hole walk, of the run's last entry, serves the whole run.
    """
    _check_sizes((), k, tableau.n, "minor")  # so its decks need no check
    # plain dicts: a Counter walk made minor_set about 15% slower at n = 10
    current = {tableau: 1}
    for _ in range(k):
        nxt: dict = {}
        for t, mult in current.items():
            for minor, run in _one_minors(t):
                nxt[minor] = nxt.get(minor, 0) + run * mult
            if len(nxt) > MAX_MINOR_LEVEL:
                raise ResourceLimitError(
                    f"a minor level exceeds the cap of {MAX_MINOR_LEVEL} members"
                )
        current = nxt
    return current


def minor_set(tableau: StandardTableau, k: int = 1) -> Deck:
    """All tableaux reachable from ``tableau`` by k successive deletions."""
    return Deck._make(tuple(sorted(_minors(tableau, k), key=_CANON)), k, tableau.n)


def minor_multiset(tableau: StandardTableau, k: int = 1) -> DeckMultiset:
    """k-minors counted with multiplicity, one card per deletion sequence."""
    return DeckMultiset._make(_by_member(_minors(tableau, k).items()), k, tableau.n)
