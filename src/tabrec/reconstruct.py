"""Reconstructing a tableau from the set or multiset of its 1-minors.

The constructive pipeline recovers, in order: the shape, the cell of the
largest entry n, and the deck of the size-(n-1) tableau obtained by
deleting n.  One pass per level repeats this on the reduced deck until
a shape is decided directly: single rows and columns, two-row (or
two-column) shapes whose second line has one cell, and the shapes (3,2)
and (2,2,1), which are matched against a frozen table of their five
possible decks; then each level's n goes back in at its located cell.
A level is a map from each member's packed row word (as in
taquin._grow) to its shape, so reducing it is a mask and one shorter
row; only the base level is decoded, once, into the Deck that
reconstruct_base takes.  The candidate is re-checked by comparing its
1-minors' words, from the slide-free recurrence, with the input's.
The pipeline is complete for n >= 5; for n <= 4 exhaustive search gives
a total answer (Unique, Ambiguous with all candidates, or Invalid).
"""

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest

from .core import (
    Cell,
    Partition,
    StandardTableau,
    TableauError,
    enumerate_syt_all,
    is_rectangular,
    outer_corners,
)
from .taquin import (
    Deck,
    DeckMultiset,
    NotADeckError,
    _minor_words,
    _tableau_of,
    _word_of,
    minor_multiset,
    minor_set,
)


class TooSmallError(TableauError):
    """Tableau size below the operation's range."""


class UnsupportedShapeError(TableauError):
    """Shape is not one of the directly decidable base shapes."""


class NoMatchError(TableauError):
    """Deck matches no tableau of the given base shape."""


@dataclass(frozen=True)
class Unique:
    """Exactly one tableau has the input deck."""

    tableau: StandardTableau


@dataclass(frozen=True)
class Ambiguous:
    """Two or more tableaux share the input deck; all are listed."""

    candidates: tuple[StandardTableau, ...]

    def __post_init__(self):
        ordered = tuple(
            sorted(set(self.candidates), key=StandardTableau.sort_key)
        )
        if len(ordered) < 2:
            raise TableauError("ambiguous outcome needs at least two candidates")
        object.__setattr__(self, "candidates", ordered)


@dataclass(frozen=True)
class Invalid:
    """No tableau has the input deck."""

    reason: str


Outcome = Unique | Ambiguous | Invalid


def format_outcome(outcome: Outcome) -> str:
    """Text form: ``unique <t>``, ``ambiguous <count>`` plus candidate
    lines, or ``invalid <reason>``."""
    if isinstance(outcome, Unique):
        return f"unique {outcome.tableau.to_text()}"
    if isinstance(outcome, Ambiguous):
        lines = [f"ambiguous {len(outcome.candidates)}"]
        lines.extend(t.to_text() for t in outcome.candidates)
        return "\n".join(lines)
    return f"invalid {outcome.reason}"


def _check_one_minor_deck(deck: Deck) -> None:
    if deck.k != 1:
        raise NotADeckError(f"expected a deck of 1-minors, got k={deck.k}")
    if not deck.members:
        raise NotADeckError("empty deck")


def reconstruct_shape(deck: Deck) -> Partition:
    """Shape of the tableau whose set of 1-minors is ``deck``.

    If the members show two or more shapes, the shape is their cellwise
    union.  If they all share one shape, the tableau is rectangular and
    the shape is recovered by re-adding the removed corner: extend a
    single row (or column) by one cell, otherwise add 1 to the last
    part.  Requires n >= 3; decks of smaller tableaux do not determine
    the shape.
    """
    _check_one_minor_deck(deck)
    return _shape(deck.n, {member.shape for member in deck.members})


def _shape(n: int, shapes: set[Partition]) -> Partition:
    """reconstruct_shape from the set of the members' shapes."""
    if n < 3:
        raise TooSmallError(f"shape is not determined for n={n} < 3")
    if len(shapes) == 1:
        (mu,) = shapes
        if len(mu) == 1:
            shape = (mu[0] + 1,)
        elif mu[0] == 1:
            shape = (1,) * (len(mu) + 1)
        else:
            shape = mu[:-1] + (mu[-1] + 1,)
        if not is_rectangular(shape):  # raises ShapeError for a non-partition
            raise NotADeckError(
                f"members share shape {mu} but no rectangle yields it"
            )
    else:
        shape = tuple(map(max, zip_longest(*shapes, fillvalue=0)))
    if sum(shape) != n:
        raise NotADeckError(
            f"inferred shape {shape} has {sum(shape)} cells, expected {n}"
        )
    return shape


def locate_max(deck: Deck) -> Cell:
    """Cell of the largest entry n in the tableau behind ``deck``.

    A lone outer corner must hold n.  Otherwise, n shows up as n-1 at
    its own corner in every member vacating a different corner, while
    any other corner shows n-1 at most once; so a corner showing n-1 in
    two or more members holds n, and a corner showing a smaller value in
    any member cannot.  The one shape where neither test decides - a
    rectangle with a single extra cell at the end of the first row or
    below the last - puts n in that extra cell, which is unambiguous
    once n >= 4.
    """
    _check_one_minor_deck(deck)
    shape = reconstruct_shape(deck) if deck.n >= 4 else ()
    return _locate(deck.n, shape, _tops(deck))


def _tops(deck: Deck) -> list[tuple[Partition, Cell]]:
    """Each member's shape and the cell of its largest entry n - 1."""
    return [
        (member.shape, (r, len(row)))
        for member in deck.members
        for r, row in enumerate(member.rows, 1)
        if row[-1] == deck.n - 1
    ]


def _locate(n: int, shape: Partition, tops) -> Cell:
    """locate_max from the shape and, for each distinct member, its shape
    and the cell of its n-1.  A member shows n-1 exactly at that cell and
    a smaller entry at every other cell its shape covers."""
    if n < 4:
        raise TooSmallError(f"location of n is not determined for n={n} < 4")
    corners = outer_corners(shape)
    if len(corners) == 1:
        return corners[0]
    shown = [cell for _, cell in tops]
    pinned = [corner for corner in corners if shown.count(corner) >= 2]
    if len(pinned) == 1:
        return pinned[0]
    if len(pinned) > 1:
        raise NotADeckError("two corners each show n-1 twice")

    candidates = [
        (r, c)
        for r, c in corners
        if not any(
            cell != (r, c) and r <= len(member_shape) and member_shape[r - 1] >= c
            for member_shape, cell in tops
        )
    ]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise NotADeckError("every corner is excluded by a smaller entry")

    # rectangle plus one cell: the extra cell is the only possible home for n
    if len(shape) >= 2 and shape[0] == shape[1] + 1 and len(set(shape[1:])) == 1:
        return (1, shape[0])
    if shape[-1] == 1 and len(set(shape[:-1])) == 1 and shape[0] >= 2:
        return (len(shape), 1)
    raise NotADeckError("location of n is not determined by the deck")


def reduce_deck(deck: Deck) -> Deck:
    """Deck of T - n, obtained by deleting n-1 from every member.

    In every 1-minor of T the entry n-1 is the largest, so it ends its
    row in an outer corner: deleting it drops that cell, with no slide
    and no renumbering.  Deduplication absorbs the one coincidence
    (deleting n-1 from T-(n-1) and from T-n gives the same tableau).
    """
    _check_one_minor_deck(deck)
    n = deck.n
    if n < 2:
        raise NotADeckError(f"no deck to reduce at n={n}")
    top = n - 1
    members = [
        StandardTableau._make(
            row[:-1] if row[-1] == top else row
            for row in member.rows
            if row != (top,)
        )
        for member in deck.members
    ]
    return Deck(members, 1, top)


_BASE_32_TEXT = {
    "1 2 3 / 4 5": ("1 2 / 3 4", "1 2 3 / 4"),
    "1 2 4 / 3 5": ("1 3 / 2 4", "1 2 3 / 4", "1 2 / 3 4", "1 2 4 / 3"),
    "1 3 4 / 2 5": ("1 2 3 / 4", "1 3 / 2 4", "1 3 4 / 2"),
    "1 2 5 / 3 4": ("1 3 4 / 2", "1 2 4 / 3", "1 2 / 3 4"),
    "1 3 5 / 2 4": ("1 2 4 / 3", "1 3 4 / 2", "1 3 / 2 4"),
}

_DECK_TABLE_32 = {
    frozenset(members): StandardTableau.from_text(text)
    for text, members in _BASE_32_TEXT.items()
}


def _is_base_shape(shape: Partition, n: int) -> bool:
    return (
        shape == (n,)
        or shape == (1,) * n
        or (n >= 4 and shape == (n - 1, 1))
        or (n >= 4 and shape == (2,) + (1,) * (n - 2))
        or shape == (3, 2)
        or shape == (2, 2, 1)
    )


def reconstruct_base(deck: Deck, shape: Partition) -> StandardTableau:
    """The unique tableau of a base shape whose set of 1-minors is ``deck``.

    Base shapes: (n) and its transpose (filled the only possible way),
    (n-1,1) and its transpose for n >= 4 (the second-row cell holds n if
    the largest entry is located there, else the largest value seen in
    any member's second row), and (3,2) with its transpose (looked up in
    the table of the five possible decks).  ``shape`` must be the deck's
    shape, as reconstruct_shape gives it.
    """
    n = deck.n
    if shape == (n,):
        return StandardTableau._make([range(1, n + 1)])
    if shape == (1,) * n:
        return StandardTableau._make([v] for v in range(1, n + 1))
    if n >= 4 and shape == (n - 1, 1):
        second = max(
            (
                member.entry_at((2, 1))
                for member in deck.members
                if len(member.shape) == 2
            ),
            default=0,
        )
        if second < 2:
            raise NoMatchError("no member shows a second-row entry")
        if _locate(n, shape, _tops(deck)) == (2, 1):
            return StandardTableau._make([range(1, n), [n]])
        return StandardTableau._make(
            [[v for v in range(1, n + 1) if v != second], [second]]
        )
    if n >= 4 and shape == (2,) + (1,) * (n - 2):
        flipped = reconstruct_base(deck.transpose(), (n - 1, 1))
        return flipped.transpose()
    if shape == (3, 2):
        key = frozenset(member.to_text() for member in deck.members)
        try:
            return _DECK_TABLE_32[key]
        except KeyError:
            raise NoMatchError(
                "deck matches none of the five shape-(3,2) decks"
            ) from None
    if shape == (2, 2, 1):
        flipped = reconstruct_base(deck.transpose(), (3, 2))
        return flipped.transpose()
    raise UnsupportedShapeError(f"{shape} is not a base shape")


def _reconstruct_inductive(deck: Deck) -> tuple[StandardTableau, dict, list[int]]:
    """Pipeline of shape recovery, max location and level reduction.

    Reduces the level down to a base shape, then inserts each level's n
    at its located cell, innermost first.  Returns the candidate, the
    word of each deck member and the words of the candidate's 1-minors,
    all packed at one width.  Never falls back to exhaustive search, so a
    deck that is not a genuine 1-minor set surfaces as an error somewhere
    along the pipeline or in the caller's comparison of the words.
    """
    n = deck.n
    shape = reconstruct_shape(deck)
    # members have at most len(shape) rows, and no level's shape, so no
    # candidate, has more than one row beyond theirs: every 0-based row is
    # at most len(shape) < 2**width
    width = len(shape).bit_length()
    words = {member: _word_of(member, width) for member in deck.members}
    level = {word: member.shape for member, word in words.items()}
    cells = []
    while not _is_base_shape(shape, n):
        shift = width * (n - 2)  # bits of each member's largest entry n-1
        low = (1 << shift) - 1
        tops, reduced = [], {}
        for word, member_shape in level.items():
            r = word >> shift
            length = member_shape[r]
            tops.append((member_shape, (r + 1, length)))
            reduced[word & low] = (
                member_shape[:r] + (length - 1,) + member_shape[r + 1:]
                if length > 1
                else member_shape[:r]
            )
        cells.append(_locate(n, shape, tops))
        level, n = reduced, n - 1
        shape = _shape(n, set(level.values()))
    base = Deck((_tableau_of(word, n - 1, width) for word in level), 1, n)
    rows = [list(row) for row in reconstruct_base(base, shape).rows]
    for cell in reversed(cells):
        r, c = cell
        n += 1
        if r == len(rows) + 1 and c == 1:
            rows.append([n])
        elif 1 <= r <= len(rows) and c == len(rows[r - 1]) + 1:
            rows[r - 1].append(n)
        else:
            raise NotADeckError(
                f"cell {cell} is not addable to shape {tuple(map(len, rows))}"
            )
    candidate = StandardTableau._make(rows)
    return candidate, words, _minor_words(candidate, width)


def _exhaustive_set(deck: Deck | DeckMultiset) -> Outcome:
    """Outcome by trying every size-n tableau; ``deck`` may be a multiset."""
    kind = "multiset" if isinstance(deck, DeckMultiset) else "set"
    minors = minor_multiset if kind == "multiset" else minor_set
    candidates = [
        t for t in enumerate_syt_all(deck.n) if minors(t, 1) == deck
    ]
    if not candidates:
        return Invalid(f"no tableau has this {kind} of 1-minors")
    if len(candidates) == 1:
        return Unique(candidates[0])
    return Ambiguous(tuple(candidates))


def reconstruct_from_set(deck: Deck) -> Outcome:
    """Tableaux whose set of 1-minors is ``deck``, as an outcome value.

    For n >= 5 the constructive pipeline runs, and its single candidate
    is checked against the input deck before being reported Unique; any
    failure along the way means no tableau fits, reported Invalid.  For
    n <= 4 exhaustive search settles the question, so the small
    ambiguous decks come back Ambiguous with every candidate listed.
    """
    if deck.k != 1:
        return Invalid(f"expected a deck of 1-minors, got k={deck.k}")
    if deck.n <= 4:
        return _exhaustive_set(deck)
    try:
        candidate, words, minors = _reconstruct_inductive(deck)
    except TableauError as exc:
        return Invalid(str(exc))
    if set(minors) != set(words.values()):
        return Invalid("reconstructed candidate has a different deck")
    return Unique(candidate)


def reconstruct_from_multiset(cards: DeckMultiset) -> Outcome:
    """Tableaux whose multiset of 1-minors is ``cards``, as an outcome.

    For n >= 5 the support already determines the tableau: the pipeline
    runs on it, and the candidate's multiset re-checks the support, then
    the multiplicities.  For n <= 4 exhaustive search compares multisets,
    which splits decks the coarser set comparison conflates.
    """
    if cards.k != 1:
        return Invalid(f"expected a deck of 1-minors, got k={cards.k}")
    if cards.n <= 4:
        return _exhaustive_set(cards)
    support = cards.support()
    try:
        candidate, words, minors = _reconstruct_inductive(support)
    except TableauError as exc:
        return Invalid(str(exc))
    if set(minors) != set(words.values()):
        return Invalid("reconstructed candidate has a different deck")
    if Counter(minors) != Counter({words[m]: mult for m, mult in cards}):
        return Invalid("reconstructed candidate has a different multiset")
    return Unique(candidate)
