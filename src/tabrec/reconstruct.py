"""Reconstructing a tableau from the set or multiset of its 1-minors.

The constructive pipeline recovers, in order: the shape, the cell of the
largest entry n, and the deck of the size-(n-1) tableau obtained by
deleting n.  One pass per level repeats this on the reduced deck until
a shape is decided directly: single rows and columns, two-row (or
two-column) shapes whose second line has one cell, and the shapes (3,2)
and (2,2,1), whose five possible decks are derived from their tableaux;
then each level's n goes back in at its located cell.
A level is a map from each member's packed row word (as in
taquin._add) to its shape, so reducing it is a mask and one shorter
row, and the base case is decided on the base level's words; no level
is decoded into tableaux.  The public Lemma 3.2 and 3.3 functions pack
their deck into a level and run the loop's own core, _reduce.  The
candidate is re-checked by comparing its 1-minors' words, from the
slide-free recurrence, with the input's.
The pipeline is complete for n >= 5; for n <= 4 exhaustive search gives
a total answer (Unique, Ambiguous with all candidates, or Invalid).
"""

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest

from .core import (
    Cell,
    Partition,
    StandardTableau,
    TableauError,
    enumerate_syt,
    enumerate_syt_all,
    is_rectangular,
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


def _check_one_minor_deck(deck: Deck | DeckMultiset) -> None:
    if deck.k != 1:
        raise NotADeckError(f"expected a deck of 1-minors, got k={deck.k}")
    if not len(deck):
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
    n, width = deck.n, deck.n.bit_length()
    if n < 4:  # _locate raises TooSmallError, before _reduce needs a shift
        return _locate(n, (), [])
    shape = reconstruct_shape(deck)
    return _locate(n, shape, _reduce(n, _level(deck.members, width), width)[0])


def _locate(n: int, shape: Partition, tops) -> Cell:
    """locate_max from the shape and, for each distinct member, its shape
    and the cell of its n-1.  A member shows n-1 exactly at that cell and
    a smaller entry at every other cell its shape covers."""
    if n < 4:
        raise TooSmallError(f"location of n is not determined for n={n} < 4")
    corners = [
        (r, p) for r, (p, q) in enumerate(zip(shape, shape[1:] + (0,)), 1) if q < p
    ]
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
    width = n.bit_length()
    reduced = _reduce(n, _level(deck.members, width), width)[1]
    return Deck((_tableau_of(w, n - 2, width) for w in reduced), 1, n - 1)


def _level(members, width: int) -> dict:
    """Each member's packed row word, ``width`` bits per entry, mapped to
    its shape, in the members' order."""
    return {_word_of(m, width): m.shape for m in members}


def _reduce(n: int, level: dict, width: int):
    """Lemmas 3.2 and 3.3 on a level of size-(n-1) members: (tops,
    reduced).  tops lists each member's shape and the cell of its n-1,
    which _locate reads; reduced is the level with n-1 deleted from every
    member, a mask and one shorter row, as n-1 ends its row in a corner."""
    shift = width * (n - 2)  # bits of each member's largest entry n-1
    low = (1 << shift) - 1
    tops, reduced = [], {}
    for word, shape in level.items():
        r = word >> shift
        length = shape[r]
        tops.append((shape, (r + 1, length)))
        reduced[word & low] = (
            shape[:r] + (length - 1,) + shape[r + 1:] if length > 1 else shape[:r]
        )
    return tops, reduced


@functools.cache
def _base_table(shape: Partition, width: int) -> dict:
    """Each tableau of ``shape``, keyed by the set of its 1-minors' words."""
    return {frozenset(_minor_words(t, width)): t for t in enumerate_syt(shape)}


def reconstruct_base(deck: Deck, shape: Partition) -> StandardTableau:
    """The unique tableau of a base shape whose set of 1-minors is ``deck``.

    Base shapes: (n) and its transpose (filled the only possible way),
    (n-1,1) and its transpose for n >= 4 (the cell off the long line
    holds n if the largest entry is located there, else the largest
    value any member shows in that cell), and (3,2) with its transpose
    (matched against the five decks derived from the shape's tableaux).
    The result's deck must be ``deck``, so a ``shape`` that is not the
    deck's raises NoMatchError.
    """
    _check_one_minor_deck(deck)
    width = deck.n.bit_length()  # fits every row index
    level = _level(deck.members, width)
    base = _base(deck.n, shape, level, width)
    if base is None:
        raise UnsupportedShapeError(f"{shape} is not a base shape")
    if set(_minor_words(base, width)) != set(level):
        raise NoMatchError(f"no tableau of shape {shape} has this deck")
    return base


def _base(n: int, shape: Partition, level: dict, width: int):
    """reconstruct_base on a level, each member's packed row word mapped
    to its shape; None if ``shape`` is not a base shape."""
    if shape == (n,):
        return StandardTableau._make([range(1, n + 1)])
    if shape == (1,) * n:
        return StandardTableau._make([v] for v in range(1, n + 1))
    if n >= 4 and (shape == (n - 1, 1) or shape == (2,) + (1,) * (n - 2)):
        # the cell off the long line is (1,2) if the hook is transposed;
        # _locate commutes with transposition, so no member is transposed
        flip = shape[0] == 2
        seconds = [
            t.rows[0][1] if flip else t.rows[1][0]
            for w, s in level.items()
            if (s[0] if flip else len(s)) == 2
            for t in [_tableau_of(w, n - 1, width)]
        ]
        if not seconds:
            line = "column" if flip else "row"
            raise NoMatchError(f"no member shows a second-{line} entry")
        lone = (1, 2) if flip else (2, 1)
        tops = _reduce(n, level, width)[0]
        entry = n if _locate(n, shape, tops) == lone else max(seconds)
        rest = [v for v in range(2, n + 1) if v != entry]
        if flip:
            return StandardTableau._make([[1, entry]] + [[v] for v in rest])
        return StandardTableau._make([[1] + rest, [entry]])
    if shape == (3, 2) or shape == (2, 2, 1):
        found = _base_table(shape, width).get(frozenset(level))
        if found is None or found.n != n:
            raise NoMatchError("deck matches none of the five shape-(3,2) decks")
        return found
    return None


def _reconstruct_inductive(deck: Deck | DeckMultiset) -> StandardTableau:
    """Pipeline of shape recovery, max location and level reduction.

    Reduces the level down to a base shape, then inserts each level's n
    at its located cell, innermost first.  The candidate's 1-minors, as
    words packed at one width, must then be the members' words; a
    multiset runs on its support, and its multiplicities are re-checked
    too.  Never falls back to exhaustive search, so a deck that is not a
    genuine 1-minor set surfaces as an error somewhere along the way.
    """
    _check_one_minor_deck(deck)
    cards = deck.cards if isinstance(deck, DeckMultiset) else ()
    members = [m for m, _ in cards] if cards else deck.members
    n = deck.n
    shape = _shape(n, {m.shape for m in members})
    # members have at most len(shape) rows, and no level's shape, so no
    # candidate, has more than one row beyond theirs: every 0-based row is
    # at most len(shape) < 2**width
    width = len(shape).bit_length()
    words = level = _level(members, width)
    cells = []
    while (base := _base(n, shape, level, width)) is None:
        tops, reduced = _reduce(n, level, width)
        cells.append(_locate(n, shape, tops))
        level, n = reduced, n - 1
        shape = _shape(n, set(level.values()))
    rows = [list(row) for row in base.rows]
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
    minors = _minor_words(candidate, width)
    if set(minors) != set(words):
        raise NotADeckError("reconstructed candidate has a different deck")
    if cards:  # distinct members have distinct words, so words lines up with cards
        counts = dict(zip(words, (k for _, k in cards)))
        if Counter(minors) != Counter(counts):
            raise NotADeckError("reconstructed candidate has a different multiset")
    return candidate


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
    return _reconstruct(deck)


def reconstruct_from_multiset(cards: DeckMultiset) -> Outcome:
    """Tableaux whose multiset of 1-minors is ``cards``, as an outcome.

    For n >= 5 the support already determines the tableau: the pipeline
    runs on it, and the candidate's multiset re-checks the support, then
    the multiplicities.  For n <= 4 exhaustive search compares multisets,
    which splits decks the coarser set comparison conflates.
    """
    return _reconstruct(cards)


def _reconstruct(deck: Deck | DeckMultiset) -> Outcome:
    """reconstruct_from_set, or reconstruct_from_multiset for a multiset."""
    if deck.k == 1 and deck.n <= 4:
        return _exhaustive_set(deck)
    try:
        return Unique(_reconstruct_inductive(deck))
    except TableauError as exc:
        return Invalid(str(exc))
