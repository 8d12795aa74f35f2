"""Reconstructing a tableau from the set or multiset of its 1-minors.

Each lemma of the constructive pipeline has one core, which the loop and
its verify suite in census both run: the shape (Lemma 3.1, _shape), the
cell of the largest entry n (3.2, _locate on _tops) and the deck of T - n
(3.3, _reduce).  A level maps each member's packed row word (as in
taquin._grow), summed from a mask per distinct row and index, to its
shape.  The loop reduces level by level until one member can be T - n:
the only member of T - n's shape, or the only one of that shape whose
n-1 is not beside n's cell (_lone).  From its second level on, the loop
on T's deck is the loop on T - n's, so as it finds T - n on every size-5
deck, it finds it on every genuine deck, and the shapes Lemma 3.6 decides
directly need no case of their own.  The candidate's word is T - n's
with each located n's row OR-ed in, decoded once; its 1-minors' words,
from one slide per run (taquin._minor_counts), must be the input's.  The
pipeline is complete for n >= 5; for n <= 4 exhaustive search gives a
total answer (Unique, Ambiguous with all candidates, or Invalid).
"""

from itertools import zip_longest

from .core import (
    Cell,
    Partition,
    StandardTableau,
    TableauError,
    enumerate_syt_all,
    is_rectangular,
    _Record,
)
from .taquin import (
    Deck,
    DeckMultiset,
    NotADeckError,
    _minor_counts,
    _tableau_of,
    minor_multiset,
    minor_set,
)


class TooSmallError(TableauError):
    """Tableau size below the operation's range."""


class Unique(_Record):
    """Exactly one tableau has the input deck."""

    __slots__ = ("tableau",)


class Ambiguous(_Record):
    """Two or more tableaux share the input deck; all are listed."""

    __slots__ = ("candidates",)

    def __init__(self, candidates):
        ordered = tuple(sorted(set(candidates), key=StandardTableau.sort_key))
        if len(ordered) < 2:
            raise TableauError("ambiguous outcome needs at least two candidates")
        object.__setattr__(self, "candidates", ordered)


class Invalid(_Record):
    """No tableau has the input deck."""

    __slots__ = ("reason",)


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


def _shape(n: int, shapes: set[Partition]) -> Partition:
    """Lemma 3.1: the shape of a size-n tableau, n >= 3, from the set of
    its 1-minors' shapes: their cellwise union if they differ, else the
    rectangle that re-adding the removed corner gives."""
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


def _locate(n: int, shape: Partition, tops) -> Cell:
    """Lemma 3.2: the cell of n in a tableau of ``shape``, n >= 4, from
    tops (see _tops).  A lone outer corner holds n.  A corner showing
    n-1 in two members holds n, and one that a member covers with a
    smaller entry cannot.  If neither test decides, the shape is a
    rectangle plus one cell, and that cell holds n."""
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


def _level(members, width: int) -> dict:
    """Each member's packed row word mapped to its shape, in the members'
    order: the sum of its rows' masks (the row's index in each entry's
    field), each packed once per row and index, and at most 4 a member
    kept, for a tall deck's distinct rows would hold quadratic bits."""
    masks, level, kept = [{} for _ in range(1 << width)], {}, 0
    for m in members:
        word = 0
        for r, row in enumerate(m.rows[1:], 1):
            if (mask := (at := masks[r]).get(row)) is None:
                mask = 0
                for v in row:  # a loop, not sum(), costs no generator per row
                    mask |= r << width * (v - 1)
                if kept < 4 * len(members):
                    at[row], kept = mask, kept + 1
            word += mask
        level[word] = m.shape
    return level


def _tops(n: int, level: dict, width: int) -> list:
    """Each member's shape and the cell of its n-1, which ends its row."""
    shift = width * (n - 2)  # bits of each member's largest entry n-1
    return [(s, (r + 1, s[r])) for w, s in level.items() for r in [w >> shift]]


def _reduce(n: int, level: dict, width: int) -> dict:
    """Lemma 3.3: the level of T - n from a level of size-(n-1) members, each
    less its n-1, which ends its row in a corner: a mask, with no slide."""
    low = (1 << width * (n - 2)) - 1
    return {
        w & low: s[:r - 1] + (c - 1,) + s[r:] if c > 1 else s[:r - 1]
        for w, (s, (r, c)) in zip(level, _tops(n, level, width))
    }


def _reconstruct_inductive(deck: Deck | DeckMultiset) -> StandardTableau:
    """Pipeline of shape recovery, max location and level reduction.

    Locates each level's n from the members' shapes and cells of n-1
    (_tops) and reduces level by level, until _lone picks a member for
    T - n; that member with the located n's put back is the one
    candidate.  Its 1-minors, as words packed at one width, must be the
    members' words; a multiset runs on its support, and its
    multiplicities are re-checked too.  Never falls back to exhaustive
    search: a deck that is not a genuine 1-minor set raises at the first
    check it fails, at the latest at a level too small to locate n.
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
    while True:
        tops = _tops(n, level, width)
        cells.append(_locate(n, shape, tops))
        if (lone := _lone(shape, cells[-1], level, tops)) is not None:
            candidate = _insert(lone, level[lone], cells, width)
            return _recheck(*candidate, words, cards, width)
        level, n = _reduce(n, level, width), n - 1
        shape = _shape(n, set(level.values()))


def _lone(shape: Partition, cell: Cell, level: dict, tops):
    """Word of the one member of ``level`` that can be T - n, or None.

    T - n has ``shape`` less ``cell``; of two or more such members, those
    whose n-1 (tops, see _tops) is left of or above ``cell`` are dropped.
    Any other T - m of that shape has m outside n's run and a slide path
    ending at ``cell``.  That path's last step moves n from ``cell`` into
    the cell left of or above it, where the member's n-1 then sits.
    """
    r, c = cell
    rest = shape[:r - 1] + (c - 1,) + shape[r:] if c > 1 else shape[:r - 1]
    found = [(word, top) for word, (s, top) in zip(level, tops) if s == rest]
    if len(found) > 1:
        found = [f for f in found if f[1] not in ((r, c - 1), (r - 1, c))]
    return found[0][0] if len(found) == 1 else None


def _insert(word: int, lengths, cells, width: int):
    """(tableau, word) for packed row word ``word`` of row ``lengths`` with
    the next entries' rows, from ``cells``, last first, OR-ed in."""
    lengths, n = list(lengths), sum(lengths)
    for v, (r, c) in enumerate(reversed(cells), n):  # v + 1 goes at (r, c)
        if r == len(lengths) + 1 and c == 1:
            lengths.append(0)
        if not (1 <= r <= len(lengths) and c == lengths[r - 1] + 1):
            raise NotADeckError(
                f"cell {(r, c)} is not addable to shape {tuple(lengths)}"
            )
        lengths[r - 1] = c
        word |= (r - 1) << width * v
    return _tableau_of(word, n + len(cells), width), word


def _recheck(candidate: StandardTableau, word: int, words: dict, cards, width: int):
    """``candidate``, of packed row word ``word``, if its 1-minors' words and
    their counts (taquin._minor_counts) match ``words`` and ``cards``."""
    counts = _minor_counts(candidate, word, width)
    if counts.keys() != words.keys():
        raise NotADeckError("reconstructed candidate has a different deck")
    # distinct members have distinct words, so words lines up with cards
    if cards and counts != dict(zip(words, (k for _, k in cards))):
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


def reconstruct_from_set(deck: Deck | DeckMultiset) -> Outcome:
    """Tableaux whose set of 1-minors is ``deck``, as an outcome value;
    a multiset deck is read as reconstruct_from_multiset reads it.

    For n >= 5 the constructive pipeline runs, and its single candidate
    is checked against the input deck before being reported Unique; any
    failure along the way means no tableau fits, reported Invalid.  For
    n <= 4 exhaustive search settles the question, so the small
    ambiguous decks come back Ambiguous with every candidate listed.
    """
    if deck.k == 1 and deck.n <= 4:
        return _exhaustive_set(deck)
    try:
        return Unique(_reconstruct_inductive(deck))
    except TableauError as exc:
        return Invalid(str(exc))


def reconstruct_from_multiset(cards: DeckMultiset) -> Outcome:
    """Tableaux whose multiset of 1-minors is ``cards``, as an outcome.

    For n >= 5 the support already determines the tableau: the pipeline
    runs on it, and the candidate's multiset re-checks the support, then
    the multiplicities.  For n <= 4 exhaustive search compares multisets,
    which splits decks the coarser set comparison conflates.
    """
    return reconstruct_from_set(cards)
