"""Shape recovery, max location, deck reduction, and the full
reconstruction pipeline for sets and multisets of 1-minors.

The lemma tests run each lemma's one core, the function both the
reconstruction loop and its verify suite call, on a Deck packed into
the loop's level, at the loop's width, by ``packed``.  Fixed
expectations are the published example decks and outcomes; the
exhaustive loops confirm each pipeline stage against every tableau of
small sizes, leaving the largest sizes to the acceptance suite.
"""

import importlib
import random
import tracemalloc
from collections import Counter

import pytest

from tabrec.core import StandardTableau, enumerate_syt, enumerate_syt_all
from tabrec.core import TableauError
from tabrec.reconstruct import (
    _check_one_minor_deck,
    _level,
    _locate,
    _reduce,
    _shape,
    _tops,
    Ambiguous,
    Invalid,
    TooSmallError,
    Unique,
    format_outcome,
    reconstruct_from_multiset,
    reconstruct_from_set,
)
from tabrec.taquin import (
    Deck,
    DeckMultiset,
    NotADeckError,
    _minor_counts,
    _minors,
    _tableau_of,
    delete_entry,
    minor_multiset,
    minor_set,
)


def text(s):
    return StandardTableau.from_text(s)


def deck_of(*texts, n=None):
    members = [text(s) for s in texts]
    size = members[0].n + 1 if n is None else n
    return Deck(members, 1, size)


def packed(deck, rows):
    """``deck`` as the loop's (n, level, width), after the loop's input
    check, at the loop's width for a tableau of ``rows`` rows, as in the
    suites."""
    _check_one_minor_deck(deck)
    width = rows.bit_length()
    return deck.n, _level(deck.members, width), width


def shape_of(deck):
    """Lemma 3.1's core on ``deck``, as the loop runs it on its input."""
    _check_one_minor_deck(deck)
    return _shape(deck.n, {m.shape for m in deck.members})


def locate(deck):
    """Lemma 3.2's core on ``deck``, at the shape Lemma 3.1 recovers."""
    shape = shape_of(deck)
    n, level, width = packed(deck, len(shape))
    return _locate(n, shape, _tops(n, level, width))


def reduces_to(deck, smaller, rows):
    """Whether Lemma 3.3's core turns ``deck``, of a tableau of ``rows``
    rows, into the level of ``smaller``."""
    n, level, width = packed(deck, rows)
    tops = _tops(n, level, width)
    return _reduce(n, level, width, tops) == _level(smaller.members, width)


def test_shape_known_decks():
    assert shape_of(deck_of("1 2 / 3 4", "1 2 3 / 4")) == (3, 2)
    assert shape_of(deck_of("1 3 / 2", "1 2 / 3")) == (2, 2)
    assert shape_of(deck_of("1 2 3 4")) == (5,)
    assert shape_of(deck_of("1 / 2 / 3")) == (1, 1, 1, 1)


def test_shape_exhaustive():
    for n in range(3, 9):
        for t in enumerate_syt_all(n):
            assert shape_of(minor_set(t, 1)) == t.shape


def test_shape_too_small():
    with pytest.raises(TooSmallError, match="n=2 < 3"):
        shape_of(deck_of("1"))
    with pytest.raises(TooSmallError, match="n=1 < 3"):
        shape_of(Deck([StandardTableau(())], 1, 1))


def test_shape_rejects_impossible_decks():
    # no tableau has minors of both of these shapes
    with pytest.raises(NotADeckError):
        shape_of(deck_of("1 2 3", "1 / 2 / 3"))
    # a shared non-rectangle-minus-corner shape has no rectangular source
    with pytest.raises(NotADeckError):
        shape_of(deck_of("1 2 3 / 4"))
    with pytest.raises(NotADeckError):
        shape_of(Deck([text("1 2")], 2, 4))


def test_locate_known_decks():
    assert locate(deck_of("1 2 / 3 4", "1 2 3 / 4")) == (2, 2)
    assert locate(minor_set(text("1 2 / 3 4"), 1)) == (2, 2)
    assert locate(minor_set(text("1 2 3 5 / 4"), 1)) == (1, 4)
    assert locate(minor_set(text("1 2 3 / 4 / 5"), 1)) == (3, 1)


def test_locate_exhaustive():
    for n in range(4, 9):
        for t in enumerate_syt_all(n):
            assert locate(minor_set(t, 1)) == t.cell_of(n)


def test_locate_too_small():
    with pytest.raises(TooSmallError, match="n=3 < 4"):
        locate(deck_of("1 2", "1 / 2"))
    # the size check comes before the shape or the tops are read
    for n in (1, 2, 3):
        with pytest.raises(TooSmallError, match=f"n={n} < 4"):
            _locate(n, (n,), [])


def test_locate_errors():
    # (2,1,1)'s corners (1,2) and (3,1) each show n-1 twice
    twice = [((2, 1), (1, 2)), ((1, 1, 1), (3, 1))] * 2
    with pytest.raises(NotADeckError, match="two corners each show n-1 twice"):
        _locate(4, (2, 1, 1), twice)
    # each of (2,2,1)'s corners is covered by a member whose n-1 is elsewhere
    covered = [((2, 2), (1, 2)), ((2, 1, 1), (2, 1))]
    with pytest.raises(
        NotADeckError, match="every corner is excluded by a smaller entry"
    ):
        _locate(5, (2, 2, 1), covered)


def test_reduce_known_decks():
    assert reduces_to(
        deck_of("1 2 / 3 4", "1 2 3 / 4"), deck_of("1 2 / 3", "1 2 3"), 2
    )
    for rows in (1, 2):  # the deck of `1 2` and of `1 / 2`
        assert reduces_to(deck_of("1"), Deck([StandardTableau(())], 1, 1), rows)
    big = minor_set(text("1 2 4 / 3 5"), 1)
    assert reduces_to(big, minor_set(text("1 2 4 / 3"), 1), 2)


def test_reduce_exhaustive():
    for n in range(2, 9):
        for t in enumerate_syt_all(n):
            assert reduces_to(
                minor_set(t, 1), minor_set(delete_entry(t, n), 1), len(t.shape)
            )


def test_from_set_published_outcomes():
    assert reconstruct_from_set(minor_set(text("1 3 5 / 2 4"), 1)) == Unique(
        text("1 3 5 / 2 4")
    )
    assert reconstruct_from_set(deck_of("1 2", "1 / 2")) == Ambiguous(
        (text("1 2 / 3"), text("1 3 / 2"))
    )
    big = text("1 2 7 8 / 3 5 9 / 4 / 6")
    assert reconstruct_from_set(minor_set(big, 1)) == Unique(big)


def test_from_set_round_trip():
    for n in range(1, 9):
        ambiguous = {}
        for t in enumerate_syt_all(n):
            outcome = reconstruct_from_set(minor_set(t, 1))
            if n >= 5 or t.shape not in ((2,), (1, 1), (2, 1), (2, 2)):
                assert outcome == Unique(t)
            else:
                assert isinstance(outcome, Ambiguous)
                assert t in outcome.candidates
                ambiguous[t.shape] = outcome.candidates
        if n == 4:
            assert set(ambiguous) == {(2, 2)}


def test_from_set_invalid_inputs():
    assert isinstance(
        reconstruct_from_set(deck_of("1 2 3", "1 / 2 / 3")), Invalid
    )
    assert isinstance(
        reconstruct_from_set(deck_of("1 2 3 4 5", "1 / 2 / 3 / 4 / 5")),
        Invalid,
    )
    assert isinstance(reconstruct_from_set(Deck([text("1 2")], 2, 4)), Invalid)
    # a proper subset of a real deck misses members, so nothing fits
    partial = deck_of("1 2 3 / 4", n=5)
    assert isinstance(reconstruct_from_set(partial), Invalid)


def test_from_multiset_published_outcomes():
    cards = DeckMultiset([(text("1 / 2"), 2), (text("1 2"), 1)], 1, 3)
    assert reconstruct_from_multiset(cards) == Unique(text("1 2 / 3"))
    pair = DeckMultiset([(text("1 3 / 2"), 2), (text("1 2 / 3"), 2)], 1, 4)
    assert reconstruct_from_multiset(pair) == Ambiguous(
        (text("1 2 / 3 4"), text("1 3 / 2 4"))
    )
    two = DeckMultiset([(text("1"), 2)], 1, 2)
    assert reconstruct_from_multiset(two) == Ambiguous(
        (text("1 / 2"), text("1 2"))
    )


def test_from_multiset_round_trip():
    pair_22 = tuple(enumerate_syt((2, 2)))
    for n in range(3, 9):
        for t in enumerate_syt_all(n):
            outcome = reconstruct_from_multiset(minor_multiset(t, 1))
            if n == 4 and t.shape == (2, 2):
                assert outcome == Ambiguous(pair_22)
            else:
                assert outcome == Unique(t)


def test_from_multiset_invalid_inputs():
    assert isinstance(
        reconstruct_from_multiset(DeckMultiset([(text("1 2"), 2)], 2, 4)),
        Invalid,
    )
    # right support, wrong multiplicities: no tableau fits
    skewed = DeckMultiset(
        [(text("1 2 / 3"), 3), (text("1 3 / 2"), 1)], 1, 4
    )
    assert isinstance(reconstruct_from_multiset(skewed), Invalid)
    # the true multiset of `1 2 3 / 4 5` with its multiplicities swapped:
    # the support still reconstructs, but the re-check must reject it
    skewed_big = DeckMultiset(
        [(text("1 2 / 3 4"), 2), (text("1 2 3 / 4"), 3)], 1, 5
    )
    assert minor_multiset(text("1 2 3 / 4 5"), 1).cards == (
        (text("1 2 / 3 4"), 3),
        (text("1 2 3 / 4"), 2),
    )
    assert isinstance(reconstruct_from_multiset(skewed_big), Invalid)


def test_outcome_types():
    u = Unique(text("1 2"))
    assert format_outcome(u) == "unique 1 2"
    a = Ambiguous((text("1 3 / 2"), text("1 2 / 3"), text("1 2 / 3")))
    assert a.candidates == (text("1 2 / 3"), text("1 3 / 2"))
    assert format_outcome(a) == "ambiguous 2\n1 2 / 3\n1 3 / 2"
    assert format_outcome(Invalid("because")) == "invalid because"
    with pytest.raises(ValueError):
        Ambiguous((text("1 2"),))


def test_unique_outcomes_are_sound():
    # whenever the pipeline says Unique, the candidate's deck is the input
    for n in range(5, 8):
        for t in enumerate_syt_all(n):
            deck = minor_set(t, 1)
            outcome = reconstruct_from_set(deck)
            assert isinstance(outcome, Unique)
            assert minor_set(outcome.tableau, 1) == deck


def test_reduce_deck_matches_delete_entry():
    # _reduce drops the cell of n-1; a full jeu-de-taquin deletion is the
    # reference.  A tableau with u among its 1-minors has u's rows or one
    # more, so both widths are checked
    for n in range(1, 9):
        for u in enumerate_syt_all(n):
            for rows in (len(u.shape), len(u.shape) + 1):
                assert reduces_to(
                    Deck([u], 1, u.n + 1), Deck([delete_entry(u, u.n)], 1, u.n),
                    rows,
                )


def test_unchecked_tableaux_pass_validation():
    # every tableau the package builds without checks passes them
    for n in range(8):
        for t in enumerate_syt_all(n):
            built = [t]
            built.extend(delete_entry(t, m) for m in range(1, n + 1))
            if n >= 5:
                built.append(reconstruct_from_set(minor_set(t, 1)).tableau)
            for x in built:
                checked = StandardTableau(x.rows)
                assert checked == x
                assert checked.shape == x.shape
                assert hash(checked) == hash(x)


def reference_inductive(deck, shape):
    """The recursive pipeline on Decks of a tableau of ``shape``: Lemma 3.2
    by its core, T - n as the one member of ``shape`` less n's cell once
    those whose n - 1 is left of or directly above that cell are dropped,
    and else deck reduction by full jeu-de-taquin deletion, recursing with
    T - n's shape.  Each located cell must be addable to what it goes on."""
    n, level, width = packed(deck, deck.n)  # n - 1 rows fit any member
    r, c = _locate(n, shape, _tops(n, level, width))
    rest = list(shape)
    rest[r - 1] -= 1
    rest = tuple(p for p in rest if p)
    found = [m for m in deck if m.shape == rest]
    if len(found) > 1:
        found = [m for m in found if m.cell_of(n - 1) not in ((r, c - 1), (r - 1, c))]
    if len(found) == 1:
        smaller = found[0]
    else:
        smaller = reference_inductive(
            Deck((delete_entry(m, n - 1) for m in deck), 1, n - 1), rest
        )
    rows = [list(row) for row in smaller.rows]
    if r == len(rows) + 1 and c == 1:
        rows.append([n])
    else:
        assert 1 <= r <= len(rows) and c == len(rows[r - 1]) + 1, (r, c, rows)
        rows[r - 1].append(n)
    return StandardTableau(rows)


def reference_from_set(deck):
    try:
        candidate = reference_inductive(deck, shape_of(deck))
    except TableauError as exc:
        return Invalid(str(exc))
    if minor_set(candidate, 1) != deck:
        return Invalid("reconstructed candidate has a different deck")
    return Unique(candidate)


def reference_from_multiset(cards):
    try:
        support = cards.support()
    except TableauError as exc:
        return Invalid(str(exc))
    outcome = reference_from_set(support)
    if isinstance(outcome, Unique):
        if minor_multiset(outcome.tableau, 1) != cards:
            return Invalid("reconstructed candidate has a different multiset")
    return outcome


def test_pipeline_matches_recursive_reference_on_perturbed_decks():
    for n in range(5, 8):
        tableaux = list(enumerate_syt_all(n))
        for i, t in enumerate(tableaux):
            deck = minor_set(t, 1)
            cards = minor_multiset(t, 1)
            decks = [deck]
            decks.extend(
                Deck(deck.members[:j] + deck.members[j + 1:], 1, n)
                for j in range(len(deck))
            )
            other = minor_set(tableaux[(i + 1) % len(tableaux)], 1)
            decks.extend(
                Deck(deck.members + (m,), 1, n)
                for m in other
                if m not in deck
            )
            multisets = [cards]
            for (a, x), (b, y) in zip(cards.cards, cards.cards[1:]):
                if x != y:
                    swapped = dict(cards.cards)
                    swapped[a], swapped[b] = y, x
                    multisets.append(DeckMultiset(swapped.items(), 1, n))
            for d in decks:
                assert reconstruct_from_set(d) == reference_from_set(d)
            for m in multisets:
                assert reconstruct_from_multiset(m) == reference_from_multiset(m)


def test_deep_deck_reconstructs_without_recursion():
    # 1100 levels: far deeper than the interpreter's recursion limit
    t = StandardTableau([[1, 2, *range(5, 1101)], [3, 4]])
    assert reconstruct_from_set(minor_set(t, 1)) == Unique(t)


def grown_tableau(n, rng, tall):
    """A size-n tableau grown by adding corners at random; ``tall`` sends
    every third entry to a new row."""
    rows = []
    for v in range(1, n + 1):
        addable = [
            r for r in range(len(rows) + 1)
            if r in (0, len(rows)) or len(rows[r]) < len(rows[r - 1])
        ]
        r = len(rows) if tall and v % 3 == 0 else rng.choice(addable)
        if r == len(rows):
            rows.append([])
        rows[r].append(v)
    return StandardTableau(rows)


def grown_tableaux():
    """Seeded tableaux from n = 5 to 300, some of them over 16 rows."""
    rng = random.Random(20211018)
    sizes = [5, 6, 7, 9, 12, 17, 25, 40, 60, 90, 130, 200, 300]
    tableaux = [grown_tableau(n, rng, tall=False) for n in sizes]
    tableaux += [grown_tableau(n, rng, tall=True) for n in (50, 120)]
    return tableaux


# the recursive reference takes about 8 ms on the genuine deck at n = 300;
# larger decks would be checked for soundness alone
REFERENCE_MAX_N = 300


def test_minor_counts_match_delete_entry_at_every_width():
    small = [t for n in range(1, 9) for t in enumerate_syt_all(n)]
    tableaux = grown_tableaux()
    assert max(len(t.shape) for t in tableaux) > 16
    for t in small + tableaux:
        least = len(t.shape).bit_length()
        for width in {least, max(least, 4)}:
            assert _minor_counts(t, _word_of(t, width), width) == Counter(
                _word_of(delete_entry(t, m), width) for m in range(1, t.n + 1)
            ), (t.to_text(), width)


def deletion_sequences(t, k):
    """The k-minors of ``t`` counted once per sequence of k deletions, each
    by delete_entry."""
    level = Counter([t])
    for _ in range(k):
        nxt = Counter()
        for u, mult in level.items():
            for m in range(1, u.n + 1):
                nxt[delete_entry(u, m)] += mult
        level = nxt
    return level


def test_spliced_minors_match_every_deletion_sequence():
    # _minors splices each minor from its tableau's row tuples; equality
    # reads only rows, so each member's shape and hash are checked too
    small = [
        (t, k)
        for n in range(1, 8)
        for t in enumerate_syt_all(n)
        for k in range(1, min(n, 3) + 1)
    ]
    tableaux = grown_tableaux()
    assert max(len(t.shape) for t in tableaux) > 16
    for t, k in small + [(t, 1) for t in tableaux]:
        minors = _minors(t, k)
        assert minors == deletion_sequences(t, k), (t.to_text(), k)
        for member in minors:
            made = StandardTableau._make(member.rows)
            assert (member.rows, member.shape) == (made.rows, made.shape)
            assert hash(member) == hash(made)


def test_random_round_trips_and_perturbations_match_reference():
    rng = random.Random(7)
    tableaux = grown_tableaux()
    assert max(len(t.shape) for t in tableaux) > 16
    for t in tableaux:
        n = t.n
        deck = minor_set(t, 1)
        cards = minor_multiset(t, 1)
        assert reconstruct_from_set(deck) == Unique(t)
        assert reconstruct_from_multiset(cards) == Unique(t)
        other = grown_tableau(n, rng, tall=False)
        foreign = [m for m in minor_set(other, 1) if m not in deck]
        j = rng.randrange(len(deck))
        dropped = deck.members[j]
        decks = [Deck(deck.members[:j] + deck.members[j + 1:], 1, n)]
        decks += [Deck(deck.members + (m,), 1, n) for m in foreign[:1]]
        # a multiset keeps n cards: a dropped member's copies go to another
        # member, and a foreign card takes the place of one copy
        counts = dict(cards.cards)
        multisets = []
        if len(counts) > 1:
            rest = dict(counts)
            heir = next(m for m in rest if m != dropped)
            rest[heir] += rest.pop(dropped)
            multisets.append(DeckMultiset(rest.items(), 1, n))
        if foreign:
            plus = dict(counts)
            plus[dropped] -= 1
            plus[foreign[0]] = 1
            multisets.append(
                DeckMultiset(((m, k) for m, k in plus.items() if k), 1, n)
            )
        pairs = [
            (a, b) for a, b in zip(cards.cards, cards.cards[1:]) if a[1] != b[1]
        ]
        if pairs:
            (a, x), (b, y) = rng.choice(pairs)
            swapped = dict(counts)
            swapped[a], swapped[b] = y, x
            multisets.append(DeckMultiset(swapped.items(), 1, n))
        for d in decks:
            outcome = reconstruct_from_set(d)
            assert isinstance(outcome, Invalid) or (
                minor_set(outcome.tableau, 1) == d
            )
            if n <= REFERENCE_MAX_N:
                assert outcome == reference_from_set(d), t.to_text()
        for m in multisets:
            outcome = reconstruct_from_multiset(m)
            assert isinstance(outcome, Invalid) or (
                minor_multiset(outcome.tableau, 1) == m
            )
            if n <= REFERENCE_MAX_N:
                assert outcome == reference_from_multiset(m), t.to_text()


reconstruct_module = importlib.import_module("tabrec.reconstruct")


def one_off_decks(t, other):
    """(reconstruction, deck) for the deck and multiset of ``t``, and for
    each with one member dropped or the first member of ``other``'s deck
    not in it added (a multiset keeps n cards: a dropped member's copies go
    to another, and the foreign card replaces a copy)."""
    n, deck, counts = t.n, minor_set(t, 1), dict(minor_multiset(t, 1).cards)
    foreign = [m for m in minor_set(other, 1) if m not in deck][:1]
    sets = [deck] + [Deck(deck.members + (m,), 1, n) for m in foreign]
    sets += [
        Deck(deck.members[:j] + deck.members[j + 1:], 1, n)
        for j in range(len(deck))
        if len(deck) > 1
    ]
    multisets = [DeckMultiset(counts.items(), 1, n)]
    for dropped in counts:
        rest = dict(counts)
        if len(rest) > 1:
            copies = rest.pop(dropped)
            rest[next(iter(rest))] += copies
            multisets.append(DeckMultiset(rest.items(), 1, n))
    for m in foreign:
        plus = dict(counts)
        plus[next(iter(plus))] -= 1
        plus[m] = 1
        multisets.append(DeckMultiset(((c, k) for c, k in plus.items() if k), 1, n))
    return [(reconstruct_from_set, d) for d in sets] + [
        (reconstruct_from_multiset, m) for m in multisets
    ]


def test_lone_member_exits_at_the_top_deeper_and_at_base_shapes(monkeypatch):
    real_lone, real_recheck = reconstruct_module._lone, reconstruct_module._recheck
    calls, rechecks = [], []

    def lone(*args):
        calls.append(real_lone(*args))
        return calls[-1]

    def recheck(*args):
        rechecks.append(args)
        return real_recheck(*args)

    monkeypatch.setattr(reconstruct_module, "_lone", lone)
    monkeypatch.setattr(reconstruct_module, "_recheck", recheck)
    # the shapes Lemma 3.6 decides directly exit the same way
    lines_and_hooks = {(10,), (1,) * 10, (9, 1), (2,) + (1,) * 8}
    exits = Counter()
    for t in list(enumerate_syt_all(10))[::5]:
        calls.clear()
        rechecks.clear()
        assert reconstruct_from_set(minor_set(t, 1)) == Unique(t)
        # a genuine deck's lone member is T - n, so its one attempt returns
        assert len(rechecks) == 1
        assert calls[-1] is not None
        assert all(word is None for word in calls[:-1])
        exits["top" if len(calls) == 1 else "deeper"] += 1
        exits["line or hook"] += t.shape in lines_and_hooks
    assert exits == {"top": 1494, "deeper": 406, "line or hook": 4}  # 1,900 decks


def test_lone_picks_only_t_minus_n_and_finds_it_beside_no_n_minus_1(monkeypatch):
    # outcome tests cannot see a wrong pick, which the re-check refuses,
    # so each word _lone returns is decoded and compared with T - n
    real = reconstruct_module._lone
    calls = []

    def lone(rest, *args):
        # rest is T - n's shape, one entry short of the level's tableau
        calls.append((sum(rest) + 1, real(rest, *args)))
        return calls[-1][1]

    monkeypatch.setattr(reconstruct_module, "_lone", lone)
    for n in range(5, 10):
        for t in enumerate_syt_all(n):
            width = len(t.shape).bit_length()
            minors = minor_set(t, 1)
            r, c = t.cell_of(n)
            shapes = [m.shape for m in minors.members]
            alone = shapes.count(delete_entry(t, n).shape) == 1
            beside = t.cell_of(n - 1) in ((r, c - 1), (r - 1, c))
            for run, deck in (
                (reconstruct_from_set, minors),
                (reconstruct_from_multiset, minor_multiset(t, 1)),
            ):
                calls.clear()
                assert run(deck) == Unique(t)
                assert calls
                if alone or not beside:
                    assert calls[0][1] is not None, t
                level = t
                for m, word in calls:
                    while level.n > m:
                        level = delete_entry(level, level.n)
                    if word is not None:
                        assert _tableau_of(word, m - 1, width) == delete_entry(level, m), t


def test_invalid_deck_rechecks_at_most_twice(monkeypatch):
    # a deck has one candidate, so it is re-checked once at most
    real = reconstruct_module._minor_counts
    calls = []

    def minor_counts(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reconstruct_module, "_minor_counts", minor_counts)
    most = 0
    tableaux = list(enumerate_syt_all(10))[::40]
    for i, t in enumerate(tableaux):
        for run, d in one_off_decks(t, tableaux[i - 1]):
            calls.clear()
            if isinstance(run(d), Invalid):
                most = max(most, len(calls))
    assert most == 1


def _word_of(tableau, width):
    """The packed row word of ``tableau``, ``width`` bits per entry, packed
    entry by entry."""
    return sum(
        r << width * (v - 1)
        for r, row in enumerate(tableau.rows[1:], 1)
        for v in row
    )


def test_level_packs_rows_as_the_per_entry_words():
    # _level packs each distinct row once; _word_of packs entry by entry
    decks = []
    for n in range(1, 10):
        for t in enumerate_syt_all(n):
            deck, cards = minor_set(t, 1), minor_multiset(t, 1)
            # read back, members share one tuple per distinct row text
            read = Deck.from_text(deck.to_text()).members
            read_cards = DeckMultiset.from_text(cards.to_text()).cards
            width = len(t.shape).bit_length()
            decks += [(deck.members, width), (read, width)]
            decks += [([m for m, _ in c], width) for c in (cards.cards, read_cards)]
    tableaux = grown_tableaux()
    assert max(len(t.shape) for t in tableaux) > 16
    for t in tableaux:
        least = len(t.shape).bit_length()
        decks += [(minor_set(t, 1).members, width) for width in {least, 8}]
    for members, width in decks:
        assert _level(members, width) == {
            _word_of(m, width): m.shape for m in members
        }, (members[0].to_text(), width)


def test_level_memo_keeps_few_masks_on_a_tall_deck():
    # every row of a column is distinct, and row v's mask has 12 * (v - 1)
    # bits: keeping them all would peak near 6.7 MB; the 4,096 per-row-index
    # memos and a few 4.5 KB words take about 0.3 MB
    t = StandardTableau._make([v] for v in range(1, 3001))
    members = minor_set(t, 1).members
    tracemalloc.start()
    try:
        level = _level(members, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level == {_word_of(m, 12): m.shape for m in members}
    assert peak < 1_000_000


def test_exit_hands_the_recheck_the_candidate_word(monkeypatch):
    # the candidate's word is built from T - n's, not packed from the
    # candidate, so the word the re-check reads must be T's own
    real = reconstruct_module._minor_counts
    calls = []

    def minor_counts(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reconstruct_module, "_minor_counts", minor_counts)
    for n in range(5, 10):
        for t in enumerate_syt_all(n):
            width = len(t.shape).bit_length()
            for run, deck in (
                (reconstruct_from_set, minor_set(t, 1)),
                (reconstruct_from_multiset, minor_multiset(t, 1)),
            ):
                calls.clear()
                assert run(deck) == Unique(t)
                assert calls == [(t, _word_of(t, width), width)], t.to_text()


def test_deck_whose_level_disagrees_with_the_carried_shape_fails_the_recheck():
    # on this invalid deck Lemma 3.1 on the reduced level disagrees with the
    # carried shape; each located cell is a corner of the carried shape, so
    # it goes back, and the re-check refuses the candidate
    deck = Deck.from_text(
        "deck k=1 n=6 size=3\n1 2 / 3 4 / 5\n1 2 4 / 3 5\n1 3 4 / 2 5"
    )
    assert reconstruct_from_set(deck) == Invalid(
        "reconstructed candidate has a different deck"
    )


def test_carried_shape_is_lemma_3_1_on_every_level(monkeypatch):
    # the loop runs _shape on its input alone and carries the shape down;
    # on a genuine deck, the shape it locates n in at each level must be
    # the one Lemma 3.1 gives on that level's members
    real_tops, real_locate = reconstruct_module._tops, reconstruct_module._locate
    seen = []

    def tops(n, level, width):
        seen.append((n, set(level.values())))
        return real_tops(n, level, width)

    def locate(n, shape, tops):
        seen[-1] += (shape,)
        return real_locate(n, shape, tops)

    monkeypatch.setattr(reconstruct_module, "_tops", tops)
    monkeypatch.setattr(reconstruct_module, "_locate", locate)
    levels = Counter()
    for n in range(5, 10):
        for t in enumerate_syt_all(n):
            for run, deck in (
                (reconstruct_from_set, minor_set(t, 1)),
                (reconstruct_from_multiset, minor_multiset(t, 1)),
            ):
                seen.clear()
                assert run(deck) == Unique(t)
                for m, shapes, carried in seen:
                    assert carried == _shape(m, shapes), (t.to_text(), m)
                levels["top" if len(seen) == 1 else "deeper"] += 1
                levels["below the top"] += len(seen) - 1
    # 7,436 decks, 1,952 levels below the top checked
    assert levels == {"top": 5864, "deeper": 1572, "below the top": 1952}
