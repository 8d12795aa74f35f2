"""Jeu-de-taquin deletion, slide paths, and k-minor decks.

Fixed values are hand-traced deletions and the published example decks;
the exhaustive loops check the structural facts the reconstruction
relies on (validity, corner bookkeeping, the deck-reduction identities,
and commutation with transposition) over every tableau of small sizes.
"""

import importlib
import pickle
from collections import Counter

import pytest

import tabrec
from tabrec.core import StandardTableau, enumerate_syt_all
from tabrec.taquin import (
    Deck,
    DeckMultiset,
    NotADeckError,
    OutOfRangeError,
    ResourceLimitError,
    delete_entry,
    minor_multiset,
    minor_set,
    slide_path,
)


def text(s):
    return StandardTableau.from_text(s)


def transpose(t):
    """``t`` reflected across the main diagonal."""
    return StandardTableau(
        [row[j] for row in t.rows if j < len(row)]
        for j in range(max(t.shape, default=0))
    )


def outer_corners(shape):
    """Cells with no cell to the right or below."""
    return {(r, p) for r, p in enumerate(shape, 1) if shape[r:r + 1] < (p,)}


def test_delete_hand_traced():
    assert delete_entry(text("1 2 7 8 / 3 5 9 / 4 / 6"), 1) == text(
        "1 4 6 7 / 2 8 / 3 / 5"
    )
    assert delete_entry(text("1 2 3 4"), 4) == text("1 2 3")
    assert delete_entry(text("1 2 / 3 4"), 3) == text("1 2 / 3")


def test_delete_single_cell_gives_empty():
    assert delete_entry(text("1"), 1) == StandardTableau(())


def test_delete_out_of_range():
    with pytest.raises(OutOfRangeError):
        delete_entry(text("1 2 / 3"), 0)
    with pytest.raises(OutOfRangeError):
        delete_entry(text("1 2 / 3"), 4)


def test_slide_path_hand_traced():
    assert slide_path(text("1 2 7 8 / 3 5 9 / 4 / 6"), 1) == (
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 3),
    )
    assert slide_path(text("1 2 3 4"), 4) == ((1, 4),)
    assert slide_path(text("1 2 3 / 4 5"), 1) == ((1, 1), (1, 2), (1, 3))


def test_delete_validity_and_corner_bookkeeping():
    for n in range(1, 9):
        for t in enumerate_syt_all(n):
            corners = outer_corners(t.shape)
            for m in range(1, n + 1):
                path = slide_path(t, m)
                assert path[0] == t.cell_of(m)
                for (r1, c1), (r2, c2) in zip(path, path[1:]):
                    assert (r2 - r1, c2 - c1) in ((0, 1), (1, 0))
                end = path[-1]
                assert end in corners
                minor = delete_entry(t, m)
                assert minor.n == n - 1
                # the minor's shape is the original with the end corner removed
                r, c = end
                rows = [
                    p - 1 if i == r - 1 else p
                    for i, p in enumerate(t.shape)
                ]
                assert minor.shape == tuple(p for p in rows if p)


def test_largest_entry_of_each_minor_sits_in_a_corner():
    for n in range(2, 9):
        for t in enumerate_syt_all(n):
            for member in minor_set(t, 1):
                assert member.cell_of(n - 1) in outer_corners(member.shape)


def test_deck_reduction_identities():
    for n in range(2, 9):
        for t in enumerate_syt_all(n):
            reduced = {
                delete_entry(member, n - 1) for member in minor_set(t, 1)
            }
            assert reduced == set(minor_set(delete_entry(t, n), 1))
            assert delete_entry(delete_entry(t, n - 1), n - 1) == delete_entry(
                delete_entry(t, n), n - 1
            )


def test_transpose_commutes_with_deletion():
    for n in range(1, 8):
        for t in enumerate_syt_all(n):
            flipped = transpose(t)
            for m in range(1, n + 1):
                assert delete_entry(flipped, m) == transpose(delete_entry(t, m))
            assert set(minor_set(flipped, 1)) == {
                transpose(m) for m in minor_set(t, 1)
            }


def test_minor_set_published_decks():
    assert set(minor_set(text("1 2 3 / 4 5"), 1)) == {
        text("1 2 / 3 4"),
        text("1 2 3 / 4"),
    }
    assert set(minor_set(text("1 3 5 / 2 4"), 1)) == {
        text("1 2 4 / 3"),
        text("1 3 4 / 2"),
        text("1 3 / 2 4"),
    }
    assert set(minor_set(text("1 2"), 1)) == {text("1")}


def test_minor_set_orders():
    t = text("1 2 / 3 4")
    assert list(minor_set(t, 0)) == [t]
    assert set(minor_set(t, 4)) == {StandardTableau(())}
    with pytest.raises(OutOfRangeError):
        minor_set(t, 5)
    with pytest.raises(OutOfRangeError):
        minor_set(t, -1)


def test_minor_multiset_published_displays():
    assert minor_multiset(text("1 2 / 3 4"), 1).cards == (
        (text("1 2 / 3"), 2),
        (text("1 3 / 2"), 2),
    )
    assert minor_multiset(text("1 2 / 3"), 1).cards == (
        (text("1 / 2"), 2),
        (text("1 2"), 1),
    )
    assert minor_multiset(text("1 3 / 2"), 1).cards == (
        (text("1 / 2"), 1),
        (text("1 2"), 2),
    )
    assert minor_multiset(text("1 2"), 1).cards == ((text("1"), 2),)


def test_minor_multiset_totals_and_support():
    for n in range(1, 8):
        for t in enumerate_syt_all(n):
            cards = minor_multiset(t, 1)
            assert cards.total() == n
            assert cards.support() == minor_set(t, 1)
    t = text("1 2 4 / 3 5")
    for k in range(t.n + 1):
        assert minor_multiset(t, k).support() == minor_set(t, k)


def test_minor_multiset_counts_ordered_sequences():
    # for k >= 2 each ordered deletion sequence contributes one card
    t = text("1 2 / 3")
    cards = minor_multiset(t, 2)
    assert cards.total() == t.n * (t.n - 1)
    assert minor_multiset(t, 0).cards == ((t, 1),)


def test_deck_canonical_member_order():
    deck = minor_set(text("1 2 4 / 3 5"), 1)
    assert [m.to_text() for m in deck] == [
        "1 2 / 3 4",
        "1 3 / 2 4",
        "1 2 3 / 4",
        "1 2 4 / 3",
    ]
    assert deck.to_text() == (
        "deck k=1 n=5 size=4\n"
        "1 2 / 3 4\n"
        "1 3 / 2 4\n"
        "1 2 3 / 4\n"
        "1 2 4 / 3"
    )


def test_deck_text_round_trip():
    for n in range(1, 7):
        for t in enumerate_syt_all(n):
            deck = minor_set(t, 1)
            assert Deck.from_text(deck.to_text()) == deck
            cards = minor_multiset(t, 1)
            assert DeckMultiset.from_text(cards.to_text()) == cards


def test_deck_text_rejects_malformed_input():
    with pytest.raises(NotADeckError):
        Deck.from_text("")
    with pytest.raises(NotADeckError):
        Deck.from_text("deck k=1 n=3")
    with pytest.raises(NotADeckError):
        Deck.from_text("deck k=1 n=3 size=2\n1 2")
    with pytest.raises(NotADeckError, match="duplicate members"):
        Deck.from_text("deck k=1 n=3 size=2\n1 2\n1 2")
    # merged, these cards would be the multiset deck of 1 3 5 / 2 4
    with pytest.raises(NotADeckError, match="duplicate members"):
        DeckMultiset.from_text(
            "deck k=1 n=5 size=4\n1 3 / 2 4 x1\n1 2 4 / 3 x1\n1 2 4 / 3 x1\n"
            "1 3 4 / 2 x2"
        )
    with pytest.raises(NotADeckError):
        DeckMultiset.from_text("deck k=1 n=3 size=1\n1 2")
    with pytest.raises(NotADeckError):
        Deck.from_text("deck k=x n=3 size=0")


def test_deck_member_size_enforced():
    with pytest.raises(NotADeckError):
        Deck([text("1 2"), text("1 2 3")], 1, 4)
    with pytest.raises(NotADeckError):
        DeckMultiset([(text("1 2"), 1)], 1, 4)
    with pytest.raises(OutOfRangeError):
        Deck([], 3, 2)


def test_multiset_multiplicities_validated():
    with pytest.raises(NotADeckError):
        DeckMultiset([(text("1 2"), 0)], 1, 3)
    # a 1-minor multiset must hold exactly n cards
    with pytest.raises(NotADeckError):
        DeckMultiset([(text("1 2"), 4)], 1, 3)


def test_deck_equality_and_containment():
    a = minor_set(text("1 2 / 3"), 1)
    b = Deck([text("1 / 2"), text("1 2")], 1, 3)
    assert a == b
    assert text("1 2") in a
    assert len(a) == 2
    assert a != minor_set(text("1 2 3"), 1)


def test_deck_text_tolerates_one_trailing_newline():
    # `tabrec minors ... | tabrec reconstruct` feeds the text with a newline
    t = text("1 2 / 3")
    for deck in (minor_set(t, 1), minor_multiset(t, 1)):
        body = deck.to_text()
        assert type(deck).from_text(body + "\n") == deck
        with pytest.raises(NotADeckError, match="4 member lines"):
            type(deck).from_text(body + "\n\n")


def test_decks_pickle_and_stay_frozen():
    """Every value class: repr, equality and hash by exact type and fields,
    pickling, ``replace``, and read-only fields."""
    t = text("1 3 4 / 2 5")
    one, pair = text("1"), (text("1 3 / 2"), text("1 2 / 3"))
    classes = ((text("1 2 / 3 4"), text("1 3 / 2 4")),)
    values = [
        (minor_set(t, 1), "Deck(k=1, n=5, size=3)"),
        (minor_set(t, 2), "Deck(k=2, n=5, size=3)"),
        (minor_multiset(t, 1), "DeckMultiset(k=1, n=5, size=3, total=5)"),
        (minor_multiset(t, 2), "DeckMultiset(k=2, n=5, size=3, total=20)"),
        (tabrec.Unique(one), "Unique(tableau=StandardTableau('1'))"),
        (
            tabrec.Ambiguous(pair),
            "Ambiguous(candidates=(StandardTableau('1 2 / 3'), "
            "StandardTableau('1 3 / 2')))",
        ),
        (tabrec.Invalid("none"), "Invalid(reason='none')"),
        (
            tabrec.census(4, 1, "set"),
            "CensusReport(n=4, k=1, mode='set', classes=((StandardTableau("
            "'1 2 / 3 4'), StandardTableau('1 3 / 2 4')),), total=10)",
        ),
        (
            tabrec.verify_proposition(5),
            "HBoundReport(n=5, pair=(StandardTableau('1 2 4 / 3 / 5'), "
            "StandardTableau('1 3 4 / 2 / 5')), common=3, bound_claimed=3, "
            "exact_H1=None)",
        ),
        (
            tabrec.differential_check(4),
            "DifferentialReport(n=4, total=10, set_unique=8, multiset_unique=8, "
            f"set_ambiguous={classes!r}, multiset_ambiguous={classes!r}, "
            "violations=())",
        ),
    ]
    assert {type(value) for value, _ in values} == {
        tabrec.Deck, tabrec.DeckMultiset, tabrec.Unique, tabrec.Ambiguous,
        tabrec.Invalid, tabrec.CensusReport, tabrec.HBoundReport,
        tabrec.DifferentialReport,
    }
    assert tabrec.Unique(one) == tabrec.Unique(tableau=one) != tabrec.Invalid(one)
    assert tabrec.Ambiguous(pair[::-1]) == tabrec.Ambiguous(pair)
    assert tabrec.Invalid("none") != tabrec.Invalid("other")
    # a field missing, given twice, unknown, or one too many
    bad = [((), {}), ((one,), {"tableau": one}), ((), {"t": one}), ((one, one), {})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            tabrec.Unique(*args, **kwargs)
    with pytest.raises(TypeError):
        tabrec.CensusReport(4, 1, mode="set", total=10)
    for value, shown in values:
        cls, names = type(value), type(value).__slots__
        assert repr(value) == shown
        fields = {name: getattr(value, name) for name in names}
        assert cls(**fields) == value and hash(cls(**fields)) == hash(value)
        assert cls(*fields.values()) == value
        assert value.replace() == value and value != 1
        # the same fields under another type are another value
        twin = object.__new__(type("Twin", (cls,), {"__slots__": ()}))
        for name, field in fields.items():
            object.__setattr__(twin, name, field)
        assert twin != value and value != twin
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is cls and copy == value
            assert hash(copy) == hash(value) and repr(copy) == shown
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 3)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is fields[name]
        if "Report" in cls.__name__:
            changed = value.replace(n=99)
            assert changed.n == 99 and value.n == fields["n"]
            assert changed != value and changed.replace(n=value.n) == value
    for deck, _ in values[:4]:
        assert pickle.loads(pickle.dumps(deck)).to_text() == deck.to_text()


def test_multiset_text_rejects_non_ascii_and_overlong_multiplicities():
    for mult in ("²", "1²", "9" * 5000):
        with pytest.raises(NotADeckError, match="multiplicity"):
            DeckMultiset.from_text(f"deck k=1 n=2 size=1\n1 x{mult}")
    assert DeckMultiset.from_text("deck k=1 n=2 size=1\n1 x2").total() == 2


def test_deck_constructors_reject_non_integer_sizes():
    members = [text("1 2"), text("1 / 2")]
    for k, n in ((1.7, 3.2), (1.0, 3), (1, 3.0), (True, 3), (1, "3")):
        with pytest.raises(OutOfRangeError):
            Deck(members, k, n)
        with pytest.raises(OutOfRangeError):
            DeckMultiset([(m, 1) for m in members], k, n)
    for mult in (2.0, True, "2"):
        with pytest.raises(NotADeckError):
            DeckMultiset([(text("1 2"), 1), (text("1 / 2"), mult)], 1, 3)


def column_filled_staircase(m):
    """Shape (m, m-1, ..., 1) filled column by column."""
    rows, v = [], 1
    for length in range(m, 0, -1):
        rows.append(list(range(v, v + length)))
        v += length
    return transpose(StandardTableau(rows))


def test_minor_levels_are_capped(monkeypatch):
    # the package re-exports the census function under the module's name
    census_module = importlib.import_module("tabrec.census")
    assert tabrec.ResourceLimitError is census_module.ResourceLimitError
    assert tabrec.ResourceLimitError is ResourceLimitError
    t = column_filled_staircase(6)
    # levels k = 1..6 hold 6, 19, 47, 104, 216 and 419 distinct minors
    monkeypatch.setattr(tabrec.taquin, "MAX_MINOR_LEVEL", 104)
    assert len(minor_set(t, 4)) == 104
    assert minor_multiset(t, 4).support() == minor_set(t, 4)
    for minors in (minor_set, minor_multiset):
        with pytest.raises(ResourceLimitError, match="cap of 104"):
            minors(t, 5)


def right_or_below(a, b):
    """True iff cell b is exactly one step right of or below cell a."""
    return b in ((a[0], a[1] + 1), (a[0] + 1, a[1]))


def test_minor_decks_match_per_entry_deletions():
    # the decks slide once per run of adjacent entries; the oracle slides
    # once per entry, and for k = 2 once per ordered deletion sequence
    for n in range(1, 10):
        for t in enumerate_syt_all(n):
            cards = Counter(delete_entry(t, m) for m in range(1, n + 1))
            assert minor_multiset(t, 1).counter() == cards
            assert set(minor_set(t, 1)) == set(cards)
            if 2 <= n <= 7:
                pairs = Counter(
                    delete_entry(u, m)
                    for u in (delete_entry(t, m) for m in range(1, n + 1))
                    for m in range(1, n)
                )
                assert minor_multiset(t, 2) == DeckMultiset(pairs.items(), 2, n)


def test_adjacent_entries_give_the_same_minor():
    # T - m = T - (m + 1) exactly when m + 1 is right of or below m; no
    # other deletions coincide, so every slide gives a new member
    for n in range(1, 10):
        for t in enumerate_syt_all(n):
            adjacent = 0
            for m in range(1, n):
                if right_or_below(t.cell_of(m), t.cell_of(m + 1)):
                    assert delete_entry(t, m) == delete_entry(t, m + 1)
                    adjacent += 1
            assert len(minor_set(t, 1)) == n - adjacent
    # 4 sits two rows down and one column left of 3: not adjacent
    t = text("1 3 / 2 / 4")
    assert (t.cell_of(3), t.cell_of(4)) == ((1, 2), (3, 1))
    assert not right_or_below(t.cell_of(3), t.cell_of(4))
    assert minor_set(t, 1).members == (
        text("1 / 2 / 3"),
        text("1 2 / 3"),
        text("1 3 / 2"),
    )


def test_long_row_and_column_take_one_slide(monkeypatch):
    # one hole walk per run, from the run's last entry: each is one run
    walks = []
    real = tabrec.taquin._walk

    def counting(*args):
        walks.append(args[-2:])
        return real(*args)

    monkeypatch.setattr(tabrec.taquin, "_walk", counting)
    row = StandardTableau([range(1, 20001)])
    assert minor_set(row, 1).members == (StandardTableau([range(1, 20000)]),)
    assert walks == [(0, 19999)]
    walks.clear()
    column = StandardTableau([v] for v in range(1, 5001))
    assert minor_multiset(column, 1).cards == (
        (StandardTableau([v] for v in range(1, 5000)), 5000),
    )
    assert walks == [(4999, 0)]
