"""Jeu-de-taquin deletion, slide paths, and k-minor decks.

Fixed values are hand-traced deletions and the published example decks;
the exhaustive loops check the structural facts the reconstruction
relies on (validity, corner bookkeeping, the deck-reduction identities,
and commutation with transposition) over every tableau of small sizes.
"""

import pytest

from tabrec.core import (
    StandardTableau,
    conjugate,
    enumerate_syt_all,
    outer_corners,
)
from tabrec.taquin import (
    Deck,
    DeckMultiset,
    NotADeckError,
    OutOfRangeError,
    delete_entry,
    minor_multiset,
    minor_set,
    slide_path,
)


def text(s):
    return StandardTableau.from_text(s)


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
            corners = set(outer_corners(t.shape))
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
            flipped = t.transpose()
            for m in range(1, n + 1):
                assert delete_entry(flipped, m) == delete_entry(t, m).transpose()
            assert minor_set(flipped, 1) == minor_set(t, 1).transpose()


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
    with pytest.raises(NotADeckError):
        Deck.from_text("deck k=1 n=3 size=2\n1 2\n1 2")
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
