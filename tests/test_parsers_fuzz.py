"""Property tests for the three text parsers, driven by hypothesis.

Every input either parses or raises ``TableauError``, never another
exception, and whatever parses prints back to a text that parses to
the same value and prints again byte for byte the same.

Inputs mix arbitrary text with text in the parsers' own alphabet and
with canonical forms of real tableaux and decks edited in a few places,
so that most inputs get past the first check.  Runs are derandomized
with a fixed example count, so the suite is repeatable and fast; the
module is skipped when hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tabrec.core import StandardTableau, TableauError, enumerate_syt_all
from tabrec.taquin import Deck, DeckMultiset, minor_multiset, minor_set

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

TABLEAUX = [t for n in range(7) for t in enumerate_syt_all(n)]
# the parsers' own characters, plus a tab, a non-ASCII decimal digit (٣)
# and a digit that int() refuses (²)
ALPHABET = "0123456789 /\nxdeckn=sizeé٣²\t-"
NEAR = st.text(alphabet=ALPHABET, max_size=40)
JUNK = st.one_of(st.text(max_size=40), NEAR)


@st.composite
def edited(draw, texts):
    """A text from ``texts`` with up to three places where a few
    characters are cut and others put in."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.text(alphabet=ALPHABET, max_size=2))
        cut = draw(st.integers(0, 2))
        text = text[:at] + piece + text[at + cut:]
    return text


def deck_texts(minors):
    return st.builds(
        lambda t, k: minors(t, min(k, t.n)).to_text(),
        st.sampled_from(TABLEAUX),
        st.integers(0, 2),
    )


def parse_or_reject(parse, value):
    try:
        return parse(value)
    except TableauError:
        return None


def assert_text_fixed_point(parse, parsed):
    printed = parsed.to_text()
    again = parse(printed)
    assert again == parsed
    assert again.to_text() == printed


TABLEAU_TEXT = st.sampled_from([t.to_text() for t in TABLEAUX])


@FUZZ
@given(st.one_of(JUNK, TABLEAU_TEXT, edited(TABLEAU_TEXT)))
def test_tableau_from_text_parses_or_rejects(text):
    parsed = parse_or_reject(StandardTableau.from_text, text)
    if parsed is not None:
        assert_text_fixed_point(StandardTableau.from_text, parsed)


@FUZZ
@given(st.one_of(JUNK, deck_texts(minor_set), edited(deck_texts(minor_set))))
def test_deck_from_text_parses_or_rejects(text):
    parsed = parse_or_reject(Deck.from_text, text)
    if parsed is not None:
        assert_text_fixed_point(Deck.from_text, parsed)


MULTISET_TEXT = deck_texts(minor_multiset)


@st.composite
def redrawn_multiplicities(draw):
    """A canonical multiset deck text with every multiplicity redrawn."""
    header, *cards = draw(MULTISET_TEXT).split("\n")
    mults = st.text(alphabet="0123456789٣²+-_ ", max_size=3)
    cards = [card.rpartition(" x")[0] + " x" + draw(mults) for card in cards]
    return "\n".join([header, *cards])


@FUZZ
@given(
    st.one_of(
        JUNK, MULTISET_TEXT, edited(MULTISET_TEXT), redrawn_multiplicities()
    )
)
def test_deck_multiset_from_text_parses_or_rejects(text):
    parsed = parse_or_reject(DeckMultiset.from_text, text)
    if parsed is not None:
        assert_text_fixed_point(DeckMultiset.from_text, parsed)

