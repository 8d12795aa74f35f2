"""Property tests for the three text parsers and the tableau
constructor's checks, driven by hypothesis.

Every input either parses or raises ``TableauError``, never another
exception, and whatever parses prints back to a text that parses to
the same value and prints again byte for byte the same.

Inputs mix arbitrary text with text in the parsers' own alphabet and
with canonical forms of real tableaux and decks edited in a few places,
so that most inputs get past the first check.  The tableau constructor
is also run on the rows of real tableaux with defects added, against a
reference copy of its checks written as per-entry generators: it must
accept the same rows, and reject the rest with the same error class and
message.  The deck readers, which read rows through a memo shared by a
deck's members, are run likewise on perturbed decks against reading
each member line with ``StandardTableau.from_text``.  Runs are
derandomized with a fixed example count, so the suite is repeatable and
fast; the module is skipped when hypothesis is not installed.
"""

import random
from itertools import chain
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from tabrec.core import (
    EntryError,
    OrderError,
    StandardTableau,
    TableauError,
    _RowMemo,
    check_partition,
    enumerate_syt_all,
)
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



def reference_validate(rows):
    """The constructor's checks as per-entry generators, in their order:
    the oracle for the C-level passes that replaced them."""
    rows = tuple(map(tuple, rows))
    if any(type(v) is not int for v in chain.from_iterable(rows)):
        raise EntryError("entries must be integers (bool excluded)")
    shape = check_partition(len(row) for row in rows)
    n = sum(shape)
    seen = sorted(chain.from_iterable(rows))
    if seen != list(range(1, n + 1)):
        for i, v in enumerate(seen):
            if v != i + 1:
                raise EntryError(
                    f"entries are not a permutation of 1..{n} "
                    f"(expected {i + 1}, found {v})"
                )
    for i, row in enumerate(rows):
        if any(a >= b for a, b in zip(row, row[1:])):
            raise OrderError(f"row {i + 1} is not strictly increasing")
    bad = [
        j
        for upper, lower in zip(rows, rows[1:])
        for j, (a, b) in enumerate(zip(upper, lower))
        if a >= b
    ]
    if bad:
        raise OrderError(f"column {min(bad) + 1} is not strictly increasing")


# swaps keep a permutation, so only they reach the row and column checks;
# they are drawn as often as the other defects together
DEFECTS = ("swap",) * 6 + ("duplicate", "zero", "negative", "bool", "gap", "ragged")


@st.composite
def defective_rows(draw):
    """The rows of a real tableau with up to four defects added."""
    rows = [list(row) for row in draw(st.sampled_from(TABLEAUX)).rows]
    for _ in range(draw(st.integers(0, 4))):
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        if not cells:
            break
        i, j = draw(st.sampled_from(cells))
        k, m = draw(st.sampled_from(cells))
        defect = draw(st.sampled_from(DEFECTS))
        if defect == "swap":
            rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
        elif defect == "duplicate":
            rows[i][j] = rows[k][m]
        elif defect == "zero":
            rows[i][j] = 0
        elif defect == "negative":
            rows[i][j] = -draw(st.integers(1, 9))
        elif defect == "bool":
            rows[i][j] = draw(st.booleans())
        elif defect == "gap":
            rows[i][j] += draw(st.integers(1, 9))
        else:  # move a row's last entry to the end of any row, or a new one
            target = draw(st.integers(0, len(rows)))
            if target == len(rows):
                rows.append([])
            rows[target].append(rows[i].pop())
    return rows


@settings(FUZZ, max_examples=1000)
@given(defective_rows())
def test_validation_matches_generator_reference(rows):
    try:
        reference_validate(rows)
    except TableauError as want:
        with pytest.raises(TableauError) as got:
            StandardTableau(rows)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
    else:
        assert StandardTableau(rows).rows == tuple(map(tuple, rows))


def grow(rows, choose):
    """Add the next entry to the rows, at the corner ``choose`` picks
    from the rows it may end (a new row last)."""
    addable = [
        r for r in range(len(rows) + 1)
        if r in (0, len(rows)) or len(rows[r]) < len(rows[r - 1])
    ]
    r = choose(addable)
    if r == len(rows):
        rows.append([])
    rows[r].append(sum(map(len, rows)) + 1)


@st.composite
def grown_tableaux(draw):
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        grow(rows, lambda addable: draw(st.sampled_from(addable)))
    return StandardTableau(rows)


LINE_DEFECTS = (
    "swap_row", "swap_column", "non_integer", "empty_row", "whitespace",
    "line_end", "bump", "repeated_bad_row",
)
SPACES = (" ", "\t", "\r", "  ", "\u2003")


@st.composite
def perturbed_deck_texts(draw):
    """The text of a set or multiset deck of a random tableau, with up to
    four defects put into its member lines; returns (multiset, text)."""
    t = draw(grown_tableaux())
    multiset = draw(st.booleans())
    k = min(draw(st.sampled_from([1, 1, 1, 0, 2])), t.n)
    deck = (minor_multiset if multiset else minor_set)(t, k)
    header, *lines = deck.to_text().split("\n")
    # a member line as its rows of entry texts, plus the " x<k>" suffix
    members, ends = [], []
    for line in lines:
        member, sep, mult = line.rpartition(" x") if multiset else (line, "", "")
        members.append([row.split() for row in member.split(" / ") if row])
        ends.append(sep + mult)
    for _ in range(draw(st.integers(0, 4))):
        filled = [at for at, rows in enumerate(members) if rows]
        if not filled:
            break
        at = draw(st.sampled_from(filled))
        rows = members[at]
        i = draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
        j = draw(st.integers(0, len(rows[i]) - 1))
        below = [b for b in range(i + 1, len(rows)) if j < len(rows[b])]
        defect = draw(st.sampled_from(LINE_DEFECTS))
        if defect == "swap_row":
            m = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j], rows[i][m] = rows[i][m], rows[i][j]
        elif defect == "swap_column" and below:
            b = draw(st.sampled_from(below))
            rows[i][j], rows[b][j] = rows[b][j], rows[i][j]
        elif defect == "non_integer":
            rows[i][j] = draw(st.sampled_from(["x", "1.5", "²", "-", "٣", "+2", "1_0"]))
        elif defect == "empty_row":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif defect == "whitespace":
            space, entry = draw(st.sampled_from(SPACES)), rows[i][j]
            rows[i][j] = draw(st.sampled_from([space + entry, entry + space]))
        elif defect == "line_end":
            ends[at] += draw(st.sampled_from(SPACES))
        elif defect == "bump" and rows[i][j].strip().isdecimal():
            rows[i][j] = str(int(rows[i][j]) + draw(st.integers(-2, 2)))
        elif defect == "repeated_bad_row":
            good = list(rows[i])
            bad = good[::-1] if len(good) > 1 else ["0"]
            for other in members:
                other[:] = [bad if row == good else row for row in other]
    body = [
        " / ".join(" ".join(row) for row in rows) + end
        for rows, end in zip(members, ends)
    ]
    return multiset, "\n".join([header, *body])


def read_deck(cls, text):
    try:
        return cls.from_text(text)
    except TableauError as exc:
        return type(exc), str(exc)


@settings(FUZZ, max_examples=600)
@given(perturbed_deck_texts())
def test_deck_readers_match_reading_each_line(case):
    multiset, text = case
    cls = DeckMultiset if multiset else Deck
    got = read_deck(cls, text)
    each_line = lambda memo, line: StandardTableau.from_text(line)
    with mock.patch.object(_RowMemo, "tableau", each_line):
        assert got == read_deck(cls, text)


def test_deck_text_members_share_rows():
    rows, rng = [], random.Random(300)
    for _ in range(300):
        grow(rows, rng.choice)
    t = StandardTableau(rows)
    for deck in (
        Deck.from_text(minor_set(t).to_text()),
        DeckMultiset.from_text(minor_multiset(t).to_text()).support(),
    ):
        member_rows = [row for member in deck for row in member.rows]
        assert len({id(row) for row in member_rows}) * 5 < len(member_rows)


def test_deck_text_members_hold_one_tuple_per_distinct_row():
    # " 2 " in `1 / 2 / 3` and " 2" in `1 3 / 2` are one row, `2`
    t = StandardTableau.from_text("1 3 / 2 / 4")
    for deck in (
        Deck.from_text(minor_set(t).to_text()),
        DeckMultiset.from_text(minor_multiset(t).to_text()).support(),
    ):
        member_rows = [row for member in deck for row in member.rows]
        assert len({id(row) for row in member_rows}) == len(set(member_rows))
