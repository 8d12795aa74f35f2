"""Exhaustive deck census, bound experiments, and differential checks.

The quantifier-explicit bound oracle below re-derives the smallest
determining submultiset size directly from its definition (every
cardinality-m submultiset of every multiset, tested for containment in
every other multiset); it validates the max-intersection shortcut the
library uses.
"""

import importlib
import inspect
import json
from collections import Counter
from itertools import combinations

import pytest

from tabrec.census import CENSUS_CAP, MAX_HBOUND_N, _WIDTH, _deck_walk
from tabrec.census import _ROOT, _shards
from tabrec.census import (
    CensusReport,
    ResourceLimitError,
    VERIFY_SUITES,
    VerificationError,
    census,
    compute_H1_exact,
    differential_check,
    involution_count,
    proposition_pair,
    verify_proposition,
)
from tabrec.core import StandardTableau, TableauError, enumerate_syt_all
from tabrec.reconstruct import Invalid, TooSmallError
from tabrec.taquin import (
    _grow,
    _tableau_of,
    Deck,
    DeckMultiset,
    NotADeckError,
    OutOfRangeError,
    delete_entry,
    minor_multiset,
    minor_set,
)


def text(s):
    return StandardTableau.from_text(s)


def h1_by_definition(n):
    """Smallest m such that every size-m submultiset of every 1-minor
    multiset occurs in no other tableau's multiset."""
    multisets = [
        minor_multiset(t, 1).counter() for t in enumerate_syt_all(n)
    ]
    for m in range(1, n + 1):
        determining = True
        for i, whole in enumerate(multisets):
            cards = sorted(whole.elements(), key=StandardTableau.sort_key)
            subs = {frozenset(Counter(c).items()) for c in combinations(cards, m)}
            for sub in subs:
                chosen = Counter(dict(sub))
                if any(
                    j != i and chosen <= other
                    for j, other in enumerate(multisets)
                ):
                    determining = False
                    break
            if not determining:
                break
        if determining:
            return m
    return n + 1


def test_involution_count_known_values():
    assert [involution_count(n) for n in range(11)] == [
        1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496,
    ]
    assert involution_count(12) == 140152
    with pytest.raises(OutOfRangeError):
        involution_count(-1)


def test_census_published_small_cases():
    assert census(5, 1, "set").classes == ()
    four = census(4, 1, "multiset")
    assert four.classes == ((text("1 2 / 3 4"), text("1 3 / 2 4")),)
    three_set = census(3, 1, "set")
    assert three_set.classes == ((text("1 2 / 3"), text("1 3 / 2")),)
    assert census(3, 1, "multiset").classes == ()


def test_census_totals_and_class_consistency():
    for n in range(2, 8):
        for mode in ("set", "multiset"):
            report = census(n, 1, mode)
            assert report.total == involution_count(n)
            for cls in report.classes:
                assert len(cls) >= 2
                decks = {
                    minor_set(t, 1).to_text()
                    if mode == "set"
                    else minor_multiset(t, 1).to_text()
                    for t in cls
                }
                assert len(decks) == 1


def test_census_multiset_collisions_share_support():
    for n in range(2, 8):
        for cls in census(n, 1, "multiset").classes:
            supports = {minor_set(t, 1) for t in cls}
            assert len(supports) == 1


def slide_classes(n, k, mode):
    """Collision classes of 𝒴ₙ grouped by the text of the slide-based
    k-minor deck, in census order: by deck text, members sorted."""
    minors = minor_set if mode == "set" else minor_multiset
    groups = {}
    for t in enumerate_syt_all(n):
        groups.setdefault(minors(t, k).to_text(), []).append(t)
    return tuple(
        tuple(sorted(group))
        for _, group in sorted(groups.items())
        if len(group) >= 2
    )


def test_census_k_minor_classes_match_slide_decks(monkeypatch):
    # the census keys every k by hashed words from the walk, so the oracle
    # is slide-based deletion: a set key that kept counts, a multiset key
    # that dropped them, or one level too few would each split some class.
    # With one key for every tableau, all of 𝒴ₙ are candidates, and a
    # merge that trusted the hash would report them as one class
    for n in range(2, 8):
        for k in range(1, n):
            for mode in ("set", "multiset"):
                expected = slide_classes(n, k, mode)
                report = census(n, k, mode)
                assert report.total == involution_count(n)
                assert report.classes == expected, (n, k, mode)
                with monkeypatch.context() as patch:
                    patch.setattr(census_module, "hash", lambda key: 0, raising=False)
                    assert census(n, k, mode).classes == expected, (n, k, mode)
    assert len(slide_classes(7, 3, "set")) == 40
    assert len(slide_classes(7, 5, "multiset")) == 48
    for mode in ("set", "multiset"):
        expected = slide_classes(7, 3, mode)
        for jobs in (1, 2):
            assert census(7, 3, mode, jobs).classes == expected, (mode, jobs)


# collision classes of the k-minor census, (set, multiset) at n = 4..9
K_MINOR_CLASS_COUNTS = {
    1: [(1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
    2: [(1, 1), (3, 2), (4, 0), (2, 0), (0, 0), (0, 0)],
    3: [(1, 1), (1, 5), (5, 6), (40, 0), (39, 0), (6, 0)],
    4: [None, (1, 1), (1, 13), (5, 20), (75, 0), (344, 0)],
}


def test_census_k_minor_class_counts():
    # the k = 4 cells past n = 7 confirm hundreds of members by slides
    for k, row in K_MINOR_CLASS_COUNTS.items():
        for n, counts in enumerate(row, 4):
            if counts is not None:
                got = tuple(len(census(n, k, m).classes) for m in ("set", "multiset"))
                assert got == counts, (n, k)


def test_census_deterministic_across_jobs():
    # at k = 2 the keys hash k-minor words, built from word tables that
    # each worker gets once, when it starts
    for k, mode in ((1, "set"), (2, "set"), (2, "multiset")):
        reports = [census(6, k, mode, jobs=j) for j in (1, 2, 8)]
        texts = {r.to_text() for r in reports}
        jsons = {r.to_json() for r in reports}
        assert len(texts) == 1, (k, mode)
        assert len(jsons) == 1, (k, mode)


def test_census_report_serialization():
    report = census(4, 1, "multiset")
    assert report.to_text() == (
        "census n=4 k=1 mode=multiset classes=1\n"
        "class size=2\n"
        "1 2 / 3 4\n"
        "1 3 / 2 4"
    )
    decoded = json.loads(report.to_json())
    assert decoded == {
        "n": 4,
        "k": 1,
        "mode": "multiset",
        "total": 10,
        "classes": [["1 2 / 3 4", "1 3 / 2 4"]],
    }


def test_census_argument_validation():
    with pytest.raises(OutOfRangeError):
        census(0, 1)
    with pytest.raises(OutOfRangeError):
        census(3, 0)
    with pytest.raises(OutOfRangeError):
        census(3, 3)
    with pytest.raises(ResourceLimitError):
        census(14, 1, "set")
    with pytest.raises(TableauError, match="mode must be set or multiset"):
        census(3, 1, "bag")


def test_proposition_pair_published_instances():
    assert proposition_pair(6) == (
        text("1 2 3 5 6 / 4"),
        text("1 2 4 5 6 / 3"),
    )
    assert proposition_pair(7) == (
        text("1 2 3 5 6 / 4 / 7"),
        text("1 2 4 5 6 / 3 / 7"),
    )
    assert proposition_pair(4) == (text("1 2 4 / 3"), text("1 3 4 / 2"))
    with pytest.raises(TooSmallError):
        proposition_pair(3)


def test_proposition_pair_shapes_and_distinctness():
    for n in range(4, 41):
        t1, t2 = proposition_pair(n)
        assert t1 != t2
        assert t1.n == t2.n == n
        if n % 2 == 0:
            assert t1.shape == t2.shape == (n - 1, 1)
        else:
            assert t1.shape == t2.shape == (n - 2, 1, 1)


def test_verify_proposition_range():
    for n in range(4, 41):
        report = verify_proposition(n)
        assert report.bound_claimed == n // 2 + 1
        assert report.common >= report.bound_claimed
        assert report.exact_H1 is None


def test_verify_proposition_named_repeated_minor():
    t1, t2 = proposition_pair(6)
    repeated = text("1 2 4 5 / 3")
    assert minor_multiset(t1, 1).counter()[repeated] == 3
    assert minor_multiset(t2, 1).counter()[repeated] == 3
    t3, t4 = proposition_pair(7)
    repeated_odd = text("1 2 4 5 / 3 / 6")
    assert repeated_odd.shape == (4, 1, 1)
    assert minor_multiset(t3, 1).counter()[repeated_odd] >= 3
    assert minor_multiset(t4, 1).counter()[repeated_odd] >= 3


def test_hbound_report_text():
    report = verify_proposition(6)
    assert report.to_text() == "hbound n=6 common=4 claimed=4 exact=none"
    exact = report.replace(exact_H1=compute_H1_exact(6))
    assert exact.to_text() == "hbound n=6 common=4 claimed=4 exact=5"


def test_h1_matches_quantifier_oracle():
    for n in (5, 6):
        assert compute_H1_exact(n) == h1_by_definition(n)


def test_h1_bounds_and_guards():
    for n in range(5, 9):
        value = compute_H1_exact(n)
        assert n // 2 + 2 <= value <= n
    with pytest.raises(TooSmallError):
        compute_H1_exact(4)


def test_differential_small_sizes():
    one = differential_check(1)
    assert (one.total, one.set_unique, one.multiset_unique) == (1, 1, 1)
    assert one.violations == ()

    two = differential_check(2)
    assert two.set_unique == two.multiset_unique == 0
    assert len(two.set_ambiguous) == len(two.multiset_ambiguous) == 1
    assert two.violations == ()

    three = differential_check(3)
    assert three.set_ambiguous == ((text("1 2 / 3"), text("1 3 / 2")),)
    assert three.multiset_ambiguous == ()
    assert (three.set_unique, three.multiset_unique) == (2, 4)
    assert three.violations == ()

    four = differential_check(4)
    assert four.set_ambiguous == ((text("1 2 / 3 4"), text("1 3 / 2 4")),)
    assert four.multiset_ambiguous == four.set_ambiguous
    assert (four.set_unique, four.multiset_unique) == (8, 8)
    assert four.violations == ()


def test_differential_all_unique_at_five():
    report = differential_check(5)
    assert report.set_unique == report.multiset_unique == 26
    assert report.set_ambiguous == report.multiset_ambiguous == ()
    assert report.violations == ()


def test_verify_suite_registry_and_results():
    assert sorted(VERIFY_SUITES) == [
        "lemma3.1",
        "lemma3.2",
        "lemma3.3",
        "lemma3.6",
        "proposition5",
        "section4",
        "theorem3.7",
    ]
    expectations = {
        "lemma3.1": 6,
        "lemma3.2": 6,
        "lemma3.3": 6,
        "lemma3.6": 5,
        "theorem3.7": 6,
        "section4": 4,
        "proposition5": 12,
    }
    for name, max_n in expectations.items():
        assert VERIFY_SUITES[name](max_n) == [], name


def test_census_jobs_bounds(monkeypatch):
    with pytest.raises(OutOfRangeError):
        census(4, 1, "set", jobs=0)
    with pytest.raises(OutOfRangeError):
        census(4, 1, "set", jobs=-1)

    import multiprocessing
    import os

    started = []

    class FakePool:
        """Runs the shards in this process and records the pool size."""

        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    serial = census(6, 1, "set").to_text()
    assert started == []
    # n = 6 has 26 shards, one per tableau of size 5: the pool size is
    # capped by CPUs, then shards
    for cpus, want in ((4, 4), (64, 26), (None, None)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        assert census(6, 1, "set", jobs=10**6).to_text() == serial
        assert started == ([] if want is None else [want])


def h1_all_pairs(n):
    """One more than the largest 1-minor multiset intersection, taken by
    intersecting every pair of distinct size-n tableaux directly."""
    counters = [minor_multiset(t, 1).counter() for t in enumerate_syt_all(n)]
    best = 0
    for i, left in enumerate(counters):
        for right in counters[i + 1:]:
            best = max(best, sum((left & right).values()))
    return best + 1


def test_h1_matches_all_pairs_oracle():
    for n in range(5, 9):
        assert compute_H1_exact(n) == h1_all_pairs(n), n


def test_h1_exact_at_nine():
    # h1_all_pairs(9) also gives 7, but takes about 13 s on a 2-core Xeon,
    # too long to repeat on every run
    assert compute_H1_exact(9) == 7


def test_h1_exact_at_ten():
    assert compute_H1_exact(10) == 8


def test_verify_proposition_size_cap():
    assert verify_proposition(MAX_HBOUND_N).n == MAX_HBOUND_N
    with pytest.raises(ResourceLimitError, match=str(MAX_HBOUND_N)):
        verify_proposition(MAX_HBOUND_N + 1)
    with pytest.raises(ResourceLimitError):
        verify_proposition(10**12)


PER_TABLEAU_SUITES = (
    "lemma3.1", "lemma3.2", "lemma3.3", "lemma3.6", "theorem3.7",
)
# the package re-exports the census function under the module's name
census_module = importlib.import_module("tabrec.census")


def test_walks_past_the_cap_fail_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(census_module, "enumerate_syt_all", no_enumeration)
    monkeypatch.setattr(census_module, "enumerate_syt", no_enumeration)
    monkeypatch.setattr(census_module, "_deck_walk", no_enumeration)
    monkeypatch.setattr(census_module, "_nodes", no_enumeration)
    for name in PER_TABLEAU_SUITES:
        with pytest.raises(ResourceLimitError, match="1000000"):
            VERIFY_SUITES[name](14)
        with pytest.raises(ResourceLimitError):
            VERIFY_SUITES[name](10**9)
    for n in (14, 10**6):
        with pytest.raises(ResourceLimitError):
            census(n, 1, "multiset")
        with pytest.raises(ResourceLimitError):
            differential_check(n)
        with pytest.raises(ResourceLimitError, match="1000000"):
            compute_H1_exact(n)


def wrong_delete(t, m):
    """delete_entry, except that it deletes 1 when asked for n - 1."""
    return delete_entry(t, 1 if m == t.n - 1 else m)


def refuse(n):
    raise VerificationError("refused")


def no_multiset_classes(n):
    return differential_check(n).replace(multiset_ambiguous=())


@pytest.mark.parametrize(
    "suite, name, fake, count, violation",
    [
        ("lemma3.1", "_shape", lambda n, shapes: (9,), 40,
         "shape of '1 2 3': got (9,), want (3,)"),
        ("lemma3.2", "_locate", lambda n, shape, tops: (9, 9), 36,
         "location of 4 in '1 2 3 4': got (9, 9), want (1, 4)"),
        ("lemma3.3", "_reduce", lambda n, level, width: level, 42,
         "reduced deck of '1 2' differs from the deck of its (n-1)-entry minor"),
        ("lemma3.3", "delete_entry", wrong_delete, 28,
         "double deletion from '1 2 4 / 3' depends on the order of removing "
         "the top two entries"),
        ("lemma3.6", "reconstruct_from_set", lambda deck: Invalid("wrong"), 20,
         "round trip of '1 2 3 4 5': invalid wrong"),
        ("theorem3.7", "reconstruct_from_set", lambda deck: Invalid("wrong"), 26,
         "round trip of '1 2 3 4 5': invalid wrong"),
        ("section4", "reconstruct_from_multiset", lambda deck: Invalid("wrong"),
         17, "n=1: multiset deck of '1': got 'invalid wrong', census says "
         "'unique 1'"),
        ("section4", "differential_check", no_multiset_classes, 2,
         "n=2: ambiguous classes ((('1 / 2', '1 2'),), ()), want "
         "((('1 / 2', '1 2'),), (('1 / 2', '1 2'),))"),
        ("proposition5", "verify_proposition", refuse, 2, "n=4: refused"),
    ],
)
def test_suites_report_wrong_answers(
    monkeypatch, suite, name, fake, count, violation
):
    monkeypatch.setattr(census_module, name, fake)
    violations = VERIFY_SUITES[suite](5)
    assert len(violations) == count
    assert violations[0] == violation


@pytest.mark.parametrize(
    "suite, name, count",
    [("lemma3.1", "_shape", 40), ("lemma3.2", "_locate", 36),
     ("lemma3.3", "_reduce", 42)],
)
def test_suites_name_the_tableau_a_core_raises_on(monkeypatch, suite, name, count):
    real_levels, real_core = census_module._levels, getattr(census_module, name)
    seen, calls = [], []

    def levels(tableaux):
        for item in real_levels(tableaux):
            seen.append(item[0])
            yield item

    def core(*args):
        calls.append(args)
        if len(calls) == 3:
            raise NotADeckError("boom")
        return real_core(*args)

    monkeypatch.setattr(census_module, "_levels", levels)
    monkeypatch.setattr(census_module, name, core)
    violations = VERIFY_SUITES[suite](5)
    assert violations == [f"{seen[2].to_text()!r} raised boom"]
    # the suite went on past the raise, to every tableau of its walk
    assert len(seen) == len(calls) == count


def test_differential_check_reports_disagreements(monkeypatch):
    monkeypatch.setattr(
        census_module, "reconstruct_from_set", lambda deck: Invalid("wrong")
    )
    report = differential_check(3)
    assert len(report.violations) == 4
    first = (
        "set deck of '1 2 3': got 'invalid wrong', census says 'unique 1 2 3'"
    )
    assert report.violations[0] == first


def test_common_bound_suite_cap(monkeypatch):
    def no_witness(n):
        raise AssertionError(f"built the witness pair at n={n}")

    monkeypatch.setattr(census_module, "verify_proposition", no_witness)
    with pytest.raises(ResourceLimitError, match=str(MAX_HBOUND_N)):
        VERIFY_SUITES["proposition5"](MAX_HBOUND_N + 1)


def test_suites_below_their_range_find_nothing():
    for name, suite in VERIFY_SUITES.items():
        for max_n in (-3, 0, 1):
            assert suite(max_n) == [], (name, max_n)


def test_census_knobs_are_fixed():
    assert list(inspect.signature(census).parameters) == [
        "n", "k", "mode", "jobs",
    ]
    assert list(inspect.signature(differential_check).parameters) == ["n"]


def test_deck_walk_matches_slide_decks():
    # the oracle is slide-based deletion, one tableau and entry at a time
    for n in range(1, 10):
        walked = []
        for word, minors in _deck_walk(n):
            t = _tableau_of(word, n, _WIDTH)
            walked.append(t)
            cards = [_tableau_of(minor, n - 1, _WIDTH) for minor in minors]
            assert cards == [delete_entry(t, m) for m in range(1, n + 1)]
            assert DeckMultiset(Counter(cards).items(), 1, n) == (
                minor_multiset(t, 1)
            )
            assert Deck(cards, 1, n) == minor_set(t, 1)
        # every tableau of 𝒴ₙ exactly once
        assert sorted(walked) == sorted(enumerate_syt_all(n)), n


def test_shards_partition_the_tree():
    # n = 1..5 cut at size n - 1, below the shard depth; n >= 6 at size 5
    for n in range(1, 10):
        shards = _shards(n)
        assert len(shards) == involution_count(min(n - 1, 5)), n
        walked = [
            word for node in shards for word, _ in _deck_walk(n, node)
        ]
        assert len(walked) == len(set(walked)) == involution_count(n), n
        decoded = sorted(_tableau_of(word, n, _WIDTH) for word in walked)
        assert decoded == sorted(enumerate_syt_all(n)), n


def test_cap_fits_the_row_packing():
    # a packed word gives each entry's row 4 bits, so at most 16 rows
    largest = max(n for n in range(1, 20) if involution_count(n) <= CENSUS_CAP)
    assert largest == 13 < 16
    column = StandardTableau([[v] for v in range(1, largest + 1)])
    # follow the new-row child alone, so only this column's ancestors grow
    node = _ROOT
    for _ in range(largest - 1):
        *_, node = _grow(node, _WIDTH)
    [_, (word, minors)] = _deck_walk(largest, node)
    assert _tableau_of(word, largest, _WIDTH) == column
    shorter = StandardTableau([[v] for v in range(1, largest)])
    cards = [_tableau_of(minor, largest - 1, _WIDTH) for minor in minors]
    assert cards == [shorter] * largest


def test_census_and_exact_h1_make_no_slides(monkeypatch):
    def fail(*args):
        raise AssertionError("slid, walked a hole or built deck text")

    taquin_module = importlib.import_module("tabrec.taquin")
    monkeypatch.setattr(taquin_module, "_slide", fail)
    monkeypatch.setattr(taquin_module, "_walk", fail)
    monkeypatch.setattr(Deck, "to_text", fail)
    monkeypatch.setattr(DeckMultiset, "to_text", fail)
    # nor builds a tableau or deck: keys are words at every k
    monkeypatch.setattr(StandardTableau, "_make", fail)
    monkeypatch.setattr(Deck, "__init__", fail)
    monkeypatch.setattr(DeckMultiset, "__init__", fail)
    for mode in ("set", "multiset"):
        assert census(7, 1, mode).classes == ()
        assert census(8, 2, mode).classes == ()
    assert compute_H1_exact(7) == 6


def test_census_past_ten_finds_no_collisions():
    for mode in ("set", "multiset"):
        report = census(11, 1, mode)
        assert report.classes == (), mode
        assert report.total == 35696
