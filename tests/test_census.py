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

from tabrec.census import MAX_HBOUND_N
from tabrec.census import (
    CensusReport,
    ResourceLimitError,
    SizeMismatchError,
    VERIFY_SUITES,
    VerificationError,
    census,
    common_minor_count,
    compute_H1_exact,
    differential_check,
    involution_count,
    proposition_pair,
    verify_proposition,
    with_exact,
)
from tabrec.core import StandardTableau, enumerate_syt, enumerate_syt_all
from tabrec.reconstruct import TooSmallError
from tabrec.taquin import OutOfRangeError, minor_multiset, minor_set


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


def test_census_k2_runs():
    report = census(4, 2, "set")
    assert report.total == 10
    for cls in report.classes:
        assert len({minor_set(t, 2).to_text() for t in cls}) == 1


def test_census_deterministic_across_jobs():
    reports = [census(6, 1, "set", jobs=j) for j in (1, 2, 8)]
    texts = {r.to_text() for r in reports}
    jsons = {r.to_json() for r in reports}
    assert len(texts) == 1
    assert len(jsons) == 1


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
    assert report.elapsed >= 0.0


def test_census_argument_validation():
    with pytest.raises(OutOfRangeError):
        census(0, 1)
    with pytest.raises(OutOfRangeError):
        census(3, 0)
    with pytest.raises(OutOfRangeError):
        census(3, 3)
    with pytest.raises(ResourceLimitError):
        census(14, 1, "set")
    with pytest.raises(Exception):
        census(3, 1, "bag")


def test_common_minor_count_published_values():
    assert common_minor_count(text("1 2 / 3 4"), text("1 3 / 2 4")) == 4
    t = text("1 2 4 / 3 5")
    assert common_minor_count(t, t) == 5
    t1, t2 = proposition_pair(6)
    assert common_minor_count(t1, t2) >= 4
    with pytest.raises(SizeMismatchError):
        common_minor_count(text("1 2"), text("1 2 3"))


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
    exact = with_exact(report)
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
    with pytest.raises(ResourceLimitError):
        compute_H1_exact(10)


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


def test_differential_report_text():
    report = differential_check(3)
    assert report.to_text() == (
        "differential n=3 total=4 set-ambiguous=1 multiset-ambiguous=0 "
        "violations=0\n"
        "set-class size=2\n"
        "1 2 / 3\n"
        "1 3 / 2"
    )


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

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    serial = census(6, 1, "set").to_text()
    assert started == []
    # n = 6 has 11 shapes: the pool size is capped by CPUs, then shapes
    for cpus, want in ((4, 4), (64, 11), (None, None)):
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


def test_verify_proposition_size_cap():
    assert verify_proposition(MAX_HBOUND_N).n == MAX_HBOUND_N
    with pytest.raises(ResourceLimitError, match=str(MAX_HBOUND_N)):
        verify_proposition(MAX_HBOUND_N + 1)
    with pytest.raises(ResourceLimitError):
        verify_proposition(10**12)


PER_TABLEAU_SUITES = ("lemma3.1", "lemma3.2", "lemma3.3", "theorem3.7")
# the package re-exports the census function under the module's name
census_module = importlib.import_module("tabrec.census")


def test_walks_past_the_cap_fail_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(census_module, "enumerate_syt_all", no_enumeration)
    monkeypatch.setattr(census_module, "enumerate_syt", no_enumeration)
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
