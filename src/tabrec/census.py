"""Brute-force ground truth for the reconstruction results.

Exhaustive censuses find the collision classes (distinct tableaux
sharing a deck) of all size-n tableaux without pairwise comparison.  One
depth-first walk of the add-a-corner tree gives every tableau's 1-minors
as packed row words (the row of entry v in bits 4(v-1)..4v-1) without a
slide, and as the k-minors of T are the 1-minors of its (k-1)-minors,
the walk's tables at smaller sizes give the rest by lookup.  Each
tableau leaves one int, the hash of its k-minor words; only tableaux
whose hash is shared are walked to again, decoded and grouped by
slide-built decks.  census shards the walk by subtree.
On top of the census sit the bound experiments for the smallest
determining submultiset of 1-minors, and a differential check that
replays the constructive reconstruction against the census grouping.
"""

import os
from collections import Counter
from itertools import chain

from .core import (
    CENSUS_CAP,
    ResourceLimitError,
    StandardTableau,
    TableauError,
    enumerate_syt,
    enumerate_syt_all,
    _Record,
)
from .reconstruct import (
    _level,
    _locate,
    _reduce,
    _shape,
    _tops,
    Ambiguous,
    Unique,
    TooSmallError,
    format_outcome,
    reconstruct_from_multiset,
    reconstruct_from_set,
)
from .taquin import (
    _ROOT,
    _grow,
    _one_minors,
    _tableau_of,
    Deck,
    DeckMultiset,
    OutOfRangeError,
    delete_entry,
    minor_multiset,
    minor_set,
)

# largest n for hbound and the proposition5 suite, which checks every
# n = 4..max_n: verify_proposition(1000) takes 1.5 ms, and the suite to
# 1000 about 1.1 s by the CLI (2-core Xeon, Python 3.11, median of 3)
MAX_HBOUND_N = 1000

# number of tableaux with n entries: a(n) = a(n-1) + (n-1) a(n-2),
# kept as an independent cross-check on the enumeration
def involution_count(n: int) -> int:
    if n < 0:
        raise OutOfRangeError(f"no tableaux of size {n}")
    prev, cur = 1, 1
    for i in range(2, n + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


class VerificationError(TableauError):
    """A verified property failed to hold."""


def _class_lines(classes):
    """``class size=<k>`` and its members' text, for each class."""
    for cls in classes:
        yield f"class size={len(cls)}"
        yield from (t.to_text() for t in cls)


class CensusReport(_Record):
    """Collision classes of the deck census over all size-n tableaux."""

    __slots__ = ("n", "k", "mode", "classes", "total")

    def to_text(self) -> str:
        header = (
            f"census n={self.n} k={self.k} mode={self.mode} "
            f"classes={len(self.classes)}"
        )
        return "\n".join([header, *_class_lines(self.classes)])

    def to_json(self) -> str:
        classes = [[t.to_text() for t in cls] for cls in self.classes]
        fields = dict(n=self.n, k=self.k, mode=self.mode, total=self.total)
        # imported here: only --json needs it, and every CLI start would pay
        import json

        return json.dumps({**fields, "classes": classes})


class HBoundReport(_Record):
    """Witness pair and bound data for the smallest determining submultiset."""

    __slots__ = ("n", "pair", "common", "bound_claimed", "exact_H1")

    def to_text(self) -> str:
        exact = "none" if self.exact_H1 is None else str(self.exact_H1)
        return (
            f"hbound n={self.n} common={self.common} "
            f"claimed={self.bound_claimed} exact={exact}"
        )


class DifferentialReport(_Record):
    """Reconstruction outcomes replayed against the census grouping."""

    __slots__ = (
        "n", "total", "set_unique", "multiset_unique",
        "set_ambiguous", "multiset_ambiguous", "violations",
    )


def _check_cap(n: int) -> None:
    """Refuse a walk over 𝒴ₙ past CENSUS_CAP.  Counts grow with n, so the
    scan stops at the first size over the cap and never counts a huge 𝒴ₙ."""
    for m in range(2, n + 1):
        if involution_count(m) > CENSUS_CAP:
            raise ResourceLimitError(f"|Y_{n}| exceeds the cap of {CENSUS_CAP}")


def _walk(first: int, max_n: int):
    """Tableaux with first..max_n entries, after checking max_n's cap."""
    _check_cap(max_n)
    return chain.from_iterable(map(enumerate_syt_all, range(first, max_n + 1)))


_SHARD_DEPTH = 5  # census shards are the subtrees below size-5 tableaux
_WIDTH = 4  # bits per entry in census words: 16 rows, enough below the cap


def _nodes(n: int, node=_ROOT):
    """The walk nodes of the size-n tableaux below ``node``, depth first."""
    stack = [node]
    while stack:
        node = stack.pop()
        if len(node[2]) == n:
            yield node
        else:
            stack += _grow(node, _WIDTH)


def _deck_walk(n: int, node=_ROOT):
    """Each size-n tableau T below ``node`` (default: all of 𝒴ₙ, n >= 1)
    as (word, minors), with minors[m - 1] the word of T - m."""
    for parent in _nodes(n - 1, node):
        yield from _grow(parent, _WIDTH, leaf=True)


def _shards(n: int):
    """The walk nodes whose subtrees partition 𝒴ₙ, n >= 1."""
    return list(_nodes(min(_SHARD_DEPTH, n - 1)))


def _census_shard(node, n, mode, tables):
    """The hash of each size-n tableau's k-minor words (k = len(tables) + 1),
    which equal decks share, for the tableaux below ``node`` in the order
    _deck_walk gives them.  At k >= 2, tables[j] maps each size n - 1 - j
    word to its 1-minor words, so no level takes a slide; a multiset level
    maps each word to its number of deletion sequences.  Hashes of ints, and
    of tuples and frozensets of them, do not depend on PYTHONHASHSEED, so
    workers agree."""
    keys: list[int] = []
    add_key = keys.append
    walk = _deck_walk(n, node)
    if mode == "set":
        for _, minors in walk:
            for table in tables:
                minors = set().union(*map(table.__getitem__, minors))
            add_key(hash(frozenset(minors)))
    elif not tables:
        for _, minors in walk:
            minors.sort()
            add_key(hash(tuple(minors)))
    else:
        for _, minors in walk:
            level = Counter(minors)
            for table in tables:
                below: dict[int, int] = {}
                for w, count in level.items():
                    for m in table[w]:
                        below[m] = below.get(m, 0) + count
                level = below
            add_key(hash(frozenset(level.items())))
    return keys


_work = ()  # (n, mode, tables) of the census a worker process serves


def _serve(*work):
    """Pool initializer: keep a census's fixed arguments in the worker, so
    the word tables cross to it once, not with every shard."""
    global _work
    _work = work


def _served_shard(node):
    return _census_shard(node, *_work)


def _run_shards(nodes, work, processes):
    """_census_shard's results for ``nodes`` in order, each as it arrives."""
    if processes == 1:
        yield from (_census_shard(node, *work) for node in nodes)
        return
    # imported here: it is costly to import and serial runs never need it
    from multiprocessing import Pool

    with Pool(processes, _serve, work) as pool:
        yield from pool.imap(_served_shard, nodes)


def _slid_minors(t, j, memo):
    """t's j-minors by slides, each mapped to its number of deletion
    sequences, as taquin._minors gives them.  ``memo`` keeps every minor's
    own, which the candidates mostly share; j is fixed by t's size."""
    if not j:
        return {t: 1}
    if t not in memo:
        memo[t] = level = {}
        for s, run in _one_minors(t):
            for m, count in _slid_minors(s, j - 1, memo).items():
                level[m] = level.get(m, 0) + run * count
    return memo[t]


def census(n: int, k: int = 1, mode: str = "set", jobs: int = 1) -> CensusReport:
    """Group all of 𝒴ₙ by canonical deck encoding; report collisions.

    The shards, the subtrees below the tableaux of size min(_SHARD_DEPTH,
    n - 1), are spread across ``jobs`` processes (at most one per shard
    and CPU).  A key that several tableaux share only marks candidates,
    which are grouped by their k-minors built by slides, so a class
    depends on neither the hash nor the walk.  Classes are sorted by deck
    text and members canonically, so the report is the same for any jobs.
    """
    if n < 1:
        raise OutOfRangeError(f"census needs n >= 1, got {n}")
    if not 1 <= k < n:
        raise OutOfRangeError(f"census needs 1 <= k < n, got k={k}")
    if mode not in ("set", "multiset"):
        raise TableauError(f"mode must be set or multiset, got {mode!r}")
    if jobs < 1:
        raise OutOfRangeError(f"census needs jobs >= 1, got {jobs}")
    _check_cap(n)
    expected = involution_count(n)
    # 1-minor words of each tableau of sizes n - 1 .. n - k + 1, built once
    tables = [dict(_deck_walk(size)) for size in range(n - 1, n - k, -1)]
    nodes = _shards(n)
    processes = min(jobs, len(nodes), os.cpu_count() or 1)
    shards, counts = [], Counter()
    for keys in _run_shards(nodes, (n, mode, tables), processes):
        shards.append(keys)
        counts.update(keys)
    total = sum(map(len, shards))
    if total != expected:
        raise VerificationError(
            f"enumerated {total} tableaux at n={n}, recurrence says {expected}"
        )
    shared = {key for key, count in counts.items() if count > 1}
    memo: dict = {}
    groups: dict[frozenset, list[StandardTableau]] = {}  # deck -> members
    # a shard holding a shared key is walked again, for its tableaux' words
    for node, keys in zip(nodes, shards):
        if shared.isdisjoint(keys):
            continue
        for key, (word, _) in zip(keys, _deck_walk(n, node)):
            if key in shared:
                t = _tableau_of(word, n, _WIDTH)
                level = _slid_minors(t, k, memo)
                cards = frozenset(level if mode == "set" else level.items())
                groups.setdefault(cards, []).append(t)
    deck = Deck if mode == "set" else DeckMultiset
    classes = sorted(
        (deck(cards, k, n).to_text(), tuple(sorted(group)))
        for cards, group in groups.items()
        if len(group) >= 2
    )
    return CensusReport(
        n=n, k=k, mode=mode, classes=tuple(c for _, c in classes), total=total
    )


def proposition_pair(n: int) -> tuple[StandardTableau, StandardTableau]:
    """Two distinct size-n tableaux sharing at least n//2 + 1 1-minors.

    With k = n//2, the first tableau has first row 1..k, k+2..2k over a
    second row holding k+1; the second has first row 1..k-1, k+1..2k
    over k.  For odd n both get a third row holding 2k+1.
    """
    if n < 4:
        raise TooSmallError(f"the construction degenerates for n={n} < 4")
    k = n // 2
    rows1 = [list(range(1, k + 1)) + list(range(k + 2, 2 * k + 1)), [k + 1]]
    rows2 = [list(range(1, k)) + list(range(k + 1, 2 * k + 1)), [k]]
    if n % 2:
        rows1.append([2 * k + 1])
        rows2.append([2 * k + 1])
    return StandardTableau(rows1), StandardTableau(rows2)


def verify_proposition(n: int) -> HBoundReport:
    """Check the witness pair shares the predicted common 1-minors.

    Beyond the count bound n//2 + 1, the two named shared minors are
    checked: n//2 copies of the tableau with first row 1..k-1, k+1..2k-1
    over k (third row 2k when n is odd), and one copy of the single row
    1..2k-1 (over 2k when n is odd).
    """
    if n > MAX_HBOUND_N:
        raise ResourceLimitError(f"n={n} exceeds the cap of {MAX_HBOUND_N}")
    t1, t2 = proposition_pair(n)
    if t1 == t2:
        raise VerificationError(f"witness pair coincides at n={n}")
    claimed = n // 2 + 1
    c1 = minor_multiset(t1, 1).counter()
    c2 = minor_multiset(t2, 1).counter()
    common = sum((c1 & c2).values())
    if common < claimed:
        raise VerificationError(
            f"witness pair shares {common} < {claimed} 1-minors at n={n}"
        )
    k = n // 2
    repeated_rows = [list(range(1, k)) + list(range(k + 1, 2 * k)), [k]]
    single_rows = [list(range(1, 2 * k))]
    if n % 2:
        repeated_rows.append([2 * k])
        single_rows.append([2 * k])
    repeated = StandardTableau(repeated_rows)
    single = StandardTableau(single_rows)
    if c1[repeated] < k or c2[repeated] < k:
        raise VerificationError(
            f"repeated minor occurs {c1[repeated]} and {c2[repeated]} "
            f"times, expected >= {k} each at n={n}"
        )
    if c1[single] < 1 or c2[single] < 1:
        raise VerificationError(f"shared single-copy minor missing at n={n}")
    return HBoundReport(
        n=n, pair=(t1, t2), common=common, bound_claimed=claimed, exact_H1=None
    )


def compute_H1_exact(n: int) -> int:
    """Smallest m such that any m cards of a 1-minor multiset determine T.

    A size-m submultiset of one multiset fits inside another exactly
    when m is at most their intersection size, so the answer is one more
    than the largest intersection over all pairs of distinct tableaux.
    The multisets come from the deck walk.  As min(a, b) counts the copies
    c < a with c < b, copy c of a minor is a key of its own; an index from
    each key to the earlier tableaux holding it lets Counter count, in C,
    the keys each tableau shares with each earlier one.  n past the
    census cap is refused.
    """
    if n < 5:
        raise TooSmallError(
            f"the bound is defined only where reconstruction holds (n >= 5), "
            f"got {n}"
        )
    _check_cap(n)
    shift = n.bit_length()  # copy numbers 0..n-1 fit below the minor word
    holders: dict[int, list[int]] = {}  # key -> numbers of tableaux holding it
    best = 0
    for i, (_, minors) in enumerate(_deck_walk(n)):
        minors.sort()
        keys = (m << shift | c - minors.index(m) for c, m in enumerate(minors))
        lists = [holders.setdefault(key, []) for key in keys]
        shared = Counter(chain.from_iterable(lists))
        best = max(best, max(shared.values(), default=0))
        for held in lists:
            held.append(i)
    return best + 1


def differential_check(n: int) -> DifferentialReport:
    """Replay reconstruction on every size-n tableau's decks.

    The census grouping supplies the expected outcome (Unique for a
    singleton class, Ambiguous listing the class otherwise); any
    reconstruction disagreeing with its group is recorded as a
    violation.
    """
    if n < 1:
        raise OutOfRangeError(f"differential check needs n >= 1, got {n}")
    violations: list[str] = []
    if n == 1:
        # the census needs a minor order below n, so check 𝒴₁ directly
        set_classes = multiset_classes = ()
    else:
        set_classes = census(n, 1, "set").classes
        multiset_classes = census(n, 1, "multiset").classes
    # census checks its total against this count
    total = involution_count(n)
    modes = (
        ("set", set_classes, minor_set, reconstruct_from_set),
        ("multiset", multiset_classes, minor_multiset, reconstruct_from_multiset),
    )
    for t in enumerate_syt_all(n):
        for mode, classes, minors, rebuild in modes:
            cls = next((c for c in classes if t in c), None)
            expect = Unique(t) if cls is None else Ambiguous(cls)
            got = rebuild(minors(t, 1))
            if got != expect:
                violations.append(
                    f"{mode} deck of {t.to_text()!r}: got "
                    f"{format_outcome(got)!r}, census says "
                    f"{format_outcome(expect)!r}"
                )
    return DifferentialReport(
        n=n,
        total=total,
        set_unique=total - sum(len(c) for c in set_classes),
        multiset_unique=total - sum(len(c) for c in multiset_classes),
        set_ambiguous=set_classes,
        multiset_ambiguous=multiset_classes,
        violations=tuple(violations),
    )


def _levels(tableaux):
    """Each tableau T as (T, level, width): T's slide-based 1-minor deck as
    the loop's level (member word -> shape), at the loop's width for T."""
    for t in tableaux:
        width = len(t.shape).bit_length()
        yield t, _level(minor_set(t, 1).members, width), width


def _suite(tableaux, check) -> list[str]:
    """The violations check(t, level, width) yields for each tableau, a
    TableauError raised for one being a violation that names it."""
    violations = []
    for t, level, width in _levels(tableaux):
        try:
            violations.extend(check(t, level, width))
        except TableauError as exc:
            violations.append(f"{t.to_text()!r} raised {exc}")
    return violations


def suite_shape_recovery(max_n: int) -> list[str]:
    """Shape recovered from the deck matches the true shape, n = 3..max_n."""

    def check(t, level, _):
        if (got := _shape(t.n, set(level.values()))) != t.shape:
            yield f"shape of {t.to_text()!r}: got {got}, want {t.shape}"

    return _suite(_walk(3, max_n), check)


def suite_max_location(max_n: int) -> list[str]:
    """Located cell of n matches the true cell, n = 4..max_n."""

    def check(t, level, width):
        got = _locate(t.n, t.shape, _tops(t.n, level, width))
        if got != (want := t.cell_of(t.n)):
            yield f"location of {t.n} in {t.to_text()!r}: got {got}, want {want}"

    return _suite(_walk(4, max_n), check)


def suite_deck_reduction(max_n: int) -> list[str]:
    """Reduced deck equals the deck of T - n, and the double-deletion
    identity (T - (n-1)) - (n-1) = (T - n) - (n-1) holds, n = 2..max_n."""

    def check(t, level, width):
        n = t.n
        direct = _level(minor_set(delete_entry(t, n), 1).members, width)
        if _reduce(n, level, width, _tops(n, level, width)) != direct:
            yield (
                f"reduced deck of {t.to_text()!r} differs from the deck "
                f"of its (n-1)-entry minor"
            )
        via_penultimate = delete_entry(delete_entry(t, n - 1), n - 1)
        via_last = delete_entry(delete_entry(t, n), n - 1)
        if via_penultimate != via_last:
            yield (
                f"double deletion from {t.to_text()!r} depends on the "
                f"order of removing the top two entries"
            )

    return _suite(_walk(2, max_n), check)


def _round_trips(tableaux) -> list[str]:
    """A violation for each tableau its deck does not give back."""
    return [
        f"round trip of {t.to_text()!r}: {format_outcome(outcome)}"
        for t in tableaux
        if (outcome := reconstruct_from_set(minor_set(t, 1))) != Unique(t)
    ]


def suite_base_decks(max_n: int) -> list[str]:
    """Lemma 3.6 through the whole reconstruction: every tableau of a row,
    a column, (n-1,1) or its transpose, (3,2) or (2,2,1), 5 <= n <= max_n,
    comes back from its deck."""
    _check_cap(max_n)
    shapes = []
    for n in range(5, max_n + 1):
        here = {(n,), (1,) * n, (n - 1, 1), (2,) + (1,) * (n - 2)}
        if n == 5:
            here |= {(3, 2), (2, 2, 1)}
        shapes += sorted(here, reverse=True)
    return _round_trips(chain.from_iterable(map(enumerate_syt, shapes)))


def suite_round_trip(max_n: int) -> list[str]:
    """Every tableau is reconstructed from its deck, n = 5..max_n."""
    return _round_trips(_walk(5, max_n))


def suite_small_sizes(max_n: int) -> list[str]:
    """Differential check at n = 1..min(4, max_n) matches the known
    classification of the small ambiguous decks, in both modes."""
    # member texts of the (set classes, multiset classes) at each n
    expected_classes = {
        1: ((), ()),
        2: ((("1 / 2", "1 2"),), (("1 / 2", "1 2"),)),
        3: ((("1 2 / 3", "1 3 / 2"),), ()),
        4: ((("1 2 / 3 4", "1 3 / 2 4"),), (("1 2 / 3 4", "1 3 / 2 4"),)),
    }
    violations = []
    for n in range(1, min(4, max_n) + 1):
        report = differential_check(n)
        violations.extend(f"n={n}: {v}" for v in report.violations)
        got = tuple(
            tuple(tuple(t.to_text() for t in cls) for cls in classes)
            for classes in (report.set_ambiguous, report.multiset_ambiguous)
        )
        if got != expected_classes[n]:
            violations.append(
                f"n={n}: ambiguous classes {got}, want {expected_classes[n]}"
            )
    return violations


def suite_common_bound(max_n: int) -> list[str]:
    """Witness pair passes its checks for every n = 4..max_n."""
    if max_n > MAX_HBOUND_N:
        raise ResourceLimitError(f"n={max_n} exceeds the cap of {MAX_HBOUND_N}")
    violations = []
    for n in range(4, max_n + 1):
        try:
            verify_proposition(n)
        except TableauError as exc:
            violations.append(f"n={n}: {exc}")
    return violations


VERIFY_SUITES = {
    "lemma3.1": suite_shape_recovery,
    "lemma3.2": suite_max_location,
    "lemma3.3": suite_deck_reduction,
    "lemma3.6": suite_base_decks,
    "theorem3.7": suite_round_trip,
    "section4": suite_small_sizes,
    "proposition5": suite_common_bound,
}
