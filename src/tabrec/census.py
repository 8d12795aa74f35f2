"""Brute-force ground truth for the reconstruction results.

Exhaustive censuses group every size-n tableau by a canonical encoding
of its deck, so collision classes (distinct tableaux sharing a deck) are
read off by exact key equality instead of pairwise comparison.  On top
of the census sit the bound experiments for the smallest determining
submultiset of 1-minors, and a differential check that replays the
constructive reconstruction against the census grouping.
"""

import json
import os
import time
from dataclasses import dataclass, replace
from itertools import chain

from .core import (
    StandardTableau,
    TableauError,
    enumerate_partitions,
    enumerate_syt,
    enumerate_syt_all,
)
from .reconstruct import (
    Ambiguous,
    Unique,
    TooSmallError,
    format_outcome,
    reconstruct_from_multiset,
    reconstruct_from_set,
    reconstruct_base,
    reconstruct_shape,
    locate_max,
    reduce_deck,
    _DECK_TABLE_32,
)
from .taquin import (
    OutOfRangeError,
    delete_entry,
    minor_multiset,
    minor_set,
)

# largest |Y_n| an exhaustive walk covers (n <= 13); census time grows ~4.4x
# per size (set mode, 2-core Xeon: 0.41 s at n = 9, 7.8 s at n = 11)
CENSUS_CAP = 10**6
MAX_HBOUND_N = 1000  # verify_proposition's O(n^2) deletions take ~1 s here

# number of tableaux with n entries: a(n) = a(n-1) + (n-1) a(n-2),
# kept as an independent cross-check on the enumeration
def involution_count(n: int) -> int:
    if n < 0:
        raise OutOfRangeError(f"no tableaux of size {n}")
    prev, cur = 1, 1
    for i in range(2, n + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


class ResourceLimitError(TableauError):
    """Requested computation exceeds a fixed size cap."""


class SizeMismatchError(TableauError):
    """Operands have different numbers of entries."""


class VerificationError(TableauError):
    """A verified property failed to hold."""


@dataclass(frozen=True)
class CensusReport:
    """Collision classes of the deck census over all size-n tableaux.

    ``elapsed`` is wall time in seconds; it is carried on the report but
    left out of both serialized forms, which are byte-stable across runs
    and worker counts.
    """

    n: int
    k: int
    mode: str
    classes: tuple[tuple[StandardTableau, ...], ...]
    total: int
    elapsed: float

    def to_text(self) -> str:
        lines = [
            f"census n={self.n} k={self.k} mode={self.mode} "
            f"classes={len(self.classes)}"
        ]
        for cls in self.classes:
            lines.append(f"class size={len(cls)}")
            lines.extend(t.to_text() for t in cls)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "mode": self.mode,
                "total": self.total,
                "classes": [[t.to_text() for t in cls] for cls in self.classes],
            }
        )


@dataclass(frozen=True)
class HBoundReport:
    """Witness pair and bound data for the smallest determining submultiset."""

    n: int
    pair: tuple[StandardTableau, StandardTableau]
    common: int
    bound_claimed: int
    exact_H1: int | None

    def to_text(self) -> str:
        exact = "none" if self.exact_H1 is None else str(self.exact_H1)
        return (
            f"hbound n={self.n} common={self.common} "
            f"claimed={self.bound_claimed} exact={exact}"
        )


@dataclass(frozen=True)
class DifferentialReport:
    """Reconstruction outcomes replayed against the census grouping."""

    n: int
    total: int
    set_unique: int
    multiset_unique: int
    set_ambiguous: tuple[tuple[StandardTableau, ...], ...]
    multiset_ambiguous: tuple[tuple[StandardTableau, ...], ...]
    violations: tuple[str, ...]

    def to_text(self) -> str:
        lines = [
            f"differential n={self.n} total={self.total} "
            f"set-ambiguous={len(self.set_ambiguous)} "
            f"multiset-ambiguous={len(self.multiset_ambiguous)} "
            f"violations={len(self.violations)}"
        ]
        for label, groups in (
            ("set", self.set_ambiguous),
            ("multiset", self.multiset_ambiguous),
        ):
            for cls in groups:
                lines.append(f"{label}-class size={len(cls)}")
                lines.extend(t.to_text() for t in cls)
        lines.extend(f"violation {v}" for v in self.violations)
        return "\n".join(lines)


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


def _census_shard(shape, k, mode):
    """(deck text, tableau) for each tableau of one shape; runs in workers."""
    minors = minor_set if mode == "set" else minor_multiset
    return [(minors(t, k).to_text(), t) for t in enumerate_syt(shape)]


def census(
    n: int,
    k: int = 1,
    mode: str = "set",
    jobs: int = 1,
) -> CensusReport:
    """Group all of 𝒴ₙ by canonical deck encoding; report collisions.

    Work is partitioned by shape across ``jobs`` processes (at most one
    per shape and CPU); the merge sorts classes by key and members
    canonically, so the report is identical for any worker count.
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
    start = time.perf_counter()
    args = [(shape, k, mode) for shape in enumerate_partitions(n)]
    processes = min(jobs, len(args), os.cpu_count() or 1)
    if processes == 1:
        shards = [_census_shard(*a) for a in args]
    else:
        # imported here: it is costly to import and serial runs never need it
        from multiprocessing import Pool

        with Pool(processes=processes) as pool:
            shards = pool.starmap(_census_shard, args)
    groups: dict[str, list[StandardTableau]] = {}
    for shard in shards:
        for key, tableau in shard:
            groups.setdefault(key, []).append(tableau)
    total = sum(len(g) for g in groups.values())
    if total != expected:
        raise VerificationError(
            f"enumerated {total} tableaux at n={n}, recurrence says {expected}"
        )
    classes = tuple(
        tuple(sorted(group))
        for key, group in sorted(groups.items())
        if len(group) >= 2
    )
    return CensusReport(
        n=n,
        k=k,
        mode=mode,
        classes=classes,
        total=total,
        elapsed=time.perf_counter() - start,
    )


def common_minor_count(t1: StandardTableau, t2: StandardTableau) -> int:
    """Cardinality of the multiset intersection of the 1-minor multisets."""
    if t1.n != t2.n:
        raise SizeMismatchError(
            f"tableaux have {t1.n} and {t2.n} entries"
        )
    both = minor_multiset(t1, 1).counter() & minor_multiset(t2, 1).counter()
    return sum(both.values())


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


def compute_H1_exact(n: int, force: bool = False) -> int:
    """Smallest m such that any m cards of a 1-minor multiset determine T.

    A size-m submultiset of one multiset fits inside another exactly
    when m is at most their intersection size, so the answer is one more
    than the largest intersection over all pairs of distinct tableaux.
    An index from each 1-minor to the earlier tableaux holding it skips
    pairs that share no minor; n > 9 requires ``force``.
    """
    if n < 5:
        raise TooSmallError(
            f"the bound is defined only where reconstruction holds (n >= 5), "
            f"got {n}"
        )
    if n > 9 and not force:
        raise ResourceLimitError(
            f"{involution_count(n)} tableaux make too many pairs at n={n}; "
            f"pass force=True to override"
        )
    holders: dict[StandardTableau, list[tuple[int, int]]] = {}
    best = 0
    for i, tableau in enumerate(enumerate_syt_all(n)):
        shared: dict[int, int] = {}
        for minor, mult in minor_multiset(tableau, 1).cards:
            for j, other in holders.get(minor, ()):
                shared[j] = shared.get(j, 0) + min(mult, other)
            holders.setdefault(minor, []).append((i, mult))
        best = max(best, max(shared.values(), default=0))
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


def with_exact(report: HBoundReport, force: bool = False) -> HBoundReport:
    """Attach the exact bound value to a witness report."""
    return replace(report, exact_H1=compute_H1_exact(report.n, force=force))


def suite_shape_recovery(max_n: int) -> list[str]:
    """Shape recovered from the deck matches the true shape, n = 3..max_n."""
    violations = []
    for t in _walk(3, max_n):
        got = reconstruct_shape(minor_set(t, 1))
        if got != t.shape:
            violations.append(
                f"shape of {t.to_text()!r}: got {got}, want {t.shape}"
            )
    return violations


def suite_max_location(max_n: int) -> list[str]:
    """Located cell of n matches the true cell, n = 4..max_n."""
    violations = []
    for t in _walk(4, max_n):
        got = locate_max(minor_set(t, 1))
        if got != t.cell_of(t.n):
            violations.append(
                f"location of {t.n} in {t.to_text()!r}: got {got}, "
                f"want {t.cell_of(t.n)}"
            )
    return violations


def suite_deck_reduction(max_n: int) -> list[str]:
    """Reduced deck equals the deck of T - n, and the double-deletion
    identity (T - (n-1)) - (n-1) = (T - n) - (n-1) holds, n = 2..max_n."""
    violations = []
    for t in _walk(2, max_n):
        n = t.n
        reduced = reduce_deck(minor_set(t, 1))
        direct = minor_set(delete_entry(t, n), 1)
        if reduced != direct:
            violations.append(
                f"reduced deck of {t.to_text()!r} differs from the deck "
                f"of its (n-1)-entry minor"
            )
        via_penultimate = delete_entry(delete_entry(t, n - 1), n - 1)
        via_last = delete_entry(delete_entry(t, n), n - 1)
        if via_penultimate != via_last:
            violations.append(
                f"double deletion from {t.to_text()!r} depends on the "
                f"order of removing the top two entries"
            )
    return violations


def suite_base_decks(max_n: int) -> list[str]:
    """The five shape-(3,2) decks match the frozen table and are pairwise
    distinct; shape-(2,2,1) tableaux round-trip through the transpose."""
    violations = []
    if len(_DECK_TABLE_32) != 5:
        violations.append(
            f"deck table holds {len(_DECK_TABLE_32)} distinct decks, want 5"
        )
    for t in enumerate_syt((3, 2)):
        key = frozenset(m.to_text() for m in minor_set(t, 1))
        if _DECK_TABLE_32.get(key) != t:
            violations.append(
                f"deck of {t.to_text()!r} does not map back to it in the table"
            )
    for t in enumerate_syt((2, 2, 1)):
        if reconstruct_base(minor_set(t, 1), (2, 2, 1)) != t:
            violations.append(
                f"base reconstruction of {t.to_text()!r} failed"
            )
    return violations


def suite_round_trip(max_n: int) -> list[str]:
    """Every tableau is reconstructed from its deck, n = 5..max_n."""
    violations = []
    for t in _walk(5, max_n):
        outcome = reconstruct_from_set(minor_set(t, 1))
        if outcome != Unique(t):
            violations.append(
                f"round trip of {t.to_text()!r}: {format_outcome(outcome)}"
            )
    return violations


def suite_small_sizes(max_n: int) -> list[str]:
    """Differential check at n = 1..min(4, max_n) matches the known
    classification of the small ambiguous decks."""
    expected_classes = {
        1: (0, 0, None),
        2: (1, 1, ("1 / 2", "1 2")),
        3: (1, 0, ("1 2 / 3", "1 3 / 2")),
        4: (1, 1, ("1 2 / 3 4", "1 3 / 2 4")),
    }
    violations = []
    for n in range(1, min(4, max_n) + 1):
        report = differential_check(n)
        violations.extend(f"n={n}: {v}" for v in report.violations)
        want_set, want_multiset, pair = expected_classes[n]
        if len(report.set_ambiguous) != want_set:
            violations.append(
                f"n={n}: {len(report.set_ambiguous)} ambiguous set classes, "
                f"want {want_set}"
            )
        if len(report.multiset_ambiguous) != want_multiset:
            violations.append(
                f"n={n}: {len(report.multiset_ambiguous)} ambiguous multiset "
                f"classes, want {want_multiset}"
            )
        if pair is not None and report.set_ambiguous:
            got = tuple(t.to_text() for t in report.set_ambiguous[0])
            if got != pair:
                violations.append(
                    f"n={n}: ambiguous class {got}, want {pair}"
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
