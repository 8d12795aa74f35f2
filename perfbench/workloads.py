"""The benchmark's workloads: seeded inputs, requests grouped in passes,
and the check on every result.

Inputs and expected values are made here, with no help from the package
under test: tableaux come from this file's own enumeration and random
growth, decks from its own jeu-de-taquin deletion, and census totals
from the involution recurrence.  Each request reaches the package
through ``sys.modules["tabrec.<module>"]`` at call time, so the tracer's
wrappers are seen when a traced run installs them.
"""

import contextlib
import io
import random
import signal
import statistics
import sys
import time
from collections import Counter
from itertools import chain, count

# smallest determining-submultiset size H1 at the sizes the workload uses
H1_EXPECTED = {6: 5, 8: 7}


def _mod(name):
    return sys.modules[f"tabrec.{name}"]


def involution_count(n):
    """Number of standard tableaux with n entries: a(n) = a(n-1) + (n-1) a(n-2)."""
    prev, cur = 1, 1
    for i in range(2, n + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


def all_syt(n):
    """Every standard tableau with n entries, as tuples of row tuples."""
    out = []
    rows = []

    def place(v):
        if v > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            if i == 0 or len(row) < len(rows[i - 1]):
                row.append(v)
                place(v + 1)
                row.pop()
        rows.append([v])
        place(v + 1)
        rows.pop()

    place(1)
    if len(out) != involution_count(n):
        raise RuntimeError(f"enumerated {len(out)} tableaux at n={n}")
    return out


def random_syt(n, rng):
    """A tableau grown by adding 1..n, each at a uniformly chosen addable cell."""
    rows = []
    for v in range(1, n + 1):
        addable = [
            i for i, row in enumerate(rows) if i == 0 or len(row) < len(rows[i - 1])
        ]
        i = rng.choice(addable + [len(rows)])
        if i == len(rows):
            rows.append([])
        rows[i].append(v)
    return tuple(tuple(row) for row in rows)


def text(rows):
    return " / ".join(" ".join(str(v) for v in row) for row in rows)


def delete(rows, m):
    """Delete entry m by jeu de taquin: slide the hole out, renumber."""
    rows = [list(row) for row in rows]
    i = next(r for r, row in enumerate(rows) if m in row)
    j = rows[i].index(m)
    while True:
        right = rows[i][j + 1] if j + 1 < len(rows[i]) else None
        below = rows[i + 1][j] if i + 1 < len(rows) and j < len(rows[i + 1]) else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[i][j] = right
            j += 1
        else:
            rows[i][j] = below
            i += 1
    rows[i].pop()
    if not rows[i]:
        del rows[i]
    return tuple(tuple(v - 1 if v > m else v for v in row) for row in rows)


def deck_text(rows, multiset):
    """The 1-minor deck of ``rows`` in the package's text format."""
    n = sum(len(row) for row in rows)
    counts = Counter(delete(rows, m) for m in range(1, n + 1))
    members = sorted(
        counts, key=lambda t: (tuple(len(r) for r in t), tuple(chain.from_iterable(t)))
    )
    lines = [f"deck k=1 n={n} size={len(members)}"]
    for member in members:
        lines.append(f"{text(member)} x{counts[member]}" if multiset else text(member))
    return "\n".join(lines) + "\n"


class _Key:
    """A tableau as a dict key with Python-level hashing, as the package's
    tableaux are."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = rows
        self._hash = hash(rows)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.rows == other.rows


class Speed:
    """The machine's speed while the benchmark runs, from a small fixed
    task of this file's own code (a probe): the multiset deck of a seeded
    random tableau with 16 entries, and intersections of the multiset
    decks of size-7 tableaux, the kinds of work the package does.

    The host's speed drifts by tens of percent within a second, and code
    in the package slows with it.  While a ``Speed`` is entered, a timer
    signal runs the probe every ``INTERVAL_S`` and records its duration;
    ``spent`` totals the time the probes took, for callers to take out
    of what they time.  ``scale`` turns a time taken while some probes
    ran into seconds at the reference speed: the speed at which the
    probe takes ``REFERENCE_S``.  The probe never calls the package, so
    a change to the package moves scaled times as it moves real ones.
    """

    REFERENCE_S = 0.0006
    INTERVAL_S = 0.02
    MIN_PROBES = 10
    PAIRS = 24

    def __init__(self):
        self.rows = random_syt(16, random.Random(0))
        self.decks = [
            Counter(_Key(delete(t, m)) for m in range(1, 8)) for t in all_syt(7)[::4]
        ]
        self.pair = 0
        self.probes = []
        self.spent = 0.0
        self._saved_handler = None

    def probe(self):
        start = time.perf_counter()
        deck_text(self.rows, multiset=True)
        decks, k = self.decks, self.pair
        for j in range(self.PAIRS):
            sum((decks[(k + j) % len(decks)] & decks[(k + 3 * j + 1) % len(decks)]).values())
        self.pair = (k + self.PAIRS) % len(decks)
        return time.perf_counter() - start

    def measure(self):
        """Mean of MIN_PROBES probes taken now."""
        return statistics.mean(self.probe() for _ in range(self.MIN_PROBES))

    def _on_timer(self, signum, frame):
        entered = time.perf_counter()
        self.probes.append(self.probe())
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self.probes.extend(self.probe() for _ in range(self.MIN_PROBES))
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def since(self, first):
        """Mean probe from index ``first`` on, or of the last MIN_PROBES
        if fewer were taken since."""
        recent = self.probes[first:]
        if len(recent) < self.MIN_PROBES:
            recent = self.probes[-self.MIN_PROBES:]
        return statistics.mean(recent)

    def scale(self, seconds, probe_s):
        """``seconds`` at the reference speed, given the mean probe time
        while they were taken."""
        return seconds * self.REFERENCE_S / probe_s


class Census:
    """census(n, 1, "set") then census(n, 1, "multiset") as one request; the
    seed is unused because the input is all of the size-n tableaux.

    The two modes make one request because their latencies differ: split,
    half the samples sit in each cluster, and the median jumps between
    them from run to run.
    """

    name = "census-n9"

    def __init__(self, seed, smoke):
        self.n = 6 if smoke else 9

    def passes(self):
        while True:
            yield [self.n]

    def call(self, n):
        census = _mod("census").census
        return census(n, 1, "set"), census(n, 1, "multiset")

    def check(self, n, reports):
        return all(not r.classes and r.total == involution_count(n) for r in reports)

    def describe(self, requests):
        return f"n={self.n} requests={len(requests)}"


class RoundTrip:
    """reconstruct_from_set(minor_set(t, 1)) over all size-n tableaux in a
    seeded order, eight passes to the full set."""

    name = "roundtrip-n10"

    def __init__(self, seed, smoke):
        n = 6 if smoke else 10
        core = _mod("core")
        self.n = n
        self.tableaux = [core.StandardTableau(rows) for rows in all_syt(n)]
        self.batch = -(-len(self.tableaux) // 8)
        self.rng = random.Random(seed)

    def passes(self):
        while True:
            order = list(self.tableaux)
            self.rng.shuffle(order)
            for i in range(0, len(order), self.batch):
                yield order[i:i + self.batch]

    def call(self, tableau):
        deck = _mod("taquin").minor_set(tableau, 1)
        return _mod("reconstruct").reconstruct_from_set(deck)

    def check(self, tableau, outcome):
        return outcome == _mod("reconstruct").Unique(tableau)

    def describe(self, requests):
        return f"n={self.n} requests={len(requests)} distinct={len(set(requests))}"


class H1:
    """compute_H1_exact(n); the seed is unused, as for the census."""

    name = "h1-n8"

    def __init__(self, seed, smoke):
        self.n = 6 if smoke else 8

    def passes(self):
        while True:
            yield [self.n]

    def call(self, n):
        return _mod("census").compute_H1_exact(n)

    def check(self, n, value):
        return value == H1_EXPECTED[n]

    def describe(self, requests):
        return f"n={self.n} requests={len(requests)}"


class CliDeep:
    """In-process ``tabrec reconstruct --expect-unique [--multiset]`` on the
    decks of seeded random tableaux.

    Each pass holds every n of the range once, in a seeded order, with
    set and multiset decks alternating, so passes cost alike and the n
    histogram stays flat.  n stops at 60 because a request costs about
    n^3 (1.8 s at n = 150).  The RecursionError near n = 1100 is a known
    robustness defect that this range does not reach; it is left to the
    tests, not hidden by the benchmark.
    """

    name = "cli-deep"

    def __init__(self, seed, smoke):
        self.sizes = range(6, 10) if smoke else range(20, 61)
        self.rng = random.Random(seed)

    def passes(self):
        for number in count():
            order = list(self.sizes)
            self.rng.shuffle(order)
            requests = []
            for i, n in enumerate(order):
                multiset = (i + number) % 2 == 1
                rows = random_syt(n, self.rng)
                argv = ["reconstruct", "--expect-unique"]
                if multiset:
                    argv.append("--multiset")
                requests.append(
                    (argv, deck_text(rows, multiset), f"unique {text(rows)}\n", n)
                )
            yield requests

    def call(self, request):
        argv, stdin_text, _, _ = request
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = _mod("cli").run(argv)
        finally:
            sys.stdin = saved
        return status, out.getvalue()

    def check(self, request, result):
        return result == (0, request[2])

    def describe(self, requests):
        sizes = Counter(request[3] for request in requests)
        multiset = sum("--multiset" in request[0] for request in requests)
        return (
            f"requests={len(requests)} multiset_share={multiset / len(requests)!r} "
            f"n_histogram={dict(sorted(sizes.items()))}"
        )


WORKLOADS = {w.name: w for w in (Census, RoundTrip, H1, CliDeep)}
