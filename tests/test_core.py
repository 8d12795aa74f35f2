"""Partitions, tableau validation, canonical order, and enumeration.

Enumeration counts are checked against oracles coded independently of
the library: a dynamic-programming partition counter, the hook-length
product formula for tableaux of one shape, and the involution-number
recurrence for all tableaux of one size.
"""

from itertools import chain
from math import factorial

import pytest

from tabrec.core import (
    CENSUS_CAP,
    EntryError,
    OrderError,
    ResourceLimitError,
    ShapeError,
    StandardTableau,
    TableauError,
    _capped,
    _syt_count,
    check_partition,
    enumerate_partitions,
    enumerate_syt,
    enumerate_syt_all,
    is_rectangular,
)


def partition_count(n):
    """Partitions of n, counted by a DP over the largest allowed part."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def row_word(t):
    """All entries of ``t`` read row by row, top to bottom."""
    return tuple(chain.from_iterable(t.rows))


def column_lengths(shape):
    """The conjugate partition: how many parts exceed each j = 0, 1, ..."""
    return tuple(sum(p > j for p in shape) for j in range(max(shape, default=0)))


def corners(shape):
    """Cells with no cell to the right or below, in row order."""
    return [(r, p) for r, p in enumerate(shape, 1) if shape[r:r + 1] < (p,)]


def hook_length_count(shape):
    """Tableaux of one shape, by the product formula over cell hooks."""
    cols = column_lengths(shape)
    hooks = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            hooks *= (row_len - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // hooks


def involutions(n):
    counts = [1, 1]
    while len(counts) <= n:
        i = len(counts)
        counts.append(counts[i - 1] + (i - 1) * counts[i - 2])
    return counts[n]


def test_check_partition_accepts_valid():
    assert check_partition([4, 3, 1, 1]) == (4, 3, 1, 1)
    assert check_partition(()) == ()
    assert check_partition([5]) == (5,)


def test_check_partition_rejects_invalid():
    with pytest.raises(ShapeError):
        check_partition([3, 4])
    with pytest.raises(ShapeError):
        check_partition([2, 0])
    with pytest.raises(ShapeError):
        check_partition([-1])


def test_is_rectangular():
    assert is_rectangular((3, 3))
    assert is_rectangular((4,))
    assert is_rectangular((1, 1, 1))
    assert is_rectangular(())
    assert not is_rectangular((3, 2))


def test_corner_count_one_iff_rectangular():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            cells = corners(shape)
            assert (len(cells) == 1) == is_rectangular(shape)
            # a corner has no cell to its right or below
            for r, c in cells:
                assert shape[r - 1] == c
                assert r == len(shape) or shape[r] < c


def test_validate_accepts_worked_example():
    t = StandardTableau.from_text("1 2 7 8 / 3 5 9 / 4 / 6")
    assert t.shape == (4, 3, 1, 1)
    assert t.n == 9
    assert StandardTableau([[1]]).shape == (1,)


def test_validate_rejects_repeated_entry():
    with pytest.raises(EntryError):
        StandardTableau([[1, 3], [2, 2]])


def test_validate_rejects_bad_row_lengths():
    with pytest.raises(ShapeError):
        StandardTableau([[1, 2], [3, 4, 5]])


def test_validate_rejects_unordered_rows_and_columns():
    with pytest.raises(OrderError, match="row 1"):
        StandardTableau([[2, 1]])
    with pytest.raises(OrderError, match="column 2"):
        StandardTableau([[1, 4], [2, 3]])


def test_validate_names_the_first_bad_column():
    # the row pairs meet column 2 (5 over 4) before column 1 (3 over 1)
    with pytest.raises(OrderError) as caught:
        StandardTableau([[2, 5], [3, 4], [1]])
    assert str(caught.value) == "column 1 is not strictly increasing"


def test_validate_rejects_wrong_entry_range():
    with pytest.raises(EntryError):
        StandardTableau([[2, 3]])
    with pytest.raises(EntryError):
        StandardTableau([[0, 1]])


def test_empty_tableau_round_trip():
    empty = StandardTableau(())
    assert empty.n == 0
    assert empty.shape == ()
    assert empty.to_text() == ""
    assert StandardTableau.from_text("") == empty


def test_entry_and_cell_lookup():
    t = StandardTableau.from_text("1 2 7 8 / 3 5 9 / 4 / 6")
    assert t.rows[2 - 1][3 - 1] == 9
    assert t.cell_of(6) == (4, 1)
    with pytest.raises(EntryError):
        t.cell_of(10)


def test_row_word_and_sort_order():
    t = StandardTableau.from_text("1 3 / 2 4")
    assert row_word(t) == (1, 3, 2, 4)
    # canonical order: shape lexicographic first, then row word
    ordered = sorted(enumerate_syt_all(4))
    assert [u.to_text() for u in ordered[:3]] == [
        "1 / 2 / 3 / 4",
        "1 2 / 3 / 4",
        "1 3 / 2 / 4",
    ]
    assert ordered[-1].to_text() == "1 2 3 4"
    assert sorted(ordered, key=StandardTableau.sort_key) == ordered


def test_sort_key_orders_like_shape_then_row_word():
    for n in range(9):
        tableaux = list(enumerate_syt_all(n))[::-1]
        by_word = sorted(tableaux, key=lambda t: (t.shape, row_word(t)))
        assert sorted(tableaux, key=StandardTableau.sort_key) == by_word
        assert sorted(tableaux) == by_word


def test_text_round_trip_exhaustive():
    for n in range(8):
        for t in enumerate_syt_all(n):
            assert StandardTableau.from_text(t.to_text()) == t


def test_from_text_rejects_junk():
    with pytest.raises(EntryError):
        StandardTableau.from_text("1 x / 2")
    with pytest.raises(OrderError):
        StandardTableau.from_text("2 1")
    with pytest.raises(EntryError):
        StandardTableau.from_text("1 1")


def test_enumerate_partitions_known_values():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    five = list(enumerate_partitions(5))
    assert len(five) == 7
    assert (3, 1, 1) in five
    with pytest.raises(TableauError):
        list(enumerate_partitions(-1))


def test_enumerate_partitions_order_and_counts():
    for n in range(13):
        shapes = list(enumerate_partitions(n))
        assert len(shapes) == partition_count(n)
        assert len(set(shapes)) == len(shapes)
        assert shapes == sorted(shapes, reverse=True)
        for shape in shapes:
            assert sum(shape) == n
            assert check_partition(shape) == shape


def test_enumerate_syt_known_shapes():
    assert [t.to_text() for t in enumerate_syt((3, 2))] == [
        "1 2 3 / 4 5",
        "1 2 4 / 3 5",
        "1 2 5 / 3 4",
        "1 3 4 / 2 5",
        "1 3 5 / 2 4",
    ]
    assert {t.to_text() for t in enumerate_syt((3, 2))} == {
        "1 2 3 / 4 5",
        "1 2 4 / 3 5",
        "1 3 4 / 2 5",
        "1 2 5 / 3 4",
        "1 3 5 / 2 4",
    }
    assert [t.to_text() for t in enumerate_syt((1, 1, 1))] == ["1 / 2 / 3"]
    assert [t.to_text() for t in enumerate_syt((2, 2))] == [
        "1 2 / 3 4",
        "1 3 / 2 4",
    ]


def test_enumerate_syt_counts_match_hook_formula():
    for n in range(9):
        for shape in enumerate_partitions(n):
            tableaux = enumerate_syt(shape)
            assert len(tableaux) == hook_length_count(shape)
            assert len(set(tableaux)) == len(tableaux)
            words = [row_word(t) for t in tableaux]
            assert words == sorted(words)
            for t in tableaux:
                assert t.shape == shape


def test_hook_counts_sum_to_the_involution_numbers():
    for n in range(13):
        counts = [_syt_count(shape) for shape in enumerate_partitions(n)]
        assert counts == [hook_length_count(s) for s in enumerate_partitions(n)]
        assert sum(counts) == involutions(n)


def test_enumeration_refuses_shapes_over_the_cap():
    # f^(6,5,4,3,2,1) = 1,100,742,656: building its fillings ran out of memory
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 1000000"):
        enumerate_syt((6, 5, 4, 3, 2, 1))
    # enumerate_syt_all refuses at the first shape over a cap, here the cap
    # of 10**7 entries over all tableaux of the shape
    first = next(
        s for s in enumerate_partitions(21) if 21 * hook_length_count(s) > 10**7
    )
    assert first == (15, 3, 2, 1)
    tableaux = enumerate_syt_all(21)
    with pytest.raises(ResourceLimitError, match=r"\(15, 3, 2, 1\)"):
        next(tableaux)
    # the largest shape count at n = 14 is under the cap, so it streams
    assert max(map(hook_length_count, enumerate_partitions(14))) <= CENSUS_CAP
    assert len(enumerate_syt((5, 4, 3, 2))) == hook_length_count((5, 4, 3, 2))
    # near the cap the exact count decides: f = 2000 and f = 2,001,999
    assert _capped((2000, 1)) == (2000, 1)
    with pytest.raises(ResourceLimitError):
        enumerate_syt((2000, 2))
    # far over it, or past the cap of cells, no exact count is made
    for shape in ((50000, 50000), (CENSUS_CAP + 1,)):
        with pytest.raises(ResourceLimitError, match="cells or tableaux"):
            enumerate_syt(shape)


def test_enumeration_refuses_shapes_over_the_entry_cap():
    # f^(n-1,1) = n - 1 is far under the cap of tableaux, but holding them
    # takes (n - 1) * n entries
    for shape in ((999999, 1), (3162, 1)):
        with pytest.raises(ResourceLimitError, match="10000000 entries"):
            enumerate_syt(shape)
    # the largest count at n = 15, 292,864 tableaux, is under it
    assert max(map(hook_length_count, enumerate_partitions(15))) * 15 <= 10**7
    assert _capped((3161, 1)) == (3161, 1)
    # up to n = 20 a shape is refused exactly when its tableaux hold more
    # than 10**7 entries: none is refused for its count of tableaux alone
    for n in range(21):
        for shape in enumerate_partitions(n):
            if hook_length_count(shape) * n > 10**7:
                with pytest.raises(ResourceLimitError):
                    _capped(shape)
            else:
                assert _capped(shape) == shape


def reference_enumeration(shape):
    """Every filling of ``shape``, grown breadth first by tuple
    concatenation one entry at a time, then sorted: the reference for
    enumerate_syt's depth-first walk."""
    fillings = [((),) * len(shape)]
    for v in range(1, sum(shape) + 1):
        fillings = [
            rows[:i] + (row + (v,),) + rows[i + 1:]
            for rows in fillings
            for i, row in enumerate(rows)
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row))
        ]
    fillings.sort()
    return fillings


def test_enumeration_matches_the_reference_for_every_small_shape():
    for n in range(11):
        for shape in enumerate_partitions(n):
            got = [t.rows for t in enumerate_syt(shape)]
            assert got == reference_enumeration(shape), shape


def test_long_rows_columns_and_hooks_enumerate():
    # a row or a column of n cells takes one walk step per cell, and a hook
    # n steps per tableau; growing fillings by concatenation took 0.7 s for
    # the row, 56 s for the column, 0.9 s for the hook and 31 s for its
    # transpose
    (row,) = enumerate_syt((20000,))
    assert row.rows == (tuple(range(1, 20001)),)
    (column,) = enumerate_syt((1,) * 20000)
    assert column.rows == tuple((v,) for v in range(1, 20001))
    hooks = enumerate_syt((700, 1))
    assert [t.rows[1] for t in hooks] == [(v,) for v in range(701, 1, -1)]
    tall = enumerate_syt((2,) + (1,) * 699)
    assert [t.rows[0] for t in tall] == [(1, v) for v in range(2, 702)]


def test_enumerate_syt_all_counts_match_recurrence():
    for n in range(13):
        count = sum(1 for _ in enumerate_syt_all(n))
        assert count == involutions(n)


def test_enumerate_syt_all_streams_by_shape_order():
    tableaux = list(enumerate_syt_all(4))
    assert len(tableaux) == 10
    shapes = [t.shape for t in tableaux]
    assert shapes == sorted(shapes, reverse=True)
    assert len(set(tableaux)) == 10


def test_validate_rejects_non_integer_entries():
    for rows in ([[1.9, 2.2]], [[True]], [[1, 2.0]], [["1"]]):
        with pytest.raises(EntryError, match="must be integers"):
            StandardTableau(rows)
    assert StandardTableau([[1, 2], [3]]).to_text() == "1 2 / 3"


def test_non_integer_parts_are_rejected():
    with pytest.raises(ShapeError):
        check_partition([2.9, 1.5])
    with pytest.raises(ShapeError):
        is_rectangular([True, True])
    with pytest.raises(ShapeError):
        list(enumerate_syt((2.5, 1)))
