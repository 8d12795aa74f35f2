"""Partitions, tableau validation, canonical order, and enumeration.

Enumeration counts are checked against oracles coded independently of
the library: a dynamic-programming partition counter, the hook-length
product formula for tableaux of one shape, and the involution-number
recurrence for all tableaux of one size.
"""

import json
from math import factorial

import pytest

from tabrec.core import (
    EmptyInputError,
    EmptyShapeError,
    EntryError,
    OrderError,
    ShapeError,
    StandardTableau,
    TableauError,
    check_partition,
    conjugate,
    enumerate_partitions,
    enumerate_syt,
    enumerate_syt_all,
    is_rectangular,
    outer_corners,
    shape_union,
)


def partition_count(n):
    """Partitions of n, counted by a DP over the largest allowed part."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def hook_length_count(shape):
    """Tableaux of one shape, by the product formula over cell hooks."""
    cols = conjugate(shape)
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


def test_conjugate_known_values():
    assert conjugate((4, 3, 1, 1)) == (4, 2, 2, 1)
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_an_involution():
    for n in range(9):
        for shape in enumerate_partitions(n):
            assert conjugate(conjugate(shape)) == shape


def test_is_rectangular():
    assert is_rectangular((3, 3))
    assert is_rectangular((4,))
    assert is_rectangular((1, 1, 1))
    assert is_rectangular(())
    assert not is_rectangular((3, 2))


def test_outer_corners_known_values():
    assert outer_corners((4, 3, 1, 1)) == ((1, 4), (2, 3), (4, 1))
    assert outer_corners((3, 3)) == ((2, 3),)
    assert outer_corners((3, 2)) == ((1, 3), (2, 2))
    assert outer_corners((1,)) == ((1, 1),)


def test_outer_corners_empty_shape():
    with pytest.raises(EmptyShapeError):
        outer_corners(())


def test_corner_count_one_iff_rectangular():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            corners = outer_corners(shape)
            assert (len(corners) == 1) == is_rectangular(shape)
            # a corner has no cell to its right or below
            for r, c in corners:
                assert shape[r - 1] == c
                assert r == len(shape) or shape[r] < c


def test_shape_union_known_values():
    assert shape_union([(2, 2), (3, 1)]) == (3, 2)
    assert shape_union([(4, 1)]) == (4, 1)
    assert shape_union([(3, 1, 1), (2, 2, 1)]) == (3, 2, 1)


def test_shape_union_empty_input():
    with pytest.raises(EmptyInputError):
        shape_union([])


def test_shape_union_algebra():
    shapes = list(enumerate_partitions(6))
    for a in shapes:
        assert shape_union([a]) == a
        for b in shapes:
            ab = shape_union([a, b])
            assert ab == shape_union([b, a])
            assert shape_union([ab, b]) == ab
            for c in shapes[:4]:
                assert shape_union([ab, c]) == shape_union(
                    [a, shape_union([b, c])]
                )


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
    assert empty.transpose() == empty


def test_entry_and_cell_lookup():
    t = StandardTableau.from_text("1 2 7 8 / 3 5 9 / 4 / 6")
    assert t.entry_at((2, 3)) == 9
    assert t.cell_of(6) == (4, 1)
    with pytest.raises(EntryError):
        t.cell_of(10)


def test_transpose_known_and_involutive():
    t = StandardTableau.from_text("1 2 3 / 4 5")
    assert t.transpose() == StandardTableau.from_text("1 4 / 2 5 / 3")
    for n in range(8):
        for u in enumerate_syt_all(n):
            v = u.transpose()
            assert v.shape == conjugate(u.shape)
            assert v.transpose() == u


def test_row_word_and_sort_order():
    t = StandardTableau.from_text("1 3 / 2 4")
    assert t.row_word() == (1, 3, 2, 4)
    # canonical order: shape lexicographic first, then row word
    ordered = sorted(enumerate_syt_all(4))
    assert [u.to_text() for u in ordered[:3]] == [
        "1 / 2 / 3 / 4",
        "1 2 / 3 / 4",
        "1 3 / 2 / 4",
    ]
    assert ordered[-1].to_text() == "1 2 3 4"
    assert sorted(ordered, key=StandardTableau.sort_key) == ordered


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


def test_record_round_trip():
    t = StandardTableau.from_text("1 2 7 8 / 3 5 9 / 4 / 6")
    record = t.to_record()
    assert record == {
        "shape": [4, 3, 1, 1],
        "rows": [[1, 2, 7, 8], [3, 5, 9], [4], [6]],
    }
    assert StandardTableau.from_record(json.loads(json.dumps(record))) == t
    with pytest.raises(ShapeError):
        StandardTableau.from_record({"shape": [4, 3, 2], "rows": record["rows"]})


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
            words = [t.row_word() for t in tableaux]
            assert words == sorted(words)
            for t in tableaux:
                assert t.shape == shape


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
    with pytest.raises(EntryError, match="must be integers"):
        StandardTableau.from_record({"rows": [[1.5, 2]], "shape": [2]})
    assert StandardTableau([[1, 2], [3]]).to_text() == "1 2 / 3"


def test_from_record_rejects_malformed_records():
    for record in (
        {"rows": [[1, 2]]},
        {"shape": [2]},
        [[1, 2]],
        "1 2",
        {"rows": 5, "shape": [1]},
        {"rows": [5], "shape": [1]},
        {"rows": [[1, 2]], "shape": 2},
    ):
        with pytest.raises(TableauError):
            StandardTableau.from_record(record)


def test_non_integer_parts_are_rejected():
    with pytest.raises(ShapeError):
        check_partition([2.9, 1.5])
    with pytest.raises(ShapeError):
        conjugate([True, True])
    with pytest.raises(ShapeError):
        list(enumerate_syt((2.5, 1)))
