from math import factorial

import pytest

from llschain import (
    EnumerationError,
    classify_degeneracy,
    count_small_oracle,
    enumerate_tables,
    find_swaps,
    rho_accounting,
    validate_table,
)
from llschain.enumeration import STRATA, TableEnumerator


def hook_length_count(rows, cols):
    n = rows * cols
    prod = 1
    for i in range(rows):
        for j in range(cols):
            prod *= (rows - i) + (cols - j) - 1
    return factorial(n) // prod


@pytest.mark.parametrize("g,r,d,rho_max,expected", [
    (4, 1, 3, 0, 2),
    (6, 1, 4, 0, 5),
])
def test_small_counts_against_oracle_and_constants(g, r, d, rho_max, expected):
    enum = TableEnumerator(g, r, d, rho_max)
    assert enum.total() == expected
    assert count_small_oracle(g, r, d, rho_max) == expected


def test_rho1_count_matches_oracle():
    enum = TableEnumerator(5, 1, 4, 1)
    assert enum.total() == count_small_oracle(5, 1, 4, 1)


def test_more_oracle_agreement():
    for (g, r, d, rho_max) in [(5, 1, 4, 0), (4, 1, 3, 0), (6, 2, 6, 0),
                               (5, 2, 6, 1)]:
        enum = TableEnumerator(g, r, d, rho_max)
        assert enum.total() == count_small_oracle(g, r, d, rho_max), (g, r, d)


def test_rho0_counts_are_rectangle_tableaux():
    assert TableEnumerator(21, 6, 24, 0).total() == hook_length_count(7, 3)
    assert TableEnumerator(14, 6, 18, 0).total() == hook_length_count(7, 2)
    assert TableEnumerator(6, 1, 4, 0).total() == hook_length_count(2, 3)


def test_stream_valid_and_canonical():
    enum = TableEnumerator(5, 1, 4, 1)
    tables = [t for _, t in enum.iter_all()]
    assert len(tables) == enum.total()
    hashes = [t.table_hash() for t in tables]
    assert len(set(hashes)) == len(hashes)
    for t in tables:
        validate_table(t)
        assert t.chain.is_pure_elliptic
        assert rho_accounting(t).total <= 1


def test_stream_deterministic_and_sliceable():
    enum = TableEnumerator(5, 1, 4, 1)
    full = [t.table_hash() for _, t in enum.iter_all()]
    again = [t.table_hash() for _, t in TableEnumerator(5, 1, 4, 1).iter_all()]
    assert full == again
    total = enum.total()
    pieces = []
    step = 7
    for start in range(0, total, step):
        pieces += [t.table_hash()
                   for _, t in enum.iter_range(start, min(step, total - start))]
    assert pieces == full


# every stratum of (6,1,5) is non-empty (444 tables in all, 9 with two swaps)
@pytest.mark.parametrize("g,r,d,rho_max,stratum", [(5, 1, 4, 1, "all")] + [
    (6, 1, 5, 2, stratum) for stratum in STRATA
])
def test_indices_align_with_stream(g, r, d, rho_max, stratum):
    enum = TableEnumerator(g, r, d, rho_max, stratum)
    stream = list(enum.iter_all())
    assert stream
    for idx, table in stream:
        got = list(enum.iter_range(idx, 1))
        assert len(got) == 1
        assert got[0][0] == idx
        assert got[0][1] == table
    assert list(enum.iter_range(enum.total(), 3)) == []


def test_strata_partition_counts():
    base = TableEnumerator(23, 6, 26).total()
    parts = [
        TableEnumerator(23, 6, 26, None, s).total()
        for s in ("swap_free", "one_swap", "two_swap")
    ]
    assert sum(parts) == base
    assert TableEnumerator(23, 6, 26, None, "le1_swap").total() == sum(parts[:2])
    assert TableEnumerator(23, 6, 26, None, "has_swap").total() == sum(parts[1:])


def test_stratum_streams_respect_predicate():
    for stratum, pred in (("swap_free", lambda k: k == 0),
                          ("has_swap", lambda k: k >= 1),
                          ("two_swap", lambda k: k == 2)):
        enum = TableEnumerator(23, 6, 26, None, stratum)
        for _, table in enum.iter_indices(enum.sample_indices(25, seed=77)):
            assert pred(len(find_swaps(table))), stratum


def test_two_swap_stream_is_classifiable():
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    for _, table in enum.iter_range(0, 50):
        klass = classify_degeneracy(table)
        assert klass.kind in ("repeated", "disjoint", "cycle1", "cycle2")


def test_sampling_deterministic():
    enum = TableEnumerator(22, 6, 25)
    a = enum.sample_indices(500, seed=42)
    b = TableEnumerator(22, 6, 25).sample_indices(500, seed=42)
    assert a == b
    assert len(a) == 500 == len(set(a))
    assert all(0 <= i < enum.total() for i in a)
    c = enum.sample_indices(500, seed=43)
    assert a != c
    first = [t.table_hash() for _, t in enum.iter_indices(a[:40])]
    second = [t.table_hash() for _, t in enum.iter_indices(a[:40])]
    assert first == second


def test_sampled_mode_streams_tables():
    got = list(enumerate_tables(21, 6, 24, 0, mode="sampled", n=25, seed=9))
    assert len(got) == 25
    for t in got:
        validate_table(t)


def test_enumerate_guards():
    with pytest.raises(EnumerationError):
        TableEnumerator(4, 1, 2)  # rho < 0
    with pytest.raises(EnumerationError):
        TableEnumerator(6, 1, 4, 1)  # rho_max > rho
    with pytest.raises(EnumerationError):
        TableEnumerator(23, 6, 26, 3)
    with pytest.raises(EnumerationError):
        TableEnumerator(23, 6, 26, None, "bogus")
    with pytest.raises(EnumerationError):
        list(enumerate_tables(6, 1, 4, 0, mode="sampled"))
    enum = TableEnumerator(5, 1, 4, 1)
    with pytest.raises(EnumerationError):
        list(enum.iter_range(-1, 1))
    with pytest.raises(EnumerationError):
        list(enum.iter_range(0, -1))
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([3, 2]))
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([2, 2]))


def test_walk_rejects_counts_its_subtrees_do_not_hold():
    enum = TableEnumerator(5, 1, 4, 1)
    total = enum.total()
    a1, budget = enum._roots()[-1]
    enum._memo[(0, a1, budget, 0)] += 1  # one leaf too many below the last root
    assert enum.total() == total + 1
    assert len(list(enum.iter_range(0, total))) == total
    with pytest.raises(EnumerationError, match="offset out of range"):
        list(enum.iter_range(total, 1))


def test_oracle_rejects_large_spaces():
    from llschain.enumeration import OracleSpaceTooLarge

    with pytest.raises(OracleSpaceTooLarge):
        count_small_oracle(21, 6, 24, 0, node_limit=5_000)


def test_swap_detection_matches_enumerator_costs():
    # tables produced in swap strata carry minimal swaps in genus-1 columns
    enum = TableEnumerator(22, 6, 25, None, "has_swap")
    for _, table in enum.iter_indices(enum.sample_indices(40, seed=3)):
        swaps = find_swaps(table)
        assert len(swaps) == 1
        assert swaps[0].minimal
