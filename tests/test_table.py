import dataclasses
import functools
import hashlib
import json
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from llschain import (
    CanonicalOrderViolation,
    ChainCurve,
    DuplicateVanishing,
    GenericityViolation,
    InvalidSeries,
    NegativeOrder,
    RefinednessViolation,
    SumExceedsD,
    TableError,
    build_elliptic_chain,
    build_tensor_table,
    classify_degeneracy,
    exceptional_rows,
    find_swaps,
    g22_example,
    lambda_sequence,
    rho_accounting,
    table_from_columns,
    table_from_lambda,
    validate_table,
    verify_table,
)
from llschain import table as table_module
from llschain.enumeration import TableEnumerator
from llschain.table import RhoBreakdown, VanishingTable
from llschain.tensor import TensorTable, pair_list


def rho0_rectangle_table(g, r, d):
    """Row-major box filling: row j gains its k-th box at column k*(r+1) + j + 1."""
    cols = g + r - d  # boxes per row at the end
    lam = [[0] * (r + 1)]
    for i in range(1, g + 1):
        prev = lam[-1][:]
        k, j = divmod(i - 1, r + 1)
        prev[j] += 1
        assert prev[j] == k + 1
        lam.append(prev)
    chain = build_elliptic_chain(g)
    return table_from_lambda(chain, r, d, tuple(range(r + 1)), lam)


def test_g22_example_valid():
    table = g22_example()
    validate_table(table)
    assert table.rho == 1
    assert table.n_columns == 22
    assert table.a[0] == (0, 1, 2, 3, 4, 5, 6)
    assert table.b[0] == (25, 23, 22, 21, 20, 19, 18)


def test_refinedness_violation():
    table = g22_example()
    a = [list(col) for col in table.a]
    a[1][0] = 1  # a^2_0 was 0
    broken = table_from_columns(table.chain, table.r, table.d, a, table.b)
    with pytest.raises(RefinednessViolation) as err:
        validate_table(broken)
    assert err.value.column == 2 and err.value.row == 0


def test_two_sum_d_rows_rejected():
    table = g22_example()
    b = [list(col) for col in table.b]
    # column 1 has sums (25,24,...); lift row 1 to sum 25 as well
    b[0][1] = 24
    a2 = [list(col) for col in table.a]
    a2[1][1] = 1  # keep refinedness a^2 = d - b^1
    broken = table_from_columns(table.chain, table.r, table.d, a2, b)
    with pytest.raises((GenericityViolation, DuplicateVanishing)):
        validate_table(broken)


def test_duplicate_and_negative_and_sum_errors():
    chain = build_elliptic_chain(2)
    with pytest.raises(DuplicateVanishing):
        validate_table(table_from_columns(chain, 1, 3, [(0, 1), (1, 1)],
                                          [(3, 2), (2, 2)]))
    with pytest.raises(NegativeOrder):
        validate_table(table_from_columns(chain, 1, 3, [(0, 1), (1, 2)],
                                          [(3, -1), (2, 1)]))
    with pytest.raises(SumExceedsD):
        validate_table(table_from_columns(chain, 1, 3, [(0, 2), (1, 2)],
                                          [(3, 2), (2, 1)]))


def test_genus0_column_rules():
    chain = ChainCurve((1, 0, 1))
    # genus-0 middle column with every row summing to d
    a = [(0, 1), (1, 2), (1, 2)]
    b = [(2, 1), (2, 1), (1, 0)]
    validate_table(table_from_columns(chain, 1, 3, a, b))
    # a genus-0 row below sum d is refused; genericity is the last phase,
    # so the table passes every other check
    a2 = [(0, 1), (1, 2), (1, 3)]
    b2 = [(2, 1), (2, 0), (1, 0)]
    t2 = table_from_columns(chain, 1, 3, a2, b2)
    with pytest.raises(GenericityViolation) as err:
        validate_table(t2)
    assert err.value.column == 2


def test_lambda_of_rho0_rectangle():
    table = rho0_rectangle_table(21, 6, 24)
    validate_table(table)
    lam = lambda_sequence(table)
    assert all(lam.delta[i] is not None for i in range(1, 22))
    assert lam.lam[21] == (3,) * 7
    assert rho_accounting(table) == dataclasses.replace(
        rho_accounting(table), initial_ramification=0, exceptional_defect=0,
        missing_delta=0, total=0,
    )


def test_lambda_of_g22_example():
    table = g22_example()
    lam = lambda_sequence(table)
    drops = [
        (i, j)
        for i in range(1, 23)
        for j in range(7)
        if lam.lam[i][j] < lam.lam[i - 1][j]
    ]
    assert drops == [(9, 2)]
    assert lam.delta[9] == 3
    # distinctness of j - lambda_ij for every i
    for i in range(23):
        vals = {j - lam.lam[i][j] for j in range(7)}
        assert len(vals) == 7


def test_lambda_one_box_step():
    table = g22_example()
    lam = lambda_sequence(table)
    # columns without exceptional behavior change lambda only at the delta row
    for i in (1, 2, 3, 4, 5, 6, 7, 8):
        changed = [j for j in range(7) if lam.lam[i][j] != lam.lam[i - 1][j]]
        assert changed == [lam.delta[i]]


def test_rho_accounting_g22():
    table = g22_example()
    acct = rho_accounting(table)
    assert acct.initial_ramification == 0
    assert acct.exceptional_defect == 1
    assert acct.missing_delta == 0
    assert acct.total == 1 == acct.rho


def _ramified_g22_table(extra_last_row: int):
    """(22, 6, 25) table with a^1 = (0..5, 6 + extra); the last row takes
    enough boxes at the end to keep b^22 nonnegative."""
    a1 = tuple(list(range(6)) + [6 + extra_last_row])
    lam0 = [j - a1[j] for j in range(7)]
    rows = [lam0]
    filled = list(lam0)
    for i in range(1, 23):
        j = (i - 1) % 7 if i <= 21 else 6
        filled[j] += 1
        rows.append(list(filled))
    return table_from_lambda(build_elliptic_chain(22), 6, 25, a1, rows)


def test_rho_accounting_initial_ramification():
    table = _ramified_g22_table(1)
    validate_table(table)
    acct = rho_accounting(table)
    assert acct.initial_ramification == 1
    assert acct.total == 1


def test_rho_accounting_rejects_over_budget():
    # two units of ramification is more than rho = 1 allows on (22, 6, 25)
    table = _ramified_g22_table(2)
    with pytest.raises(InvalidSeries):
        rho_accounting(table)


def _reference_rho_accounting(table):
    """rho_accounting as it read before the per-column sums: the box
    removals and missing deltas read row by row off the shape sequence."""
    lam = lambda_sequence(table)
    n, r = table.n_columns, table.r
    ram = sum(table.a[0][j] - j for j in range(r + 1))
    exc = 0
    for i in range(1, n + 1):
        for j in range(r + 1):
            drop = lam.lam[i - 1][j] - lam.lam[i][j]
            if drop > 0:
                exc += drop
    missing = sum(1 for i in range(1, n + 1)
                  if table.chain.genera[i - 1] == 1 and lam.delta[i] is None)
    total = ram + exc + missing
    if total > table.rho:
        raise InvalidSeries(f"defect total {total} exceeds rho = {table.rho}")
    return RhoBreakdown(ram, exc, missing, total, table.rho)


def _rho_outcome(accounting, table):
    try:
        return accounting(table)
    except InvalidSeries as err:
        return str(err)


_RHO_FAMILIES = [TableEnumerator(*spec) for spec in (
    (21, 6, 24, 0), (22, 6, 25, None, "has_swap"), (23, 6, 26, None, "two_swap"),
    (23, 6, 26), (6, 1, 5, 2), (8, 2, 8, 2), (9, 3, 10, 1))]


@st.composite
def rho_tables(draw):
    """Family tables (rho-0, has_swap, two-swap, unrestricted (23,6,26) and
    small families), the g22 example, or a refined table with genus-0
    components."""
    kind = draw(st.sampled_from(("family", "example", "refined")))
    if kind == "example":
        return g22_example()
    if kind == "refined":
        return draw(refined_tables())
    enum = draw(st.sampled_from(_RHO_FAMILIES))
    [(_, table)] = enum.iter_indices([draw(st.integers(0, enum.total() - 1))])
    return table


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rho_tables())
def test_rho_accounting_matches_shape_oracle(table):
    assert _rho_outcome(rho_accounting, table) == \
        _rho_outcome(_reference_rho_accounting, table)


def test_rho_accounting_rejects_unrefined_table():
    table = g22_example()
    a = [list(col) for col in table.a]
    a[9][4] += 1
    bad = table_from_columns(table.chain, table.r, table.d, a, table.b)
    with pytest.raises(RefinednessViolation) as err:
        rho_accounting(bad)
    assert (err.value.column, err.value.row) == (10, 4)


def test_find_swaps_g22():
    swaps = find_swaps(g22_example())
    assert len(swaps) == 1
    swap = swaps[0]
    assert swap.column == 9
    assert swap.rows == (2, 3)
    assert swap.minimal


def test_exceptional_rows_g22():
    assert exceptional_rows(g22_example()) == {(9, 2)}


def test_no_swaps_on_rho0():
    table = rho0_rectangle_table(21, 6, 24)
    assert find_swaps(table) == []
    assert exceptional_rows(table) == set()
    assert classify_degeneracy(table).kind == "no_swap"


def test_classify_single_g22():
    klass = classify_degeneracy(g22_example())
    assert klass.kind == "single"
    assert klass.i0 == 9
    assert klass.rows == (2, 3)


def test_classify_two_swap_taxonomy_from_enumerator():
    # deterministic uniform sample of the two-swap stratum covers all shapes
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    seen = {}
    for _, table in enum.iter_indices(enum.sample_indices(300, seed=5)):
        klass = classify_degeneracy(table)
        seen.setdefault(klass.kind, table)
        swaps = find_swaps(table)
        assert len(swaps) == 2
        assert all(s.minimal for s in swaps)
    assert set(seen) <= {"repeated", "disjoint", "cycle1", "cycle2"}
    assert {"repeated", "disjoint"} <= set(seen)
    # shape sanity for the overlapping classes
    for kind in ("cycle1", "cycle2"):
        if kind in seen:
            klass = classify_degeneracy(seen[kind])
            assert klass.i0 < klass.i1
            s0, s1 = sorted(find_swaps(seen[kind]), key=lambda s: s.column)
            if kind == "cycle1":
                assert set(s0.rows) == {klass.j0, klass.j0 + 1}
                assert set(s1.rows) == {klass.j0 - 1, klass.j0 + 1}
            else:
                assert set(s0.rows) == {klass.j0 - 1, klass.j0}
                assert set(s1.rows) == {klass.j0 - 1, klass.j0 + 1}


def test_table_from_lambda_round_trip():
    enum = TableEnumerator(22, 6, 25)
    for _, table in enum.iter_indices(enum.sample_indices(40, seed=3)):
        lam = lambda_sequence(table)
        rebuilt = table_from_lambda(
            table.chain, table.r, table.d, table.a[0], lam.lam
        )
        assert rebuilt == table


def test_bar_table_sorted_and_counts():
    table = g22_example()
    lam = lambda_sequence(table)
    for i in range(23):
        bar = lam.bar_lam[i]
        assert all(bar[j] >= bar[j + 1] for j in range(6))
        for ell in range(1, 5):
            assert lam.bar_count(i, ell) == sum(1 for v in bar if v >= ell)
    # the bar table is itself refined: sorting b descending matches
    # d minus the ascending sort of the next a-subcolumn
    for i in range(1, 22):
        assert tuple(sorted(table.b[i - 1], reverse=True)) == tuple(
            table.d - v for v in sorted(table.a[i])
        )
    # swap-free tables equal their own bar table
    table0 = rho0_rectangle_table(21, 6, 24)
    lam0 = lambda_sequence(table0)
    for i in range(21):
        assert tuple(sorted(table0.a[i])) == table0.a[i]
        assert tuple(sorted(table0.b[i], reverse=True)) == table0.b[i]
    assert lam0.bar_lam == tuple(tuple(sorted(r, reverse=True)) for r in lam0.lam)


def test_json_round_trip_and_hash():
    # the hand-built example and a table of the walk, whose chain the walk
    # builds itself
    [(_, walked)] = TableEnumerator(21, 6, 24, 0).iter_indices([5])
    for table in (g22_example(), walked):
        again = VanishingTable.from_json(table.to_json())
        assert again == table
        assert again.table_hash() == table.table_hash()
        assert len(table.table_hash()) == 16


def test_json_genera_must_list_one_int_per_column():
    obj = g22_example().to_json()
    del obj["genera"]
    assert VanishingTable.from_json(obj).chain.genera == (1,) * 22
    for genera in ([], [1] * 21, [1] * 23, None, "1" * 22, [1] * 21 + [1.0],
                   {"1": 1}):
        with pytest.raises(TableError):
            VanishingTable.from_json(dict(obj, genera=genera))


# -- interned columns against the whole-table oracles -------------------------


def _reference_validate(table):
    """validate_table as it read before columns were interned."""
    n, r, d = table.n_columns, table.r, table.d
    if n != table.chain.n_components:
        raise TableError("table width disagrees with chain length")
    if n < 1 or r < 0 or d < 0:
        raise TableError("dimensions out of range")
    for i in range(n):
        ai, bi = table.a[i], table.b[i]
        if len(ai) != r + 1 or len(bi) != r + 1:
            raise TableError(f"column {i + 1} has wrong height")
        for j in range(r + 1):
            if ai[j] < 0:
                raise NegativeOrder(i + 1, j, "a")
            if bi[j] < 0:
                raise NegativeOrder(i + 1, j, "b")
        if len(set(ai)) != r + 1:
            raise DuplicateVanishing(i + 1, "a")
        if len(set(bi)) != r + 1:
            raise DuplicateVanishing(i + 1, "b")
        for j in range(r + 1):
            if ai[j] + bi[j] > d:
                raise SumExceedsD(i + 1, j)
    for j in range(r):
        if table.a[0][j] >= table.a[0][j + 1]:
            raise CanonicalOrderViolation("first column must be strictly increasing")
    for i in range(1, n):
        for j in range(r + 1):
            if table.a[i][j] != d - table.b[i - 1][j]:
                raise RefinednessViolation(i + 1, j)
    for i in range(n):
        ai, bi = table.a[i], table.b[i]
        full = sum(1 for j in range(r + 1) if ai[j] + bi[j] == d)
        if table.chain.genera[i] == 1:
            if full > 1:
                raise GenericityViolation(i + 1, "two rows of sum d in a genus-1 column")
        elif full != r + 1:
            raise GenericityViolation(i + 1, "genus-0 column with a row below sum d")


def _reference_tensor(table):
    pairs = pair_list(table.r)
    ta = tuple(tuple(ai[j1] + ai[j2] for j1, j2 in pairs) for ai in table.a)
    tb = tuple(tuple(bi[j1] + bi[j2] for j1, j2 in pairs) for bi in table.b)
    return TensorTable(table, pairs, ta, tb)


def _outcome(check, table):
    """(exception type, column, row, message) of a validation, or None."""
    try:
        check(table)
    except TableError as err:
        return (type(err), getattr(err, "column", None),
                getattr(err, "row", None), str(err))
    return None


_SMALL_FAMILIES = [TableEnumerator(g, r, d, rho)
                   for g, r, d, rho in ((6, 1, 5, 2), (8, 2, 8, 2), (9, 3, 10, 1))]


@st.composite
def enumerated_tables(draw):
    enum = draw(st.sampled_from(_SMALL_FAMILIES))
    [(_, table)] = enum.iter_range(draw(st.integers(0, enum.total() - 1)), 1)
    return table


@st.composite
def refined_tables(draw):
    """Refined tables on chains with genus-0 components, mostly invalid."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    d = draw(st.integers(r, r + 5))
    genera = tuple(draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)))
    values = st.lists(st.integers(0, d), min_size=r + 1, max_size=r + 1)
    a = [tuple(sorted(draw(values)))]
    b = []
    for i in range(n):
        b.append(tuple(max(0, d - v - draw(st.integers(0, 1 - genera[i] + 1)))
                       for v in a[i]))
        if i + 1 < n:
            a.append(tuple(d - v for v in b[i]))
    return table_from_columns(ChainCurve(genera), r, d, a, b)


@st.composite
def oracle_tables(draw):
    table = draw(st.one_of(enumerated_tables(), refined_tables()))
    change = draw(st.sampled_from(("none", "entry", "first rows")))
    a = [list(col) for col in table.a]
    b = [list(col) for col in table.b]
    if change == "entry":
        # one entry moved: breaks refinedness, makes duplicates, negative
        # orders, sums above d or, rarely, an unsorted first column
        side = draw(st.sampled_from((a, b)))
        i = draw(st.integers(0, table.n_columns - 1))
        j = draw(st.integers(0, table.r))
        side[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    elif change == "first rows" and table.r:
        # two adjacent rows of the first column exchanged in a and b: the
        # column's own checks still hold, so the first-column order is the
        # first check to fail unless another column fails its own
        j = draw(st.integers(0, table.r - 1))
        for col in (a[0], b[0]):
            col[j], col[j + 1] = col[j + 1], col[j]
    if change != "none":
        table = table_from_columns(table.chain, table.r, table.d, a, b)
    return table


@settings(derandomize=True, max_examples=600, deadline=None)
@given(oracle_tables())
def test_interned_columns_match_oracles(table):
    assert table.shape == lambda_sequence(table)
    assert table.swaps == tuple(find_swaps(table))
    assert table.exceptional == frozenset(exceptional_rows(table))
    assert build_tensor_table(table) == _reference_tensor(table)
    assert _outcome(validate_table, table) == _outcome(_reference_validate, table)


# draws a search for one outcome of `oracle_tables` may take; the rarest,
# RefinednessViolation, was 109 of 2,000 seed-1 draws
_REACH_BUDGET = 1_000


def test_oracle_tables_reach_every_outcome():
    # the property above sees valid tables and every kind of violation.  One
    # seeded search per outcome: it draws no example from this test's text,
    # so it fails only when the strategy no longer reaches an outcome
    search = settings(max_examples=_REACH_BUDGET, database=None, deadline=None,
                      phases=[Phase.generate])

    def reach(condition):
        return find(oracle_tables(), condition, settings=search,
                    random=random.Random(0))

    def kind(table):
        outcome = _outcome(_reference_validate, table)
        return outcome and outcome[0]

    for expected in (None, RefinednessViolation, DuplicateVanishing, SumExceedsD,
                     NegativeOrder, GenericityViolation, CanonicalOrderViolation):
        assert kind(reach(lambda t: kind(t) is expected)) is expected
    refined0 = reach(lambda t: kind(t) is None
                     and any(g == 0 for g in t.chain.genera))
    assert 0 in refined0.chain.genera


def test_column_cache_is_cleared_at_its_cap(monkeypatch):
    def verdict(table):
        return json.dumps(verify_table(table, with_certificate=True).to_json(),
                          sort_keys=True)

    enum = TableEnumerator(22, 6, 25, None, "has_swap")
    indices = enum.sample_indices(200, seed=2)
    free = [verdict(table) for _, table in enum.iter_indices(indices)]
    monkeypatch.setattr(table_module, "column",
                        functools.lru_cache(maxsize=5)(table_module.Column))
    monkeypatch.setattr(table_module, "_shape_row", functools.lru_cache(
        maxsize=5)(table_module._shape_row.__wrapped__))
    capped = []
    for _, table in enum.iter_indices(indices):
        validate_table(table)
        assert table.shape == lambda_sequence(table)
        capped.append(verdict(table))
        assert table_module.column.cache_info().currsize <= 5
        assert table_module._shape_row.cache_info().currsize <= 5
    assert table_module.column.cache_info().misses > 5
    assert capped == free


# -- the table hash against its plain payload --------------------------------


def _reference_table_hash(table):
    payload = "%d;%d;%s;%s;%s" % (table.r, table.d, table.chain.genera,
                                  table.a, table.b)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _rebuilt(table):
    """The same table from fresh column tuples, sharing no object."""
    return VanishingTable(ChainCurve(tuple(table.chain.genera)), table.r,
                          table.d, tuple(tuple(c) for c in map(list, table.a)),
                          tuple(tuple(c) for c in map(list, table.b)))


@st.composite
def hash_runs(draw):
    """Tables in random order: single hypothesis tables, or runs of
    range-walk neighbours, each maybe rebuilt from fresh tuples."""
    kind = draw(st.sampled_from(("rho", "oracle", "neighbours")))
    if kind == "rho":
        tables = [draw(rho_tables())]
    elif kind == "oracle":
        tables = [draw(oracle_tables())]
    else:
        enum = draw(st.sampled_from(_RHO_FAMILIES))
        count = draw(st.integers(2, 8))
        start = draw(st.integers(0, enum.total() - count))
        tables = [t for _, t in enum.iter_range(start, count)]
    if draw(st.booleans()):
        tables = [_rebuilt(t) for t in tables]
    return tables


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(hash_runs(), min_size=1, max_size=5))
def test_table_hash_matches_plain_payload(runs):
    for table in (t for run in runs for t in run):
        assert table.table_hash() == _reference_table_hash(table)


def test_table_hash_reads_reprs_not_equality():
    # (1, ...) and (True, ...) are equal tuples and share a Column, but
    # their reprs, and so the hashes, differ
    base = g22_example()
    a = list(base.a)
    assert a[2][0] == 1
    a[2] = (True,) + a[2][1:]
    flagged = dataclasses.replace(base, a=tuple(a))
    assert flagged == base
    hashes = [t.table_hash() for t in (base, flagged, base, flagged)]
    assert hashes == [_reference_table_hash(t)
                      for t in (base, flagged, base, flagged)]
    assert hashes[0] != hashes[1]


def test_table_hash_of_one_column_and_list_tables():
    base = g22_example()
    one = table_from_columns(ChainCurve((1,)), base.r, base.d,
                             base.a[:1], base.b[:1])
    listed = dataclasses.replace(base, a=[list(c) for c in base.a],
                                 b=list(base.b))
    for table in (one, base, one, listed, base, listed, listed):
        assert table.table_hash() == _reference_table_hash(table)
    assert "((" in "%s" % (one.a,) and "),)" in "%s" % (one.a,)
    assert listed.table_hash() != base.table_hash()
