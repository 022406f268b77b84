import copy
import dataclasses
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llschain import (
    ChainCurve,
    build_tensor_table,
    default_multidegree,
    extract_potential_sections,
    g22_example,
    pair_list,
    table_from_columns,
)
from llschain.enumeration import TableEnumerator
from llschain.multidegree import (MultidegreeError, TwistVector,
                                  degree_three_columns, twist_from_threes)
from llschain.table import packing
from llschain.tensor import scan_runs
from test_table import _reference_table_hash, refined_tables


def _flags(tt, w, i, pair):
    """(appearing, starting, ending) of one row in column i (1-based).

    Taken from the module docstring: a >= c_i and b >= 2d - c_{i+1}, strict
    for starting (ending), with strictness relaxed in column 1 (N).
    """
    ext = w.extended()
    p = tt.pairs.index(pair)
    a, b = tt.ta[i - 1][p], tt.tb[i - 1][p]
    left, right = ext[i], tt.d2 - ext[i + 1]
    appearing = a >= left and b >= right
    return (appearing, appearing and (i == 1 or a > left),
            appearing and (i == tt.n_columns or b > right))


def _spanning(sections, i):
    """Number of sections covering both column i and column i + 1."""
    return sum(1 for s in sections if s.start <= i < s.end)


def naive_sections(tt, w):
    """All-intervals oracle: keep inclusion-maximal candidate intervals."""
    n = tt.n_columns
    out = []
    for pair in tt.pairs:
        flags = {i: _flags(tt, w, i, pair) for i in range(1, n + 1)}
        candidates = []
        for u in range(1, n + 1):
            if not flags[u][1]:
                continue
            for v in range(u, n + 1):
                if not all(flags[i][0] for i in range(u, v + 1)):
                    continue
                if flags[v][2]:
                    candidates.append((u, v))
        keep = [
            (u, v)
            for (u, v) in candidates
            if not any(
                (u2 <= u and v <= v2) and (u2, v2) != (u, v)
                and all(flags[i][0] for i in range(u2, v2 + 1))
                for (u2, v2) in candidates
            )
        ]
        out.extend((pair, u, v) for (u, v) in sorted(keep))
    return out


def test_pair_list_order():
    pairs = pair_list(6)
    assert len(pairs) == 28
    assert pairs[:6] == ((0, 0), (0, 1), (0, 2), (1, 1), (0, 3), (1, 2))
    assert pairs[-1] == (6, 6)


def test_tensor_entries_g22():
    table = g22_example()
    tt = build_tensor_table(table)
    assert (tt.ta[0][tt.pairs.index((0, 0))], tt.tb[0][tt.pairs.index((0, 0))]) == (0, 50)
    p66 = tt.pairs.index((6, 6))
    assert (tt.ta[21][p66], tt.tb[21][p66]) == (50, 0)
    for i in range(22):
        for j in range(7):
            p = tt.pairs.index((j, j))
            assert tt.ta[i][p] == 2 * table.a[i][j]
            assert tt.tb[i][p] == 2 * table.b[i][j]
            assert tt.ta[i][p] + tt.tb[i][p] <= 2 * table.d


def test_appearance_flags_g22():
    table = g22_example()
    tt = build_tensor_table(table)
    w = default_multidegree(table)
    appearing, starting, _ = _flags(tt, w, 1, (0, 0))
    assert appearing and starting
    assert not _flags(tt, w, 2, (0, 0))[0]


def test_appearance_boundary_cases():
    table = g22_example()
    tt = build_tensor_table(table)
    w = default_multidegree(table)
    ext = w.extended()
    hits = 0
    for i in range(2, 22):
        for pair in tt.pairs:
            p = tt.pairs.index(pair)
            a, b = tt.ta[i - 1][p], tt.tb[i - 1][p]
            appearing, starting, ending = _flags(tt, w, i, pair)
            if a == ext[i] and b == 50 - ext[i + 1]:
                assert appearing and not starting and not ending
                hits += 1
            if a < ext[i]:
                assert not appearing
    assert hits > 0


def test_extract_g22_sections():
    table = g22_example()
    w = default_multidegree(table)
    secs = extract_potential_sections(table, w)
    assert len(secs) == 29
    per_row = {}
    for s in secs:
        per_row.setdefault(s.row, []).append((s.start, s.end))
    assert all(len(v) == 1 for r, v in per_row.items() if r != (2, 2))
    assert per_row[(2, 2)] == [(5, 7), (12, 12)]
    assert per_row[(2, 3)] == [(7, 11)]


def test_extract_rho0_one_per_row():
    enum = TableEnumerator(21, 6, 24, 0)
    for _, table in enum.iter_indices(enum.sample_indices(60, seed=9)):
        w = default_multidegree(table)
        secs = extract_potential_sections(table, w)
        assert len(secs) == 28
        assert len({s.row for s in secs}) == 28


def test_extract_matches_naive_oracle_on_samples():
    rng = random.Random(41)
    cases = []
    for (g, r, d, stratum) in [(21, 6, 24, "all"), (22, 6, 25, "all"),
                               (23, 6, 26, "two_swap")]:
        enum = TableEnumerator(g, r, d, 0 if g == 21 else None, stratum)
        cases += [t for _, t in enum.iter_indices(enum.sample_indices(40, seed=g))]
    for table in cases:
        tt = build_tensor_table(table)
        genus1 = [i + 1 for i, gg in enumerate(table.chain.genera) if gg == 1]
        threes = tuple(sorted(rng.sample(genus1, 6)))
        w = twist_from_threes(table.chain, table.d, threes)
        got = [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]
        assert got == naive_sections(tt, w)


def test_packed_field_width_grows_at_powers_of_two():
    # a field holds sums up to 2d below its guard bit
    assert [packing(6, d)[0] for d in (31, 32, 63, 64)] == [7, 8, 8, 9]
    f, ones, guard = packing(1, 32)
    assert (ones, guard) == (1 | 1 << 8 | 1 << 16, (1 | 1 << 8 | 1 << 16) << 7)


@st.composite
def short_tables_and_twists(draw):
    """One to three columns of r + 1 rows whose sums reach 0 and 2d, where
    the packed fields change width; c_i at 0, at D, at a tensor value or
    anywhere between, so both chain ends relax strictness at once."""
    d = draw(st.sampled_from((31, 32, 63, 64)))
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    value = st.one_of(st.sampled_from((0, d)), st.integers(0, d))
    a, b = [], []
    for _ in range(n):
        col_a = [draw(value) for _ in range(r + 1)]
        a.append(col_a)
        b.append([min(draw(value), d - v) for v in col_a])
    table = table_from_columns(ChainCurve((1,) * n), r, d, a, b)
    D = 2 * d
    sums = [v for col in table.columns for v in (*col.ta, *col.tb)]
    c = st.one_of(st.sampled_from((0, D)), st.sampled_from(sums),
                  st.sampled_from([D - v for v in sums]), st.integers(0, D))
    w = TwistVector(D, tuple(draw(c) for _ in range(n - 1)))
    return table, w


@settings(derandomize=True, max_examples=400, deadline=None)
@given(short_tables_and_twists())
def test_packed_scan_matches_naive_oracle_at_field_widths(case):
    table, w = case
    got = [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]
    assert got == naive_sections(build_tensor_table(table), w)


_SCAN_FAMILIES = [TableEnumerator(21, 6, 24, 0),
                  TableEnumerator(22, 6, 25, None, "has_swap"),
                  TableEnumerator(23, 6, 26, None, "two_swap")]


def _scan_sections(table, w):
    return [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]


def _runs_sections(table, scan):
    """The sections of a scan record of `table`, in row-major order."""
    pairs = pair_list(table.r)
    return [(pairs[p], s + 1, e + 1) for p, s, e in sorted(scan.out)]


def _fields(scan):
    """Every field of a scan record, its lists copied."""
    return {name: copy.copy(getattr(scan, name)) for name in scan.__slots__}


@st.composite
def genus0_tables_and_twists(draw):
    """Refined tables whose chains mix genus-0 and genus-1 components, with
    any bounded twist vector."""
    table = draw(refined_tables())
    D = 2 * table.d
    c = tuple(draw(st.integers(0, D)) for _ in range(table.n_columns - 1))
    return table, TwistVector(D, c)


@st.composite
def scan_calls(draw):
    """A sequence of scan_runs calls, as (table, w) or (table, bad w):
    runs of range-walk neighbours at the default multidegree, unrelated
    tables, the same table twice, another candidate w (a 3 moved to a
    neighbouring column, or anywhere), other (r, d, n), genus-0 columns and
    calls rejected before the scan."""
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("walk", "unrelated", "again", "move",
                                     "threes", "short", "genus0", "bad")))
        if kind in ("walk", "unrelated"):
            enum = draw(st.sampled_from(_SCAN_FAMILIES))
            count = draw(st.integers(2, 12)) if kind == "walk" else 1
            start = draw(st.integers(0, enum.total() - count))
            calls += [(t, default_multidegree(t))
                      for _, t in enum.iter_range(start, count)]
        elif kind == "short":
            calls.append(draw(short_tables_and_twists()))
        elif kind == "genus0":
            calls.append(draw(genus0_tables_and_twists()))
        elif not calls:
            continue
        elif kind == "again":
            calls.append(calls[-1])
        elif kind == "bad":
            table, w = calls[-1]
            calls.append((table, TwistVector(w.D, w.c + (w.D,))))
        else:
            table, w = calls[-1]
            chain = table.chain
            if (set(chain.genera) != {1} or table.r != 6
                    or w.n_components != table.n_columns):
                continue
            threes = list(degree_three_columns(w, chain))
            n = table.n_columns
            if len(threes) != 2 * (table.d - n):
                continue
            if kind == "move":
                k = draw(st.integers(0, len(threes) - 1))
                to = threes[k] + draw(st.sampled_from((-1, 1)))
                if not 1 <= to <= n or to in threes:
                    continue
                threes[k] = to
            else:
                threes = draw(st.lists(st.integers(1, n), min_size=len(threes),
                                       max_size=len(threes), unique=True))
            calls.append((table, twist_from_threes(chain, table.d, threes)))
    return calls


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scan_calls())
def test_resumed_scan_matches_naive_oracle_along_call_sequences(calls):
    # each scan resumes from the last one that completed; a rejected call
    # leaves it to the next, and no scan changes the record it resumed from
    scan, records = None, []
    for table, w in calls:
        if w.n_components != table.n_columns:
            with pytest.raises(MultidegreeError):
                scan_runs(scan, table, w)
            continue
        scan = scan_runs(scan, table, w)
        records.append((scan, _fields(scan)))
        assert _runs_sections(table, scan) == \
            naive_sections(build_tensor_table(table), w)
    for record, fields in records:
        assert _fields(record) == fields


def test_scan_resumes_at_first_changed_column():
    # the states saved before the columns both tables share are kept, and
    # every later one is rebuilt
    enum = _SCAN_FAMILIES[0]
    tables = [t for _, t in enum.iter_range(600_000, 40)]
    resumed = 0
    for prev, table in zip(tables, tables[1:]):
        w = default_multidegree(prev)
        if default_multidegree(table) != w:
            continue
        scan = scan_runs(None, prev, w)
        fields = _fields(scan)
        resumed_scan = scan_runs(scan, table, w)
        assert _runs_sections(table, resumed_scan) == \
            naive_sections(build_tensor_table(table), w)
        assert _fields(scan) == fields
        before, after = scan.states, resumed_scan.states
        k = next(x for x, (c, p) in enumerate(zip(table.columns, prev.columns))
                 if c is not p)
        k = min(k, table.n_columns - 1)
        assert all(after[x] is before[x] for x in range(k))
        assert all(after[x] is not before[x] for x in range(k, len(after)))
        resumed += k > 0
    assert resumed > 30


def test_resume_slots_are_per_thread():
    # threads extracting the sections of their own runs of neighbours and
    # hashing them (the hash resumes in a slot per thread), switching every
    # microsecond, each get the answers of a serial run
    enum = _SCAN_FAMILIES[0]
    runs = [[t for _, t in enum.iter_range(start, 25)]
            for start in (0, 400_000, 800_000, 1_200_000)]
    expected = [[(naive_sections(build_tensor_table(t), default_multidegree(t)),
                  _reference_table_hash(t)) for t in run] for run in runs]
    got = [[] for _ in runs]

    def work(k):
        for _ in range(4):
            got[k] = [(_scan_sections(t, default_multidegree(t)),
                       dataclasses.replace(t).table_hash()) for t in runs[k]]
            if got[k] != expected[k]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_spanning_counts_g22():
    table = g22_example()
    w = default_multidegree(table)
    secs = extract_potential_sections(table, w)
    spans = [_spanning(secs, i) for i in range(1, 22)]
    assert max(spans) <= 3
    assert _spanning(secs, 1) == 1  # only (0,1) crosses 1 -> 2
    assert min(spans) >= 1


def test_spanning_count_four_attainable_off_default():
    # with two 3s among the first 14 columns and the sorted shape
    # (3,3,2,2,2,1,1) at column 14, four nested row pairs cross 14 -> 15
    from llschain import build_elliptic_chain, lambda_sequence, table_from_lambda, validate_table

    box_order = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 5, 6, 6]
    cur = [0] * 7
    rows = [list(cur)]
    for j in box_order:
        cur[j] += 1
        rows.append(list(cur))
    table = table_from_lambda(build_elliptic_chain(21), 6, 24, tuple(range(7)), rows)
    validate_table(table)
    lam = lambda_sequence(table)
    assert lam.lam[14] == (3, 3, 2, 2, 2, 1, 1)
    assert lam.bar_count(14, 1) + lam.bar_count(14, 3) >= 7

    w = twist_from_threes(table.chain, table.d, (1, 8, 15, 16, 17, 21))
    secs = extract_potential_sections(table, w)
    assert _spanning(secs, 14) == 4
    assert all(_spanning(secs, i) <= 4 for i in range(1, 21))
