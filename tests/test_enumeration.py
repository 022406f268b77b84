import collections
import hashlib
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llschain import (
    EnumerationError,
    build_elliptic_chain,
    classify_degeneracy,
    count_small_oracle,
    find_swaps,
    rho_accounting,
    table_from_columns,
    validate_table,
)
from llschain import enumeration
from llschain.enumeration import (
    MAX_BUDGET,
    STRATA,
    TableEnumerator,
    _bits,
    _column_choices,
    _successor,
)


def _mask(values):
    return sum(1 << v for v in values)


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
                               (5, 2, 6, 1), (4, 1, 4, 2), (5, 1, 5, 2),
                               (6, 1, 5, 2), (5, 2, 6, 2), (2, 0, 2, 2),
                               (3, 0, 2, 2), (4, 0, 3, 2)]:
        enum = TableEnumerator(g, r, d, rho_max)
        assert enum.total() == count_small_oracle(g, r, d, rho_max), (g, r, d)
        # each table is streamed once: a one-row family has no (1, 1) root
        hashes = [table.hash for _, table in enum.iter_range(0, enum.total())]
        assert len(set(hashes)) == len(hashes) == enum.total(), (g, r, d)


def swap_count_oracle(g, r, d, rho_max):
    """Brute-force tables of a pure chain, built as count_small_oracle builds
    them (every strictly increasing first column, every distinct b-tuple
    with a + b <= d and at most one sum d, refined successors), kept within
    the budget and counted by their number of swaps (from find_swaps)."""
    chain = build_elliptic_chain(g)
    counts = collections.Counter()

    def b_columns(a_col, j=0, acc=(), full=0):
        if j == r + 1:
            yield acc
            return
        for bj in range(d - a_col[j] + 1):
            at_d = a_col[j] + bj == d
            if bj not in acc and full + at_d <= 1:
                yield from b_columns(a_col, j + 1, acc + (bj,), full + at_d)

    def grow(a_cols, b_cols):
        if len(b_cols) == g:
            table = table_from_columns(chain, r, d, a_cols, b_cols)
            validate_table(table)
            if rho_accounting(table).total <= rho_max:
                counts[len(find_swaps(table))] += 1
            return
        for b_col in b_columns(a_cols[-1]):
            nxt = [tuple(d - bj for bj in b_col)] if len(b_cols) + 1 < g else []
            grow(a_cols + nxt, b_cols + [b_col])

    for a1 in combinations(range(d + 1), r + 1):
        grow([a1], [])
    return counts


# (g, r) with some d <= 6 of rho >= 0: brute force stays under half a second
_ORACLE_SHAPES = [(g, r) for g in range(1, 8) for r in range(3)
                  if g + r - g // (r + 1) <= 6]


@st.composite
def small_families(draw):
    """(g, r, d, rho_max), drawn from the largest d and budget down."""
    g, r = draw(st.sampled_from(_ORACLE_SHAPES))
    d_min = g + r - g // (r + 1)
    d = 6 - draw(st.integers(0, 6 - d_min))
    top = min(g - (r + 1) * (g + r - d), MAX_BUDGET)
    return g, r, d, top - draw(st.integers(0, top))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_families())
def test_strata_match_swap_count_oracle(family):
    by_swaps = swap_count_oracle(*family)
    for stratum, accept in STRATA.items():
        want = sum(c for swaps, c in by_swaps.items() if accept(swaps))
        assert TableEnumerator(*family, stratum).total() == want, stratum


def test_rho0_counts_are_rectangle_tableaux():
    assert TableEnumerator(21, 6, 24, 0).total() == hook_length_count(7, 3)
    assert TableEnumerator(14, 6, 18, 0).total() == hook_length_count(7, 2)
    assert TableEnumerator(6, 1, 4, 0).total() == hook_length_count(2, 3)


def test_stream_valid_and_canonical():
    enum = TableEnumerator(5, 1, 4, 1)
    tables = [t for _, t in enum.iter_range(0, enum.total())]
    assert len(tables) == enum.total()
    hashes = [t.table_hash() for t in tables]
    assert len(set(hashes)) == len(hashes)
    for t in tables:
        validate_table(t)
        assert all(g == 1 for g in t.chain.genera)
        assert rho_accounting(t).total <= 1


def test_stream_deterministic_and_sliceable():
    enum = TableEnumerator(5, 1, 4, 1)
    total = enum.total()
    full = [t.table_hash() for _, t in enum.iter_range(0, total)]
    again = [t.table_hash() for _, t in TableEnumerator(5, 1, 4, 1).iter_range(0, total)]
    assert full == again
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
    stream = list(enum.iter_range(0, enum.total()))
    assert stream
    for idx, table in stream:
        got = list(enum.iter_range(idx, 1))
        assert len(got) == 1
        assert got[0][0] == idx
        assert got[0][1] == table
    assert list(enum.iter_range(enum.total(), 3)) == []


def test_strata_partition_counts():
    # 0/1/2-swap split of each family
    for (g, r, d), parts in (
        ((23, 6, 26), [85_928_999_442, 45_719_165_492, 6_201_981_786]),
        ((22, 6, 25), [457_271_100, 128_035_908, 0]),
    ):
        got = [
            TableEnumerator(g, r, d, None, s).total()
            for s in ("swap_free", "one_swap", "two_swap")
        ]
        assert got == parts, (g, r, d)
        assert TableEnumerator(g, r, d).total() == sum(parts)
        assert TableEnumerator(g, r, d, None, "le1_swap").total() == sum(parts[:2])
        assert TableEnumerator(g, r, d, None, "has_swap").total() == sum(parts[1:])


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
    enum = TableEnumerator(21, 6, 24, 0)
    got = [t for _, t in enum.iter_indices(enum.run_indices("sampled", 25, 9, None))]
    assert len(got) == 25
    for t in got:
        validate_table(t)


def test_enumerate_guards():
    with pytest.raises(EnumerationError):
        TableEnumerator(4, 1, 2)  # rho < 0
    with pytest.raises(EnumerationError):
        TableEnumerator(6, 1, 4, 1)  # rho_max > rho
    with pytest.raises(EnumerationError, match="non-negative"):
        TableEnumerator(21, 6, 24, -1)
    with pytest.raises(EnumerationError):
        TableEnumerator(23, 6, 26, 3)
    with pytest.raises(EnumerationError):
        TableEnumerator(23, 6, 26, None, "bogus")
    with pytest.raises(EnumerationError):
        TableEnumerator(6, 1, 4, 0).run_indices("sampled", None, None, None)
    enum = TableEnumerator(5, 1, 4, 1)
    with pytest.raises(EnumerationError):
        list(enum.iter_range(-1, 1))
    with pytest.raises(EnumerationError):
        list(enum.iter_range(0, -1))
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([3, 2]))
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([2, 2]))
    total = enum.total()
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([total]))
    with pytest.raises(EnumerationError):
        list(enum.iter_indices([0, total + 2]))
    for indices in ([-1], [-5, 3]):
        with pytest.raises(EnumerationError,
                           match=rf"index {indices[0]} out of range \({total} tables\)"):
            list(enum.iter_indices(indices))
    with pytest.raises(EnumerationError, match="non-negative"):
        enum.sample_indices(-1, seed=0)
    with pytest.raises(EnumerationError):
        TableEnumerator(6, 1, 4, 0).run_indices("sampled", -1, 0, None)


def test_run_indices_are_the_range_or_sample_cut_to_limit():
    enum = TableEnumerator(5, 1, 4, 1)
    for mode, n, seed, limit, match in (
            ("exhaustve", None, 0, None, "mode"),
            ("sampled", None, 0, None, "needs n"),
            ("sampled", 4, None, None, "needs n"),
            ("sampled", -1, 0, None, "n must be non-negative"),
            ("exhaustive", 3, 0, 7, "sampled mode only.*--limit"),
            ("exhaustive", 0, 0, None, "sampled mode only"),
            ("exhaustive", None, 0, -1, "limit must be non-negative")):
        with pytest.raises(EnumerationError, match=match):
            enum.run_indices(mode, n, seed, limit)
    assert not enum._memo   # refused before the family is counted
    total = enum.total()
    assert enum.run_indices("exhaustive", None, 0, None) == range(total)
    assert enum.run_indices("exhaustive", None, 0, 7) == range(7)
    assert enum.run_indices("exhaustive", None, 0, total + 5) == range(total)
    sample = enum.sample_indices(10, seed=3)
    assert enum.run_indices("sampled", 10, 3, None) == sample
    assert enum.run_indices("sampled", 10, 3, 4) == sample[:4]
    assert enum.run_indices("sampled", 10, 3, 0) == []
    stream = dict(enum.iter_range(0, total))
    for part in (range(total)[3:9], range(total)[total:], sample[2:6], []):
        assert list(enum.iter_indices(part)) == [(i, stream[i]) for i in part]


@pytest.mark.parametrize("past_end", [
    lambda enum, total: enum.iter_range(total, 1),
    lambda enum, total: enum.iter_indices([total]),
], ids=["iter_range", "iter_indices"])
def test_walk_rejects_counts_its_subtrees_do_not_hold(past_end):
    enum = TableEnumerator(5, 1, 4, 1)
    total = enum.total()
    mask, cost = enum._roots()[-1][:2]
    key = (0, mask, enum.rho_max - cost)
    n0, n1, n2 = enum._memo[key]
    enum._memo[key] = (n0 + 1, n1, n2)  # one leaf too many below the last root
    assert enum.total() == total + 1
    assert len(list(enum.iter_range(0, total))) == total
    assert len(list(enum.iter_indices(range(total)))) == total
    # bisection lands past the last child of that root: not an IndexError
    with pytest.raises(EnumerationError, match="offset out of range"):
        list(past_end(enum, total))


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


# -- column choices against a brute-force reference -------------------------


def _slack_menu(rows, spare):
    """Slack assignments (row, extra) with total extra <= spare, canonical order."""
    menu = [()]
    if spare >= 1:
        menu += [((j, 1),) for j in range(rows)]
    if spare >= 2:
        menu += [((j, 2),) for j in range(rows)]
        menu += [
            ((j1, 1), (j2, 1)) for j1 in range(rows) for j2 in range(j1 + 1, rows)
        ]
    return menu


_Ref = collections.namedtuple("_Ref", "new_a cost swaps")


def _reference_choices(a, budget, d):
    """Every (delta row, slack) combination, built and then filtered."""
    rows = len(a)
    out = []
    for delta in list(range(rows)) + [None]:
        base_cost = 0 if delta is not None else 1
        if base_cost > budget:
            continue
        for slack in _slack_menu(rows, budget - base_cost):
            if delta is not None and any(j == delta for j, _ in slack):
                continue
            extra = dict(slack)
            new_a = list(a)
            ok = True
            for j in range(rows):
                if j == delta:
                    continue
                v = a[j] + 1 + extra.get(j, 0)
                if v > d:
                    ok = False
                    break
                new_a[j] = v
            if not ok or len(set(new_a)) != rows:
                continue
            swaps = 0
            for j, _ in slack:
                for k in range(rows):
                    if k == j or (k in extra and k < j):
                        continue
                    if (a[j] - a[k] > 0) != (new_a[j] - new_a[k] > 0):
                        swaps += 1
            out.append(_Ref(tuple(new_a), base_cost + sum(extra.values()), swaps))
    return out


def _assert_choices_match(a, budget, d):
    got = _column_choices(a, budget, d)
    want = _reference_choices(a, budget, d)
    # each choice's mask, labeled column, cost and swaps, in order
    assert [(ch[0], _successor(a, ch), ch[1], ch[2]) for ch in got] == [
        (_mask(ref.new_a), ref.new_a, ref.cost, ref.swaps) for ref in want
    ], (a, budget, d)
    assert all(ch[2] <= 1 for ch in got)  # the counting DP relies on this


@pytest.mark.parametrize("g,r,d,rho_max,stratum", [
    (6, 1, 5, 2, "all"),
    (8, 2, 8, 2, "all"),
    (23, 6, 26, None, "two_swap"),
])
def test_column_choices_match_reference_on_count(g, r, d, rho_max, stratum):
    enum = TableEnumerator(g, r, d, rho_max, stratum)
    enum.total()
    counted = {(tuple(_bits(mask)), budget) for _, mask, budget in enum._memo}
    assert counted
    for vals, budget in counted:
        _assert_choices_match(vals, budget, d)


def test_column_choices_match_reference_on_labeled_walk():
    # the walk asks for choices from labeled, unsorted row values too
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    indices = enum.sample_indices(300, seed=12345)
    counted = {(tuple(_bits(mask)), budget) for _, mask, budget in enum._memo}
    list(enum.iter_indices(indices))
    labeled = {(a, budget) for i, a, budget, _ in enum._nodes if i >= 0} - counted
    assert any(list(a) != sorted(a) for a, _ in labeled)
    for a, budget in labeled:
        _assert_choices_match(a, budget, enum.d)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True),
       st.integers(0, 2), st.integers(0, 4))
def test_column_choices_match_reference_property(a, budget, lift):
    _assert_choices_match(tuple(a), budget, max(a) + lift)


class _ChoicesBuilt(Exception):
    pass


def _pruned(enum, keys, monkeypatch):
    """The count states among ``keys`` (column, mask, budget) whose vector
    ``_vector`` finds, on an empty memo, without building a choice list."""
    def refuse(*args):
        raise _ChoicesBuilt

    memo, pruned = enum._memo, set()
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_column_choices", refuse)
        for key in keys:
            enum._memo = {}
            try:
                enum._vector(*key)
            except _ChoicesBuilt:
                continue
            pruned.add(key)
    enum._memo = memo
    return pruned


def test_count_builds_each_choice_list_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append((tuple(args[0]), args[1]))
        return _column_choices(*args)

    monkeypatch.setattr(enumeration, "_column_choices", counted)
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    enum.total()
    pruned = _pruned(enum, list(enum._memo), monkeypatch)
    assert len(enum._memo) == 2653 and len(pruned) == 1625
    # one list for each state the prune did not settle, and none for the rest
    assert collections.Counter(calls) == collections.Counter(
        (tuple(_bits(mask)), budget)
        for i, mask, budget in enum._memo if (i, mask, budget) not in pruned)


def _reference_roots(enum):
    """The initial (a^1, budget left) states, in canonical order."""
    return [(tuple(j + e for j, e in enumerate(m)), enum.rho_max - sum(m))
            for m in enumeration._ram_vectors(enum.r + 1, enum.rho_max)]


def _reference_vectors(enum):
    """The count's vectors by a plain recursion on sorted value tuples over
    _reference_choices, keyed by (column, row-value mask, budget)."""
    memo = {}

    def vector(i, vals, budget):
        if i == enum.g:
            return (1, 0, 0)
        key = (i, _mask(vals), budget)
        if key not in memo:
            n0 = n1 = n2 = 0
            for ch in _reference_choices(vals, budget, enum.d):
                c0, c1, c2 = vector(i + 1, tuple(sorted(ch.new_a)),
                                    budget - ch.cost)
                if ch.swaps:
                    n1, n2 = n1 + c0, n2 + c1 + c2
                else:
                    n0, n1, n2 = n0 + c0, n1 + c1, n2 + c2
            memo[key] = (n0, n1, n2)
        return memo[key]

    for a1, budget in _reference_roots(enum):
        vector(0, a1, budget)
    return memo


@pytest.mark.parametrize("family", [(6, 1, 5, 2), (8, 2, 8, 2), (5, 1, 4, 1),
                                    (21, 6, 24, 0)])
def test_count_vectors_match_reference_dp(family):
    want = None
    for stratum in STRATA:
        enum = TableEnumerator(*family, stratum)
        enum.total()
        if want is None:
            want = _reference_vectors(enum)
        # the count enters no pruned state's children, so its memo is a part
        # of the reference's; asking for each reference state checks the
        # rest, the pruned ones included
        assert enum._memo.items() <= want.items(), stratum
        assert all(enum._vector(*key) == vec for key, vec in want.items()), stratum


@pytest.mark.parametrize("family,settled", [
    ((5, 1, 4, 1), 0), ((6, 1, 5, 2), 0), ((8, 2, 8, 2), 24), ((6, 2, 6, 0), 4),
    ((5, 2, 6, 2), 8), ((14, 6, 18, 0), 222), ((9, 3, 10), 48),
    ((21, 6, 24, 0), 1134),
])
def test_prune_settles_only_dead_states(family, settled, monkeypatch):
    # every state the reference DP reaches is tried: the prune is sound if
    # each one it settles has no completion, and the pinned number of them
    # shows that it fires
    enum = TableEnumerator(*family)
    want = _reference_vectors(enum)
    pruned = _pruned(enum, want, monkeypatch)
    assert len(pruned) == settled
    assert all(want[key] == (0, 0, 0) for key in pruned)


# -- unranking against the linear-scan walk ---------------------------------


def _materialize(enum, cols):
    """The table whose column i has a-values cols[i-1] and b = d - cols[i]."""
    d = enum.d
    b_cols = [tuple(d - v for v in a) for a in cols[1:]]
    return table_from_columns(enum.chain, enum.r, d, cols[:-1], b_cols)


def _reference_walk(enum, start, count):
    """The tables [start, start+count): a linear scan that passes over whole
    subtrees by their count until the offset lands, then streams."""

    def walk(i, states, skip, cols):
        entered = False
        for a, budget, swaps in states:
            sub = enum._count(i, _mask(a), budget, swaps)
            if skip >= sub:
                skip -= sub
                continue
            entered = True
            cols.append(a)
            if i == enum.g:
                yield _materialize(enum, cols)
            else:
                yield from walk(i + 1, (
                    (_successor(a, ch), budget - ch[1],
                     min(MAX_BUDGET, swaps + ch[2]))
                    for ch in _column_choices(a, budget, enum.d)
                ), skip, cols)
            cols.pop()
            skip = 0
        if not entered:
            raise EnumerationError("offset out of range")

    stop = min(start + count, enum.total())
    roots = ((a1, budget, 0) for a1, budget in _reference_roots(enum))
    return [t for _, t in zip(range(start, stop), walk(0, roots, start, []))]


def _reference_indices(enum, indices):
    return [(idx, _reference_walk(enum, idx, 1)[0]) for idx in indices]


_SMALL_FAMILIES = [(5, 1, 4, 1), (6, 1, 5, 2), (8, 2, 8, 2), (6, 2, 6, 0),
                   (5, 2, 6, 2), (14, 6, 18, 0)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(_SMALL_FAMILIES), st.sampled_from(sorted(STRATA)),
       st.data())
def test_unranking_matches_reference_walk_property(family, stratum, data):
    enum = TableEnumerator(*family, stratum)
    total = enum.total()
    if total == 0:
        assert list(enum.iter_range(0, 5)) == []
        return
    indices = sorted(data.draw(st.sets(st.integers(0, total - 1), max_size=12)))
    assert list(enum.iter_indices(indices)) == _reference_indices(enum, indices)
    start = data.draw(st.integers(0, total + 2))
    count = data.draw(st.integers(0, 40))
    got = [t for _, t in enum.iter_range(start, count)]
    assert got == _reference_walk(enum, start, count)
    stop = min(start + count, total)
    got = [t for _, t in enum.iter_indices(range(start, stop))]
    assert got == _reference_walk(enum, start, count)


def test_unranking_matches_reference_walk_on_two_swap_samples():
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    indices = enum.sample_indices(300, seed=12345)
    assert list(enum.iter_indices(indices)) == _reference_indices(enum, indices)


@pytest.mark.parametrize("family,indices", [
    ((23, 6, 26, None, "two_swap"), lambda enum: enum.sample_indices(300, seed=1)),
    ((21, 6, 24, 0), lambda enum: range(600_000, 600_300)),
], ids=["two_swap_sample", "rho0_range"])
def test_walk_shares_leading_column_tuples(family, indices):
    # one walk serves every index: each table keeps the tuple objects of the
    # columns it shares with its predecessor, and the hash, which resumes
    # where they stop being the same objects, is the plain payload's
    enum = TableEnumerator(*family)
    prev = None
    shared = []
    for _, table in enum.iter_indices(indices(enum)):
        payload = "%d;%d;%s;%s;%s" % (table.r, table.d, table.chain.genera,
                                      table.a, table.b)
        assert table.hash == hashlib.sha256(payload.encode()).hexdigest()[:16]
        if prev is not None:
            first = next(k for k, (a, b, pa, pb) in enumerate(
                zip(table.a, table.b, prev.a, prev.b)) if a != pa or b != pb)
            for k in range(first):
                assert table.a[k] is prev.a[k] and table.b[k] is prev.b[k]
            shared.append(first)
        prev = table
    assert sorted(shared)[len(shared) // 2] >= 4


def test_capped_node_cache_yields_the_same_tables(monkeypatch):
    def tables(enum):
        indices = enum.sample_indices(60, seed=5)
        return (list(enum.iter_indices(indices)),
                list(enum.iter_range(indices[7], 200)))

    family = (23, 6, 26, None, "two_swap")
    free = tables(TableEnumerator(*family))
    monkeypatch.setattr(enumeration, "_NODE_CAP", 5)
    capped = TableEnumerator(*family)
    assert tables(capped) == free
    assert len(capped._nodes) <= 5
