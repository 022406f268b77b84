import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llschain import (
    DropCertificate,
    MalformedCertificate,
    MultidegreeError,
    TwistVector,
    build_tensor_table,
    default_multidegree,
    drop_all,
    extract_potential_sections,
    g22_example,
    lambda_sequence,
    pair_list,
    replay_certificate,
    verify_table,
)
from llschain.drop import (
    DropContext,
    _all_actions,
    _find,
    _greedy,
    _search,
    _semicritical,
    _step,
)
from llschain.enumeration import TableEnumerator
from llschain.multidegree import iter_candidate_multidegrees, twist_from_threes

from test_tensor import naive_sections


def g22_setup():
    table = g22_example()
    w = default_multidegree(table)
    return table, w, DropContext(table, w)


def mask_of(ctx, secs):
    """The state in which exactly the sections `secs` of `ctx` are alive."""
    return sum(1 << ctx.sections.index(s) for s in secs)


def drop_from(ctx, alive, max_nodes):
    """`drop_all` started from the state `alive` instead of the full one:
    (whether some order empties it, the greedy's stuck state)."""
    stuck = _greedy(ctx, alive, [])
    if stuck and max_nodes > 0 and _search(ctx, alive, max_nodes)[0] is not None:
        return True, stuck
    return stuck == 0, stuck


def test_drop_g22_blocks_exact():
    _, w, ctx = g22_setup()
    secs = ctx.sections
    result = drop_all(ctx)
    assert result.success
    assert set(result.certificate.rule_iii_blocks()) == {(5, 6), (7, 16), (17, 18)}
    assert replay_certificate(result.certificate, ctx)
    # every section dropped exactly once
    dropped = []
    for step in result.certificate.steps:
        if step["rule"] == "i":
            dropped.append(
                (tuple(step["section"]["row"]), step["section"]["start"],
                 step["section"]["end"])
            )
        else:
            dropped.extend(
                (tuple(o["row"]), o["start"], o["end"]) for o in step["sections"]
            )
    assert sorted(dropped) == sorted((s.row, s.start, s.end) for s in secs)


def test_drop_rho0_default_succeeds():
    for g, d in ((21, 24), (22, 25), (23, 26)):
        enum = TableEnumerator(g, 6, d, None, "swap_free")
        for _, table in enum.iter_indices(enum.sample_indices(25, seed=g)):
            w = default_multidegree(table)
            result = drop_all(DropContext(table, w))
            assert result.success, (g, table.table_hash())


def test_single_section_drops_by_rule_i():
    _, w, ctx = g22_setup()
    lone = mask_of(ctx, [s for s in ctx.sections if s.row == (0, 0)])
    steps = []
    assert _greedy(ctx, lone, steps) == 0
    assert len(steps) == 1
    assert steps[0]["rule"] == "i"


def semicritical_level(ctx, column, remaining):
    """0 none, 1 semicritical, 2 critical, with only `remaining` alive."""
    return _semicritical(ctx, mask_of(ctx, remaining), column - 1)


def test_semicritical_thresholds():
    table, w, ctx = g22_setup()
    lam = lambda_sequence(table)
    # column 7 with only its three starting sections left: critical
    remaining = [s for s in ctx.sections if s.start >= 7]
    assert semicritical_level(ctx, 7, remaining) > 0
    assert semicritical_level(ctx, 7, remaining) == 2
    # column 8 has no delta (delta_8 = 0 exists; column 10 has delta_10 = 1)
    assert lam.delta[8] == 0
    # a column whose genus-1 delta is missing can never be semicritical:
    # build a quick check on a no-delta column of a sampled rho<=1 table
    enum = TableEnumerator(22, 6, 25)
    for _, t2 in enum.iter_indices(enum.sample_indices(80, seed=1)):
        lam2 = lambda_sequence(t2)
        missing = [i for i in range(1, 23) if lam2.delta[i] is None]
        if not missing:
            continue
        ctx2 = DropContext(t2, default_multidegree(t2))
        assert semicritical_level(ctx2, missing[0], ctx2.sections) == 0
        break
    else:
        pytest.skip("no missing-delta table in sample")


def test_semicritical_sum_threshold():
    # minima summing to 2d-3 are not semicritical: shrink the multidegree
    # window so that a mid-block column keeps low-vanishing sections
    table, w, ctx = g22_setup()
    # column 9 carries the swap; with every section remaining, the minima at
    # column 9 come from sections whose values add to less than 2d-2
    assert semicritical_level(ctx, 9, ctx.sections) == 0


def test_replay_rejects_transposed_steps():
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    steps = list(cert.steps)
    # swapping two dependent rule-i steps breaks the minimality precondition
    for k in range(len(steps) - 1):
        if steps[k]["rule"] == "i" and steps[k + 1]["rule"] == "i" \
                and steps[k]["column"] == steps[k + 1]["column"]:
            mutated = steps[:k] + [steps[k + 1], steps[k]] + steps[k + 2:]
            bad = DropCertificate(cert.table_hash, cert.w, tuple(mutated))
            assert not replay_certificate(bad, ctx)
            return
    pytest.fail("no adjacent same-column rule-i steps found")


def test_replay_rejects_empty_certificate():
    _, w, ctx = g22_setup()
    empty = DropCertificate(g22_example().table_hash(), w, ())
    assert not replay_certificate(empty, ctx)


def test_replay_rejects_wrong_w():
    table, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    other = twist_from_threes(table.chain, table.d, (1, 5, 7, 16, 18, 21))
    assert not replay_certificate(cert, DropContext(table, other))


def test_malformed_certificate_raises():
    _, w, ctx = g22_setup()
    with pytest.raises(MalformedCertificate):
        DropCertificate.from_json({"version": 1})
    good = drop_all(ctx).certificate.to_json()
    for bad in (dict(good, steps="ab"), dict(good, w={"c": [1]})):
        with pytest.raises(MalformedCertificate):
            DropCertificate.from_json(bad)
    for step in (
        {"rule": "iv", "column": 1},
        {"rule": "i"},
        "i",
        {"rule": "iii", "start": 5},
        {"rule": "ii", "column": "1", "sections": []},
        {"rule": "ii", "column": 1.0, "sections": []},
        {"rule": "i", "column": 1, "min": "a", "section": "row"},
    ):
        cert = DropCertificate(g22_example().table_hash(), w, (step,))
        with pytest.raises(MalformedCertificate):
            replay_certificate(cert, ctx)


def _replay_mutated(ctx, cert, k, step):
    """Replay `cert` with its step k replaced by `step`."""
    steps = list(cert.steps)
    steps[k] = step
    return replay_certificate(DropCertificate(cert.table_hash, cert.w,
                                              tuple(steps)), ctx)


def test_replay_rejects_section_keys_that_are_not_ints():
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    k = next(k for k, s in enumerate(cert.steps) if s["rule"] == "i"
             and s["section"] == {"row": [0, 1], "start": 1, "end": 1})
    step = cert.steps[k]
    assert _replay_mutated(ctx, cert, k, step)
    # each of these named the same section as far as == and hash could tell
    for bad in ({"row": [False, True]}, {"start": 1.0}, {"end": True},
                {"row": (0, 1)}, {"row": [0, 1, 1]}, {"row": [[0], 1]}):
        mutated = dict(step, section=dict(step["section"], **bad))
        with pytest.raises(MalformedCertificate):
            _replay_mutated(ctx, cert, k, mutated)
    # an unhashable row entry is malformed under every rule
    for k, step in enumerate(cert.steps):
        if step["rule"] != "i":
            secs = [dict(step["sections"][0], row=[[0], 1]),
                    *step["sections"][1:]]
            with pytest.raises(MalformedCertificate):
                _replay_mutated(ctx, cert, k, dict(step, sections=secs))


def test_replay_compares_a_steps_sections_as_a_set():
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    k = next(k for k, s in enumerate(cert.steps) if s["rule"] == "iii")
    step = cert.steps[k]
    secs = step["sections"]
    assert len(secs) > 1
    # the same set in another order is the same drop
    assert _replay_mutated(ctx, cert, k, dict(step, sections=secs[::-1]))
    # a section named twice, or one the context does not hold, is not
    assert not _replay_mutated(ctx, cert, k,
                               dict(step, sections=secs + secs[:1]))
    assert not _replay_mutated(ctx, cert, k,
                               dict(step, sections=[*secs[:-1], secs[0]]))
    outside = dict(secs[0], end=ctx.n + 1)
    assert not _replay_mutated(ctx, cert, k,
                               dict(step, sections=[outside, *secs[1:]]))


def test_replay_rejects_column_outside_chain():
    table, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    steps = list(cert.steps)
    k = next(k for k, s in enumerate(steps)
             if s.get("column") == table.n_columns)
    for column in (0, table.n_columns + 1):
        steps[k] = dict(steps[k], column=column)
        bad = DropCertificate(cert.table_hash, cert.w, tuple(steps))
        assert not replay_certificate(bad, ctx)


def test_replay_binds_certificate_to_its_table():
    # tables 5 and 10 of the swap-free (21,6,24) family share the default
    # multidegree, and table 5's steps are valid drops on table 10 too
    enum = TableEnumerator(21, 6, 24, 0)
    [(_, t5)] = list(enum.iter_range(5, 1))
    [(_, t10)] = list(enum.iter_range(10, 1))
    w = default_multidegree(t5)
    assert default_multidegree(t10) == w
    ctx5, ctx10 = DropContext(t5, w), DropContext(t10, w)
    cert = drop_all(ctx5).certificate
    assert replay_certificate(cert, ctx5)
    # the binding is checked against the context replay reads: a certificate
    # naming another table, or another w, is rejected though its steps are
    # valid drops there
    assert not replay_certificate(cert, ctx10)
    rebound = DropCertificate(t10.hash, w, cert.steps)
    assert replay_certificate(rebound, ctx10)
    other = twist_from_threes(t10.chain, t10.d, (1, 5, 7, 16, 18, 21))
    assert other != w
    assert not replay_certificate(DropCertificate(t10.hash, other, cert.steps), ctx10)


def test_search_certificates_replay():
    # the greedy schedule never stalls where search succeeds, so the
    # search's certificates are checked here, from the full state
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    samples = [t for _, t in enum.iter_indices(enum.sample_indices(20, seed=12345))]
    lengths = []
    for table in [g22_example()] + samples:
        w = verify_table(table).w
        ctx = DropContext(table, w)
        steps, truncated = _search(ctx, (1 << len(ctx.sections)) - 1)
        assert steps is not None and not truncated
        assert replay_certificate(DropCertificate(table.hash, w, tuple(steps)), ctx)
        lengths.append(len(steps))
    assert lengths[0] == 23


def test_certificate_json_round_trip():
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    again = DropCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert
    assert replay_certificate(again, ctx)


def exhaustive_order_verdict(ctx, alive, node_cap=400_000):
    """Search over every rule application order from the state `alive`;
    True iff some order empties it."""
    seen = set()
    stack = [alive]
    nodes = 0
    while stack:
        state = stack.pop()
        if state == 0:
            return True
        if state in seen:
            continue
        seen.add(state)
        nodes += 1
        if nodes > node_cap:
            raise RuntimeError("order search exceeded node cap")
        for _, mask in _all_actions(ctx, state):
            stack.append(state & ~mask)
    return False


def small_drop_instances(n_success=20, n_failure=6):
    """Mixed (context, alive) instances with at most 12 live sections.

    Successes come from r = 3 tables with seeded 3-placements, all sections
    alive; failures are the stuck remainders of adversarial r = 6
    placements, posed as the state in which only they are alive.
    """
    rng = random.Random(99)
    out = []
    enum = TableEnumerator(9, 3, 10)
    for _, table in enum.iter_indices(enum.sample_indices(n_success, seed=4)):
        genus1 = [i + 1 for i, gg in enumerate(table.chain.genera) if gg == 1]
        threes = tuple(sorted(rng.sample(genus1, 2)))
        ctx = DropContext(table, twist_from_threes(table.chain, table.d, threes))
        if len(ctx.sections) <= 12:
            out.append((ctx, (1 << len(ctx.sections)) - 1))
    enum6 = TableEnumerator(21, 6, 24, 0)
    collected = 0
    for _, table in enum6.iter_indices(enum6.sample_indices(2 * n_failure, seed=31)):
        w = twist_from_threes(table.chain, table.d, (16, 17, 18, 19, 20, 21))
        ctx = DropContext(table, w)
        stuck = _greedy(ctx, (1 << len(ctx.sections)) - 1, [])
        if stuck == 0 or stuck.bit_count() > 12:
            continue
        out.append((ctx, stuck))
        collected += 1
        if collected >= n_failure:
            break
    return out


def test_verdict_matches_exhaustive_order_search():
    verdicts = {True: 0, False: 0}
    for ctx, alive in small_drop_instances():
        success, _ = drop_from(ctx, alive, max_nodes=200_000)
        exhaustive = exhaustive_order_verdict(ctx, alive)
        assert success == exhaustive, ctx.table_hash
        verdicts[success] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 3


def test_failure_is_closed_state():
    # a failing drop returns a stuck state on which no rule applies
    found = 0
    for ctx, alive in small_drop_instances(n_success=0, n_failure=4):
        success, stuck = drop_from(ctx, alive, max_nodes=50_000)
        if success:
            continue
        assert stuck
        assert not list(_all_actions(ctx, stuck))
        found += 1
    assert found >= 2


def test_rule_ii_never_drops_exceptional_rows():
    # assertable on every certificate step of swap tables
    enum = TableEnumerator(22, 6, 25, None, "has_swap")
    from llschain import exceptional_rows

    for _, table in enum.iter_indices(enum.sample_indices(40, seed=13)):
        w = default_multidegree(table)
        result = drop_all(DropContext(table, w))
        if not result.success:
            continue
        exc = exceptional_rows(table)
        degs = None
        for step in result.certificate.steps:
            if step["rule"] == "ii":
                col = step["column"]
                for obj in step["sections"]:
                    for j in obj["row"]:
                        assert (col, j) not in exc
            if step["rule"] == "iii":
                # interior degree 2 throughout
                from llschain import component_degrees

                if degs is None:
                    degs = component_degrees(w, table.chain)
                for col in range(step["start"] + 1, step["end"]):
                    assert degs[col - 1] == 2


def _reference_greedy(ctx, alive, steps):
    """The greedy schedule asking `_find` at every place on every pass."""
    n = ctx.n
    sweep = [*range(n), *reversed(range(n))]
    fallbacks = ([("ii", x, False) for x in range(n)]
                 + [("iii", b, True) for b in ctx.blocks]
                 + [("iii", b, False) for b in ctx.blocks])
    while alive:
        progress = False
        for x in sweep:
            while (found := _find(ctx, alive, "i", x)) is not None:
                steps.append(_step(ctx, "i", x, *found))
                alive &= ~found[1]
                progress = True
        if progress:
            continue
        for rule, where, anchored in fallbacks:
            found = _find(ctx, alive, rule, where, anchored)
            if found is not None:
                steps.append(_step(ctx, rule, where, *found))
                alive &= ~found[1]
                break
        else:
            break
    return alive


def test_greedy_skips_only_calls_that_find_nothing():
    # same steps and the same stuck state as the greedy that skips nothing
    families = (
        (TableEnumerator(21, 6, 24, 0), 300),
        (TableEnumerator(22, 6, 25, None, "has_swap"), 300),
        (TableEnumerator(23, 6, 26, None, "two_swap"), 100),
    )
    instances = []
    for enum, count in families:
        for _, table in enum.iter_indices(enum.sample_indices(count, seed=8)):
            ctx = DropContext(table, default_multidegree(table))
            instances.append((ctx, (1 << len(ctx.sections)) - 1))
    # adversarial placements that leave sections stuck
    instances += small_drop_instances(n_success=0, n_failure=6)
    enum = TableEnumerator(21, 6, 24, 0)
    for _, table in enum.iter_indices(enum.sample_indices(40, seed=31)):
        w = twist_from_threes(table.chain, table.d, (16, 17, 18, 19, 20, 21))
        ctx = DropContext(table, w)
        instances.append((ctx, (1 << len(ctx.sections)) - 1))
    stuck_seen = 0
    for ctx, alive in instances:
        steps, ref_steps = [], []
        stuck = _greedy(ctx, alive, steps)
        assert stuck == _reference_greedy(ctx, alive, ref_steps)
        assert steps == ref_steps
        stuck_seen += stuck != 0
    assert stuck_seen >= 10


def test_context_rejects_multidegree_that_is_not_unimaginative():
    # bounded of total degree 2d, but degrees 4 and 1 on columns 1 and 2:
    # sections are defined there, the dropping rules are not
    table = g22_example()
    w = TwistVector(50, (4, 5, *default_multidegree(table).c[2:]))
    assert extract_potential_sections(table, w)
    with pytest.raises(MultidegreeError, match="unimaginative"):
        DropContext(table, w)
    for bad in (TwistVector(48, w.c), TwistVector(50, w.c[:-1]),
                TwistVector(50, (-1, *w.c[1:]))):
        with pytest.raises(MultidegreeError):
            DropContext(table, bad)


def _reference_masks(table, w):
    """(sections, pair_of, cover, starts, ends) of (table, w), translated
    section by section from a separate extraction."""
    sections = extract_potential_sections(table, w)
    pos = {pair: p for p, pair in enumerate(pair_list(table.r))}
    n = table.n_columns
    cover, starts, ends = [0] * n, [0] * n, [0] * n
    for idx, s in enumerate(sections):
        bit = 1 << idx
        starts[s.start - 1] |= bit
        ends[s.end - 1] |= bit
        for x in range(s.start - 1, s.end):
            cover[x] |= bit
    return sections, [pos[s.row] for s in sections], cover, starts, ends


_FAMILIES = ((21, 6, 24, 0, "all"), (22, 6, 25, None, "has_swap"),
             (23, 6, 26, None, "two_swap"))


@functools.lru_cache(maxsize=None)
def _enumerator(spec):
    return TableEnumerator(*spec)


@st.composite
def family_tables(draw):
    """A rho-0, has_swap or two-swap table, unranked from a drawn index."""
    enum = _enumerator(draw(st.sampled_from(_FAMILIES)))
    [(_, table)] = enum.iter_indices([draw(st.integers(0, enum.total() - 1))])
    return table


@settings(derandomize=True, max_examples=200, deadline=None)
@given(family_tables())
def test_context_masks_match_reference_at_every_candidate(table):
    tt = build_tensor_table(table)
    for w in iter_candidate_multidegrees(table):
        ctx = DropContext(table, w)
        assert (ctx.sections, ctx.pair_of, ctx.cover, ctx.starts, ctx.ends) \
            == _reference_masks(table, w)
        got = [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]
        assert got == naive_sections(tt, w)
