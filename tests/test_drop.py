import json
import random

import pytest

from llschain import (
    DropCertificate,
    MalformedCertificate,
    build_tensor_table,
    default_multidegree,
    drop_all,
    extract_potential_sections,
    g22_example,
    lambda_sequence,
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
from llschain.multidegree import twist_from_threes


def g22_setup():
    table = g22_example()
    tt = build_tensor_table(table)
    w = default_multidegree(table)
    secs = extract_potential_sections(tt, w)
    return table, tt, w, secs


def context(tt, w, secs=None):
    """The drop context of (tt, w), over a fresh extraction by default."""
    if secs is None:
        secs = extract_potential_sections(tt, w)
    return DropContext(tt, w, secs)


def test_drop_g22_blocks_exact():
    _, tt, w, secs = g22_setup()
    ctx = context(tt, w, secs)
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
            tt = build_tensor_table(table)
            w = default_multidegree(table)
            result = drop_all(context(tt, w))
            assert result.success, (g, table.table_hash())


def test_single_section_drops_by_rule_i():
    _, tt, w, secs = g22_setup()
    lone = [s for s in secs if s.row == (0, 0)]
    result = drop_all(context(tt, w, lone))
    assert result.success
    assert len(result.certificate.steps) == 1
    assert result.certificate.steps[0]["rule"] == "i"


def semicritical_level(tt, w, column, remaining):
    """0 none, 1 semicritical, 2 critical, with only `remaining` alive."""
    full = (1 << len(remaining)) - 1
    return _semicritical(DropContext(tt, w, remaining), full, column - 1)


def test_semicritical_thresholds():
    table, tt, w, secs = g22_setup()
    lam = lambda_sequence(table)
    # column 7 with only its three starting sections left: critical
    remaining = [s for s in secs if s.start >= 7]
    assert semicritical_level(tt, w, 7, remaining) > 0
    assert semicritical_level(tt, w, 7, remaining) == 2
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
        tt2 = build_tensor_table(t2)
        w2 = default_multidegree(t2)
        secs2 = extract_potential_sections(tt2, w2)
        assert semicritical_level(tt2, w2, missing[0], secs2) == 0
        break
    else:
        pytest.skip("no missing-delta table in sample")


def test_semicritical_sum_threshold():
    # minima summing to 2d-3 are not semicritical: shrink the multidegree
    # window so that a mid-block column keeps low-vanishing sections
    table, tt, w, secs = g22_setup()
    # column 9 carries the swap; with every section remaining, the minima at
    # column 9 come from sections whose values add to less than 2d-2
    assert semicritical_level(tt, w, 9, secs) == 0


def test_replay_rejects_transposed_steps():
    _, tt, w, secs = g22_setup()
    ctx = context(tt, w, secs)
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
    _, tt, w, secs = g22_setup()
    empty = DropCertificate(g22_example().table_hash(), w, ())
    assert not replay_certificate(empty, context(tt, w, secs))


def test_replay_rejects_wrong_w():
    table, tt, w, secs = g22_setup()
    cert = drop_all(context(tt, w, secs)).certificate
    other = twist_from_threes(table.chain, table.d, (1, 5, 7, 16, 18, 21))
    assert not replay_certificate(cert, context(tt, other))


def test_malformed_certificate_raises():
    _, tt, w, secs = g22_setup()
    with pytest.raises(MalformedCertificate):
        DropCertificate.from_json({"version": 1})
    ctx = context(tt, w, secs)
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


def test_replay_rejects_column_outside_chain():
    table, tt, w, secs = g22_setup()
    ctx = context(tt, w, secs)
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
    tt5, tt10 = build_tensor_table(t5), build_tensor_table(t10)
    w = default_multidegree(t5)
    assert default_multidegree(t10) == w
    ctx5, ctx10 = context(tt5, w), context(tt10, w)
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
        tt = build_tensor_table(table)
        w = verify_table(table).w
        secs = extract_potential_sections(tt, w)
        ctx = context(tt, w, secs)
        steps, truncated = _search(ctx, (1 << len(secs)) - 1)
        assert steps is not None and not truncated
        assert replay_certificate(DropCertificate(table.hash, w, tuple(steps)), ctx)
        lengths.append(len(steps))
    assert lengths[0] == 23


def test_certificate_json_round_trip():
    _, tt, w, secs = g22_setup()
    ctx = context(tt, w, secs)
    cert = drop_all(ctx).certificate
    again = DropCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert
    assert replay_certificate(again, ctx)


def exhaustive_order_verdict(ctx, n_sections, node_cap=400_000):
    """Search over every rule application order; True iff some order empties."""
    full = (1 << n_sections) - 1
    seen = set()
    stack = [full]
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
    """Mixed (tt, w, sections) instances with at most 12 sections.

    Successes come from r = 3 tables with seeded 3-placements; failures are
    the stuck remainders of adversarial r = 6 placements, re-posed as
    standalone instances.
    """
    rng = random.Random(99)
    out = []
    enum = TableEnumerator(9, 3, 10)
    for _, table in enum.iter_indices(enum.sample_indices(n_success, seed=4)):
        tt = build_tensor_table(table)
        genus1 = [i + 1 for i, gg in enumerate(table.chain.genera) if gg == 1]
        threes = tuple(sorted(rng.sample(genus1, 2)))
        w = twist_from_threes(table.chain, table.d, threes)
        secs = extract_potential_sections(tt, w)
        if len(secs) <= 12:
            out.append((table, tt, w, secs))
    enum6 = TableEnumerator(21, 6, 24, 0)
    collected = 0
    for _, table in enum6.iter_indices(enum6.sample_indices(2 * n_failure, seed=31)):
        tt = build_tensor_table(table)
        w = twist_from_threes(table.chain, table.d, (16, 17, 18, 19, 20, 21))
        result = drop_all(context(tt, w), max_nodes=0)
        if result.success or len(result.remaining) > 12:
            continue
        out.append((table, tt, w, result.remaining))
        collected += 1
        if collected >= n_failure:
            break
    return out


def test_verdict_matches_exhaustive_order_search():
    verdicts = {True: 0, False: 0}
    for table, tt, w, secs in small_drop_instances():
        ctx = DropContext(tt, w, secs)
        engine = drop_all(ctx, max_nodes=200_000)
        exhaustive = exhaustive_order_verdict(ctx, len(secs))
        assert engine.success == exhaustive, table.table_hash()
        verdicts[engine.success] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 3


def test_failure_is_closed_state():
    # a failing drop returns a stuck state on which no rule applies
    found = 0
    for table, tt, w, secs in small_drop_instances(n_success=0, n_failure=4):
        result = drop_all(context(tt, w, secs), max_nodes=50_000)
        if result.success:
            continue
        assert result.remaining
        ctx = DropContext(tt, w, result.remaining)
        stuck = (1 << len(result.remaining)) - 1
        assert not list(_all_actions(ctx, stuck))
        found += 1
    assert found >= 2


def test_rule_ii_never_drops_exceptional_rows():
    # assertable on every certificate step of swap tables
    enum = TableEnumerator(22, 6, 25, None, "has_swap")
    from llschain import exceptional_rows

    for _, table in enum.iter_indices(enum.sample_indices(40, seed=13)):
        tt = build_tensor_table(table)
        w = default_multidegree(table)
        result = drop_all(context(tt, w))
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
            tt = build_tensor_table(table)
            instances.append((tt, default_multidegree(table), None))
    # adversarial placements that leave sections stuck
    instances += [(tt, w, secs) for _, tt, w, secs in small_drop_instances(
        n_success=0, n_failure=6)]
    enum = TableEnumerator(21, 6, 24, 0)
    for _, table in enum.iter_indices(enum.sample_indices(40, seed=31)):
        w = twist_from_threes(table.chain, table.d, (16, 17, 18, 19, 20, 21))
        instances.append((build_tensor_table(table), w, None))
    stuck_seen = 0
    for tt, w, secs in instances:
        if secs is None:
            secs = extract_potential_sections(tt, w)
        ctx = DropContext(tt, w, secs)
        full = (1 << len(secs)) - 1
        steps, ref_steps = [], []
        stuck = _greedy(ctx, full, steps)
        assert stuck == _reference_greedy(ctx, full, ref_steps)
        assert steps == ref_steps
        stuck_seen += stuck != 0
    assert stuck_seen >= 10
