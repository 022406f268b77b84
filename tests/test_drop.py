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
    is_critical,
    is_semicritical,
    lambda_sequence,
    replay_certificate,
)
from llschain.drop import DropContext, _all_actions
from llschain.enumeration import TableEnumerator
from llschain.multidegree import twist_from_threes


def g22_setup():
    table = g22_example()
    tt = build_tensor_table(table)
    w = default_multidegree(table)
    secs = extract_potential_sections(tt, w)
    return table, tt, w, secs


def test_drop_g22_blocks_exact():
    _, tt, w, secs = g22_setup()
    result = drop_all(tt, w, secs)
    assert result.success
    assert set(result.certificate.rule_iii_blocks()) == {(5, 6), (7, 16), (17, 18)}
    assert replay_certificate(result.certificate, tt, w)
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
            result = drop_all(tt, w)
            assert result.success, (g, table.table_hash())


def test_single_section_drops_by_rule_i():
    _, tt, w, secs = g22_setup()
    lone = [s for s in secs if s.row == (0, 0)]
    result = drop_all(tt, w, lone)
    assert result.success
    assert len(result.certificate.steps) == 1
    assert result.certificate.steps[0]["rule"] == "i"


def test_semicritical_thresholds():
    table, tt, w, secs = g22_setup()
    lam = lambda_sequence(table)
    # column 7 with only its three starting sections left: critical
    remaining = [s for s in secs if s.start >= 7]
    assert is_semicritical(tt, w, 7, remaining)
    assert is_critical(tt, w, 7, remaining)
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
        assert not is_semicritical(tt2, w2, missing[0], secs2)
        break
    else:
        pytest.skip("no missing-delta table in sample")


def test_semicritical_sum_threshold():
    # minima summing to 2d-3 are not semicritical: shrink the multidegree
    # window so that a mid-block column keeps low-vanishing sections
    table, tt, w, secs = g22_setup()
    # column 9 carries the swap; with every section remaining, the minima at
    # column 9 come from sections whose values add to less than 2d-2
    assert not is_semicritical(tt, w, 9, secs)


def test_replay_rejects_transposed_steps():
    _, tt, w, secs = g22_setup()
    cert = drop_all(tt, w, secs).certificate
    steps = list(cert.steps)
    # swapping two dependent rule-i steps breaks the minimality precondition
    for k in range(len(steps) - 1):
        if steps[k]["rule"] == "i" and steps[k + 1]["rule"] == "i" \
                and steps[k]["column"] == steps[k + 1]["column"]:
            mutated = steps[:k] + [steps[k + 1], steps[k]] + steps[k + 2:]
            bad = DropCertificate(cert.table_hash, cert.w, tuple(mutated))
            assert not replay_certificate(bad, tt, w)
            return
    pytest.fail("no adjacent same-column rule-i steps found")


def test_replay_rejects_empty_certificate():
    _, tt, w, secs = g22_setup()
    empty = DropCertificate(g22_example().table_hash(), w, ())
    assert not replay_certificate(empty, tt, w)


def test_replay_rejects_wrong_w():
    table, tt, w, secs = g22_setup()
    cert = drop_all(tt, w, secs).certificate
    other = twist_from_threes(table.chain, table.d, (1, 5, 7, 16, 18, 21))
    assert not replay_certificate(cert, tt, other)


def test_malformed_certificate_raises():
    _, tt, w, _ = g22_setup()
    with pytest.raises(MalformedCertificate):
        DropCertificate.from_json({"version": 1})
    cert = DropCertificate(g22_example().table_hash(), w,
                           ({"rule": "iv", "column": 1},))
    with pytest.raises(MalformedCertificate):
        replay_certificate(cert, tt, w)


def test_certificate_json_round_trip():
    _, tt, w, secs = g22_setup()
    cert = drop_all(tt, w, secs).certificate
    again = DropCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert
    assert replay_certificate(again, tt, w)


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
        result = drop_all(tt, w, max_nodes=0)
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
        engine = drop_all(tt, w, secs, max_nodes=200_000)
        exhaustive = exhaustive_order_verdict(ctx, len(secs))
        assert engine.success == exhaustive, table.table_hash()
        verdicts[engine.success] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 3


def test_failure_is_closed_state():
    # a failing drop returns a stuck state on which no rule applies
    found = 0
    for table, tt, w, secs in small_drop_instances(n_success=0, n_failure=4):
        result = drop_all(tt, w, secs, max_nodes=50_000)
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
        result = drop_all(tt, w)
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
