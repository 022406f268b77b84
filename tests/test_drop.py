import copy
import dataclasses
import functools
import json
import random
import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from llschain import (
    DropCertificate,
    MalformedCertificate,
    MultidegreeError,
    TwistVector,
    build_tensor_table,
    component_degrees,
    default_multidegree,
    drop_all,
    extract_potential_sections,
    g22_example,
    lambda_sequence,
    pair_list,
    replay_certificate,
    validate_table,
    verify_table,
)
from llschain.drop import (
    CERTIFICATE_VERSION,
    DropContext,
    _bits,
    _find,
    _greedy,
    _replay,
    _semicritical,
    _step,
)
from llschain import drop as drop_module
from llschain import verify as verify_module
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


def drop_from(ctx, alive):
    """`drop_all` started from the state `alive` instead of the full one:
    (whether the greedy empties it, the greedy's stuck state)."""
    stuck = _greedy(ctx, alive, [])
    return stuck == 0, stuck


def _all_actions(ctx, alive):
    """Every drop applicable in state `alive`, rule (iii) in its liberal
    form, as (rule, where, side, mask) in place order: rule (i) at each
    column, rule (ii) at each column, rule (iii) on each block."""
    places = ([("i", x) for x in range(ctx.n)] + [("ii", x) for x in range(ctx.n)]
              + [("iii", b) for b in ctx.blocks])
    for rule, where in places:
        found = _find(ctx, alive, rule, where)
        if found is not None:
            yield (rule, where, *found)


def exhaustive_order_search(ctx, alive, node_cap=400_000):
    """Search over every rule application order from the state `alive`,
    each state's drops tried in `_all_actions` order: the steps of the
    first order that empties it, or None if no order does."""
    dead = set()
    nodes = 0

    def go(state):
        nonlocal nodes
        if state == 0:
            return []
        if state in dead:
            return None
        nodes += 1
        if nodes > node_cap:
            raise RuntimeError("order search exceeded node cap")
        for rule, where, side, mask in _all_actions(ctx, state):
            rest = go(state & ~mask)
            if rest is not None:
                return [_step(ctx, rule, where, side, mask), *rest]
        dead.add(state)
        return None

    return go(alive)


def test_drop_g22_blocks_exact():
    _, w, ctx = g22_setup()
    secs = ctx.sections
    result = drop_all(ctx)
    assert result.success
    assert {(s["start"], s["end"]) for s in result.certificate.steps
            if s["rule"] == "iii"} == {(5, 6), (7, 16), (17, 18)}
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
    moves = []
    assert _greedy(ctx, lone, moves) == 0
    assert moves == [("i", moves[0][1], "a", lone)]


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
    # the certificate text is written for the three rules only
    for rule in ("iv", None):
        cert = DropCertificate(g22_example().table_hash(), w,
                               ({"rule": rule, "start": 5, "end": 6},))
        with pytest.raises(MalformedCertificate):
            cert.to_text()


def test_replay_judges_a_step_before_reading_the_next():
    # a rejected step ends the replay, so a malformed step after it is never
    # read; a malformed step before a rejected one raises
    table, w, ctx = g22_setup()
    steps = list(drop_all(ctx).certificate.steps)
    assert steps[0]["rule"] == "i"
    outside = dict(steps[0], column=table.n_columns + 1)
    malformed = {"rule": "iv"}
    cert = DropCertificate(table.hash, w, (outside, *steps[1:-1], malformed))
    assert replay_certificate(cert, ctx) is False
    cert = DropCertificate(table.hash, w, (malformed, outside, *steps[1:]))
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
    # replay accepts any order of allowed drops, not only the greedy's: the
    # first order the exhaustive search finds, from the full state
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    samples = [t for _, t in enum.iter_indices(enum.sample_indices(20, seed=12345))]
    lengths, greedy_orders = [], 0
    for table in [g22_example()] + samples:
        verdict = verify_table(table, with_certificate=True)
        ctx = DropContext(table, verdict.w)
        steps = exhaustive_order_search(ctx, (1 << len(ctx.sections)) - 1)
        assert steps is not None
        assert replay_certificate(DropCertificate(table.hash, verdict.w,
                                                  tuple(steps)), ctx)
        lengths.append(len(steps))
        greedy_orders += tuple(steps) == verdict.certificate.steps
    assert lengths[0] == 23
    assert greedy_orders == 0


def test_certificate_version_must_be_the_int_version():
    # True == 1 == 1.0, so only the type tells these versions apart; the
    # certificate text would write 1 where JSON has true or 1.0
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    assert replay_certificate(DropCertificate.from_json(cert.to_json()), ctx)
    for version in (True, 1.0):
        with pytest.raises(MalformedCertificate):
            DropCertificate.from_json(dict(cert.to_json(), version=version))
        with pytest.raises(MalformedCertificate):
            replay_certificate(dataclasses.replace(cert, version=version), ctx)
    with pytest.raises(MalformedCertificate):
        replay_certificate(dataclasses.replace(cert, version=2), ctx)


def test_certificate_json_round_trip():
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    again = DropCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert
    assert replay_certificate(again, ctx)


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
        success, _ = drop_from(ctx, alive)
        exhaustive = exhaustive_order_search(ctx, alive) is not None
        assert success == exhaustive, ctx.table_hash
        verdicts[success] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 3


def test_failure_is_closed_state():
    # a failing drop returns a stuck state on which no rule applies
    found = 0
    for ctx, alive in small_drop_instances(n_success=0, n_failure=4):
        success, stuck = drop_from(ctx, alive)
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
                if degs is None:
                    degs = component_degrees(w, table.chain)
                for col in range(step["start"] + 1, step["end"]):
                    assert degs[col - 1] == 2


def _reference_greedy(ctx, alive, moves):
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
                moves.append(("i", x, *found))
                alive &= ~found[1]
                progress = True
        if progress:
            continue
        for rule, where, anchored in fallbacks:
            found = _find(ctx, alive, rule, where, anchored)
            if found is not None:
                moves.append((rule, where, *found))
                alive &= ~found[1]
                break
        else:
            break
    return alive


def _reference_section_key(ref) -> tuple:
    """The `(row, start, end)` key of one section named in a step."""
    row, start, end = ref["row"], ref["start"], ref["end"]
    if not (type(row) is list and len(row) == 2 and type(row[0]) is int
            and type(row[1]) is int and type(start) is int
            and type(end) is int):
        raise MalformedCertificate(f"bad section {ref!r}")
    return (row[0], row[1]), start, end


def _reference_parse_step(ctx, step) -> tuple:
    """(rule, where, side, section keys in the step's order) of one step;
    `where` is None for a place outside the chain or a block rule (iii)
    does not consider."""
    try:
        rule = step["rule"]
        if rule == "i":
            place, side, refs = (step["column"],), step["min"], [step["section"]]
        elif rule == "ii":
            place, side, refs = (step["column"],), None, step["sections"]
        elif rule == "iii":
            place, side, refs = (step["start"], step["end"]), None, step["sections"]
        else:
            raise MalformedCertificate(f"unknown rule {rule!r}")
        if set(map(type, place)) != {int}:
            raise MalformedCertificate(f"bad place in step {step!r}")
        keys = [_reference_section_key(o) for o in refs]
    except (KeyError, TypeError) as err:
        raise MalformedCertificate(f"bad step {step!r}: {err}") from err
    if rule == "iii":
        where = (place[0] - 1, place[1] - 1)
        return rule, where if where in ctx.blocks else None, side, keys
    where = place[0] - 1
    return rule, where if 0 <= where < ctx.n else None, side, keys


def _reference_replay(cert, ctx):
    """Replay that parses each step whole into (rule, where, side, keys)
    and then judges it: the reader `replay_certificate` replaced."""
    if type(cert.version) is not int or cert.version != CERTIFICATE_VERSION:
        raise MalformedCertificate(f"unsupported version {cert.version!r}")
    if cert.table_hash != ctx.table_hash or cert.w != ctx.w:
        return False
    bit_of = {key: 1 << i for i, key in enumerate(ctx.sections)}
    alive = (1 << len(ctx.sections)) - 1
    for step in cert.steps:
        rule, where, side, keys = _reference_parse_step(ctx, step)
        if where is None:
            return False
        mask = 0
        for key in keys:
            bit = bit_of.get(key, 0)
            if mask & bit or not bit:
                return False
            mask |= bit
        if _find(ctx, alive, rule, where) != (side, mask):
            return False
        alive &= ~mask
    return alive == 0


def _replay_outcome(replay, cert, ctx):
    try:
        return replay(cert, ctx)
    except MalformedCertificate:
        return "malformed"


_DELETE = object()
# mutations after which the step still reads, so that it is judged
_JUDGED = ("outside", "unheld", "duplicate", "reorder")


def _mutations(step, n):
    """Every one-field mutation of the well-formed `step`, as (kind, path,
    value) triples: the field at `path` gets `value`, or is deleted."""
    rule = step["rule"]
    place = ("start", "end") if rule == "iii" else ("column",)
    if rule == "i":
        refs = [(("section",), step["section"])]
    else:
        refs = [(("sections", i), sec) for i, sec in enumerate(step["sections"])]
    out = []

    def retyped(path, value):
        # a bool, float, str or tuple where an int or a list belongs
        if type(value) is int:
            new = (bool(value), float(value), str(value), (value,))
        else:
            new = (tuple(value), str(value), True, 1.0)
        out.extend(("retype", path, v) for v in new)

    for key in (*place, "section" if rule == "i" else "sections"):
        retyped((key,), step[key])
    for key in step:
        out.append(("missing", (key,), _DELETE))
    for other in ("i", "ii", "iii", "iv", "I", "", 1, None, ["i"]):
        if other != rule:
            out.append(("rule", ("rule",), other))
    for key in place:
        out.extend(("outside", (key,), v) for v in (0, -1, n + 1, n + 7))
    if rule == "iii":   # blocks (u, u) and (v + 1, v) rule (iii) never considers
        out += [("outside", ("end",), step["start"]),
                ("outside", ("start",), step["end"] + 1)]
    for path, sec in refs:
        for key in ("start", "end", "row"):
            retyped((*path, key), sec[key])
            out.append(("missing", (*path, key), _DELETE))
        j1, j2 = sec["row"]
        retyped((*path, "row", 0), j1)
        retyped((*path, "row", 1), j2)
        out += [("row3", (*path, "row"), [j1, j2, j2]),
                ("row3", (*path, "row"), [j1, j2, 0]),
                ("unheld", (*path, "row"), [j2, j1] if j1 != j2 else [j1, 7])]
        for key in ("start", "end"):
            out.extend(("unheld", (*path, key), v)
                       for v in (0, n + 1, sec[key] - 1, sec[key] + 1))
    if rule == "i":   # one section only: name its neighbour instead
        sec = step["section"]
        out.append(("duplicate", ("section",), dict(sec, end=sec["end"] + 1)))
    else:
        secs = step["sections"]
        out.extend(("duplicate", ("sections",), [*secs, sec]) for sec in secs)
        if len(secs) > 1:
            out.append(("reorder", ("sections",), secs[::-1]))
    return out


def _mutated(step, path, value):
    """A copy of `step` with the field at `path` set to `value` or deleted."""
    step = copy.deepcopy(step)
    owner = step
    for key in path[:-1]:
        owner = owner[key]
    if value is _DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = copy.deepcopy(value)
    return step


def _replay_step_mutated(cert, k, step, ctx):
    """(new outcome, reference outcome) of `cert` with step k replaced."""
    steps = list(cert.steps)
    steps[k] = step
    mutated = DropCertificate(cert.table_hash, cert.w, tuple(steps))
    return (_replay_outcome(replay_certificate, mutated, ctx),
            _replay_outcome(_reference_replay, mutated, ctx))


def test_replay_reader_matches_reference_on_every_mutation_of_g22():
    # every one-field mutation of every step, and every judged mutation
    # followed by a malformed last section: a step is read whole before it
    # is judged, so a step that would be rejected still raises
    _, w, ctx = g22_setup()
    cert = drop_all(ctx).certificate
    seen = Counter()
    for k, step in enumerate(cert.steps):
        for kind, path, value in _mutations(step, ctx.n):
            new, ref = _replay_step_mutated(cert, k, _mutated(step, path, value), ctx)
            assert new == ref, (k, kind, path, value)
            seen[kind, new] += 1
            if kind not in _JUDGED:
                continue
            judged = _mutated(step, path, value)
            last = ("section",) if step["rule"] == "i" else \
                ("sections", len(judged["sections"]) - 1)
            both = _mutated(judged, (*last, "row"), [0, 1, 2])
            new, ref = _replay_step_mutated(cert, k, both, ctx)
            assert new == ref == "malformed", (k, kind, path, value)
    assert {outcome for _, outcome in seen} == {True, False, "malformed"}
    assert {kind for kind, _ in seen} == {"retype", "missing", "rule", "outside",
                                          "row3", "unheld", "duplicate", "reorder"}


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
        moves, ref_moves = [], []
        stuck = _greedy(ctx, alive, moves)
        assert stuck == _reference_greedy(ctx, alive, ref_moves)
        assert moves == ref_moves
        stuck_seen += stuck != 0
    assert stuck_seen >= 10


def _render(ctx, moves):
    """The certificate of `moves` on `ctx`, each move rendered by `_step`."""
    return DropCertificate(ctx.table_hash, ctx.w,
                           tuple(_step(ctx, *move) for move in moves))


def _move_mutations(moves, n_sections):
    """(kind, mutated copy of `moves`) for each mutation the judge must
    reject: a move on another side, its mask with one bit added or removed,
    a move repeated, two adjacent moves of the same rule and place swapped
    (the first one judged is then not the drop `_find` allows there), and
    the last move removed."""
    out = []
    for k, (rule, where, side, mask) in enumerate(moves):
        head, tail = moves[:k], moves[k + 1:]
        out.extend(("side", [*head, (rule, where, other, mask), *tail])
                   for other in ("a", "b", None) if other != side)
        out.extend(("bit", [*head, (rule, where, side, mask ^ 1 << i), *tail])
                   for i in range(n_sections))
        out.append(("repeat", [*head, moves[k], moves[k], *tail]))
        if tail and tail[0][:2] == (rule, where):
            out.append(("swap", [*head, tail[0], moves[k], *tail[1:]]))
    out.append(("last", moves[:-1]))
    return out


def test_judge_rejects_every_mutated_move_list_of_g22():
    _, _, ctx = g22_setup()
    moves = drop_all(ctx).moves
    assert _replay(ctx, moves)
    kinds = Counter()
    for kind, mutated in _move_mutations(moves, len(ctx.sections)):
        assert not _replay(ctx, mutated), kind
        kinds[kind] += 1
    assert set(kinds) == {"side", "bit", "repeat", "swap", "last"}


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
    """(sections, pair_of, cover, starts, ends, blocks) of (table, w), in
    row-major order, translated section by section from a separate
    extraction; `blocks` maps each block rule (iii) considers to the mask of
    the sections meeting it."""
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
    genera, degree = table.chain.genera, component_degrees(w, table.chain)
    blocks = {(u, v): functools.reduce(int.__or__, cover[u:v + 1])
              for u in range(n) for v in range(u + 1, n)
              if genera[u] == genera[v] == 1
              and all(deg == 2 for deg in degree[u + 1:v])}
    return sections, [pos[s.row] for s in sections], cover, starts, ends, blocks


def _relabel(mask, perm):
    """`mask` with each bit i moved to bit perm[i]."""
    return sum(1 << perm[i] for i in _bits(mask))


_MASKS = ("cover", "starts", "ends", "started", "unended")


def _row_major(ctx):
    """The permutation taking each bit of `ctx` to its section's position in
    row-major order (by row position in `pair_list`, then start)."""
    order = sorted(range(len(ctx.sections)),
                   key=lambda i: (ctx.pair_of[i], ctx.sections[i].start))
    perm = [0] * len(order)
    for new, old in enumerate(order):
        perm[old] = new
    return perm


def _canonical(ctx):
    """Every field of `ctx`, and the greedy's result on it, with its bits
    renumbered in row-major order: two contexts give equal values iff they
    are equal up to a relabeling of their bits."""
    perm = _row_major(ctx)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    fields = {name: getattr(ctx, name) for name in DropContext.__slots__}
    fields["sections"] = [ctx.sections[i] for i in inverse]
    fields["pair_of"] = [ctx.pair_of[i] for i in inverse]
    for name in _MASKS:
        fields[name] = [_relabel(m, perm) for m in fields[name]]
    result = drop_all(ctx)
    moves = [(r, where, side, _relabel(m, perm))
             for r, where, side, m in result.moves]
    return fields, result.success, moves, result.remaining


def _permuted(ctx, perm):
    """A copy of `ctx` whose bit perm[i] stands for the section of bit i."""
    other = object.__new__(DropContext)
    for name in DropContext.__slots__:
        setattr(other, name, getattr(ctx, name))
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    other.sections = [ctx.sections[i] for i in inverse]
    other.pair_of = [ctx.pair_of[i] for i in inverse]
    for name in _MASKS:
        setattr(other, name, [_relabel(m, perm) for m in getattr(ctx, name)])
    return other


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
    # the context numbers its sections in its own order; renumbered in
    # row-major order, its keys, rows and masks are the reference's
    tt = build_tensor_table(table)
    for w in iter_candidate_multidegrees(table):
        ctx = DropContext(table, w)
        sections, pair_of, cover, starts, ends, blocks = \
            _reference_masks(table, w)
        assert sorted(ctx.sections) == sorted(sections)
        assert len(set(ctx.sections)) == len(ctx.sections)
        perm = [sections.index(s) for s in ctx.sections]
        assert [pair_of[perm[i]] for i in range(len(perm))] == ctx.pair_of
        for mine, ref in ((ctx.cover, cover), (ctx.starts, starts),
                          (ctx.ends, ends)):
            assert [_relabel(m, perm) for m in mine] == ref
        assert ctx.blocks == tuple(blocks)
        for (u, v), mask in blocks.items():
            assert _relabel(ctx.started[v] & ctx.unended[u], perm) == mask
        got = [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]
        assert got == naive_sections(tt, w)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family_tables(), st.randoms(use_true_random=False))
def test_moves_and_verdicts_do_not_depend_on_the_bit_numbering(table, rnd):
    # a context whose bits are renumbered by a random permutation makes the
    # same moves up to the renumbering, renders the same certificate, and
    # verify_table writes the same verdict lines from such contexts
    for w in iter_candidate_multidegrees(table):
        ctx = DropContext(table, w)
        perm = list(range(len(ctx.sections)))
        rnd.shuffle(perm)
        other = _permuted(ctx, perm)
        result, permuted = drop_all(ctx), drop_all(other)
        assert permuted.moves == [(r, where, side, _relabel(m, perm))
                                  for r, where, side, m in result.moves]
        assert permuted.success == result.success
        assert permuted.remaining == result.remaining
        assert _replay(other, permuted.moves) == result.success
        if result.success:
            assert permuted.certificate.to_text() == result.certificate.to_text()
            assert replay_certificate(result.certificate, other)

    def shuffled_context(table, w):
        ctx = DropContext(table, w)
        perm = list(range(len(ctx.sections)))
        rnd.shuffle(perm)
        return _permuted(ctx, perm)

    plain = [verify_table(table, 5, certs) for certs in (False, True)]
    with mock.patch.object(verify_module, "DropContext", shuffled_context):
        shuffled = [verify_table(table, 5, certs) for certs in (False, True)]
    assert [v.certificate_steps for v in shuffled] == \
        [v.certificate_steps for v in plain]
    assert [v.to_line() for v in shuffled] == [v.to_line() for v in plain]


def _cold(table, w):
    """A DropContext built in a fresh slot, resuming from nothing; the
    thread's own slot is left as it was."""
    saved = drop_module._last_context
    drop_module._last_context = drop_module._LastContext()
    try:
        return DropContext(table, w)
    finally:
        drop_module._last_context = saved


def _snapshot(ctx):
    return {name: copy.copy(getattr(ctx, name)) for name in DropContext.__slots__}


def _check_resumed_contexts(calls, between=lambda k: None):
    """Build a context at each (table, w) of `calls` in turn, calling
    `between(k)` before the k-th; each equals a cold-built one up to
    relabeling, and every one is unchanged after all later builds."""
    built = []
    for k, (table, w) in enumerate(calls):
        between(k)
        ctx = DropContext(table, w)
        built.append((ctx, _snapshot(ctx)))
        assert _canonical(ctx) == _canonical(_cold(table, w)), k
    for ctx, snapshot in built:
        assert _snapshot(ctx) == snapshot
    return [ctx for ctx, _ in built]


def _candidates(tables, count=3):
    return [(t, w) for t in tables
            for w in list(iter_candidate_multidegrees(t))[:count]]


def test_contexts_resume_along_a_range_walk():
    tables = [t for _, t in _enumerator(_FAMILIES[0]).iter_range(9_000, 60)]
    tables += [t for _, t in _enumerator(_FAMILIES[1]).iter_range(0, 40)]
    _check_resumed_contexts(_candidates(tables))
    # at their default multidegrees most neighbours keep some sections of
    # the context before them
    contexts = _check_resumed_contexts(_candidates(tables, 1))
    kept = sum(a.sections[0] is b.sections[0]
               for a, b in zip(contexts, contexts[1:]))
    assert kept > len(contexts) // 2


def test_contexts_resume_along_a_sorted_sample():
    enum = _enumerator(_FAMILIES[2])
    indices = enum.sample_indices(60, 1)
    assert list(indices) == sorted(indices)
    tables = [t for _, t in enum.iter_indices(indices)]
    _check_resumed_contexts(_candidates(tables, 4))


def test_contexts_resume_between_two_alternating_tables():
    walk = [t for _, t in _enumerator(_FAMILIES[0]).iter_range(600_000, 6)]
    calls = []
    for a, b in zip(walk, walk[1:]):
        calls += _candidates([a, b, a, b], 2)
    _check_resumed_contexts(calls)


def test_contexts_resume_across_other_scans():
    # extract_potential_sections, on neighbours and on unrelated tables,
    # scans from nothing and leaves the context slot alone
    walk = [t for _, t in _enumerator(_FAMILIES[1]).iter_range(500_000, 30)]
    others = [t for _, t in _enumerator(_FAMILIES[2]).iter_range(0, 30)]
    calls = _candidates(walk, 2)

    def scan(k):
        table = others[k % len(others)] if k % 3 else calls[k][0]
        w = default_multidegree(table)
        extract_potential_sections(table, w)
        extract_potential_sections(calls[k - 1][0] if k else table,
                                   calls[k - 1][1] if k else w)

    _check_resumed_contexts(calls, scan)


def test_rejected_build_leaves_the_slot_as_it_was():
    # a build that raises on a w that is not unimaginative publishes nothing,
    # not even its complete scan: the next context, on a neighbour sharing
    # most of that scan's columns, resumes from the pair before the raise
    walk = [t for _, t in _enumerator(_FAMILIES[0]).iter_range(9_000, 13)]
    others = [t for _, t in _enumerator(_FAMILIES[0]).iter_range(700_000, 12)]
    for other, table, neighbour in zip(others, walk, walk[1:]):
        DropContext(other, default_multidegree(other))
        pair = (drop_module._last_context.scan, drop_module._last_context.context)
        w = default_multidegree(table)
        # column n - 1 of degree 4 or 1, column n of 1 or 4: sections are
        # defined there, the dropping rules are not
        shift = 1 if w.c[-1] - w.c[-2] == 3 else -1
        bad = TwistVector(w.D, (*w.c[:-1], w.c[-1] + shift))
        assert extract_potential_sections(table, bad)
        with pytest.raises(MultidegreeError, match="unimaginative"):
            DropContext(table, bad)
        assert (drop_module._last_context.scan,
                drop_module._last_context.context) == pair
        ctx = DropContext(neighbour, w)
        assert _canonical(ctx) == _canonical(_cold(neighbour, w))


def test_contexts_resume_per_thread():
    # two threads building contexts along their own walks, switching every
    # microsecond, each get the contexts of a cold build
    runs = []
    for spec, start in ((_FAMILIES[0], 1_000), (_FAMILIES[1], 90_000)):
        tables = [t for _, t in _enumerator(spec).iter_range(start, 20)]
        runs.append(_candidates(tables, 2))
    expected = [[_canonical(_cold(t, w)) for t, w in run] for run in runs]
    got = [None] * len(runs)

    def work(k):
        for _ in range(3):
            got[k] = [_canonical(DropContext(t, w)) for t, w in runs[k]]
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
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(family_tables(), st.data())
def test_replay_reader_matches_reference_on_mutated_steps(table, data):
    verdict = verify_table(table, with_certificate=True)
    assume(verdict.passing)
    cert = verdict.certificate
    ctx = DropContext(table, verdict.w)
    # a rule first, so that the few rule-(ii) and rule-(iii) steps are hit
    rule = data.draw(st.sampled_from(sorted({s["rule"] for s in cert.steps})))
    k = data.draw(st.sampled_from(
        [k for k, s in enumerate(cert.steps) if s["rule"] == rule]))
    step = cert.steps[k]
    kinds = []
    # a second mutation of the same step, after one that leaves it readable
    while not kinds or kinds[-1] in _JUDGED and len(kinds) < 2 \
            and data.draw(st.booleans()):
        # a kind first, so that the many retypings do not crowd out the rest
        mutations = _mutations(step, ctx.n)
        kind = data.draw(st.sampled_from(sorted({m[0] for m in mutations})))
        _, path, value = data.draw(st.sampled_from(
            [m for m in mutations if m[0] == kind]))
        step = _mutated(step, path, value)
        kinds.append(kind)
    new, ref = _replay_step_mutated(cert, k, step, ctx)
    event(f"{'+'.join(kinds)}: {new}")
    assert new == ref


_SMALL_FAMILY = (9, 3, 10, None, "all")


@st.composite
def drop_instances(draw):
    """A validated table of the three r = 6 families or of (9,3,10), with a
    candidate multidegree (r = 6) or a random placement of its 3s."""
    enum = _enumerator(draw(st.sampled_from((*_FAMILIES, _SMALL_FAMILY))))
    [(_, table)] = enum.iter_indices([draw(st.integers(0, enum.total() - 1))])
    validate_table(table)
    genus1 = [i + 1 for i, g in enumerate(table.chain.genera) if g == 1]
    if table.r == 6 and draw(st.booleans()):
        candidates = list(iter_candidate_multidegrees(table))[:4]
        w = draw(st.sampled_from(candidates))
    else:
        k = 2 * table.d - 2 * len(genus1)
        threes = draw(st.lists(st.sampled_from(genus1), min_size=k, max_size=k,
                               unique=True))
        w = twist_from_threes(table.chain, table.d, sorted(threes))
    return DropContext(table, w)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(drop_instances(), st.integers(0, 2**32 - 1))
def test_drop_rules_are_monotone(ctx, seed):
    # the lemma of the drop module's docstring: a drop of mask M allowed in
    # state S leaves its rule finding a drop at its place in every state
    # S' inside S that meets M, and no column's semicriticality level falls
    # from S to S'.  S is reached from the full state by random drops.
    rng = random.Random(seed)
    alive = (1 << len(ctx.sections)) - 1
    actions = list(_all_actions(ctx, alive))
    for _ in range(rng.randrange(len(ctx.sections) + 1)):
        state = alive & ~rng.choice(actions)[3]
        nxt = list(_all_actions(ctx, state))
        if not nxt:
            break
        alive, actions = state, nxt
    assume(actions)
    levels = [_semicritical(ctx, alive, x) for x in range(ctx.n)]
    for rule, where, _, mask in actions:
        keep = rng.random()
        sub = 1 << rng.choice(_bits(mask))
        for i in _bits(alive):
            if rng.random() < keep:
                sub |= 1 << i
        event(f"rule {rule}")
        assert _find(ctx, sub, rule, where) is not None, (rule, where)
        for x in range(ctx.n):
            level = _semicritical(ctx, sub, x)
            assert level >= levels[x], (x, levels[x], level)
            if levels[x] == 2 and level == 2 and sub & ctx.cover[x]:
                event("live critical column stays critical")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drop_instances(), st.randoms(use_true_random=False))
def test_greedy_does_not_depend_on_the_bit_numbering(ctx, rnd):
    # random 3s leave many states stuck: the sections left are listed in
    # row-major order whatever the numbering, and so are a step's sections
    perm = list(range(len(ctx.sections)))
    rnd.shuffle(perm)
    other = _permuted(ctx, perm)
    result, permuted = drop_all(ctx), drop_all(other)
    event(f"success: {result.success}")
    assert permuted.moves == [(r, where, side, _relabel(m, perm))
                              for r, where, side, m in result.moves]
    pos = {s.row: p for s, p in zip(ctx.sections, ctx.pair_of)}
    assert result.remaining == permuted.remaining == sorted(
        result.remaining, key=lambda s: (pos[s.row], s.start))
    if result.success:
        assert permuted.certificate == result.certificate
        for step in result.certificate.steps:
            if step["rule"] != "i":
                keys = [(pos[tuple(sec["row"])], sec["start"])
                        for sec in step["sections"]]
                assert keys == sorted(keys)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drop_instances(), st.data())
def test_judge_agrees_with_replay_of_the_rendered_certificate(ctx, data):
    # the greedy's moves pass the judge exactly when their rendered
    # certificate replays, which is exactly when the greedy succeeds
    result = drop_all(ctx)
    moves = result.moves
    rendered = _render(ctx, moves)
    assert _replay(ctx, moves) == replay_certificate(rendered, ctx) == result.success
    event(f"success: {result.success}")
    if not result.success:
        assert result.certificate is None
        return
    assert result.certificate == rendered
    assert len(moves) == len(result.certificate.steps)
    mutations = _move_mutations(moves, len(ctx.sections))
    kind = data.draw(st.sampled_from(sorted({m[0] for m in mutations})))
    _, mutated = data.draw(st.sampled_from([m for m in mutations if m[0] == kind]))
    event(kind)
    assert not _replay(ctx, mutated)
    if kind in ("repeat", "swap", "last"):   # a rendering that keeps the mutation
        assert not replay_certificate(_render(ctx, mutated), ctx)
