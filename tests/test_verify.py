import dataclasses
import functools
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llschain import (
    DegeneracyClass,
    DropCertificate,
    DropContext,
    TwistVector,
    degree_three_columns,
    drop_all,
    g22_example,
    left_weighted_weights,
    verify_table,
)
from llschain import table as table_module
from llschain import verify as verify_module
from llschain.cli import main
from llschain.enumeration import TableEnumerator
from llschain.multidegree import iter_candidate_multidegrees
from llschain.verify import FamilyConfig, Tally, Verdict, verify_family

from test_drop import exhaustive_order_search, family_tables


def test_verify_g22_example():
    verdict = verify_table(g22_example())
    assert verdict.passing
    assert verdict.degeneracy.kind == "single"
    assert verdict.side_condition == "not_applicable"
    assert verdict.candidates_tried == 1
    assert verdict.w.c[:4] == (3, 5, 7, 9)
    assert verdict.certificate is None and verdict.certificate_steps > 0
    assert not verdict.invariant_violations
    full = verify_table(g22_example(), with_certificate=True)
    assert len(full.certificate.steps) == verdict.certificate_steps


def test_verify_rho0_pass_at_default():
    enum = TableEnumerator(21, 6, 24, 0)
    for idx, table in enum.iter_indices(enum.sample_indices(30, seed=21)):
        verdict = verify_table(table, index=idx)
        assert verdict.passing and verdict.candidates_tried == 1
        assert verdict.degeneracy.kind == "no_swap"
        assert verdict.index == idx


def test_verify_two_swap_classes_and_flags():
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    seen = set()
    for idx, table in enum.iter_indices(enum.sample_indices(250, seed=19)):
        verdict = verify_table(table)
        assert verdict.passing, verdict.diagnostics
        kind = verdict.degeneracy.kind
        seen.add(kind)
        if kind in ("disjoint", "cycle2"):
            assert verdict.left_weighted_required
            assert verdict.left_weighted_min == left_weighted_weights(
                table.chain, table.d
            )
        else:
            assert not verdict.left_weighted_required
        if kind == "cycle1":
            assert verdict.side_condition == "cycle1_unique_avoiding"
        elif kind == "cycle2":
            assert verdict.side_condition in ("cycle2_a", "cycle2_b", "cycle2_c")
        else:
            assert verdict.side_condition == "not_applicable"
    assert {"repeated", "disjoint"} <= seen


def test_cycle1_side_condition_content():
    # for a passing cycle1 verdict, re-check the recorded condition directly
    from llschain import extract_potential_sections

    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    hits = 0
    for idx, table in enum.iter_indices(enum.sample_indices(400, seed=23)):
        verdict = verify_table(table)
        if verdict.degeneracy.kind != "cycle1":
            continue
        secs = extract_potential_sections(table, verdict.w)
        j0 = verdict.degeneracy.j0
        row = (j0 - 1, j0)
        mine = [s for s in secs if s.row == row]
        assert len(mine) == 1
        assert not mine[0].covers(verdict.degeneracy.i0)
        assert not mine[0].covers(verdict.degeneracy.i1)
        hits += 1
        if hits >= 8:
            break
    assert hits > 0


def test_pass_certificates_replay_independently():
    # replay from scratch (a fresh context), not the context verify_table
    # built for its own drop
    from llschain import DropContext, replay_certificate

    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    for idx, table in enum.iter_indices(enum.sample_indices(40, seed=4711)):
        verdict = verify_table(table, with_certificate=True)
        assert verdict.passing
        ctx = DropContext(table, verdict.w)
        assert replay_certificate(verdict.certificate, ctx)


def _reference_invariants(table, sections):
    """The default-multidegree invariants, counting crossings section by
    section over every column they cover."""
    out = []
    n = table.n_columns
    crossing = [0] * (n + 1)
    per_row = {}
    for s in sections:
        per_row[s.row] = per_row.get(s.row, 0) + 1
        for i in range(s.start, s.end):
            crossing[i] += 1
    for i in range(1, n):
        if crossing[i] > 3:
            out.append(f"spanning_count {crossing[i]} > 3 at column {i}")
    n_swaps = len(table.swaps)
    if n_swaps > table.rho:
        out.append(f"{n_swaps} swaps exceed rho = {table.rho}")
    exc_rows = {j for (_, j) in table.exceptional}
    for row, cnt in per_row.items():
        if cnt > 1 and not (row[0] in exc_rows or row[1] in exc_rows):
            out.append(f"row {row} disconnected without exceptional row")
    return out


def test_default_invariants_match_reference():
    # the mask crossing count equals the per-section loop under random and
    # adversarial placements, some of which break the spanning bound
    import random

    from llschain import DropContext, extract_potential_sections
    from llschain.multidegree import twist_from_threes

    rng = random.Random(7)
    enum = TableEnumerator(21, 6, 24, 0)
    cases = violating = 0
    for _, table in enum.iter_indices(enum.sample_indices(300, seed=3)):
        genus1 = [i + 1 for i, g in enumerate(table.chain.genera) if g == 1]
        for threes in (tuple(sorted(rng.sample(genus1, 6))),
                       (16, 17, 18, 19, 20, 21)):
            w = twist_from_threes(table.chain, table.d, threes)
            expected = _reference_invariants(
                table, extract_potential_sections(table, w))
            ctx = DropContext(table, w)
            assert verify_module._default_invariants(table, ctx) == expected
            cases += 1
            violating += bool(expected)
    assert cases == 600
    assert violating >= 5


def test_verdict_json_shape():
    verdict = verify_table(g22_example())
    record = verdict.to_json()
    assert record["pass"] is True
    assert record["class"]["kind"] == "single"
    assert record["w"]["D"] == 50
    assert "certificate_steps" in record and "certificate" not in record
    full = verify_table(g22_example(), with_certificate=True).to_json()
    assert full["certificate"]["version"] == 1
    assert "certificate_steps" not in full


def _dumped(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(family_tables(), st.none() | st.integers(0, 10**10))
def test_verdict_line_equals_sorted_compact_json(table, index):
    # the line without certificates is the certificate verdict's JSON with
    # its certificate replaced by the step count
    plain = verify_table(table, index=index)
    full = verify_table(table, index=index, with_certificate=True)
    for verdict in (plain, full):
        assert verdict.to_line() == _dumped(verdict.to_json())
    record = full.to_json()
    if "certificate" in record:
        record["certificate_steps"] = len(record.pop("certificate")["steps"])
    assert plain.to_line() == _dumped(record)


@functools.lru_cache(maxsize=None)
def _g22_certificates():
    """The greedy and the search certificate of the g22 example."""
    table = g22_example()
    verdict = verify_table(table, with_certificate=True)
    ctx = DropContext(table, verdict.w)
    steps = exhaustive_order_search(ctx, (1 << len(ctx.sections)) - 1)
    search = DropCertificate(table.hash, verdict.w, tuple(steps))
    assert search.steps != verdict.certificate.steps
    return verdict.certificate, search


# free text: quotes, backslashes, control and non-ASCII characters
_TEXT = st.sampled_from(['say "no"', "back\\slash", "naïve Σ ✓", "\u2028\x00\x1f",
                         "😀 \\\"", ""]) | st.text(max_size=12)


@st.composite
def hand_built_verdicts(draw):
    """Verdicts no table produces: failing, without index, left-weighted,
    with free-text violations and diagnostics, with a search certificate."""
    certificate = draw(st.sampled_from((None, *_g22_certificates())))
    opt_int = st.none() | st.integers(0, 30)
    steps = len(certificate.steps) if certificate else draw(opt_int)
    klass = DegeneracyClass(
        draw(st.sampled_from(("no_swap", "single", "cycle2", "other")) | _TEXT),
        draw(opt_int), draw(opt_int), draw(opt_int), draw(opt_int),
        draw(st.none() | st.tuples(st.integers(0, 6), st.integers(0, 6))))
    w = draw(st.none() | st.builds(
        TwistVector, st.integers(0, 60),
        st.lists(st.integers(-5, 60), max_size=23).map(tuple)))
    return Verdict(
        table_hash=draw(st.sampled_from((g22_example().hash,)) | _TEXT),
        degeneracy=klass,
        passing=draw(st.booleans()),
        w=w,
        certificate=certificate,
        certificate_steps=steps,
        side_condition=draw(st.sampled_from(("none", "not_applicable", "cycle2_b"))
                            | _TEXT),
        left_weighted_required=draw(st.booleans()),
        left_weighted_min=draw(st.none() | st.lists(
            st.integers(0, 400), max_size=23).map(tuple)),
        candidates_tried=draw(st.integers(0, 40)),
        rho_total=draw(st.integers(0, 3)),
        invariant_violations=tuple(draw(st.lists(_TEXT, max_size=3))),
        diagnostics=tuple(draw(st.lists(_TEXT, max_size=3))),
        index=draw(st.none() | st.integers(0, 10**10)),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hand_built_verdicts())
def test_hand_built_verdict_line_equals_sorted_compact_json(verdict):
    assert verdict.to_line() == _dumped(verdict.to_json())


def test_family_run_and_report(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 50)
    out = tmp_path / "verdicts.jsonl"
    config = FamilyConfig(g=21, r=6, d=24, rho_max=0, limit=120,
                          out_path=str(out))
    report = verify_family(config)
    assert report.failed == 0
    assert report.verified == 120
    assert report.total_in_stratum == 1385670
    assert report.class_counts == {"no_swap": 120}
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 120
    first = json.loads(lines[0])
    assert first["pass"] and first["index"] == 0


def _resumable(report):
    """A report's JSON without the two keys a resume may change."""
    out = report.to_json()
    del out["elapsed_seconds"], out["resumed_from"]
    return out


def test_family_checkpoint_resume_hash_equality(tmp_path, monkeypatch):
    # the resumed run's report, counts included, is the uninterrupted run's;
    # two-swap samples mix four classes and several side labels
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 40)
    base = dict(g=23, r=6, d=26, stratum="two_swap", mode="sampled", n=200,
                seed=1)
    full_cfg = FamilyConfig(**base, limit=200,
                            out_path=str(tmp_path / "full.jsonl"))
    full = verify_family(full_cfg)
    assert len(full.class_counts) > 1 and len(full.side_counts) > 1

    for jobs in (1, 2):
        ck, out = tmp_path / f"resume{jobs}.ck", tmp_path / f"resumed{jobs}.jsonl"
        part1 = verify_family(FamilyConfig(**base, limit=80, jobs=jobs,
                                           out_path=str(out),
                                           checkpoint_path=str(ck)))
        assert part1.verified == 80
        part2 = verify_family(FamilyConfig(**base, limit=200, jobs=jobs,
                                           out_path=str(out),
                                           checkpoint_path=str(ck)))
        assert part2.resumed_from == 80
        assert part2.verified == 200
        assert part2.stream_hash == full.stream_hash
        assert _resumable(part2) == _resumable(full)
        assert out.read_text() == (tmp_path / "full.jsonl").read_text()


def test_tally_merge_keeps_first_examples_in_stream_order():
    # chunks of 45 failures and 9 violation examples each; the merged tally
    # counts them all and keeps the first 100 and 20 in stream order
    merged = Tally()
    for chunk in range(4):
        first = 45 * chunk
        merged.merge(Tally(
            failed=45, invariant_violations=9,
            failures=[{"index": first + k, "table": "t"} for k in range(45)],
            violation_examples=[{"index": first + k, "violations": ["v"]}
                                for k in range(9)]))
    assert merged.failed == 180 and merged.invariant_violations == 36
    assert [f["index"] for f in merged.failures] == list(range(100))
    assert [v["index"] for v in merged.violation_examples] == \
        list(range(9)) + list(range(45, 54)) + [90, 91]


def test_family_resume_refuses_older_checkpoint_layout(tmp_path, monkeypatch):
    # a checkpoint whose counts are the string-keyed record of the earlier
    # layout, with no layout marker in its spec, is refused, not misread
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 20)
    out, ck = tmp_path / "o.jsonl", tmp_path / "o.ck"
    base = dict(g=21, r=6, d=24, rho_max=0, out_path=str(out),
                checkpoint_path=str(ck))
    verify_family(FamilyConfig(**base, limit=40))
    saved = json.loads(ck.read_text())
    tally = saved.pop("tally")
    saved["spec"] = saved["spec"][1:]
    saved["counters"] = {
        "passed": tally["passed"], "failed": tally["failed"],
        "classes": tally["class_counts"], "sides": tally["side_counts"],
        "failures": [], "violations": 0, "violation_examples": [],
    }
    ck.write_text(json.dumps(saved))
    with pytest.raises(ValueError, match="checkpoint does not match"):
        verify_family(FamilyConfig(**base, limit=60))
    assert main(["verify", "--g", "21", "--d", "24", "--rho-max", "0",
                 "--limit", "60", "--out", str(out),
                 "--checkpoint", str(ck)]) == 2


def test_family_resume_drops_lines_past_checkpoint(tmp_path, monkeypatch):
    # a hard kill can leave verdict lines written after the last checkpoint;
    # the resumed run cuts them off before it writes them again
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 40)
    base = dict(g=22, r=6, d=25, stratum="has_swap")
    full = tmp_path / "full.jsonl"
    verify_family(FamilyConfig(**base, limit=200, out_path=str(full)))
    resumed = tmp_path / "resumed.jsonl"
    ck = tmp_path / "resume.ck"
    verify_family(FamilyConfig(**base, limit=80, out_path=str(resumed),
                               checkpoint_path=str(ck)))
    past = full.read_text().splitlines(keepends=True)[80:82]
    with open(resumed, "a", encoding="utf-8") as fh:
        fh.writelines(past)
    report = verify_family(FamilyConfig(**base, limit=200, out_path=str(resumed),
                                        checkpoint_path=str(ck)))
    assert report.resumed_from == 80 and report.verified == 200
    assert resumed.read_text() == full.read_text()


def test_family_resume_within_its_checkpoint_verifies_nothing(tmp_path, monkeypatch):
    # the limit counts from the start of the run, so a resume whose limit is
    # at or below the checkpoint's count has nothing left to verify; it still
    # cuts off lines a hard kill left past the checkpoint
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 40)
    base = dict(g=21, r=6, d=24, rho_max=0, mode="sampled", n=120, seed=5)
    out, ck = tmp_path / "s.jsonl", tmp_path / "s.ck"
    first = verify_family(FamilyConfig(**base, limit=80, out_path=str(out),
                                       checkpoint_path=str(ck)))
    written, saved = out.read_bytes(), ck.read_bytes()
    for limit in (80, 50, 0):
        with open(out, "a", encoding="utf-8") as fh:
            fh.write('{"stray":true}\n')
        report = verify_family(FamilyConfig(**base, limit=limit, out_path=str(out),
                                            checkpoint_path=str(ck)))
        assert report.resumed_from == report.verified == 80
        assert report.stream_hash == first.stream_hash
        assert out.read_bytes() == written
        assert ck.read_bytes() == saved


def test_family_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a --jobs 3 run of two chunks forks two workers, and a --jobs 2 rerun of
    # a finished run forks none
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 40)
    sizes = []

    class Context(verify_module._PoolContext):
        def Pool(self, processes):
            sizes.append(processes)
            return super().Pool(processes)

    monkeypatch.setattr(verify_module, "_PoolContext", Context)
    base = dict(g=21, r=6, d=24, rho_max=0, limit=80,
                out_path=str(tmp_path / "v.jsonl"),
                checkpoint_path=str(tmp_path / "v.ck"))
    first = verify_family(FamilyConfig(**base, jobs=3))
    assert sizes == [2]
    again = verify_family(FamilyConfig(**base, jobs=2))
    assert sizes == [2]
    assert again.resumed_from == again.verified == 80
    assert again.stream_hash == first.stream_hash


def test_family_resume_rejects_output_it_cannot_cut(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 20)
    out, ck = tmp_path / "c.jsonl", tmp_path / "c.ck"
    base = dict(g=21, r=6, d=24, rho_max=0, checkpoint_path=str(ck))
    verify_family(FamilyConfig(**base, limit=40, out_path=str(out)))
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:39]))
    with pytest.raises(ValueError, match="shorter"):
        verify_family(FamilyConfig(**base, limit=20, out_path=str(out)))
    out.unlink()
    with pytest.raises(ValueError, match="missing"):
        verify_family(FamilyConfig(**base, limit=20, out_path=str(out)))
    # a checkpoint of a run without JSONL output records no length
    ck.unlink()
    verify_family(FamilyConfig(**base, limit=20))
    out.write_text("".join(lines[:20]))
    with pytest.raises(ValueError, match="no length"):
        verify_family(FamilyConfig(**base, limit=20, out_path=str(out)))


def test_family_checkpoint_after_every_chunk(tmp_path, monkeypatch):
    saved = []
    save = verify_module._save_checkpoint

    def recording(config, done, *rest):
        saved.append(done)
        save(config, done, *rest)

    monkeypatch.setattr(verify_module, "_save_checkpoint", recording)
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 20)
    base = dict(g=21, r=6, d=24, rho_max=0, limit=60)
    for jobs in (1, 2):
        saved.clear()
        ck = tmp_path / f"j{jobs}.ck"
        verify_family(FamilyConfig(**base, jobs=jobs, checkpoint_path=str(ck)))
        assert saved == [20, 40, 60]
        assert json.loads(ck.read_text())["done"] == 60


def test_family_resume_rejects_other_sample_size(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 20)
    base = dict(g=22, r=6, d=25, mode="sampled", seed=7,
                out_path=str(tmp_path / "s.jsonl"),
                checkpoint_path=str(tmp_path / "s.ck"))
    verify_family(FamilyConfig(**base, n=60, limit=40))
    with pytest.raises(ValueError, match="checkpoint does not match"):
        verify_family(FamilyConfig(**base, n=200))


def test_family_resume_rejects_other_certificate_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 20)
    base = dict(g=21, r=6, d=24, rho_max=0,
                out_path=str(tmp_path / "c.jsonl"),
                checkpoint_path=str(tmp_path / "c.ck"))
    verify_family(FamilyConfig(**base, limit=40))
    with pytest.raises(ValueError, match="checkpoint does not match"):
        verify_family(FamilyConfig(**base, limit=20, emit_certificates=True))


def test_family_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_module, "_CHUNK_SIZE", 30)
    base = dict(g=21, r=6, d=24, rho_max=0, limit=150)
    serial = verify_family(FamilyConfig(**base, jobs=1))
    parallel = verify_family(FamilyConfig(**base, jobs=2))
    assert serial.stream_hash == parallel.stream_hash
    assert serial.passed == parallel.passed == 150


def test_family_certificate_stream_pinned():
    # certificates carry the full step order of the drop engine; these
    # stream hashes pin it for a swap-free prefix, a swap prefix and a
    # two-swap sample
    runs = (
        (dict(g=21, r=6, d=24, rho_max=0, limit=200),
         "dbd5c482e5e219479e29a6c59509fe2cd1b6c5d8958969c9aadce2b01a0bb359"),
        (dict(g=22, r=6, d=25, stratum="has_swap", limit=200),
         "282d827d588531fcc86a380d33bc867348da09bed8413f0b367dc293d87f3492"),
        (dict(g=23, r=6, d=26, stratum="two_swap", mode="sampled", n=100, seed=1),
         "394e33c433883a27496398bc039763846735d8b8c2e34f0b9d55e05240f6db11"),
    )
    for spec, stream_hash in runs:
        report = verify_family(FamilyConfig(**spec, emit_certificates=True))
        assert report.passed == report.verified
        assert report.stream_hash == stream_hash


def test_family_rejects_unknown_mode(tmp_path):
    out = tmp_path / "v.jsonl"
    config = FamilyConfig(g=21, r=6, d=24, rho_max=0, mode="exhaustve",
                          limit=10, out_path=str(out))
    with pytest.raises(ValueError, match="mode"):
        verify_family(config)
    assert not out.exists()


def test_family_sampled_mode(tmp_path):
    config = FamilyConfig(g=22, r=6, d=25, mode="sampled", n=60, seed=7,
                          stratum="swap_free",
                          out_path=str(tmp_path / "s.jsonl"))
    report = verify_family(config)
    assert report.verified == 60
    assert report.failed == 0
    again = verify_family(FamilyConfig(g=22, r=6, d=25, mode="sampled", n=60,
                                       seed=7, stratum="swap_free"))
    assert again.stream_hash == report.stream_hash


def test_cycle1_disconnected_support_gets_swap_candidate():
    # stratum index of a cycle1 table whose shared-pair row has two default
    # sections; found by seeded sampling, pinned here for determinism
    from llschain import (
        classify_degeneracy,
        default_multidegree,
        extract_potential_sections,
    )

    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    [(_, table)] = list(enum.iter_range(3_876_400_372, 1))
    klass = classify_degeneracy(table)
    assert klass.kind == "cycle1"
    w0 = default_multidegree(table)
    row = (klass.j0 - 1, klass.j0)
    default_secs = [s for s in extract_potential_sections(table, w0) if s.row == row]
    assert len(default_secs) == 2
    cands = list(iter_candidate_multidegrees(table))
    assert any(
        klass.i0 in degree_three_columns(c, table.chain)
        or klass.i1 in degree_three_columns(c, table.chain)
        for c in cands
    )
    verdict = verify_table(table)
    assert verdict.passing
    assert verdict.candidates_tried > 1
    assert verdict.side_condition == "cycle1_unique_avoiding"
    final_secs = [
        s for s in extract_potential_sections(table, verdict.w) if s.row == row
    ]
    assert len(final_secs) == 1


def test_cycle1_side_reads_the_lower_shared_row():
    # the cycle1 side condition reads the tensor row (j0 - 1, j0); read at
    # (j0, j0 + 1) instead, this seed-7 two-swap sample of (23,6,26) fails
    # at every candidate whose sections all drop
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    [(_, table)] = enum.iter_indices([29_823_789])
    verdict = verify_table(table)
    klass = verdict.degeneracy
    assert (klass.kind, klass.j0, klass.i0, klass.i1) == ("cycle1", 4, 10, 17)
    assert verdict.passing and verdict.candidates_tried == 1
    assert verdict.side_condition == "cycle1_unique_avoiding"

    def unique_avoiding(ctx, row):
        secs = [s for s in ctx.sections if s.row == row]
        return len(secs) == 1 and not secs[0].covers(klass.i0) \
            and not secs[0].covers(klass.i1)

    j0 = klass.j0
    assert unique_avoiding(DropContext(table, verdict.w), (j0 - 1, j0))
    contexts = [DropContext(table, w) for w in iter_candidate_multidegrees(table)]
    dropped = [ctx for ctx in contexts if drop_all(ctx).success]
    assert dropped
    assert not any(unique_avoiding(ctx, (j0, j0 + 1)) for ctx in dropped)


def test_candidate_fallback_actually_used():
    # some two-swap tables only pass after the default multidegree fails
    from llschain import default_threes

    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    found = False
    for idx, table in enum.iter_indices(enum.sample_indices(800, seed=12345)):
        verdict = verify_table(table)
        assert verdict.passing
        if verdict.candidates_tried > 1:
            found = True
            threes = degree_three_columns(verdict.w, table.chain)
            assert threes != default_threes(table)
            break
    assert found


def test_verify_table_computes_each_fact_once(monkeypatch):
    # index 151,729,559 is the first table of the seed-12345 two-swap sample
    # that passes only after the default candidate; pinned for speed
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    [(_, fallback)] = list(enum.iter_range(151_729_559, 1))
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # each distinct column's facts and shape rows are built once, and the
    # hash once, however many candidates the walk tries
    monkeypatch.setattr(table_module, "_bar_counts",
                        counting("shape_row", table_module._bar_counts))
    monkeypatch.setattr(table_module.VanishingTable, "table_hash", counting(
        "table_hash", table_module.VanishingTable.table_hash))
    for table, tried_more in ((g22_example(), False), (fallback, True)):
        table_module.column.cache_clear()
        table_module._shape_row.cache_clear()
        calls.clear()
        verdict = verify_table(table)
        assert verdict.passing
        assert (verdict.candidates_tried > 1) == tried_more
        n = table.n_columns
        rows = {(table.a[0], 0)} | {
            (table.a[i] if i < n else table.virtual_last_a(),
             table.chain.genus_prefix(i)) for i in range(1, n + 1)}
        assert dict(calls) == {"shape_row": len(rows), "table_hash": 1}
        assert table_module.column.cache_info().misses == len(
            set(zip(table.chain.genera, table.a, table.b)))



def test_verdicts_do_not_depend_on_the_tables_verified_before():
    # the section scan and the table hash resume from the previous table;
    # each verdict line must equal the one of a run in another order
    enum = TableEnumerator(21, 6, 24, 0)
    two = TableEnumerator(23, 6, 26, None, "two_swap")
    samples = [t for _, t in two.iter_indices(two.sample_indices(30, seed=5))]

    def lines(pairs, between=()):
        out = {}
        for k, (idx, table) in enumerate(pairs):
            if between:   # a fresh copy, whose hash is not cached yet
                verify_table(dataclasses.replace(between[k % len(between)]))
            record = verify_table(table, index=idx, with_certificate=True).to_json()
            out[idx] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return out

    # fresh table objects for each order, so none has its hash cached
    walk = lines(enum.iter_range(600_000, 300))
    backwards = lines(reversed(list(enum.iter_range(600_000, 300))))
    mixed = lines(enum.iter_range(600_000, 300), between=samples)
    assert list(walk) == list(range(600_000, 600_300))
    assert backwards == walk
    assert mixed == walk
