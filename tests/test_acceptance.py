"""Acceptance suite: one test per criterion, printing a PASS line each.

Scale is controlled by LLSCHAIN_ACCEPTANCE (quick | standard | full):

  quick     small deterministic slices; the whole tier-1 run (unit tests
            included) took 77 s on 2 vCPU under Python 3.11.7;
  standard  the default: exact full-family counts plus verification of
            deterministic slices and uniform seeded samples totalling a few
            hundred thousand tables; the whole tier-1 run took 184-191 s over
            two runs on the same host;
  full      the complete configurations: exhaustive (21,6,24); exhaustive
            swap-bearing (22,6,25) (128,035,908 tables) plus a 10^7
            swap-free sample; exhaustive two-swap (23,6,26) (6,201,981,786
            tables) plus a 10^6 sample of the rest.  Measured on 2 vCPU
            under Python 3.11 (BENCH_15.json), a rho-0 table costs about
            0.54 ms and a sampled two-swap table about 1.3 ms, so the
            two-swap exhaustion alone, walked as a range, is about 40-60
            CPU-days; runs are checkpointable and index-partitioned, so
            they can be distributed, but the full mode exists for fidelity
            rather than routine use.

All count assertions (hook-length identity, stratum partitions, oracle
equalities) are exact and run at every scale; only the number of tables
pushed through the verifier varies.
"""

import os
import random
from math import factorial

import pytest

from llschain import (
    DropContext,
    build_tensor_table,
    count_small_oracle,
    default_multidegree,
    drop_all,
    extract_potential_sections,
    find_swaps,
    g22_example,
    twist_vanishing_components,
    validate_table,
)
from llschain.drop import _greedy
from llschain.enumeration import TableEnumerator
from llschain.multidegree import TwistVector, twist_from_threes
from llschain.verify import FamilyConfig, verify_family

from test_drop import drop_from, exhaustive_order_search
from test_tensor import naive_sections

MODE = os.environ.get("LLSCHAIN_ACCEPTANCE", "standard")

SCALES = {
    # verification volumes per criterion; None means the whole stratum
    "quick": {"c2": 8_000, "c3_swap": 8_000, "c3_free": 8_000,
              "c4_two_prefix": 4_000, "c4_two_sample": 4_000, "c4_le1": 6_000},
    "standard": {"c2": 120_000, "c3_swap": 50_000, "c3_free": 50_000,
                 "c4_two_prefix": 20_000, "c4_two_sample": 25_000,
                 "c4_le1": 40_000},
    "full": {"c2": None, "c3_swap": None, "c3_free": 10_000_000,
             "c4_two_prefix": None, "c4_two_sample": 0, "c4_le1": 1_000_000},
}
S = SCALES[MODE]
JOBS = int(os.environ.get("LLSCHAIN_JOBS", "1"))

HOOK_7x3 = factorial(21) // (
    504 * 336 * 210 * 120 * 60 * 24 * 6
)  # product of hook lengths of the 7x3 rectangle, row by row


def _announce(criterion: str, detail: str) -> None:
    print(f"\n[acceptance {criterion}] PASS ({MODE}) {detail}", flush=True)


def _family(g, r, d, rho_max=None, stratum="all", mode="exhaustive",
            n=None, seed=0, limit=None):
    return verify_family(FamilyConfig(
        g=g, r=r, d=d, rho_max=rho_max, stratum=stratum, mode=mode, n=n,
        seed=seed, limit=limit, jobs=JOBS,
    ))


@pytest.fixture(scope="module")
def crit2_report():
    return _family(21, 6, 24, rho_max=0, limit=S["c2"])


@pytest.fixture(scope="module")
def crit3_reports():
    swap = _family(22, 6, 25, stratum="has_swap", limit=S["c3_swap"])
    free_n = S["c3_free"] or 10_000_000
    free = _family(22, 6, 25, stratum="swap_free", mode="sampled",
                   n=min(free_n, 457_271_100), seed=202_206, limit=S["c3_free"])
    return swap, free


@pytest.fixture(scope="module")
def crit4_reports():
    two_prefix = _family(23, 6, 26, stratum="two_swap", limit=S["c4_two_prefix"])
    reports = [two_prefix]
    if S["c4_two_sample"]:
        reports.append(_family(23, 6, 26, stratum="two_swap", mode="sampled",
                               n=S["c4_two_sample"], seed=232_326))
    reports.append(_family(23, 6, 26, stratum="le1_swap", mode="sampled",
                           n=S["c4_le1"], seed=232_323))
    return reports


def test_criterion_1_golden_example():
    table = g22_example()
    validate_table(table)

    w = default_multidegree(table)
    assert w.c == (3, 5, 7, 9, 12, 14, 17, 19, 21, 23, 25, 27, 29, 31, 33,
                   36, 38, 41, 43, 45, 47)
    assert w.D == 50

    ctx = DropContext(table, w)
    sections = ctx.sections
    assert sections == extract_potential_sections(table, w)
    assert len(sections) == 29
    per_row = {}
    for s in sections:
        per_row.setdefault(s.row, []).append((s.start, s.end))
    assert sorted(len(v) for v in per_row.values()).count(2) == 1
    assert per_row[(2, 2)] == [(5, 7), (12, 12)]
    assert per_row[(2, 3)] == [(7, 11)]

    result = drop_all(ctx)
    assert result.success
    assert {(s["start"], s["end"]) for s in result.certificate.steps
            if s["rule"] == "iii"} == {(5, 6), (7, 16), (17, 18)}
    _announce("1", "g22 example: default w exact, 29 sections, blocks 5-6/7-16/17-18")


def test_criterion_2_rho0_family(crit2_report):
    enum = TableEnumerator(21, 6, 24, 0)
    assert enum.total() == HOOK_7x3 == 1_385_670
    report = crit2_report
    assert report.failed == 0
    assert report.class_counts.get("no_swap", 0) == report.verified
    assert report.side_counts == {"not_applicable": report.verified}
    scope = "all" if S["c2"] is None else f"first {report.verified:,}"
    _announce("2", f"count = hook-length 1,385,670 exactly; {scope} tables "
                   "pass at the default multidegree")


def test_criterion_3_genus22(crit3_reports):
    swap, free = crit3_reports
    family_total = TableEnumerator(22, 6, 25).total()
    assert swap.total_in_stratum + free.total_in_stratum == family_total
    assert swap.total_in_stratum == 128_035_908
    assert swap.failed == 0 and free.failed == 0
    assert set(swap.class_counts) == {"single"}
    assert set(free.class_counts) == {"no_swap"}
    _announce("3", f"swap-bearing: {swap.verified:,}/{swap.total_in_stratum:,} "
                   f"exhaustive-prefix verified; swap-free: {free.verified:,} "
                   f"uniform-sampled (seed {free.seed}); zero failures; "
                   "stratification reported")


def test_criterion_4_genus23(crit4_reports):
    two_prefix = crit4_reports[0]
    le1 = crit4_reports[-1]
    enum_all = TableEnumerator(23, 6, 26).total()
    two_total = TableEnumerator(23, 6, 26, None, "two_swap").total()
    le1_total = TableEnumerator(23, 6, 26, None, "le1_swap").total()
    assert two_total + le1_total == enum_all
    assert two_total == 6_201_981_786

    allowed = {"repeated", "disjoint", "cycle1", "cycle2"}
    seen_classes = set()
    for report in crit4_reports[:-1]:
        assert report.failed == 0
        assert set(report.class_counts) <= allowed
        seen_classes |= set(report.class_counts)
        for side in report.side_counts:
            assert side in ("not_applicable", "cycle1_unique_avoiding",
                            "cycle2_a", "cycle2_b", "cycle2_c")
        cycles = report.class_counts.get("cycle1", 0) + \
            report.class_counts.get("cycle2", 0)
        cycle_sides = sum(v for k, v in report.side_counts.items()
                          if k.startswith("cycle"))
        assert cycles == cycle_sides
    if len(crit4_reports) > 2:
        assert seen_classes == allowed
    assert le1.failed == 0
    assert set(le1.class_counts) <= {"no_swap", "single"}

    verified_two = sum(r.verified for r in crit4_reports[:-1])
    _announce("4", f"two-swap: {verified_two:,}/{two_total:,} verified "
                   f"(classes {sorted(seen_classes)}), side conditions "
                   "recorded; <=1-swap sample "
                   f"{le1.verified:,} (seed {le1.seed}); zero failures")


def test_criterion_5a_extraction_oracle():
    rng = random.Random(5001)
    pool = []
    for (g, r, d, stratum, take) in [(21, 6, 24, "all", 340),
                                     (22, 6, 25, "all", 330),
                                     (23, 6, 26, "two_swap", 330)]:
        enum = TableEnumerator(g, r, d, 0 if g == 21 else None, stratum)
        pool += [t for _, t in enum.iter_indices(enum.sample_indices(take, seed=g))]
    assert len(pool) == 1000
    for table in pool:
        tt = build_tensor_table(table)
        genus1 = [i + 1 for i, gg in enumerate(table.chain.genera) if gg == 1]
        threes = tuple(sorted(rng.sample(genus1, 6)))
        w = twist_from_threes(table.chain, table.d, threes)
        got = [(s.row, s.start, s.end) for s in extract_potential_sections(table, w)]
        assert got == naive_sections(tt, w)
    _announce("5a", "extraction matches the all-intervals oracle on 1,000 "
                    "seeded random tables, exact")


def test_criterion_5b_count_oracles():
    assert TableEnumerator(4, 1, 3, 0).total() == 2 == count_small_oracle(4, 1, 3, 0)
    assert TableEnumerator(6, 1, 4, 0).total() == 5 == count_small_oracle(6, 1, 4, 0)
    rho1 = count_small_oracle(5, 1, 4, 1)
    assert TableEnumerator(5, 1, 4, 1).total() == rho1
    _announce("5b", f"counts (4,1,3)=2, (6,1,4)=5, (5,1,4) rho<=1 = {rho1}, exact")


def test_criterion_5c_drop_order_invariance():
    rng = random.Random(5003)
    instances = []
    enum = TableEnumerator(9, 3, 10)
    for _, table in enum.iter_indices(enum.sample_indices(185, seed=53)):
        genus1 = [i + 1 for i, gg in enumerate(table.chain.genera) if gg == 1]
        threes = tuple(sorted(rng.sample(genus1, 2)))
        ctx = DropContext(table, twist_from_threes(table.chain, table.d, threes))
        if len(ctx.sections) <= 12:
            instances.append((ctx, (1 << len(ctx.sections)) - 1))
    enum6 = TableEnumerator(21, 6, 24, 0)
    for _, table in enum6.iter_indices(enum6.sample_indices(40, seed=54)):
        w = twist_from_threes(table.chain, table.d, (16, 17, 18, 19, 20, 21))
        ctx = DropContext(table, w)
        stuck = _greedy(ctx, (1 << len(ctx.sections)) - 1, [])
        if stuck and stuck.bit_count() <= 12:
            instances.append((ctx, stuck))
        if len(instances) >= 200:
            break
    instances = instances[:200]
    assert len(instances) == 200
    verdicts = {True: 0, False: 0}
    for ctx, alive in instances:
        success, _ = drop_from(ctx, alive)
        assert success == (exhaustive_order_search(ctx, alive) is not None)
        verdicts[success] += 1
    assert verdicts[False] > 0 and verdicts[True] > 0
    _announce("5c", f"engine verdict = exhaustive order search on 200 "
                    f"instances ({verdicts[True]} droppable, "
                    f"{verdicts[False]} stuck), exact")


def test_criterion_5d_twist_vanishing_oracle():
    rng = random.Random(5004)
    for _ in range(10_000):
        n = rng.randint(2, 10)
        D = rng.randint(1, 14)
        w = TwistVector(D, tuple(rng.randint(0, D) for _ in range(n - 1)))
        w2 = TwistVector(D, tuple(rng.randint(0, D) for _ in range(n - 1)))
        ext, ext2 = w.extended(), w2.extended()
        tails = {
            i: sum(ext2[j] - ext[j] for j in range(i + 1, n + 1))
            for i in range(1, n + 1)
        }
        lo = min(tails.values())
        expected = frozenset(i for i, t in tails.items() if t > lo)
        assert twist_vanishing_components(w, w2) == expected
    _announce("5d", "twist-map vanishing matches direct partial sums on "
                    "10,000 random pairs, exact")


def test_criterion_6_structural_invariants(crit2_report, crit3_reports,
                                           crit4_reports):
    reports = [crit2_report, *crit3_reports, *crit4_reports]
    total = sum(r.verified for r in reports)
    violations = sum(r.invariant_violations for r in reports)
    assert violations == 0, [r.violation_examples for r in reports]
    # direct spot check of the three invariants on a fresh sample
    enum = TableEnumerator(23, 6, 26, None, "two_swap")
    for _, table in enum.iter_indices(enum.sample_indices(300, seed=66)):
        assert len(find_swaps(table)) <= table.rho
        w = default_multidegree(table)
        secs = extract_potential_sections(table, w)
        for i in range(1, table.n_columns):
            assert sum(s.start <= i < s.end for s in secs) <= 3
    _announce("6", f"zero violations across {total:,} verified tables "
                   "(spanning <= 3 at default, swaps <= rho, disconnection "
                   "implies exceptional row)")
