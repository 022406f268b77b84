import random

import pytest

from llschain import (
    MultidegreeError,
    TwistVector,
    build_elliptic_chain,
    component_degrees,
    default_multidegree,
    default_threes,
    degree_three_columns,
    g22_example,
    gamma_profile,
    is_unimaginative,
    lambda_sequence,
    twist_from_threes,
    twist_vanishing_components,
)
from llschain.enumeration import TableEnumerator
from llschain.multidegree import iter_candidate_multidegrees

from test_table import rho0_rectangle_table

G22_DEFAULT_C = (3, 5, 7, 9, 12, 14, 17, 19, 21, 23, 25, 27, 29, 31, 33, 36,
                 38, 41, 43, 45, 47)


def test_component_degrees_concentrated():
    w = TwistVector(25, (0,) * 21)
    assert component_degrees(w) == (0,) * 21 + (25,)


def test_component_degrees_small():
    assert component_degrees(TwistVector(4, (1, 2))) == (1, 1, 2)


def test_unbounded_rejected():
    with pytest.raises(MultidegreeError):
        component_degrees(TwistVector(4, (5, 2)))
    with pytest.raises(MultidegreeError):
        component_degrees(TwistVector(4, (-1, 2)))


def test_default_multidegree_g22():
    table = g22_example()
    w = default_multidegree(table)
    assert w.D == 50
    assert w.c == G22_DEFAULT_C
    assert degree_three_columns(w, table.chain) == (1, 5, 7, 16, 18, 22)


def test_gamma_profile_g22():
    table = g22_example()
    w = default_multidegree(table)
    gamma = gamma_profile(w, table.chain)
    assert gamma == (1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 6)
    jumps = [1] + [i + 1 for i in range(1, 22) if gamma[i] > gamma[i - 1]]
    assert jumps == [1, 5, 7, 16, 18, 22]


def test_all_two_profile_not_unimaginative():
    # total degree 2d = 2g + 6 cannot be covered by 2s alone
    table = g22_example()
    chain = table.chain
    c = tuple(2 * i for i in range(1, 22))
    w = TwistVector(50, c)
    assert not is_unimaginative(w, chain)
    with pytest.raises(MultidegreeError):
        gamma_profile(w, chain)


def test_single_component_chain_gamma():
    chain = build_elliptic_chain(1)
    for deg, gammas in ((2, (0,)), (3, (1,))):
        w = TwistVector(deg, ())
        assert is_unimaginative(w, chain)
        assert gamma_profile(w, chain) == gammas


def test_default_multidegree_rho0_row_major():
    table = rho0_rectangle_table(21, 6, 24)
    assert default_threes(table) == (1, 5, 7, 15, 17, 21)


def test_rule2_column_is_earliest_possible():
    # the sorted shape gains at most one box per column, so bar counts
    # 1+2 = 5 cannot happen before column 5; the row-major filling attains it
    table = rho0_rectangle_table(21, 6, 24)
    lam = lambda_sequence(table)
    assert lam.bar_count(4, 1) + lam.bar_count(4, 2) == 4
    assert lam.bar_count(5, 1) + lam.bar_count(5, 2) == 5
    assert default_threes(table)[1] == 5
    enum = TableEnumerator(21, 6, 24, 0)
    for _, t in enum.iter_indices(enum.sample_indices(50, seed=2)):
        assert default_threes(t)[1] >= 5


def test_default_requires_r6():
    enum = TableEnumerator(6, 1, 4, 0)
    table = next(t for _, t in enum.iter_range(0, 1))
    with pytest.raises(MultidegreeError):
        default_multidegree(table)


def test_twist_vanishing_examples():
    w = TwistVector(4, (1, 2))
    w2 = TwistVector(4, (2, 2))
    assert twist_vanishing_components(w, w) == frozenset()
    assert twist_vanishing_components(w, w2) == frozenset({1})
    assert twist_vanishing_components(w2, w) == frozenset({2, 3})


def _oracle_vanishing(w, w2):
    n = w.n_components
    ext, ext2 = w.extended(), w2.extended()
    tails = {
        i: sum(ext2[j] - ext[j] for j in range(i + 1, n + 1))
        for i in range(1, n + 1)
    }
    lo = min(tails.values())
    return frozenset(i for i, t in tails.items() if t > lo)


def test_twist_vanishing_against_direct_sums():
    rng = random.Random(2024)
    for _ in range(2500):
        n = rng.randint(2, 9)
        D = rng.randint(1, 12)
        c = tuple(rng.randint(0, D) for _ in range(n - 1))
        c2 = tuple(rng.randint(0, D) for _ in range(n - 1))
        w, w2 = TwistVector(D, c), TwistVector(D, c2)
        ext, ext2 = w.extended(), w2.extended()
        got = twist_vanishing_components(w, w2)
        assert got == _oracle_vanishing(w, w2)
        # equal entries force i-1 and i to agree
        for i in range(2, n + 1):
            if ext[i] == ext2[i]:
                assert ((i - 1) in got) == (i in got)
        # a component escapes both directions only when every tail sum is
        # equal, i.e. the two multidegrees differ by a twist supported at
        # the far left
        back = twist_vanishing_components(w2, w)
        if any(i not in got and i not in back for i in range(1, n + 1)):
            tails = {
                sum(ext2[j] - ext[j] for j in range(i + 1, n + 1))
                for i in range(1, n + 1)
            }
            assert len(tails) == 1


def test_mismatched_twists_rejected():
    with pytest.raises(MultidegreeError):
        twist_vanishing_components(TwistVector(4, (1, 2)), TwistVector(4, (1,)))
    with pytest.raises(MultidegreeError):
        twist_vanishing_components(TwistVector(4, (1, 2)), TwistVector(6, (1, 2)))


def test_md_round_trip_injective():
    rng = random.Random(7)
    chain = build_elliptic_chain(5)
    seen = {}
    for _ in range(500):
        c = tuple(sorted(rng.randint(0, 10) for _ in range(4)))
        w = TwistVector(10, c)
        degs = component_degrees(w, chain)
        assert sum(degs) == 10
        if degs in seen:
            assert seen[degs] == c
        seen[degs] = c
        # reconstruct c from degrees
        acc, rec = 0, []
        for deg in degs[:-1]:
            acc += deg
            rec.append(acc)
        assert tuple(rec) == c


def test_candidates_dedup_default_first():
    table = g22_example()
    cands = list(iter_candidate_multidegrees(table))
    assert cands[0] == default_multidegree(table)
    assert len({c.c for c in cands}) == len(cands)
    chain = table.chain
    for w in cands:
        assert is_unimaginative(w, chain)
        gamma = gamma_profile(w, chain)
        assert gamma[-1] == 6
        jumps = sum(
            1 for i in range(22) if gamma[i] > (gamma[i - 1] if i else 0)
        )
        assert jumps == 6


def test_candidates_include_swap_targeted_moves():
    # the g22 swap column is 9; some candidate puts a 3 there
    table = g22_example()
    cands = list(iter_candidate_multidegrees(table))
    assert any(9 in degree_three_columns(w, table.chain) for w in cands)


def test_twist_from_threes_rejects_genus0():
    from llschain import ChainCurve

    chain = ChainCurve((1, 0, 1))
    with pytest.raises(MultidegreeError):
        twist_from_threes(chain, 3, (1, 2))
    w = twist_from_threes(chain, 3, (1, 3))
    assert component_degrees(w, chain) == (3, 0, 3)
