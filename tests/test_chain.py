import pytest

from llschain import (
    ChainCurve,
    ChainError,
    build_elliptic_chain,
    is_left_weighted,
    left_weighted_weights,
)


def test_build_elliptic_chain_g22():
    chain = build_elliptic_chain(22)
    assert chain.n_components == 22
    assert chain.genus == 22
    assert all(g == 1 for g in chain.genera)


def test_build_elliptic_chain_smallest():
    chain = build_elliptic_chain(1)
    assert chain.n_components == 1


def test_genus_prefix_pure_chain():
    chain = build_elliptic_chain(23)
    assert chain.genus_prefix(0) == 0
    assert all(chain.genus_prefix(i) == i for i in range(24))


def test_build_elliptic_chain_rejects_zero():
    with pytest.raises(ChainError):
        build_elliptic_chain(0)


def test_genus_zero_insertions_prefix():
    chain = ChainCurve((1, 0, 0, 1, 0, 1))
    assert chain.genus == 3
    assert [chain.genus_prefix(i) for i in range(7)] == [0, 1, 1, 1, 2, 2, 3]
    assert not all(g == 1 for g in chain.genera)


def test_chain_validation():
    with pytest.raises(ChainError):
        ChainCurve(())
    with pytest.raises(ChainError):
        ChainCurve((1, 2))


def test_left_weighted_weights_examples():
    assert left_weighted_weights(build_elliptic_chain(2), 25) == (1,)
    assert left_weighted_weights(build_elliptic_chain(3), 25) == (100, 1)
    assert left_weighted_weights(build_elliptic_chain(4), 25) == (10100, 100, 1)


def test_is_left_weighted_boundary():
    assert is_left_weighted((100, 1), 25)
    assert not is_left_weighted((99, 1), 25)


def test_left_weighted_round_trip():
    for m in range(2, 9):
        chain = build_elliptic_chain(m)
        for d in (1, 2, 5, 13, 25, 30):
            ws = left_weighted_weights(chain, d)
            assert len(ws) == m - 1
            assert all(w >= 1 for w in ws)
            assert is_left_weighted(ws, d)


def test_left_weighted_minimality():
    # decreasing any single weight breaks the defining inequality
    ws = left_weighted_weights(build_elliptic_chain(5), 7)
    for k in range(len(ws) - 1):  # the final 1 cannot go lower anyway
        smaller = list(ws)
        smaller[k] -= 1
        assert not is_left_weighted(tuple(smaller), 7)


def test_left_weighted_scaling_invariance():
    ws = left_weighted_weights(build_elliptic_chain(6), 11)
    for e in (1, 2, 3, 10):
        scaled = tuple(e * w for w in ws)
        assert is_left_weighted(scaled, 11)


def test_left_weighted_needs_two_components():
    with pytest.raises(ChainError):
        left_weighted_weights(build_elliptic_chain(1), 5)
