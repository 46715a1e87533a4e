"""The nonce stream: SimRng draws, jumps and reads by position equal numpy's
Generator draws in order."""

import random

import pytest

from wgiot.rng import SimRng


# seeds wider than 128 bits have entropy words beyond the seed sequence's 4-word pool
SEEDS = [0, 1, 42, 2**63 + 5, 2**64 + 5, 2**127 + 3, 2**73 + 12345, 2**128 + 7, 2**200 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_generator_in_order(seed):
    from numpy.random import PCG64, Generator  # only the NumPy comparisons need it

    r = random.Random(seed)
    ours, reference = SimRng(seed), Generator(PCG64(seed))
    for _ in range(5000):
        if r.random() < 0.5:
            n = r.choice((8, 16, 32))
            assert ours.draw_bytes(n) == reference.bytes(n)
        else:
            p = 0.01 + 0.98 * r.random()
            assert ours.chance(p) == (reference.random() < p)


@pytest.mark.parametrize("n", [0, 1, 2000, 2**64 + 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_jump_matches_numpy_advance(seed, n):
    from numpy.random import PCG64, Generator  # only the NumPy comparisons need it

    ours, reference = SimRng(seed), Generator(PCG64(seed).advance(n))
    ours.advance(n)
    for _ in range(20):
        assert ours.draw_bytes(8) == reference.bytes(8)
        assert ours.chance(0.5) == (reference.random() < 0.5)


@pytest.mark.parametrize("seed", [0, 7, 2**200 + 7])
def test_reads_by_position_equal_the_draws_jumped_past(seed):
    """`word_at` gives, in order, the words that drawing would have given,
    moves nothing, and the jump leaves the stream where the draws would."""
    eager, jumped = SimRng(seed), SimRng(seed)
    eager.draw_bytes(16)
    jumped.draw_bytes(16)
    position = jumped.advance(300)
    after = jumped._state
    assert [jumped.word_at(position, k) for k in range(300)] == [
        eager.draw_bytes(8) for _ in range(300)
    ]
    assert jumped._state == after == eager._state
    assert jumped.draw_bytes(32) == eager.draw_bytes(32)


@pytest.mark.parametrize("n", [1, 4, 12, 20])
def test_draw_of_partial_word_rejected(n):
    with pytest.raises(ValueError):
        SimRng(0).draw_bytes(n)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SimRng(-1)
