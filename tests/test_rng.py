"""The nonce stream: SimRng draws equal numpy's Generator draws in order."""

import random

import pytest

from wgiot.rng import SimRng


# seeds wider than 128 bits have entropy words beyond the seed sequence's 4-word pool
@pytest.mark.parametrize(
    "seed", [0, 1, 42, 2**63 + 5, 2**64 + 5, 2**127 + 3, 2**73 + 12345, 2**128 + 7, 2**200 + 7]
)
def test_draws_match_numpy_generator_in_order(seed):
    from numpy.random import PCG64, Generator  # only this test needs it

    r = random.Random(seed)
    ours, reference = SimRng(seed), Generator(PCG64(seed))
    for _ in range(5000):
        if r.random() < 0.5:
            n = r.choice((8, 16, 32))
            assert ours.draw_bytes(n) == reference.bytes(n)
        else:
            p = 0.01 + 0.98 * r.random()
            assert ours.chance(p) == (reference.random() < p)


@pytest.mark.parametrize("n", [1, 4, 12, 20])
def test_draw_of_partial_word_rejected(n):
    with pytest.raises(ValueError):
        SimRng(0).draw_bytes(n)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SimRng(-1)
