"""Seeded randomness for the simulation harness.

A single generator instance drives every random choice in a run (nonces,
drop/duplication decisions) so that a (scenario, seed) pair fully determines
the trace.

The algorithm is PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014), a 128-bit LCG step with XSL-RR output, seeded as NumPy seeds it
through `SeedSequence(seed)`.  The stream therefore equals NumPy's
`Generator(PCG64(seed))` by construction; `tests/test_rng.py` checks it
against NumPy.

Nonces are whole 64-bit output words, each written as 8 little-endian bytes:
NumPy's `Generator.bytes(n)` for n a multiple of 8.  For any other n NumPy
buffers the spare half-word and shifts every later draw, so `draw_bytes`
accepts only multiples of 8.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645

# NumPy's SeedSequence: a pool of four 32-bit words, hashed and mixed.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix; each call advances the running constant."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_sequence_state(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(8, uint32)`; a negative seed raises
    ValueError as NumPy's does."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # the seed's 32-bit words, low first; [0] for seed 0
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]


class SimRng:
    """PCG64 with the few draw shapes the harness needs."""

    def __init__(self, seed: int):
        # generate_state(4, uint64) pairs the 32-bit words low half first;
        # pcg64_set_seed reads words 0-1 as initstate and 2-3 as initseq,
        # high word first.
        w = _seed_sequence_state(seed)
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        self._inc = ((initseq << 1) | 1) & _MASK128
        # pcg64_srandom_r steps from state 0 (giving inc), adds initstate
        # and steps again.
        self._state = (self._inc + initstate) & _MASK128
        self._next_word()

    def _next_word(self) -> int:
        """One LCG step, then the XSL-RR output of the new state."""
        self._state = state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def draw_bytes(self, n: int) -> bytes:
        """n bytes made of n/8 PCG64 words; n must be a multiple of 8."""
        if n % 8:
            raise ValueError(f"draw_bytes needs a multiple of 8 bytes, got {n}")
        value = 0
        for shift in range(0, 8 * n, 64):
            value |= self._next_word() << shift
        return value.to_bytes(n, "little")

    def chance(self, probability: float) -> bool:
        """One Bernoulli draw; probability 0 and 1 short-circuit without a draw
        so degenerate links stay deterministic regardless of draw budget."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return (self._next_word() >> 11) * 2.0**-53 < probability
