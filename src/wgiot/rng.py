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

The stream can also be jumped: `advance(n)` moves it n words ahead without
drawing them, as NumPy's `PCG64.advance(n)` does, and `word_at` reads any
one of the words it skipped, the 8 bytes `draw_bytes(8)` would have given
there, without moving the stream.  A step is the affine map s -> a*s + c
modulo 2**128, so n steps are one affine map too, which squaring the map
builds in O(log n) multiplications (Brown, "Random Number Generation with
Arbitrary Strides", 1994).  The simulator jumps past the registration
WMAPs at set-up and reads each at its first challenge (see wbrac.py), so
what it draws later is where those draws would have left it.
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


def _jump(state: int, inc: int, n: int) -> int:
    """The LCG state n steps after `state`: the step's affine map, squared
    for each bit of n and applied where the bit is set (Brown 1994)."""
    mult, plus = 1, 0  # the map of the steps taken so far
    step_mult, step_plus = _MULTIPLIER, inc  # the map of 2**i steps
    while n:
        if n & 1:
            mult = (mult * step_mult) & _MASK128
            plus = (plus * step_mult + step_plus) & _MASK128
        step_plus = ((step_mult + 1) * step_plus) & _MASK128
        step_mult = (step_mult * step_mult) & _MASK128
        n >>= 1
    return (mult * state + plus) & _MASK128


def _output(state: int) -> int:
    """XSL-RR: the output word of an LCG state."""
    rot = state >> 122
    x = ((state >> 64) ^ state) & _MASK64
    return ((x >> rot) | (x << (64 - rot))) & _MASK64


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
        """One LCG step, then the XSL-RR output of the new state (`_output`,
        written out here, where every draw runs it)."""
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

    def advance(self, n: int) -> int:
        """Jump n words ahead (modulo 2**128) without drawing them; return
        the position jumped from, at which `word_at` reads the words jumped
        past."""
        position = self._state
        self._state = _jump(position, self._inc, n % (1 << 128))
        return position

    def word_at(self, position: int, k: int) -> bytes:
        """The 8 bytes that `draw_bytes(8)` gives as the k-th word (from 0)
        drawn from `position`, a value `advance` returned; a pure read,
        which moves nothing."""
        return _output(_jump(position, self._inc, k + 1)).to_bytes(8, "little")

    def chance(self, probability: float) -> bool:
        """One Bernoulli draw; probability 0 and 1 short-circuit without a draw
        so degenerate links stay deterministic regardless of draw budget."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return (self._next_word() >> 11) * 2.0**-53 < probability
