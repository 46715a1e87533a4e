"""Seeded randomness for the simulation harness.

A single generator instance drives every random choice in a run (nonces,
drop/duplication decisions) so that a (scenario, seed) pair fully determines
the trace.  The algorithm is PCG64, a named 64-bit generator with
implementations in most languages.

Nonces are whole 64-bit PCG64 output words, each written as 8 little-endian
bytes.  For a length that is a multiple of 8 this is byte for byte what
numpy's `Generator.bytes(n)` returns: it packs 32-bit halves, low half first,
and so consumes whole words.  Taking the words from `random_raw` skips that
call's overhead.  Any other length would leave a half-word buffered inside
the generator and shift every later draw, so `draw_bytes` accepts only
multiples of 8.
"""

from __future__ import annotations

from numpy.random import Generator, PCG64


class SimRng:
    """Wrapper around numpy's PCG64 with the few draw shapes the harness needs."""

    def __init__(self, seed: int):
        self._gen = Generator(PCG64(seed))
        self._raw = self._gen.bit_generator.random_raw

    def draw_bytes(self, n: int) -> bytes:
        """n bytes made of n/8 raw PCG64 words; n must be a multiple of 8."""
        if n % 8:
            raise ValueError(f"draw_bytes needs a multiple of 8 bytes, got {n}")
        return self._raw(n // 8).astype("<u8", copy=False).tobytes()

    def chance(self, probability: float) -> bool:
        """One Bernoulli draw; probability 0 and 1 short-circuit without a draw
        so degenerate links stay deterministic regardless of draw budget."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._gen.random() < probability
