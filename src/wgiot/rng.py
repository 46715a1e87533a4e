"""Seeded randomness for the simulation harness.

A single generator instance drives every random choice in a run (nonces,
drop/duplication decisions) so that a (scenario, seed) pair fully determines
the trace.  The algorithm is PCG64, a named 64-bit generator with
implementations in most languages.
"""

from __future__ import annotations

from numpy.random import Generator, PCG64


class SimRng:
    """Wrapper around numpy's PCG64 with the few draw shapes the harness needs."""

    def __init__(self, seed: int):
        self._gen = Generator(PCG64(seed))

    def draw_bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)

    def chance(self, probability: float) -> bool:
        """One Bernoulli draw; probability 0 and 1 short-circuit without a draw
        so degenerate links stay deterministic regardless of draw budget."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._gen.random() < probability
