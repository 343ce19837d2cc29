"""Seeded, portable 64-bit PRNG for reproducible search trajectories.

xoshiro256** with splitmix64 state seeding.  The pure-Python engine and
the native kernel (``flipgraph/_walk.c``) implement this generator bit
for bit, so a (seed, config) pair yields one trajectory everywhere.
Uniform integers below m are drawn as next() % m; the modulo bias is
irrelevant here, reproducibility is the contract.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int, count: int) -> list[int]:
    out = []
    x = seed & MASK64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256:
    """xoshiro256** stream; state derived from a 64-bit seed."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        self.s0, self.s1, self.s2, self.s3 = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & MASK64
        result = (((x << 7) | (x >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        return result

    def below(self, m: int) -> int:
        """Uniform-enough integer in [0, m); m must be positive."""
        return self.next_u64() % m
