"""Deterministic 64-bit PRNG (xoshiro256**) used by all random constructions.

The generator is fixed so that a given seed produces the same stream on
every platform and Python version.  State is seeded from a single 64-bit
integer through splitmix64, as recommended by the xoshiro authors.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 seed expansion."""

    def __init__(self, seed: int):
        state = seed & _MASK
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        if not any(s):
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).  Uses the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return (self.next_u64() * n) >> 64
