"""Deterministic pseudo-random sampling for the property-check harness.

The generator is SplitMix64 (Steele, Lea & Flood's mixing constants), fixed
here so reports reproduce bit-for-bit on any platform and the scheme can be
reimplemented in any language:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output: z XOR (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.

Streams are split per property id: the initial state is

    mix64(seed) XOR fnv1a64(property_id)

where mix64 is the SplitMix64 output function applied once to the seed and
fnv1a64 is the 64-bit FNV-1a hash of the id's ASCII bytes. Distinct ids get
decorrelated streams, so properties can be checked concurrently or in any
order without changing any report.

The state moves by the constant gamma = 0x9E3779B97F4A7C15 per draw, so the
stream n draws in starts at

    state_0 + n * gamma  mod 2^64

with no draw made. A property whose samples each take k draws can thus be
split into ranges of samples: the range from sample i starts at the
stream's initial state plus i * k * gamma.
"""

from __future__ import annotations

import math

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: 2^-53, the uniform-double scale factor.
_DOUBLE_UNIT = 1.0 / (1 << 53)


def mix64(value: int) -> int:
    """SplitMix64 output function (finalizer) on a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the ASCII encoding of `text`."""
    h = _FNV_OFFSET
    for byte in text.encode("ascii"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 stream starting from an explicit 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1), 53 bits of entropy."""
        return (self.next_u64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def log_uniform(self, low: float, high: float) -> float:
        """Log-uniform over [low, high]; both bounds must be positive."""
        return math.exp(self.uniform(math.log(low), math.log(high)))

    def uniform_open_low(self, high: float) -> float:
        """Uniform over the half-open interval (0, high]."""
        return high * (1.0 - self.next_float())


def property_stream(seed: int, property_id: str, skip: int = 0) -> SplitMix64:
    """The documented per-property stream, `skip` draws in.

    Its initial state is mix64(seed) XOR fnv1a64(id); skipping adds
    skip * gamma mod 2^64 to it, which no draw is made for.
    """
    return SplitMix64((mix64(seed) ^ fnv1a64(property_id)) + skip * _GOLDEN_GAMMA)
