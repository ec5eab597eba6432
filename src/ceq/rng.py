"""Seeded, splittable randomness with a frozen algorithm identity.

All randomized behaviour in this package derives from a single 64-bit
seed through `derive`, which mixes the seed with string/int labels via
FNV-1a and splitmix64, and `stream`, which feeds the derived value into
the stdlib Mersenne Twister (`random.Random`). Both algorithms are fixed;
changing them would break byte-exact reproducibility of generated files.
Each label's FNV-1a tag is computed once and kept in a bounded cache, as
a generator run derives from the same few labels many times.
"""

from __future__ import annotations

import functools
import random

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One splitmix64 step: a fixed 64-bit avalanche permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


# typed, so that 1 and 1.0, equal as keys, keep their distinct tags
@functools.lru_cache(maxsize=1024, typed=True)
def _tag(label) -> int:
    """A label's FNV-1a tag: of its 16-byte signed form for an int, of its
    UTF-8 string otherwise."""
    if isinstance(label, int):
        return _fnv1a(b"i" + label.to_bytes(16, "little", signed=True))
    return _fnv1a(b"s" + str(label).encode("utf-8"))


def derive(seed: int, *labels) -> int:
    """Derive an independent 64-bit value from a seed and a label path."""
    x = seed & _MASK
    for label in labels:
        x = splitmix64(x ^ _tag(label))
    return splitmix64(x)


def stream(seed: int, *labels) -> random.Random:
    """A Mersenne Twister stream for the given seed and label path."""
    return random.Random(derive(seed, *labels))
