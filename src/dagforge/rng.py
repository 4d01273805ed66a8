"""Counter-based random streams.

Every draw is a pure function of ``(seed, sample_index, node_key,
draw_counter)``, so distinct samples (and distinct nodes within a sample)
own independent streams that can be consumed in any order, on any thread,
with bit-identical results on every platform.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["RandomStream", "node_stream_key", "sample_base"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TWEAK = 0xD6E8FEB86659FD93


def _finalize(z: int) -> int:
    # splitmix64 output function
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=65536)
def node_stream_key(name: str) -> int:
    """Stable 64-bit key for a node name.

    Keys depend only on the name, never on the node's position, so edits
    elsewhere in a model cannot shift this node's draws.
    """
    h = 0xCBF29CE484222325
    for b in name.encode("utf-8"):
        h = _finalize(h ^ b)
    return h


def sample_base(seed: int, sample_index: int) -> int:
    """The part of a stream's state fixed by ``(seed, sample_index)`` alone.

    Every node stream of one sample shares it, so a sampler computes it once
    per sample and each node stream adds only its own key.
    """
    s = _finalize(((seed & _MASK) ^ _SEED_TWEAK) & _MASK)
    return _finalize((s + (sample_index & _MASK)) & _MASK)


class RandomStream:
    """One deterministic stream of raw 64-bit words and derived variates."""

    __slots__ = ("seed", "sample_index", "node_key", "draw_counter", "_state")

    def __init__(self, seed: int, sample_index: int = 0, node_key: int = 0, base: int | None = None):
        """``base``, when given, must be ``sample_base(seed, sample_index)``."""
        self.seed = seed & _MASK
        self.sample_index = sample_index & _MASK
        self.node_key = node_key & _MASK
        self.draw_counter = 0
        if base is None:
            base = sample_base(seed, sample_index)
        self._state = _finalize((base + self.node_key) & _MASK)

    def next_word(self) -> int:
        """Next raw draw: a uniform 64-bit word. Advances the counter by one."""
        self.draw_counter += 1
        return _finalize((self._state + self.draw_counter * _GOLDEN) & _MASK)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits. One raw draw."""
        return (self.next_word() >> 11) * 2.0**-53
