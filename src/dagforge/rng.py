"""Counter-based random streams.

Every draw is a pure function of ``(seed, sample_index, node_key,
draw_counter)``, so distinct samples (and distinct nodes within a sample)
own independent streams that can be consumed in any order, on any thread,
with bit-identical results on every platform.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from functools import lru_cache

__all__ = ["RandomStream", "node_stream_key", "sample_base"]

_MASK = (1 << 64) - 1  # also the largest seed
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TWEAK = 0xD6E8FEB86659FD93
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# next_words mixes up to _LANES words at once
_LANES = 1024


def _finalize(z: int) -> int:
    # splitmix64 output function
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=32)
def _lane_constants(n: int) -> tuple[int, int, int, struct.Struct]:
    """Constants for mixing ``n`` words as the 128-bit lanes of one int.

    Lane i holds bits ``[128 i, 128 i + 128)``; a word sits in the low half
    and the high half takes the carries of a 64 x 64-bit product.  Returns
    (1 in every lane, the low-half mask of every lane, ``i * _GOLDEN`` in
    lane i, a little-endian reader of the low halves).
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    steps = b"".join(((i * _GOLDEN) & _MASK).to_bytes(8, "little") + bytes(8) for i in range(n))
    return ones, mask, int.from_bytes(steps, "little"), struct.Struct("<" + "Q8x" * n)


def _mixed_chunks(state: int, first: int, n: int) -> Iterator[tuple[bytes, struct.Struct]]:
    """The words for counters ``first .. first + n - 1``, mixed in chunks.

    Word i depends only on the state and its counter, so the words are mixed
    together, as the lanes of one int, in chunks of at most ``_LANES``.  Each
    chunk comes as the little-endian bytes of its lanes (a word's low byte is
    every 16th byte) and the reader of its words.
    """
    for chunk in range(first, first + n, _LANES):
        size = min(_LANES, first + n - chunk)
        ones, mask, steps, low_halves = _lane_constants(size)
        x = (((state + chunk * _GOLDEN) & _MASK) * ones + steps) & mask
        x = (((x ^ (x >> 30)) & mask) * _MIX1) & mask
        x = (((x ^ (x >> 27)) & mask) * _MIX2) & mask
        # the high halves now hold bits shifted in from the next lane; never read
        x ^= x >> 31
        yield x.to_bytes(16 * size, "little"), low_halves


def _mix_words(state: int, first: int, n: int) -> Iterator[int]:
    """The words for counters ``first .. first + n - 1``."""
    for lanes, low_halves in _mixed_chunks(state, first, n):
        yield from low_halves.unpack(lanes)


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

    __slots__ = ("draw_counter", "_state")

    def __init__(self, seed: int, sample_index: int = 0, node_key: int = 0, base: int | None = None):
        """``base``, when given, must be ``sample_base(seed, sample_index)``."""
        self.draw_counter = 0
        if base is None:
            base = sample_base(seed, sample_index)
        self._state = _finalize((base + node_key) & _MASK)

    def next_word(self) -> int:
        """Next raw draw: a uniform 64-bit word. Advances the counter by one."""
        self.draw_counter += 1
        return _finalize((self._state + self.draw_counter * _GOLDEN) & _MASK)

    def next_words(self, n: int) -> list[int]:
        """The next ``n`` raw draws: the words of ``n`` calls to :meth:`next_word`.

        Advances the counter by ``n``; ``n < 0`` is a ``ValueError``.
        """
        return list(self._iter_words(n))

    def _iter_words(self, n: int) -> Iterator[int]:
        """:meth:`next_words` as an iterator; the counter advances at the call."""
        return _mix_words(self._state, self._advance(n), n)

    def _low_bytes(self, n: int) -> bytes:
        """The low byte of each of the next ``n`` words; advances the counter by ``n``."""
        return b"".join([lanes[::16] for lanes, _ in _mixed_chunks(self._state, self._advance(n), n)])

    def _advance(self, n: int) -> int:
        """Take ``n`` draws: the counter of the first of them; ``n < 0`` is a ``ValueError``."""
        if n < 0:
            raise ValueError(f"next_words needs n >= 0, got {n}")
        start = self.draw_counter
        self.draw_counter = start + n
        return start + 1

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits. One raw draw."""
        self.draw_counter += 1
        return (_finalize((self._state + self.draw_counter * _GOLDEN) & _MASK) >> 11) * 2.0**-53
