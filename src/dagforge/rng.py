"""Counter-based random streams.

Every draw is a pure function of ``(seed, sample_index, node_key,
draw_counter)``, so distinct samples (and distinct nodes within a sample)
own independent streams that can be consumed in any order, on any thread,
with the same words on every platform: the words are 64-bit integer
arithmetic only.  The values built from them are the same wherever doubles
are IEEE-754 binary64, except that ``normal``, ``poisson``, ``exp``, ``log``
and ``sigmoid`` (and the example functions built on them) also call the
host C library's ``log``, ``cos`` and ``exp``, which C lets each library
round its own way (FORMATS.md, "Reproducibility").

Because no word depends on another, many words are mixed at once as the
lanes of one int: :class:`KeyLanes` mixes the state and first two words of
every node stream of a block of consecutive samples in one lane pass, and
:meth:`RandomStream.peek` mixes up to ``_LANES`` words of one stream the
same way.  A block fills about ``_LANES`` lanes: a model with n drawing
nodes starts ``max(1, _LANES // n)`` samples a pass, so a small model
amortises the pass's fixed cost over many samples and a model of more than
``_LANES // 2`` drawing nodes starts one sample a pass.  The layout of the
lanes is this module's: :meth:`KeyLanes.rows` hands out each sample's
words slot by slot.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import lru_cache

__all__ = ["KeyLanes", "RandomStream", "node_stream_key"]

_MASK = (1 << 64) - 1  # also the largest seed
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN2 = (2 * _GOLDEN) & _MASK  # a stream's second word is mixed from state + _GOLDEN2
_SEED_TWEAK = 0xD6E8FEB86659FD93
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# peek mixes up to _LANES words at once, and KeyLanes fills about as many lanes a pass
_LANES = 1024


def _finalize(z: int) -> int:
    # splitmix64 output function
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _lanes(words: list[int]) -> int:
    """``words`` modulo 2**64 as the 128-bit lanes of one int, word i in the low
    half of lane i; the high half takes the carries of a 64 x 64-bit product."""
    return int.from_bytes(b"".join([(w & _MASK).to_bytes(8, "little") + bytes(8) for w in words]), "little")


def _mix_lanes(x: int, mask: int) -> int:
    """splitmix64's output function on every lane of ``x`` at once.

    ``x`` has zero high halves and ``mask`` is the low-half mask of as many
    lanes.  The result's high halves hold bits shifted in from the next lane,
    above bit 96 of each lane, so adding a 64-bit word to each lane carries
    into no other lane, and masking the sum gives each lane's sum mod 2**64.
    """
    x = (((x ^ (x >> 30)) & mask) * _MIX1) & mask
    x = (((x ^ (x >> 27)) & mask) * _MIX2) & mask
    return x ^ (x >> 31)


@lru_cache(maxsize=32)
def _lane_constants(n: int) -> tuple[int, int, int]:
    """Constants for mixing ``n`` consecutive words of one stream: (1 in every
    lane, the low-half mask of every lane, ``i * _GOLDEN`` in lane i)."""
    return _lanes([1] * n), _lanes([_MASK] * n), _lanes([i * _GOLDEN for i in range(n)])


# The words of n lanes' little-endian bytes, word i in bytes 16i .. 16i + 7, as a
# view that builds no int until read.  A cast reads the host's byte order, so a
# big-endian host reads the reversed bytes, where word i is item 2n - 1 - 2i.
if sys.byteorder == "little":
    def _word_view(lanes: bytes) -> memoryview:
        return memoryview(lanes).cast("Q")[::2]
else:  # a big-endian host
    def _word_view(lanes: bytes) -> memoryview:
        return memoryview(lanes[::-1]).cast("Q")[::-2]


def node_stream_key(name: str) -> int:
    """Stable 64-bit key for a node name.

    Keys depend only on the name, never on the node's position, so edits
    elsewhere in a model cannot shift this node's draws.
    """
    h = 0xCBF29CE484222325
    for b in name.encode("utf-8"):
        h = _finalize(h ^ b)
    return h


def _seed_state(seed: int) -> int:
    """The part of every stream's state fixed by the seed alone."""
    return _finalize(((seed & _MASK) ^ _SEED_TWEAK) & _MASK)


class RandomStream:
    """One deterministic stream of raw 64-bit words and derived variates.

    Word c (c = 1, 2, ...) is splitmix64's output for ``state + c * _GOLDEN``,
    a pure function of the stream's state and its counter.  Every stream is
    made with its first two words already mixed, which are all that most
    nodes draw.  :meth:`next_word`, :meth:`next_float` and
    :meth:`next_words` take words; :meth:`peek` shows up to 1024 coming
    words without taking them, and :meth:`skip` takes words unread.

    The state mixes the seed, then the sample index, then the node key.
    The stream is nothing but ``(draw_counter, _state, _word1, _word2)``, so
    one object may be re-pointed at another stream by setting all four, as
    the sampler does for each drawing node with the words
    :meth:`KeyLanes.rows` gives.  While ``draw_counter`` is 0, ``_word1`` and
    ``_word2`` are the next two words: a fixed-draw built-in may read them
    itself and set the counter to the number it took.
    """

    __slots__ = ("draw_counter", "_state", "_word1", "_word2")

    def __init__(self, seed: int, sample_index: int = 0, node_key: int = 0):
        base = _finalize((_seed_state(seed) + (sample_index & _MASK)) & _MASK)
        state = _finalize((base + node_key) & _MASK)
        self.draw_counter = 0
        self._state = state
        self._word1 = _finalize((state + _GOLDEN) & _MASK)
        self._word2 = _finalize((state + _GOLDEN2) & _MASK)

    def next_word(self) -> int:
        """Next raw draw: a uniform 64-bit word. Advances the counter by one."""
        c = self.draw_counter = self.draw_counter + 1
        if c == 1:
            return self._word1
        if c == 2:
            return self._word2
        return _finalize((self._state + c * _GOLDEN) & _MASK)

    def next_words(self, n: int) -> list[int]:
        """The next ``n`` raw draws: the words of ``n`` calls to :meth:`next_word`.

        Advances the counter by ``n``; ``n`` not an int ``>= 0`` (a bool too) is a ``ValueError``.
        """
        if type(n) is not int or n < 0:
            raise ValueError(f"next_words needs an int n >= 0, got {n!r}")
        words = []
        while len(words) < n:
            view = self.peek(min(n - len(words), _LANES))[0]
            self.skip(len(view))
            words += view.tolist()
        return words

    def peek(self, n: int) -> tuple[memoryview, bytes]:
        """The next ``n`` words and the low byte of each, mixed in one pass; the counter stays.

        The words come as a read-only view of ints, a snapshot that stays
        valid whatever is drawn next.  A caller whose draw count depends on
        the words peeks its bound and skips the words it used.  ``n`` that
        is not an int in ``0 .. 1024`` (a bool too) is a ``ValueError``.
        """
        if type(n) is not int or not 0 <= n <= _LANES:
            raise ValueError(f"peek needs an int 0 <= n <= {_LANES}, got {n!r}")
        ones, mask, steps = _lane_constants(n)
        x = (((self._state + (self.draw_counter + 1) * _GOLDEN) & _MASK) * ones + steps) & mask
        lanes = _mix_lanes(x, mask).to_bytes(16 * n, "little")
        return _word_view(lanes), lanes[::16]  # a word's low byte is every 16th byte

    def skip(self, n: int) -> None:
        """Take ``n`` draws unread: the counter advances by ``n``; ``n`` that is
        not an int ``>= 0`` (a bool too) is a ``ValueError``."""
        if type(n) is not int or n < 0:
            raise ValueError(f"skip needs an int n >= 0, got {n!r}")
        self.draw_counter += n

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits. One raw draw."""
        return (self.next_word() >> 11) * 2.0**-53


class KeyLanes:
    """The stream keys of one model's drawing nodes, packed as lanes once for
    blocks of ``count`` consecutive sample indices.

    :meth:`first_words` then mixes what every node stream of every sample of
    a block starts from in one lane pass, instead of one stream at a time,
    and :meth:`rows` hands those words out one sample index at a time.
    ``count`` defaults to as many samples as fill ``_LANES`` lanes, at least
    one: ``max(1, _LANES // len(keys))``.
    """

    __slots__ = (
        "count", "_runs", "_size", "_mask", "_keys", "_steps1", "_steps2",
        "_base_ones", "_offsets", "_base_mask",
    )

    def __init__(self, keys: list[int], count: int | None = None):
        n = len(keys)
        if count is None:
            count = max(1, _LANES // max(1, n))
        self.count = count
        self._runs = n
        self._size = 16 * n * count
        ones = _lanes([1] * (n * count))
        self._mask = ones * _MASK
        # key-major: slot j of sample b is lane j * count + b
        self._keys = _lanes([key for key in keys for _ in range(count)])
        self._steps1 = ones * _GOLDEN
        self._steps2 = ones * _GOLDEN2
        self._base_ones = _lanes([1] * count)
        self._offsets = _lanes(list(range(count)))
        self._base_mask = self._base_ones * _MASK

    def first_words(self, seed: int, start: int) -> tuple[bytes, bytes, bytes]:
        """The state, word 1 and word 2 of each key's stream at each of the
        ``count`` sample indices ``start, start + 1, ...`` (modulo 2**64), as
        the bytes of three lane ints, which ``_word_view`` reads: its item
        ``k = j * count + b`` of the three is the state, word 1 and word 2 of
        ``RandomStream(seed, start + b, keys[j])``.  The pass mixes the
        ``count`` sample bases first and copies them into every key's run of
        lanes; then it mixes every state, then words 1 and 2 of every stream
        straight from the state lanes.
        """
        size, mask, base_mask = self._size, self._mask, self._base_mask
        first = (_seed_state(seed) + start) & _MASK
        bases = _mix_lanes((first * self._base_ones + self._offsets) & base_mask, base_mask) & base_mask
        runs = int.from_bytes(bases.to_bytes(16 * self.count, "little") * self._runs, "little")
        states = _mix_lanes((runs + self._keys) & mask, mask)
        words1 = _mix_lanes((states + self._steps1) & mask, mask)
        words2 = _mix_lanes((states + self._steps2) & mask, mask)
        return states.to_bytes(size, "little"), words1.to_bytes(size, "little"), words2.to_bytes(size, "little")

    def rows(self, seed: int, start: int) -> Iterator[tuple[memoryview, memoryview, memoryview]]:
        """Item i, for i = 0, 1, ...: the state, word 1 and word 2 of
        ``RandomStream(seed, start + i, key)`` for each key, as three views of ints.

        A block is mixed when its first index is reached and dropped before
        the next is mixed, so a caller that keeps no item past the next holds one.
        """
        count = self.count
        while True:
            states, words1, words2 = map(_word_view, self.first_words(seed, start))
            for b in range(count):
                yield states[b::count], words1[b::count], words2[b::count]
            del states, words1, words2
            start += count
