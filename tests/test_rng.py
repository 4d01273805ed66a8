"""The block lane pass, and the rows it hands out, against streams made one at a time."""

import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from dagforge import RandomStream
from dagforge.rng import _GOLDEN, _LANES, _MASK, KeyLanes, _finalize, _lane_constants, _mix_lanes, _seed_state, _word_view

from conftest import pointed

UINT64 = st.integers(0, 2**64 - 1)
WORD = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | UINT64
# first indices whose block may cross 2**64 - 1, where indices wrap to 0
STARTS = UINT64 | st.integers(2**64 - 2 * _LANES, 2**64 + 2 * _LANES)
# samples per pass: one, two, odd sizes, and None for the full block
COUNTS = st.sampled_from([1, 2, None]) | st.integers(1, 40).map(lambda c: 2 * c + 1)
# twice the profile's count: 200 by default, ten times as many under the ci profile
EXAMPLES = 2 * settings.default.max_examples


@st.composite
def key_lists(draw):
    keys = draw(st.lists(WORD, max_size=40))
    repeats = draw(st.lists(st.sampled_from(keys), max_size=5)) if keys else []
    return draw(st.permutations(keys + repeats))


def _sample_base(seed, index):
    # what every node stream of one sample mixes its key into
    return _finalize((_seed_state(seed) + index) & _MASK)


def _check_block(keys, count, seed, start):
    lanes = KeyLanes(keys, count)
    count = lanes.count
    states, words1, words2 = map(_word_view, lanes.first_words(seed, start))
    assert len(states) == len(words1) == len(words2) == len(keys) * count
    for b in range(count):
        base = _sample_base(seed, start + b)
        for j, key in enumerate(keys):
            k = j * count + b
            state = states[k]
            assert state == _finalize((base + key) & _MASK)
            assert [words1[k], words2[k]] == [_finalize((state + c * _GOLDEN) & _MASK) for c in (1, 2)]
            made = RandomStream(seed, start + b, key)
            assert [made.next_word(), RandomStream(seed, start + b, key).next_words(2)[1]] == [words1[k], words2[k]]
    _check_rows(lanes, keys, seed, start)


def _check_rows(lanes, keys, seed, start):
    """Item i of ``rows`` points a stream at ``RandomStream(seed, start + i, key)``,
    for the items on both sides of two block boundaries and the middle of each block."""
    count = lanes.count
    items = list(itertools.islice(lanes.rows(seed, start), 2 * count + 1))
    for i in sorted({0, count // 2, count - 1, count, count + count // 2, 2 * count - 1, 2 * count}):
        states, words1, words2 = items[i]
        assert len(states) == len(words1) == len(words2) == len(keys)
        for j, key in enumerate(keys):
            made, public = pointed(states[j], words1[j], words2[j]), RandomStream(seed, start + i, key)
            assert made.next_words(3) == public.next_words(3)
            assert made._state == public._state


@settings(max_examples=EXAMPLES)
@given(seed=UINT64, start=STARTS, carry=st.none() | st.integers(1, 2 * _LANES), keys=key_lists(), count=COUNTS)
def test_the_pass_mixes_what_each_stream_would(seed, start, carry, keys, count):
    if carry is not None:  # the seed's part plus the index wraps past 2**64 - 1 inside the block
        start = (-_seed_state(seed) - carry) % 2**64
    if count is None:
        assert KeyLanes(keys).count == max(1, _LANES // max(1, len(keys)))
    _check_block(keys, count, seed, start)


def test_a_block_wider_than_the_lanes_is_one_sample_a_pass():
    keys = [(i * 0x9E3779B97F4A7C15) & _MASK for i in range(_LANES + 77)]
    assert KeyLanes(keys).count == 1
    for count, start in ((None, 5), (2, 2**64 - 1)):
        _check_block(keys, count, 11, start)


def test_rows_wrap_past_the_last_index():
    keys = [3, 2**64 - 1, 3]
    for count in (1, 2, 4):
        rows = KeyLanes(keys, count).rows(5, 2**64 - 3)
        for index in itertools.chain(range(2**64 - 3, 2**64), range(5)):
            states, words1, words2 = next(rows)
            assert [pointed(*slot).next_words(3) for slot in zip(states, words1, words2)] == [
                RandomStream(5, index, key).next_words(3) for key in keys
            ]
        _check_rows(KeyLanes(keys, count), keys, 5, 2**64 - count - 1)


def test_the_pass_takes_keys_modulo_2_64():
    for count in (1, 2, 3, None):
        wrapped = KeyLanes([2**64 + 5, -1], count).first_words(7, 9)
        assert wrapped == KeyLanes([5, 2**64 - 1], count).first_words(7, 9)
        assert wrapped == KeyLanes([5, 2**64 - 1], count).first_words(7 + 2**64, 9 - 2**64)
        assert KeyLanes([], count).first_words(3, 0) == (b"", b"", b"")


OPS = st.one_of(
    st.tuples(st.just("next_word")),
    st.tuples(st.just("next_float")),
    st.tuples(st.just("next_words"), st.integers(0, 40)),
    st.tuples(st.just("peek"), st.integers(0, 40), st.integers(0, 40)),
    st.tuples(st.just("skip"), st.integers(0, 40)),
    st.tuples(st.just("set_counter"), st.integers(0, 6) | st.integers(0, 2**70)),
)


def _apply(rng, op):
    name = op[0]
    if name == "next_word":
        return rng.next_word()
    if name == "next_float":
        return rng.next_float()
    if name == "next_words":
        return rng.next_words(op[1])
    if name == "peek":
        words, low = rng.peek(op[1])
        return words.tolist(), low, rng.skip(min(op[2], op[1]))
    if name == "skip":
        low = rng.peek(op[1])[1]
        return low, rng.skip(op[1])
    rng.draw_counter = op[1]
    return None


@settings(max_examples=EXAMPLES)
@given(seed=UINT64, index=UINT64, key=WORD, ops=st.lists(OPS, max_size=12))
def test_a_stream_from_the_pass_behaves_as_a_public_one(seed, index, key, ops):
    states, words1, words2 = next(KeyLanes([key], 1).rows(seed, index))
    from_pass, public = pointed(states[0], words1[0], words2[0]), RandomStream(seed, index, key)
    for op in ops:
        assert _apply(from_pass, op) == _apply(public, op), op
        assert from_pass.draw_counter == public.draw_counter
    assert from_pass.next_words(3) == public.next_words(3)


def test_a_stream_serves_its_first_words_from_the_pass():
    # the first two draws come from the words it was made with, later ones from its state
    rng = pointed(12345, 1, 2)
    assert [rng.next_word(), rng.next_word()] == [1, 2]
    assert rng.next_word() == _finalize((12345 + 3 * _GOLDEN) & _MASK)
    rng.draw_counter = 0
    assert (rng.next_float(), rng.draw_counter) == ((1 >> 11) * 2.0**-53, 1)
    assert rng.next_words(_LANES + 1)[0] == _finalize((12345 + 2 * _GOLDEN) & _MASK)


@pytest.mark.parametrize("n", [0, 1, 152, _LANES])
def test_word_views_read_the_low_half_of_each_lane(n):
    ones, mask, steps = _lane_constants(n)
    mixed = _mix_lanes((12345 * ones + steps) & mask, mask).to_bytes(16 * n, "little")
    for lanes in (mixed, bytes([i % 251 for i in range(16 * n)])):
        reference = list(struct.unpack("<" + "Q8x" * n, lanes))
        assert _word_view(lanes).tolist() == reference
        # a big-endian host casts the reversed bytes, which read as ">Q" here
        assert list(struct.unpack(">" + "Q" * (2 * n), lanes[::-1])[::-2]) == reference
    assert RandomStream(1, 2, 3).peek(n)[0].tolist() == RandomStream(1, 2, 3).next_words(n)
