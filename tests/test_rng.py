"""The block lane pass against streams made one at a time."""

from hypothesis import given, settings, strategies as st

from dagforge import RandomStream
from dagforge.rng import _GOLDEN, _LANES, _MASK, KeyLanes, _finalize, _seed_state, _stream, sample_base

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


def _check_block(keys, count, seed, start):
    lanes = KeyLanes(keys, count)
    count = lanes.count
    states, words1, words2 = lanes.first_words(seed, start)
    assert len(states) == len(words1) == len(words2) == len(keys) * count
    for b in range(count):
        base = sample_base(seed, start + b)
        for j, key in enumerate(keys):
            k = j * count + b
            state = states[k]
            assert state == _finalize((base + key) & _MASK)
            assert [words1[k], words2[k]] == [_finalize((state + c * _GOLDEN) & _MASK) for c in (1, 2)]
            made = RandomStream(seed, start + b, key)
            assert [made.next_word(), RandomStream(seed, start + b, key).next_words(2)[1]] == [words1[k], words2[k]]


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


def test_the_pass_takes_keys_modulo_2_64():
    for count in (1, 2, 3, None):
        wrapped = KeyLanes([2**64 + 5, -1], count).first_words(7, 9)
        assert wrapped == KeyLanes([5, 2**64 - 1], count).first_words(7, 9)
        assert wrapped == KeyLanes([5, 2**64 - 1], count).first_words(7 + 2**64, 9 - 2**64)
        assert KeyLanes([], count).first_words(3, 0) == ((), (), ())


OPS = st.one_of(
    st.tuples(st.just("next_word")),
    st.tuples(st.just("next_float")),
    st.tuples(st.just("next_words"), st.integers(0, 40)),
    st.tuples(st.just("ahead"), st.integers(1, 40), st.integers(0, 40)),
    st.tuples(st.just("low_bytes"), st.integers(0, 40)),
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
    if name == "ahead":
        words, low = rng._ahead(op[1])
        return words, low, rng._advance(min(op[2], op[1]))
    if name == "low_bytes":
        return rng._low_bytes(op[1])
    rng.draw_counter = op[1]
    return None


@settings(max_examples=EXAMPLES)
@given(seed=UINT64, index=UINT64, key=WORD, ops=st.lists(OPS, max_size=12))
def test_a_stream_from_the_pass_behaves_as_a_public_one(seed, index, key, ops):
    states, words1, words2 = KeyLanes([key], 1).first_words(seed, index)
    from_pass, public = _stream(states[0], words1[0], words2[0]), RandomStream(seed, index, key)
    for op in ops:
        assert _apply(from_pass, op) == _apply(public, op), op
        assert from_pass.draw_counter == public.draw_counter
    assert from_pass.next_words(3) == public.next_words(3)


def test_a_stream_serves_its_first_words_from_the_pass():
    # the first two draws come from the words it was made with, later ones from its state
    rng = _stream(12345, 1, 2)
    assert [rng.next_word(), rng.next_word()] == [1, 2]
    assert rng.next_word() == _finalize((12345 + 3 * _GOLDEN) & _MASK)
    rng.draw_counter = 0
    assert (rng.next_float(), rng.draw_counter) == ((1 >> 11) * 2.0**-53, 1)
    assert rng.next_words(_LANES + 1)[0] == _finalize((12345 + 2 * _GOLDEN) & _MASK)
