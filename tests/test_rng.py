"""The per-sample lane pass against streams made one at a time."""

from hypothesis import given, settings, strategies as st

from dagforge import RandomStream
from dagforge.rng import _GOLDEN, _LANES, _MASK, KeyLanes, _finalize, _stream, sample_base

UINT64 = st.integers(0, 2**64 - 1)
WORD = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | UINT64


@st.composite
def key_lists(draw):
    keys = draw(st.lists(WORD, max_size=40))
    repeats = draw(st.lists(st.sampled_from(keys), max_size=5)) if keys else []
    return draw(st.permutations(keys + repeats))


@settings(max_examples=200)
@given(seed=UINT64, index=UINT64, base=WORD, keys=key_lists())
def test_the_pass_mixes_what_each_stream_would(seed, index, base, keys):
    for b, made in ((base, lambda key: RandomStream(0, 0, key, base)),
                    (sample_base(seed, index), lambda key: RandomStream(seed, index, key))):
        states, words1, words2 = KeyLanes(keys).first_words(b)
        assert len(states) == len(words1) == len(words2) == len(keys)
        for key, state, word1, word2 in zip(keys, states, words1, words2):
            assert state == _finalize((b + key) & _MASK)
            assert [word1, word2] == [_finalize((state + c * _GOLDEN) & _MASK) for c in (1, 2)]
            assert [made(key).next_word(), made(key).next_words(2)[1]] == [word1, word2]


def test_the_pass_takes_keys_modulo_2_64():
    assert KeyLanes([2**64 + 5, -1]).first_words(7) == KeyLanes([5, 2**64 - 1]).first_words(7)
    assert KeyLanes([]).first_words(3) == ((), (), ())


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


@settings(max_examples=200)
@given(seed=UINT64, index=UINT64, key=WORD, ops=st.lists(OPS, max_size=12))
def test_a_stream_from_the_pass_behaves_as_a_public_one(seed, index, key, ops):
    states, words1, words2 = KeyLanes([key]).first_words(sample_base(seed, index))
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
