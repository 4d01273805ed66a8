import itertools
import math
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from dagforge import (
    RandomStream,
    Tensor,
    build_registry,
    parse,
    register_host_function,
    values_equal,
)
from dagforge.errors import DomainError, RegistryError
from dagforge.evaluator import compile_node
from dagforge.examplefns import create_airr, encode_kmers
from dagforge.expr import KEYWORDS
from dagforge.registry import Arity
from dagforge.rng import _GOLDEN, _LANES, _MASK, _finalize
from dagforge.stdlib import (
    MAX_BINOMIAL_TRIALS,
    MAX_CONCAT_LENGTH,
    MAX_KMER_TABLE,
    MAX_POISSON_RATE,
    MAX_SEQ_LENGTH,
    MAX_TENSOR_ELEMENTS,
    _binomial,
    _categorical,
    _choice,
    _clamp,
    _concat,
    _floor,
    _get,
    _byte_table,
    _implant,
    _kmer_counts,
    _kmer_lanes,
    _len,
    _normal,
    _poisson,
    _randint,
    _random_seq,
    _round,
    _sigmoid,
    _tensor_fill_rect,
    _tensor_zeros,
    _uniform,
)
from dagforge.values import type_name

from conftest import pointed

N = 100_000


def fresh():
    return RandomStream(0, 0, 0)


def draws(fn, *args, n=N, seed=0):
    rng = RandomStream(seed)
    return [fn(rng, *args) for _ in range(n)]


# --- golden vectors: first 8 draws from a fresh (0,0,0) stream ------------
# committed to pin cross-platform, cross-version determinism

GOLDEN = {
    "words": [14427559915935451006, 5860511766479291393, 5624359059912518574,
              15132412154405163196, 8763020232685942399, 4915078382741936553,
              228868920517317945, 6909557073497695083],
    "uniform01": [0.7821195902260998, 0.3176989794546854, 0.30489711557978405,
                  0.8203297066376065, 0.4750442786906264, 0.26644693302526734,
                  0.012407009041964345, 0.3745678394999392],
    "binomial_3_05": [2, 2, 2, 0, 1, 0, 1, 0],
    "randint_10_80": [46, 13, 64, 36, 39, 63, 35, 43],
    "normal01": [-0.28929783783456364, 0.6591352037764037, -0.12586191695996626,
                 -2.089415196319908, -0.2961697677314758, -0.17947133767001053,
                 -1.642188896149703, 0.01520312141097752],
    "poisson_4": [5, 3, 3, 6, 4, 3, 0, 3],
    "categorical_235": [2, 1, 1, 2, 1, 1, 0, 1],
    "choice_ab": ["b", "a", "a", "b", "a", "a", "a", "a"],
    "random_seq": ["GCGAT", "CCTGA", "CCATA", "TGAGC", "GGGGC", "GCAGA", "CCTAA", "AACGT"],
}


def test_golden_raw_words():
    rng = fresh()
    assert [rng.next_word() for _ in range(8)] == GOLDEN["words"]


def test_golden_distribution_vectors():
    rng = fresh()
    assert [_uniform(rng, 0.0, 1.0) for _ in range(8)] == GOLDEN["uniform01"]
    rng = fresh()
    assert [_binomial(rng, 3, 0.5) for _ in range(8)] == GOLDEN["binomial_3_05"]
    rng = fresh()
    assert [_randint(rng, 10, 80) for _ in range(8)] == GOLDEN["randint_10_80"]
    rng = fresh()
    assert [_normal(rng, 0.0, 1.0) for _ in range(8)] == GOLDEN["normal01"]
    rng = fresh()
    assert [_poisson(rng, 4.0) for _ in range(8)] == GOLDEN["poisson_4"]
    rng = fresh()
    assert [_categorical(rng, [0.2, 0.3, 0.5]) for _ in range(8)] == GOLDEN["categorical_235"]
    rng = fresh()
    assert [_choice(rng, ["a", "b"], [0.5, 0.5]) for _ in range(8)] == GOLDEN["choice_ab"]
    rng = fresh()
    assert [_random_seq(rng, "ACGT", 5) for _ in range(8)] == GOLDEN["random_seq"]


def test_stream_keying_is_independent():
    assert RandomStream(0, 0, 0).next_word() != RandomStream(0, 1, 0).next_word()
    assert RandomStream(0, 0, 0).next_word() != RandomStream(0, 0, 1).next_word()
    assert RandomStream(0, 0, 0).next_word() != RandomStream(1, 0, 0).next_word()
    assert RandomStream(5, 9, 2).next_word() == RandomStream(5, 9, 2).next_word()


# --- degenerate and domain cases -------------------------------------------

def test_uniform_degenerate():
    assert _uniform(fresh(), 0, 0) == 0.0
    assert _uniform(fresh(), 2, 2) == 2.0
    with pytest.raises(DomainError):
        _uniform(fresh(), 1, 0)


def test_binomial_endpoints_and_domain():
    assert _binomial(fresh(), 1, 0.0) == 0
    assert _binomial(fresh(), 1, 1.0) == 1
    assert _binomial(fresh(), 0, 0.5) == 0
    with pytest.raises(DomainError):
        _binomial(fresh(), -1, 0.5)
    with pytest.raises(DomainError):
        _binomial(fresh(), 1, 1.5)


def test_randint_domain():
    assert _randint(fresh(), 5, 6) == 5
    with pytest.raises(DomainError):
        _randint(fresh(), 6, 5)
    with pytest.raises(DomainError):
        _randint(fresh(), 5, 5)  # empty half-open range
    with pytest.raises(DomainError):
        _randint(fresh(), 0.0, 5)


def test_normal_domain():
    assert _normal(fresh(), 3.0, 0.0) == 3.0
    with pytest.raises(DomainError):
        _normal(fresh(), 0.0, -1.0)


def test_poisson_domain():
    assert _poisson(fresh(), 0.0) == 0
    with pytest.raises(DomainError):
        _poisson(fresh(), -0.5)


@pytest.mark.parametrize("fn", [_poisson, _floor, _round])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_argument_is_a_domain_error(fn, x):
    args = (fresh(), x) if fn is _poisson else (x,)
    with pytest.raises(DomainError, match="finite"):
        fn(*args)


def test_floor_and_round_keep_finite_and_integer_arguments():
    assert _floor(-2.5) == -3 and _round(2.5) == 2 and _round(3.5) == 4
    assert _floor(1e308) == int(1e308)
    assert _floor(10**400) == 10**400 and _round(-(10**400)) == -(10**400)


def test_categorical_domain():
    with pytest.raises(DomainError):
        _categorical(fresh(), [0.5, 0.6])
    with pytest.raises(DomainError):
        _categorical(fresh(), [])
    with pytest.raises(DomainError):
        _categorical(fresh(), [1.5, -0.5])
    assert _categorical(fresh(), [1.0]) == 0


def test_choice_domain():
    assert _choice(fresh(), ["only"], [1.0]) == "only"
    with pytest.raises(DomainError):
        _choice(fresh(), ["a"], [0.5, 0.5])


def test_sigmoid():
    assert _sigmoid(0) == 0.5
    assert _sigmoid(-800) == pytest.approx(0.0)
    assert _sigmoid(800) == pytest.approx(1.0)


def test_scalar_helpers():
    assert _clamp(5, 0, 3) == 3
    assert _clamp(-1, 0, 3) == 0
    assert _clamp(2.5, 0, 3) == 2.5
    with pytest.raises(DomainError):
        _clamp(1, 3, 0)
    assert _get([10, 20], 1) == 20
    with pytest.raises(DomainError):
        _get([10, 20], 2)
    assert _len([1, 2, 3]) == 3
    assert _len("abc") == 3
    assert _concat("ab", "cd") == "abcd"
    assert _concat([1], [2]) == [1, 2]
    with pytest.raises(DomainError):
        _concat("a", [1])


# --- batched words ---------------------------------------------------------

_CHUNK_SIZES = [_LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 5]
_BATCH_SIZES = [0, 1, 2, 3, *_CHUNK_SIZES]
_u64 = st.integers(0, 2**64 - 1)


def _twin_streams(seed, index, key, counter):
    batched, scalar = RandomStream(seed, index, key), RandomStream(seed, index, key)
    batched.draw_counter = scalar.draw_counter = counter
    return batched, scalar


@settings(max_examples=60, deadline=None)
@given(seed=_u64, index=_u64, key=_u64, counter=st.integers(0, 2**70), n=st.sampled_from(_BATCH_SIZES))
def test_next_words_equals_next_word_calls(seed, index, key, counter, n):
    batched, scalar = _twin_streams(seed, index, key, counter)
    assert batched.next_words(n) == [scalar.next_word() for _ in range(n)]
    assert batched.draw_counter == scalar.draw_counter == counter + n


@settings(max_examples=60, deadline=None)
@given(seed=_u64, index=_u64, key=_u64, counter=st.integers(0, 2**70),
       n=st.one_of(st.integers(0, 200), st.sampled_from([0, 1, _LANES - 1, _LANES])))
@example(seed=1, index=2, key=3, counter=0, n=_LANES)
@example(seed=1, index=2, key=3, counter=0, n=0)
def test_peek_shows_the_next_words_without_taking_them(seed, index, key, counter, n):
    peeker, batched = _twin_streams(seed, index, key, counter)
    words, low = peeker.peek(n)
    expected = words.tolist()
    assert peeker.draw_counter == counter
    assert expected == batched.next_words(n)
    _, scalar = _twin_streams(seed, index, key, counter)
    assert low == bytes([scalar.next_word() & 0xFF for _ in range(n)])
    again = peeker.peek(n)
    assert (again[0].tolist(), again[1]) == (expected, low)
    # a peek is a snapshot: skipping, drawing and re-pointing the stream leave it as it was
    peeker.skip(n)
    assert peeker.draw_counter == counter + n
    peeker.next_word()
    peeker.draw_counter, peeker._state = 0, peeker._state ^ 1
    assert words.tolist() == expected and len(low) == n


@pytest.mark.parametrize("n", [-1, _LANES + 1, 3 * _LANES])
def test_peek_rejects_a_window_outside_one_pass(n):
    rng = RandomStream(1, 2, 3)
    rng.next_word()
    with pytest.raises(ValueError, match="peek needs"):
        rng.peek(n)
    assert rng.draw_counter == 1


def test_skip_rejects_a_negative_count():
    rng = RandomStream(1, 2, 3)
    rng.next_word()
    with pytest.raises(ValueError, match="skip needs"):
        rng.skip(-1)
    assert rng.draw_counter == 1
    rng.skip(0)
    assert rng.draw_counter == 1


@pytest.mark.parametrize("n", [2.5, 2.0, True, False, "3", None])
def test_peek_skip_and_next_words_reject_a_count_that_is_not_an_int(n):
    # a float left in the counter would break the next draw; a bool is not a count
    rng = RandomStream(1, 2, 3)
    rng.next_word()
    with pytest.raises(ValueError, match=f"peek needs an int 0 <= n <= {_LANES}, got {n!r}"):
        rng.peek(n)
    with pytest.raises(ValueError, match=f"skip needs an int n >= 0, got {n!r}"):
        rng.skip(n)
    with pytest.raises(ValueError, match=f"next_words needs an int n >= 0, got {n!r}"):
        rng.next_words(n)
    assert rng.draw_counter == 1 and type(rng.draw_counter) is int
    assert rng.next_word() == RandomStream(1, 2, 3).next_words(2)[1]


# --- first words read directly ---------------------------------------------

def _by_methods(fn, rng, *args):
    """``fn``'s draw as docs/stdlib.md defines it, through next_word and next_float alone."""
    if fn is _uniform:
        a, b = map(float, args)
        return a + (b - a) * rng.next_float()
    if fn is _randint:
        lo, hi = args
        return lo + rng.next_word() % (hi - lo)
    mu, sigma = map(float, args)
    u1 = ((rng.next_word() >> 11) + 1) * 2.0**-53
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * rng.next_float())


def _at_counter(rng, counter):
    """A stream at ``counter`` whose next words are ``rng``'s words 1, 2, ...: its state
    sits ``counter`` steps before ``rng``'s, since word c mixes ``state + c * _GOLDEN``."""
    state = (rng._state - counter * _GOLDEN) & _MASK
    shifted = pointed(state, _finalize((state + _GOLDEN) & _MASK), _finalize((state + 2 * _GOLDEN) & _MASK))
    shifted.draw_counter = counter
    return shifted


_bound = st.floats(-1e6, 1e6, allow_nan=False)
_WORD_PATH_ARGS = {
    _uniform: st.tuples(_bound, _bound).map(sorted),
    _normal: st.tuples(_bound, st.floats(0, 1e3)),
    _randint: st.tuples(st.integers(-2**70, 2**70), st.integers(1, 2**70)).map(lambda t: (t[0], t[0] + t[1])),
}


@settings(deadline=None)
@given(seed=_u64, index=_u64, key=_u64, counter=st.integers(0, 3),
       fn=st.sampled_from(list(_WORD_PATH_ARGS)), data=st.data())
def test_first_words_read_directly_equal_the_method_path(seed, index, key, counter, fn, data):
    # a fresh stream's first words are read from the object; at any other
    # counter the same words come through next_word and next_float
    args = data.draw(_WORD_PATH_ARGS[fn])
    fresh_rng, twin = RandomStream(seed, index, key), RandomStream(seed, index, key)
    shifted = _at_counter(fresh_rng, counter)
    value = fn(fresh_rng, *args)
    assert fn(shifted, *args) == value == _by_methods(fn, twin, *args)
    taken = {_uniform: 1, _randint: 1, _normal: 2}[fn]
    assert fresh_rng.draw_counter == twin.draw_counter == taken and shifted.draw_counter == counter + taken
    assert fresh_rng.next_word() == shifted.next_word() == twin.next_word()


@pytest.mark.parametrize("fn, args, message, taken", [
    (_uniform, (1, 0), "uniform requires a <= b, got (1.0, 0.0)", 0),
    (_uniform, (math.nan, 1), "uniform requires finite bounds a <= b whose difference is finite, got (nan, 1.0)", 0),
    (_uniform, (-1e308, 1e308),
     "uniform requires finite bounds a <= b whose difference is finite, got (-1e+308, 1e+308)", 0),
    (_uniform, ("a", 1), "uniform lower bound must be a number, got str", 0),
    (_randint, (5, 5), "randint requires lo < hi (half-open range), got (5, 5)", 0),
    (_randint, (0.0, 5), "randint lower bound must be an integer, got float", 0),
    (_randint, (True, 5), "randint lower bound must be an integer, got bool", 0),
    (_normal, (0, -1), "normal requires sigma >= 0, got -1.0", 0),
    (_normal, (0, [1]), "normal sd must be a number, got list", 0),
    # the result is checked after both draws
    (_normal, (math.nan, 1), "normal requires finite mu and sigma and a finite result, got (nan, 1.0)", 2),
    (_normal, (0, math.inf), "normal requires finite mu and sigma and a finite result, got (0.0, inf)", 2),
])
@pytest.mark.parametrize("counter", [0, 1, 2, 3])
def test_word_path_domain_errors_are_unchanged(fn, args, message, taken, counter):
    rng = RandomStream(1, 2, 3)
    rng.draw_counter = counter
    with pytest.raises(DomainError) as err:
        fn(rng, *args)
    assert str(err.value) == message
    assert rng.draw_counter == counter + taken


# sizes that divide 256 take the low-byte path, the others the word path
_LOW_BYTE_SIZES = [1, 2, 4, 8]
_WORD_SIZES = [3, 5, 20]


@st.composite
def _seq_alphabets(draw):
    """Alphabets of every tested size; the small pool makes repeated characters likely."""
    k = draw(st.sampled_from(_LOW_BYTE_SIZES + _WORD_SIZES))
    pool = st.sampled_from("AC\u00ff\u0394\u4e2d\U0001f600") | st.characters()
    return "".join(draw(st.lists(pool, min_size=k, max_size=k)))


@settings(max_examples=100, deadline=None)
@given(counter=st.integers(0, 2**64), alphabet=_seq_alphabets(),
       length=st.one_of(st.integers(2, 40), st.sampled_from(_CHUNK_SIZES)))
@example(counter=0, alphabet="ACGT", length=_LANES + 1)
@example(counter=5, alphabet="AACG", length=3 * _LANES + 5)
@example(counter=2**64, alphabet="G", length=_LANES)
@example(counter=9, alphabet="\u0394\u4e2d", length=_LANES - 1)
@example(counter=1, alphabet="ACGTacgt", length=40)
@example(counter=3, alphabet="\u00e9A\U0001f600A", length=_LANES + 1)
@example(counter=0, alphabet="ACG", length=_LANES + 1)
@example(counter=7, alphabet="AACGT", length=3 * _LANES + 5)
@example(counter=1, alphabet="ACDEFGHIKLMNPQRSTVWY", length=_LANES)
@example(counter=2, alphabet="\u0394\u4e2d\u0394", length=40)
def test_random_seq_equals_scalar_definition(counter, alphabet, length):
    assert len(alphabet) in _LOW_BYTE_SIZES + _WORD_SIZES
    batched, scalar = _twin_streams(3, 5, 7, counter)
    expected = "".join(alphabet[scalar.next_word() % len(alphabet)] for _ in range(length))
    assert _random_seq(batched, alphabet, length) == expected
    assert batched.draw_counter == scalar.draw_counter


_AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


@pytest.mark.parametrize("alphabet", ["ACGT", "ACG", _AMINO_ACIDS])
@pytest.mark.parametrize("length", [_LANES - 1, _LANES, _LANES + 1, 3000])
def test_random_seq_across_peek_windows(alphabet, length):
    batched, scalar = _twin_streams(3, 5, 7, 11)
    expected = "".join([alphabet[scalar.next_word() % len(alphabet)] for _ in range(length)])
    assert _random_seq(batched, alphabet, length) == expected
    assert batched.draw_counter == scalar.draw_counter == 11 + length


@pytest.mark.parametrize("alphabet", ["ACGT", "ACG", _AMINO_ACIDS])
def test_random_seq_at_its_length_limit_holds_a_window_at_a_time(alphabet):
    # the result is 1 MiB; a list of every word or character would be several times that
    rng = fresh()
    tracemalloc.start()
    try:
        seq = _random_seq(rng, alphabet, MAX_SEQ_LENGTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == rng.draw_counter == MAX_SEQ_LENGTH
    assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None)
@given(counter=st.integers(0, 2**64), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       n=st.one_of(st.integers(0, 64), st.sampled_from(_CHUNK_SIZES)))
@example(counter=0, p=RandomStream(3, 5, 7).next_float(), n=4)  # a draw equal to p is a failure
@example(counter=0, p=0.0, n=64)
@example(counter=9, p=1.0, n=64)
@example(counter=1, p=0.5, n=0)
@example(counter=2, p=0.5, n=1)
def test_binomial_equals_scalar_definition(counter, p, n):
    batched, scalar = _twin_streams(3, 5, 7, counter)
    expected = sum(1 for _ in range(n) if scalar.next_float() < p)
    assert _binomial(batched, n, p) == expected
    assert batched.draw_counter == scalar.draw_counter


@pytest.mark.parametrize("alphabet, table", [
    ("ACGT", bytes),
    ("\u00e9\u00ff", bytes),  # Latin-1 beyond ASCII
    ("\u03b1\u03b2\u03b3\u03b4", str),
    ("A\u4e2d", str),
])
def test_low_byte_chars_equals_word_definition_for_either_table(alphabet, table):
    # random_seq reads a character from each word's low byte through the table
    assert type(_byte_table(alphabet)) is table
    k = len(alphabet)
    words = RandomStream(3, 5, 7).next_words(4 * _LANES)
    assert len({w & 0xFF for w in words}) == 256  # every low byte is looked up
    assert _random_seq(RandomStream(3, 5, 7), alphabet, len(words)) == "".join(alphabet[w % k] for w in words)


def test_next_words_rejects_negative_n():
    rng = RandomStream(1, 2, 3)
    rng.next_word()
    with pytest.raises(ValueError):
        rng.next_words(-1)
    assert rng.draw_counter == 1
    assert rng.next_word() == RandomStream(1, 2, 3).next_words(2)[1]


def test_random_seq():
    assert _random_seq(fresh(), "A", 4) == "AAAA"
    assert _random_seq(fresh(), "ACGT", 0) == ""
    s = _random_seq(fresh(), "ACGT", 12)
    assert len(s) == 12 and set(s) <= set("ACGT")
    with pytest.raises(DomainError):
        _random_seq(fresh(), "", 3)
    with pytest.raises(DomainError):
        _random_seq(fresh(), "AC", -1)


def test_implant():
    assert _implant("AAAA", "CG", 1) == "ACGA"
    assert _implant("AAAA", "", 2) == "AAAA"
    assert _implant("AC", "AC", 0) == "AC"
    with pytest.raises(DomainError):
        _implant("AAAA", "CG", 3)
    with pytest.raises(DomainError):
        _implant("AAAA", "CG", -1)


def brute_kmer_counts(seqs, k, alphabet):
    """Oracle: dictionary count over all windows, ordered by itertools.product."""
    kmers = ["".join(p) for p in itertools.product(alphabet, repeat=k)]
    counts = dict.fromkeys(kmers, 0)
    for s in seqs:
        for i in range(len(s) - k + 1):
            counts[s[i:i + k]] += 1
    return [counts[km] for km in kmers]


def test_kmer_counts_examples():
    assert _kmer_counts(["ACGT"], 1, "ACGT") == [1, 1, 1, 1]
    assert _kmer_counts(["AAA"], 2, "AC") == [2, 0, 0, 0]
    assert _kmer_counts([], 1, "ACGT") == [0, 0, 0, 0]


def test_kmer_counts_against_oracle():
    seqs = ["ACGTACGT", "GGGG", "TACG", ""]
    for k in (1, 2, 3):
        assert _kmer_counts(seqs, k, "ACGT") == brute_kmer_counts(seqs, k, "ACGT")


# "\x00" is the lane pass's separator, "é" is Latin-1 but not ASCII, and "Ā"
# is not Latin-1; 16 letters reach tables on both sides of (base + 1)**k < 256
KMER_POOL = "ACGT\x00éĀNbdfhjkmp"
LATIN_254 = "".join(map(chr, range(254)))
LATIN_255 = "".join(map(chr, range(1, 256)))
# twice the profile's count: 200 by default, ten times as many under the ci profile
KMER_EXAMPLES = 2 * settings.default.max_examples


@st.composite
def _kmer_inputs(draw):
    k = draw(st.integers(1, 7))
    # at most 1,024 table entries, so the oracle's product stays small
    size = max(b for b in range(1, len(KMER_POOL) + 1) if b**k <= 1024)
    alphabet = "".join(draw(st.permutations(KMER_POOL))[:draw(st.integers(1, size))])
    # in a quarter of the inputs, pool letters outside the alphabet and "x" are bad characters
    chars = alphabet + KMER_POOL + "x" if draw(st.integers(0, 3)) == 0 else alphabet
    seqs = draw(st.lists(st.text(alphabet=chars, max_size=40), max_size=6))
    if draw(st.integers(0, 3)) == 0:  # a non-string element anywhere, before or after a bad sequence
        seqs.insert(draw(st.integers(0, len(seqs))), draw(st.sampled_from([7, 1.5, ["A"]])))
    return seqs, k, alphabet


def _first_kmer_fault(seqs, alphabet):
    """The message for the first sequence that is not a string or holds a bad character, else None."""
    for s in seqs:
        if not isinstance(s, str):
            return f"kmer_counts sequence must be a string, got {type_name(s)}"
        if set(s) - set(alphabet):
            return f"sequence contains characters outside the alphabet: {sorted(set(s) - set(alphabet))}"
    return None


@settings(max_examples=KMER_EXAMPLES, deadline=None)
@given(inputs=_kmer_inputs())
@example(inputs=([], 2, "ACGT"))
@example(inputs=(["ACG", ""], 4, "ACGT"))  # k > len(seq): no window
@example(inputs=(["ACGT", "GA"], 1, "ACGT"))
@example(inputs=(["AC", "AxGy"], 2, "ACGT"))
@example(inputs=(["ACGTACGTTGCA", "GAT"], 3, "ACGT"))  # lanes: 5**3 < 256
@example(inputs=(["ACGTACGTTGCA", "GAT"], 4, "ACGT"))  # loop: 5**4 >= 256
@example(inputs=(["ACG\x00T", "\x00"], 2, "ACGT\x00"))  # the separator in a sequence
@example(inputs=(["AC", "A\x00G"], 2, "ACGT"))  # a separator that is not in the alphabet
@example(inputs=(["AéC", "ĀA"], 1, "ACé"))  # a non-Latin-1 character in a sequence
@example(inputs=(["AĀC"], 2, "ACĀ"))  # a non-Latin-1 alphabet
@example(inputs=(["AC", 7, "AxG"], 2, "ACGT"))  # a non-string before a bad sequence
@example(inputs=(["AC", "AxG", 7], 2, "ACGT"))  # and after one
@example(inputs=([LATIN_254, "\x00\xfd", LATIN_254[::-1]], 1, LATIN_254))  # lanes: 255 < 256
@example(inputs=([LATIN_254, "\xfe"], 1, LATIN_254))
@example(inputs=([LATIN_255, "\x01\xff", LATIN_255[::-1]], 1, LATIN_255))  # loop: 256 >= 256
@example(inputs=([LATIN_255, "\x00"], 1, LATIN_255))
def test_kmer_counts_equals_window_definition(inputs):
    seqs, k, alphabet = inputs
    fault = _first_kmer_fault(seqs, alphabet)
    if fault is not None:  # the first bad sequence is named, whatever its fault
        with pytest.raises(DomainError) as raised:
            _kmer_counts(seqs, k, alphabet)
        assert str(raised.value) == fault
    else:
        assert _kmer_counts(seqs, k, alphabet) == brute_kmer_counts(seqs, k, alphabet)


def test_kmer_lanes_hold_windows_below_a_byte():
    table, codes = _kmer_lanes("ACGT", 3)  # 5**3 = 125
    assert table[ord("G")] == 2 and table[0] == 4 and table[ord("x")] == 255
    assert codes[:6] == bytes([0, 1, 2, 3, 5, 6])  # AAA AAC AAG AAT ACA ACC in base 5
    assert len(codes) == 64 and codes[-1] == 3 * 25 + 3 * 5 + 3
    for alphabet, k in [(LATIN_254, 1), (LATIN_254[:14], 2), ("AC", 5), ("A", 7)]:
        assert _kmer_lanes(alphabet, k) is not None
    for alphabet, k in [("ACGT", 4), (LATIN_254[:15], 2), ("AC", 6), ("A", 8), (LATIN_255, 1), ("AĀ", 1)]:
        assert _kmer_lanes(alphabet, k) is None


def test_encode_kmers_on_airr_rows_and_a_long_sequence():
    for i in range(600):
        seqs = create_airr(RandomStream(13, i, 5), i % 2, 10 + i % 70, "AB"[i % 3 == 0])
        assert [len(s) for s in seqs] == [16] * 8
        assert encode_kmers(seqs) == brute_kmer_counts(seqs, 2, "ACGT")
    long = [_random_seq(RandomStream(17), "ACGT", 100_000)]  # a window code of 100,000 bytes
    assert encode_kmers(long) == brute_kmer_counts(long, 2, "ACGT")
    assert _kmer_counts(long, 3, "ACGT") == brute_kmer_counts(long, 3, "ACGT")


def test_kmer_counts_domain():
    with pytest.raises(DomainError):
        _kmer_counts(["AXA"], 1, "ACGT")
    with pytest.raises(DomainError):
        _kmer_counts(["AA"], 0, "ACGT")
    with pytest.raises(DomainError):
        _kmer_counts(["AA"], 1, "AA")


def test_tensor_zeros():
    t = _tensor_zeros([2, 2])
    assert t.shape == (2, 2) and t.data == (0.0, 0.0, 0.0, 0.0)
    assert _tensor_zeros([1]).data == (0.0,)
    assert len(_tensor_zeros([3, 4]).data) == 12
    with pytest.raises(DomainError):
        _tensor_zeros([2, 0])


def test_kmer_counts_table_size_is_limited():
    assert len(_kmer_counts(["ACGT"], 10, "ACGT")) == MAX_KMER_TABLE == 4**10
    assert _kmer_counts(["AAA"], 2**70, "A") == [0]  # one counter, whatever k is
    # a one-letter alphabet passes every limit, so the lane pass's bound must not compute 2**k either
    assert _kmer_counts(["AAAA"], 2**63 - 1, "A") == [0]
    assert _kmer_counts(["AAAA"], 2**14000, "A") == [0]
    for k in (11, 2**62, 2**6000):
        with pytest.raises(DomainError, match="larger than the limit of 1048576"):
            _kmer_counts([], k, "ACGT")


# next_float always 0.0, so a call at a limit runs its whole loop quickly
ZERO_FLOATS = types.SimpleNamespace(next_float=float)


@pytest.mark.parametrize("call, message", [
    (lambda rng: _binomial(rng, MAX_BINOMIAL_TRIALS + 1, 0.5), "binomial trial count 1048577 "),
    (lambda rng: _binomial(rng, 2**6000, 0.5), "binomial trial count 1513470582304"),
    (lambda rng: _poisson(rng, MAX_POISSON_RATE + 0.5), "poisson rate 1048576.5 "),
    (lambda rng: _random_seq(rng, "ACGT", MAX_SEQ_LENGTH + 1), "random_seq length 1048577 "),
    (lambda rng: _random_seq(rng, "ACG", 2**6000), "random_seq length 1513470582304"),
], ids=["binomial", "binomial huge n", "poisson", "random_seq", "random_seq huge length"])
def test_draw_cost_is_limited_before_the_first_draw(call, message):
    rng = fresh()
    with pytest.raises(DomainError) as stop:
        call(rng)
    assert str(stop.value).startswith(message) and str(stop.value).endswith(" is larger than the limit of 1048576")
    assert rng.draw_counter == 0


def test_draw_cost_limits_are_inclusive():
    assert MAX_BINOMIAL_TRIALS == MAX_POISSON_RATE == MAX_SEQ_LENGTH == 1 << 20
    assert _binomial(ZERO_FLOATS, MAX_BINOMIAL_TRIALS, 0.5) == MAX_BINOMIAL_TRIALS
    assert _poisson(ZERO_FLOATS, float(MAX_POISSON_RATE)) == 0
    assert len(_random_seq(fresh(), "ACGT", MAX_SEQ_LENGTH)) == MAX_SEQ_LENGTH


def test_concat_result_length_is_limited():
    half = MAX_CONCAT_LENGTH // 2
    assert len(_concat("a" * half, "b" * half)) == len(_concat([0] * half, [1] * half)) == MAX_CONCAT_LENGTH
    with pytest.raises(DomainError, match="^concat result of 1048577 characters is longer than the limit of 1048576$"):
        _concat("a" * half, "b" * (half + 1))
    with pytest.raises(DomainError, match="^concat result of 1048577 items is longer than the limit of 1048576$"):
        _concat([0], [1] * MAX_CONCAT_LENGTH)


def test_tensor_zeros_element_count_is_limited():
    assert len(_tensor_zeros([1024, 1024]).data) == MAX_TENSOR_ELEMENTS
    for dims in ([1024, 1025], [2] * 100_000, [2**6000, 1]):
        with pytest.raises(DomainError, match="more elements than the limit of 1048576"):
            _tensor_zeros(dims)


def test_tensor_fill_rect():
    z = _tensor_zeros([2, 2])
    assert _tensor_fill_rect(z, 0, 0, 1, 1, 1.0).data == (1.0, 0.0, 0.0, 0.0)
    t = Tensor((2, 2), (1.0, 2.0, 3.0, 4.0))
    assert _tensor_fill_rect(t, 0, 0, 0, 0, 9.0) == t  # empty rectangle
    assert _tensor_fill_rect(_tensor_zeros([1, 3]), 0, 0, 1, 3, 2.0).data == (2.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        _tensor_fill_rect(t, 0, 0, 3, 1, 1.0)
    with pytest.raises(DomainError):
        _tensor_fill_rect(_tensor_zeros([2]), 0, 0, 1, 1, 1.0)


def test_tensor_ops_do_not_alias():
    t = _tensor_zeros([2, 2])
    before = t.data
    out = _tensor_fill_rect(t, 0, 0, 2, 2, 5.0)
    assert t.data == before == (0.0,) * 4
    assert out is not t


# --- statistical checks (3 sigma at n=100000; seeded, so never flaky) -------

def three_sigma(mean, sd, n=N):
    return 3.0 * sd / math.sqrt(n)


def test_normal_moments():
    xs = draws(_normal, 1.5, 2.0)
    assert abs(sum(xs) / N - 1.5) <= three_sigma(1.5, 2.0)


def test_poisson_moments():
    lam = 4.0
    xs = draws(_poisson, lam)
    assert abs(sum(xs) / N - lam) <= three_sigma(lam, math.sqrt(lam))


def test_poisson_additivity_regime():
    # large rates go through the chunked path; mean must still match
    lam = 1200.0
    xs = draws(_poisson, lam, n=2000)
    assert abs(sum(xs) / 2000 - lam) <= 3.0 * math.sqrt(lam) / math.sqrt(2000)


def test_categorical_moments_and_chi_square():
    ps = [0.2, 0.3, 0.5]
    xs = draws(_categorical, ps)
    mean = sum(i * p for i, p in enumerate(ps))
    var = sum(i * i * p for i, p in enumerate(ps)) - mean**2
    assert abs(sum(xs) / N - mean) <= three_sigma(mean, math.sqrt(var))
    observed = [xs.count(i) for i in range(3)]
    chi2 = sum((o - N * p) ** 2 / (N * p) for o, p in zip(observed, ps))
    assert chi2 < 13.8155  # chi-square critical value, df=2, alpha=0.001


def test_choice_uses_weights():
    xs = draws(_choice, ["a", "b"], [0.9, 0.1], n=10_000)
    frac_a = xs.count("a") / 10_000
    assert abs(frac_a - 0.9) <= three_sigma(0.9, math.sqrt(0.09), 10_000)


# --- documented draw counts --------------------------------------------------

@pytest.mark.parametrize("fn,args,count", [
    (_uniform, (0.0, 1.0), 1),
    (_uniform, (2.0, 2.0), 1),
    (_binomial, (5, 0.5), 5),
    (_binomial, (0, 0.5), 0),
    (_randint, (0, 10), 1),
    (_normal, (0.0, 1.0), 2),
    (_normal, (0.0, 0.0), 2),
    (_poisson, (4.0,), 1),
    (_poisson, (1200.0,), 3),
    (_categorical, ([0.5, 0.5],), 1),
    (_choice, (["a", "b"], [0.5, 0.5]), 1),
    (_random_seq, ("ACGT", 7), 7),
    (_random_seq, ("ACGT", 0), 0),
    (_binomial, (2000, 0.3), 2000),  # crosses a next_words chunk boundary
])
def test_draw_counts_are_fixed(fn, args, count):
    rng = fresh()
    fn(rng, *args)
    assert rng.draw_counter == count


# --- trusted tensors ------------------------------------------------------------

@st.composite
def _rectangles(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r0, r1 = sorted(draw(st.lists(st.integers(0, rows), min_size=2, max_size=2)))
    c0, c1 = sorted(draw(st.lists(st.integers(0, cols), min_size=2, max_size=2)))
    v = draw(st.one_of(st.floats(allow_nan=False), st.integers(-5, 5)))
    return rows, cols, r0, c0, r1, c1, v


def _assert_checked_tensor_equal(t, expected):
    assert type(t.shape) is tuple and all(type(d) is int for d in t.shape)
    assert type(t.data) is tuple and all(type(x) is float for x in t.data)
    assert values_equal(t, expected)
    assert [math.copysign(1.0, x) for x in t.data] == [math.copysign(1.0, x) for x in expected.data]


@settings(max_examples=200)
@given(rect=_rectangles(), fills=st.integers(1, 3))
def test_trusted_tensor_builds_match_checked_constructor(rect, fills):
    rows, cols, r0, c0, r1, c1, v = rect
    t = _tensor_zeros([rows, cols])
    _assert_checked_tensor_equal(t, Tensor((rows, cols), [0] * (rows * cols)))
    for _ in range(fills):
        cells = [t.data[r * cols + c] for r in range(rows) for c in range(cols)]
        for r in range(r0, r1):
            for c in range(c0, c1):
                cells[r * cols + c] = v
        t = _tensor_fill_rect(t, r0, c0, r1, c1, v)
        _assert_checked_tensor_equal(t, Tensor((rows, cols), cells))
        r0, c0, r1, c1 = r0 // 2, c0 // 2, r1, c1


# --- registry ---------------------------------------------------------------

def ev(src, registry, rng):
    return compile_node(parse(src), registry)[0]({}, rng)


def test_register_host_function_and_eval():
    reg = build_registry()
    register_host_function(reg, "double", 1, False, lambda x: x * 2)
    assert ev("double(21)", reg, RandomStream(0)) == 42


def test_host_function_tuple_results_become_lists():
    reg = build_registry()
    register_host_function(reg, "pair", 2, False, lambda a, b: (a, b))
    assert ev("pair(1, 2)", reg, RandomStream(0)) == [1, 2]


def test_registry_rejects_shadowing_builtin():
    reg = build_registry()
    with pytest.raises(RegistryError):
        register_host_function(reg, "uniform", 2, True, lambda rng, a, b: 0.0)


def test_registry_rejects_duplicates_and_bad_names():
    reg = build_registry()
    register_host_function(reg, "f", 1, False, lambda x: x)
    with pytest.raises(RegistryError):
        register_host_function(reg, "f", 1, False, lambda x: x)
    with pytest.raises(RegistryError):
        register_host_function(reg, "9bad", 1, False, lambda x: x)
    with pytest.raises(RegistryError):
        register_host_function(reg, "no-dash", 1, False, lambda x: x)


@pytest.mark.parametrize("arity", [(1, "3"), True, -1, (2, 1), "2", 2.0, None, (1,), (1, 2, 3), (None, 2),
                                   (-1, None), (1, 2.0)])
@pytest.mark.parametrize("add", ["host", "builtin"])
def test_registry_rejects_an_arity_no_call_can_meet(add, arity):
    reg = build_registry()
    with pytest.raises(RegistryError, match=r"^function 'f' arity .* is not a count or a \(min, max-or-None\) pair"):
        if add == "host":
            register_host_function(reg, "f", arity, False, lambda *args: 0)
        else:
            reg.add_builtin("f", arity, False, lambda *args: 0)
    assert reg.lookup("f") is None


@pytest.mark.parametrize("arity, described", [(0, "0"), (2, "2"), ((1, 1), "1"), ((0, 3), "0..3"),
                                              ((2, None), "2+"), (Arity(1, 2), "1..2")])
def test_registry_takes_a_count_a_pair_or_an_arity(arity, described):
    reg = build_registry()
    register_host_function(reg, "f", arity, False, lambda *args: 0)
    assert reg.lookup("f").arity.describe() == described


@pytest.mark.parametrize("name", sorted(KEYWORDS))
def test_registry_rejects_reserved_words(name):
    # a keyword always parses as an operator, so a function of that name could never be called
    reg = build_registry()
    with pytest.raises(RegistryError, match=f"^function name '{name}' is a reserved word$"):
        register_host_function(reg, name, 1, False, lambda x: x)
    assert reg.lookup(name) is None


def test_resolve_reports_what_is_wrong_with_a_call():
    reg = build_registry()
    uniform = reg.lookup("uniform")
    assert reg.resolve("uniform", 2) == (uniform, None)
    assert reg.resolve("uniform", 3) == (uniform, "uniform expects 2 argument(s), got 3")
    assert reg.resolve("nosuch", 0) == (None, "unknown function 'nosuch'")


def test_pure_function_called_exactly_once_per_evaluation():
    calls = []
    reg = build_registry()
    register_host_function(reg, "probe", 1, False, lambda x: calls.append(x) or x)
    ev("probe(7)", reg, RandomStream(0))
    assert calls == [7]


def test_stochastic_host_function_receives_stream():
    reg = build_registry()
    register_host_function(reg, "coin", 0, True, lambda rng: rng.next_float())
    assert ev("coin()", reg, RandomStream(0, 0, 0)) == GOLDEN["uniform01"][0]
