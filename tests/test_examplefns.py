import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_airr
from dagforge import RandomStream, csv_cell, examplefns, values_equal
from dagforge.errors import DomainError
from dagforge.examplefns import (
    IMAGE_SIZE,
    _SIGMOID_PRESETS,
    _flag01,
    _image,
    assign_protocol,
    complement_binomial,
    create_airr,
    draw_image,
    encode_kmers,
    sigmoid_binomial,
)
from dagforge.stdlib import (
    _binomial,
    _float,
    _implant,
    _kmer_counts,
    _random_seq,
    _sigmoid,
    _tensor_fill_rect,
    _tensor_zeros,
)
from dagforge.values import _brief

# three times the profile's count: 300 by default, ten times as many under the ci profile
EXAMPLES = 3 * settings.default.max_examples


def stream(i=0):
    return RandomStream(0, i, 0)


def test_complement_binomial_endpoints():
    for i in range(20):
        assert complement_binomial(stream(i), 1.0) == 0
        assert complement_binomial(stream(i), 0.0) == 1


def test_sigmoid_binomial_labels():
    out = {sigmoid_binomial(stream(i), 1, 0, "H") for i in range(50)}
    assert out <= {0, 1}
    with pytest.raises(DomainError):
        sigmoid_binomial(stream(), 1, 0, "Q")
    with pytest.raises(DomainError):
        sigmoid_binomial(stream(), 2, 0, "H")


def test_draw_image_blank_and_overlays():
    blank = draw_image(0, 0, 0, 0)
    assert blank.shape == (IMAGE_SIZE, IMAGE_SIZE)
    assert set(blank.data) == {0.0}

    h_only = draw_image(1, 0, 0, 0)
    lit = {divmod(i, IMAGE_SIZE) for i, x in enumerate(h_only.data) if x != 0.0}
    assert lit == {(r, c) for r in range(7, 9) for c in range(1, 15)}
    assert all(x in (0.0, 1.0) for x in h_only.data)

    full = draw_image(1, 1, 1, 1)
    assert {0.0, 0.5, 0.75, 1.0} == set(full.data)


def test_draw_image_is_deterministic():
    assert draw_image(1, 0, 1, 0) == draw_image(1, 0, 1, 0)
    with pytest.raises(DomainError):
        draw_image(2, 0, 0, 0)


@pytest.mark.parametrize("flags", list(itertools.product((0, 1), repeat=4)))
def test_draw_image_memo_matches_uncached_builder(flags):
    fresh = _image.__wrapped__(*flags)
    for args in (flags, tuple(bool(f) for f in flags)):
        img = draw_image(*args)
        assert values_equal(img, fresh)
        assert csv_cell(img) == csv_cell(fresh)
        assert draw_image(*args) is img
    # ints and bools share one entry
    assert draw_image(*flags) is draw_image(*(bool(f) for f in flags))


@pytest.mark.parametrize("bad", [2, 0.5, 1.0, "1", None, -1])
def test_draw_image_rejects_bad_input_with_warm_memo(bad):
    for flags in itertools.product((0, 1), repeat=4):
        draw_image(*flags)
    for pos in range(4):
        args = [0, 0, 0, 0]
        args[pos] = bad
        with pytest.raises(DomainError, match=f"draw_image input {pos} must be 0 or 1"):
            draw_image(*args)


@pytest.mark.parametrize("flag", [0, 1, True, False])
def test_flags_accept_0_1_and_bools_as_ints(flag):
    assert _flag01(flag, "flag") == flag
    assert type(_flag01(flag, "flag")) is int


@pytest.mark.parametrize("bad, shown", [(2, "2"), (-1, "-1"), (1.0, "1.0"), ("1", "'1'")])
def test_flags_reject_other_values_naming_the_first_bad_input(bad, shown):
    with pytest.raises(DomainError) as err:
        _flag01(bad, "the flag")
    assert str(err.value) == f"the flag must be 0 or 1, got {shown}"
    with pytest.raises(DomainError) as err:
        draw_image(1, bad, 0, bad)
    assert str(err.value) == f"draw_image input 1 must be 0 or 1, got {shown}"
    with pytest.raises(DomainError) as err:
        sigmoid_binomial(stream(), True, bad, "H")
    assert str(err.value) == f"sigmoid_binomial second input must be 0 or 1, got {shown}"


def test_assign_protocol_values_and_bias():
    outs_diseased = [assign_protocol(stream(i), 1) for i in range(2000)]
    outs_healthy = [assign_protocol(stream(i), 0) for i in range(2000)]
    assert set(outs_diseased) <= {"A", "B"}
    b_diseased = outs_diseased.count("B") / 2000
    b_healthy = outs_healthy.count("B") / 2000
    assert abs(b_diseased - 0.7) < 0.05
    assert abs(b_healthy - 0.3) < 0.05


def test_create_airr_shape_and_protocol_stamp():
    seqs = create_airr(stream(), 1, 40, "B")
    assert len(seqs) == 8
    assert all(len(s) == 16 for s in seqs)
    assert all(set(s) <= set("ACGT") for s in seqs)
    assert all(s.startswith("TT") for s in seqs)
    seqs_a = create_airr(stream(), 0, 40, "A")
    assert not all(s.startswith("TT") for s in seqs_a)
    with pytest.raises(DomainError):
        create_airr(stream(), 0, 40, "C")


def test_disease_motif_enrichment():
    diseased = [create_airr(stream(i), 1, 20, "A") for i in range(100)]
    healthy = [create_airr(stream(i), 0, 20, "A") for i in range(100)]
    count = lambda reps: sum(s.count("GGGG") for rep in reps for s in rep)
    assert count(diseased) > 2 * count(healthy)


_u64 = st.integers(0, 2**64 - 1)


@settings(max_examples=EXAMPLES, deadline=None)
@given(disease=st.sampled_from([0, 1, True, False]),
       age=st.one_of(st.sampled_from([0, 200, 400]), st.integers(-10**6, -1), st.integers(0, 400)),
       protocol=st.sampled_from("AB"), seed=_u64, index=_u64, key=_u64, before=st.integers(0, 3))
@example(disease=True, age=400, protocol="B", seed=0, index=0, key=0, before=0)
@example(disease=False, age=-1, protocol="A", seed=1, index=2, key=3, before=3)
def test_create_airr_equals_scalar_reference(disease, age, protocol, seed, index, key, before):
    fast, scalar = RandomStream(seed, index, key), RandomStream(seed, index, key)
    for _ in range(before):
        assert fast.next_word() == scalar.next_word()
    assert create_airr(fast, disease, age, protocol) == reference_airr.create_airr(scalar, disease, age, protocol)
    assert fast.draw_counter == scalar.draw_counter
    assert fast.next_word() == scalar.next_word()


def test_create_airr_draw_count_is_the_documented_formula():
    # 8 x 16 sequence words, and per sequence one age float, one disease
    # float when diseased and one position word when that float is below 0.8
    counts = set()
    for i in range(200):
        for d in (0, 1):
            rng, twin = stream(i), stream(i)
            create_airr(rng, d, 40, "A")
            positions = 0
            for _ in range(8):
                twin.next_words(16)
                if d and twin.next_float() < 0.8:
                    twin.next_word()
                    positions += 1
                twin.next_float()
            assert rng.draw_counter == 8 * 16 + 8 + 8 * d + positions
            counts.add(rng.draw_counter)
    assert min(counts) == 136 and max(counts) == 152


def test_create_airr_rejects_bad_arguments_before_drawing():
    for args in [(2, 40, "A"), (1, 40.0, "A"), (1, True, "A"), (1, 40, "C"), (1, 10**400, "A")]:
        rng = stream()
        with pytest.raises(DomainError):
            create_airr(rng, *args)
        assert rng.draw_counter == 0


def test_encode_kmers_matches_library_vector():
    vec = encode_kmers(["ACGT", "AAAA"])
    assert len(vec) == 16
    assert sum(vec) == 2 * 3  # three overlapping 2-mers per length-4 sequence
    assert vec[0] == 3  # "AA" appears three times in "AAAA"


# --- each function against its composition of the private built-ins, draw for draw

def composed_complement_binomial(rng, p):
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise DomainError(f"complement_binomial expects a probability, got {_brief(p)}")
    return _binomial(rng, 1, 1.0 - _float(p, "complement_binomial probability"))


def composed_sigmoid_binomial(rng, a, b, label):
    bias, wa, wb = _SIGMOID_PRESETS[label]
    return _binomial(rng, 1, _sigmoid(bias + wa * _flag01(a, "a") + wb * _flag01(b, "b")))


def composed_create_airr(rng, disease, age, protocol):
    # each sequence's characters from the low-byte table of random_seq, the motifs by implant
    seqs = []
    for _ in range(8):
        s = _random_seq(rng, "ACGT", 16)
        if disease and rng.next_float() < 0.8:
            s = _implant(s, "GGGG", rng.next_word() % 13)
        if rng.next_float() < _float(age, "age") / 200.0:
            s = _implant(s, "AAAA", 12)
        seqs.append(_implant(s, "TT", 0) if protocol == "B" else s)
    return seqs


def composed_image(h, v, r, c):
    img = _tensor_zeros([IMAGE_SIZE, IMAGE_SIZE])
    if h:
        img = _tensor_fill_rect(img, 7, 1, 9, 15, 1.0)
    if v:
        img = _tensor_fill_rect(img, 1, 7, 15, 9, 1.0)
    if r:
        img = _tensor_fill_rect(img, 2, 2, 6, 6, 0.5)
    if c:
        img = _tensor_fill_rect(img, 10, 10, 14, 14, 0.75)
    return img


def _outcome(fn, rng, *args):
    """``fn``'s value or error, the counter it leaves and the word after it."""
    try:
        value = fn(rng, *args)
    except DomainError as err:
        value = (type(err), str(err))
    return value, type(value), rng.draw_counter, rng.next_word()


def _twins(seed, index, key, before):
    twins = RandomStream(seed, index, key), RandomStream(seed, index, key)
    for rng in twins:
        rng.skip(before)
    return twins


_PROBABILITIES = st.one_of(st.floats(0, 1), st.floats(), st.integers(-2, 2), st.booleans(),
                           st.sampled_from([10**400, -10**400, 0.0, 1.0, -0.0, 5e-324, "p", None]))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seed=_u64, index=_u64, key=_u64, before=st.integers(0, 3), p=_PROBABILITIES,
       a=st.sampled_from([0, 1, True, False]), b=st.sampled_from([0, 1, True, False]),
       label=st.sampled_from(sorted(_SIGMOID_PRESETS)), disease=st.sampled_from([0, 1, True, False]),
       age=st.integers(-10, 410) | st.sampled_from([0, 200, 10**6]), protocol=st.sampled_from("AB"))
def test_the_stochastic_functions_equal_their_private_compositions(
        seed, index, key, before, p, a, b, label, disease, age, protocol):
    for fn, composed, args in [
        (complement_binomial, composed_complement_binomial, (p,)),
        (sigmoid_binomial, composed_sigmoid_binomial, (a, b, label)),
        (create_airr, composed_create_airr, (disease, age, protocol)),
    ]:
        public, private = _twins(seed, index, key, before)
        assert _outcome(fn, public, *args) == _outcome(composed, private, *args), fn.__name__


_BOUNDARY_CASES = [
    (complement_binomial, composed_complement_binomial, (p,), 1.0 - p) for p in (0.5, 0.1, 0.75, 2**-40)
] + [
    (sigmoid_binomial, composed_sigmoid_binomial, (a, b, label), _sigmoid(bias + wa * a + wb * b))
    for label, (bias, wa, wb) in sorted(_SIGMOID_PRESETS.items()) for a in (0, 1) for b in (0, 1)
]


@pytest.mark.parametrize("fn, composed, args, p", _BOUNDARY_CASES)
def test_a_draw_at_the_probability_fails_as_in_the_private_composition(fn, composed, args, p):
    # a float is k * 2**-53, so the draw just below p succeeds and the one at or above it fails
    if fn is sigmoid_binomial:
        assert examplefns._SIGMOID_P[args[2], args[0], args[1]] == p
    for k, hit in [(math.ceil(p * 2**53) - 1, 1), (math.ceil(p * 2**53), 0)]:
        results = []
        for f in (fn, composed):
            rng = RandomStream(0)
            rng._word1 = k << 11
            results.append((f(rng, *args), rng.draw_counter))
        assert results == [(hit, 1)] * 2


@settings(max_examples=EXAMPLES, deadline=None)
@given(airr=st.lists(st.text("ACGT", max_size=20), max_size=8)
       | st.lists(st.text("ACGTN\x00", max_size=6) | st.integers(), max_size=3) | st.just("ACGT"))
def test_encode_kmers_equals_the_private_kmer_counts(airr):
    def outcome(fn, *args):
        try:
            return fn(*args)
        except DomainError as err:
            return type(err), str(err)
    assert outcome(encode_kmers, airr) == outcome(_kmer_counts, airr, 2, "ACGT")


@pytest.mark.parametrize("flags", list(itertools.product((0, 1), repeat=4)))
def test_draw_image_equals_the_private_tensor_composition(flags):
    img, composed = draw_image(*flags), composed_image(*flags)
    assert (img.shape, img.data, csv_cell(img)) == (composed.shape, composed.data, csv_cell(composed))
    assert list(map(type, img.shape)) == [int, int] and {type(x) for x in img.data} == {float}


def test_the_example_functions_use_no_private_name_of_the_engine():
    # a host writes its functions on the public API; values._brief only bounds error messages
    tree = ast.parse(Path(examplefns.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert [(module, name) for module, name in imported if name.startswith("_")] == [("values", "_brief")]
    # nor reaches one through an attribute, such as a stream's words
    assert not [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
