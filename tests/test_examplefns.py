import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_airr
from dagforge import RandomStream, csv_cell, values_equal
from dagforge.errors import DomainError
from dagforge.examplefns import (
    IMAGE_SIZE,
    _flag01,
    _image,
    assign_protocol,
    complement_binomial,
    create_airr,
    draw_image,
    encode_kmers,
    sigmoid_binomial,
)


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


@settings(max_examples=300, deadline=None)
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
