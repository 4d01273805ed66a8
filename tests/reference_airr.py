"""A scalar reference for ``dagforge.examplefns.create_airr``.

It draws one word or float at a time with ``next_word`` and ``next_float``
and implants each motif with a checked splice, in the order the docstring of
``create_airr`` states, so the look-ahead version can be checked against it:
the same sequences, the same ``draw_counter`` and the same next word.
Arguments are assumed valid; the argument checks are tested on their own.
"""

ALPHABET = "ACGT"
N_SEQUENCES = 8
SEQ_LEN = 16
DISEASE_MOTIF = "GGGG"
AGE_MOTIF = "AAAA"
PROTOCOL_MOTIF = "TT"


def random_seq(rng, alphabet, length):
    return "".join(alphabet[rng.next_word() % len(alphabet)] for _ in range(length))


def implant(seq, motif, pos):
    assert 0 <= pos and pos + len(motif) <= len(seq)
    return seq[:pos] + motif + seq[pos + len(motif):]


def create_airr(rng, disease, age, protocol):
    p_age = float(age) / 200.0
    seqs = []
    for _ in range(N_SEQUENCES):
        s = random_seq(rng, ALPHABET, SEQ_LEN)
        if disease and rng.next_float() < 0.8:
            pos = rng.next_word() % (SEQ_LEN - len(DISEASE_MOTIF) + 1)
            s = implant(s, DISEASE_MOTIF, pos)
        if rng.next_float() < p_age:
            s = implant(s, AGE_MOTIF, SEQ_LEN - len(AGE_MOTIF))
        if protocol == "B":
            s = implant(s, PROTOCOL_MOTIF, 0)
        seqs.append(s)
    return seqs
