"""Host-registered generator functions used by the bundled example models.

They use the public host API only, as any host's would: ``RandomStream``
draws, ``Tensor(...)`` and ``build_registry().lookup(name)``.  All
coefficients and layout constants below are this package's choices and are
documented here, next to the code that uses them.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .errors import DomainError
from .registry import FunctionRegistry, register_host_function
from .stdlib import build_registry
from .values import Tensor, _brief

if TYPE_CHECKING:  # pragma: no cover
    from .rng import RandomStream

__all__ = ["register_example_functions"]

_BUILTINS = build_registry()

# logistic coefficients (bias, weight_a, weight_b) selected per preset label
_SIGMOID_PRESETS = {
    "H": (-2.0, 1.5, 2.5),
    "V": (-1.5, 2.0, 1.0),
}
# sigmoid_binomial's success probability per (label, a, b), from the built-in sigmoid
_SIGMOID_P = {(label, a, b): _BUILTINS.lookup("sigmoid").impl(bias + wa * a + wb * b)
              for label, (bias, wa, wb) in _SIGMOID_PRESETS.items() for a in (0, 1) for b in (0, 1)}

IMAGE_SIZE = 16
# drawImage's overlays in argument order, each rows [r0, r1) x cols [c0, c1) set to a value:
# a horizontal bar, a vertical bar, a top-left block and a bottom-right block
_OVERLAYS = ((7, 1, 9, 15, 1.0), (1, 7, 15, 9, 1.0), (2, 2, 6, 6, 0.5), (10, 10, 14, 14, 0.75))

# AIRR simulation constants
_ALPHABET = "ACGT"
_N_SEQUENCES = 8
_SEQ_LEN = 16
_DISEASE_MOTIF = "GGGG"     # implanted with prob 0.8 when diseased
_AGE_MOTIF = "AAAA"         # implanted with prob age/200 (age-dependent mark)
_PROTOCOL_MOTIF = "TT"      # 5'-end bias introduced by protocol "B"
_KMER_K = 2
_DISEASE_POSITIONS = _SEQ_LEN - len(_DISEASE_MOTIF) + 1
# the most draws one create_airr call can take: per sequence, its words and three more
_AIRR_DRAWS = _N_SEQUENCES * (_SEQ_LEN + 3)
# a word w's character is _ALPHABET[w % 4]; 4 divides 256, so its low byte decides it
_CHAR_OF_LOW_BYTE = _ALPHABET.encode("ascii") * (256 // len(_ALPHABET))
_KMER_COUNTS = _BUILTINS.lookup("kmer_counts").impl


def _flag01(x, what: str) -> int:
    if type(x) is int and (x == 0 or x == 1):
        return x
    if isinstance(x, int) and x in (0, 1):  # a bool too
        return int(x)
    raise DomainError(f"{what} must be 0 or 1, got {_brief(x)}")


def _real(x: int | float, what: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is too large for a 64-bit real") from None


def complement_binomial(rng: RandomStream, p) -> int:
    """Bernoulli draw with success probability 1 - p. One raw draw."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise DomainError(f"complement_binomial expects a probability, got {_brief(p)}")
    q = 1.0 - _real(p, "complement_binomial probability")
    if not 0.0 <= q <= 1.0:  # also a NaN
        raise DomainError(f"binomial requires 0 <= p <= 1, got {q}")
    return 1 if rng.next_float() < q else 0


def sigmoid_binomial(rng: RandomStream, a, b, label) -> int:
    """Bernoulli draw with p = sigmoid(bias + wa*a + wb*b).

    ``label`` selects the coefficient preset (see _SIGMOID_PRESETS).
    One raw draw.
    """
    if not isinstance(label, str) or label not in _SIGMOID_PRESETS:
        raise DomainError(f"sigmoid_binomial preset label must be one of {sorted(_SIGMOID_PRESETS)}, got {_brief(label)}")
    a = _flag01(a, "sigmoid_binomial first input")
    b = _flag01(b, "sigmoid_binomial second input")
    return 1 if rng.next_float() < _SIGMOID_P[label, a, b] else 0


def draw_image(h, v, r, c) -> Tensor:
    """Deterministic 16x16 image: one overlay per active indicator.

    Overlays are applied in argument order, later ones painting over
    earlier ones where they overlap.  Every call checks its inputs; the
    16 possible images are built once each and then shared (tensors are
    immutable).
    """
    # in argument order, so the first bad input is the one named
    return _image(_flag01(h, "draw_image input 0"), _flag01(v, "draw_image input 1"),
                  _flag01(r, "draw_image input 2"), _flag01(c, "draw_image input 3"))


@functools.lru_cache(maxsize=16)
def _image(h: int, v: int, r: int, c: int) -> Tensor:
    data = [0.0] * (IMAGE_SIZE * IMAGE_SIZE)
    for on, (r0, c0, r1, c1, value) in zip((h, v, r, c), _OVERLAYS):
        if on:
            for start in range(r0 * IMAGE_SIZE + c0, r1 * IMAGE_SIZE + c0, IMAGE_SIZE):
                data[start:start + c1 - c0] = [value] * (c1 - c0)
    return Tensor((IMAGE_SIZE, IMAGE_SIZE), data)


def assign_protocol(rng: RandomStream, disease) -> str:
    """Protocol "B" with prob 0.7 for diseased subjects, 0.3 otherwise. One raw draw."""
    d = _flag01(disease, "assign_protocol disease")
    p_b = 0.7 if d else 0.3
    return "B" if rng.next_float() < p_b else "A"


def create_airr(rng: RandomStream, disease, age, protocol) -> list[str]:
    """Simulate a repertoire: a list of sequences carrying signal motifs.

    Disease implants _DISEASE_MOTIF per-sequence with prob 0.8 at a random
    position; age implants _AGE_MOTIF with prob age/200; protocol "B"
    stamps _PROTOCOL_MOTIF at the 5' end of every sequence.

    Draws, per sequence in order: _SEQ_LEN words for its characters, then
    when diseased one float for the disease motif and, when that float is
    below 0.8, one word for its position, then one float for the age motif.
    That is 8 x 16 sequence words plus 8 to 24 more: 136 to 152 in all.
    """
    d = _flag01(disease, "create_airr disease")
    if isinstance(age, bool) or not isinstance(age, int):
        raise DomainError(f"create_airr age must be an integer, got {_brief(age)}")
    if protocol not in ("A", "B"):
        raise DomainError(f"create_airr protocol must be 'A' or 'B', got {_brief(protocol)}")
    p_age = _real(age, "create_airr age") / 200.0
    # every draw comes from one look-ahead over the largest budget; a float
    # is (word >> 11) * 2**-53, as in RandomStream.next_float
    words, low = rng.peek(_AIRR_DRAWS)
    chars = low.translate(_CHAR_OF_LOW_BYTE).decode("latin-1")
    stamp = protocol == "B"
    seqs = []
    i = 0
    for _ in range(_N_SEQUENCES):
        s = chars[i:i + _SEQ_LEN]
        i += _SEQ_LEN
        if d:
            i += 1
            if (words[i - 1] >> 11) * 2.0**-53 < 0.8:
                pos = words[i] % _DISEASE_POSITIONS
                i += 1
                s = s[:pos] + _DISEASE_MOTIF + s[pos + len(_DISEASE_MOTIF):]
        if (words[i] >> 11) * 2.0**-53 < p_age:
            s = s[:_SEQ_LEN - len(_AGE_MOTIF)] + _AGE_MOTIF
        i += 1
        if stamp:
            s = _PROTOCOL_MOTIF + s[len(_PROTOCOL_MOTIF):]
        seqs.append(s)
    rng.skip(i)
    return seqs


def encode_kmers(airr) -> list[int]:
    """Overlapping k-mer count vector (k=2 over ACGT, length 16), by the built-in kmer_counts."""
    return _KMER_COUNTS(airr, _KMER_K, _ALPHABET)


def register_example_functions(registry: FunctionRegistry) -> None:
    """Install the example helpers; names must not collide with built-ins."""
    register_host_function(registry, "complement_binomial", 1, True, complement_binomial)
    register_host_function(registry, "sigmoid_binomial", 3, True, sigmoid_binomial)
    register_host_function(registry, "drawImage", 4, False, draw_image)
    register_host_function(registry, "assign_protocol", 1, True, assign_protocol)
    register_host_function(registry, "create_airr", 3, True, create_airr)
    register_host_function(registry, "encode_kmers", 1, False, encode_kmers)
