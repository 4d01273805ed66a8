"""Built-in function library.

Every stochastic built-in consumes a documented, fixed number of raw draws
per call (given its arguments), so a node's draw counter advances the same
way on every run:

    uniform 1 | binomial n | randint 1 | normal 2 | poisson max(1, ceil(lam/500))
    categorical 1 | choice 1 | random_seq length

The full reference (domains, distributions) lives in docs/stdlib.md.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .registry import FunctionRegistry
from .values import Tensor, Value, _brief, type_name

if TYPE_CHECKING:  # pragma: no cover
    from .rng import RandomStream

__all__ = ["build_registry"]

# Cost and size limits, checked before the first draw or allocation (docs/stdlib.md)
MAX_BINOMIAL_TRIALS = 1 << 20  # n of one binomial draw, which takes n words
MAX_POISSON_RATE = 1 << 20  # lam of one poisson draw, whose cost grows with lam
MAX_SEQ_LENGTH = 1 << 20  # characters of one random_seq string, one word each
MAX_CONCAT_LENGTH = 1 << 20  # characters or items of one concat result
MAX_KMER_TABLE = 1 << 20  # counters in one kmer_counts vector, len(alphabet) ** k
MAX_TENSOR_ELEMENTS = 1 << 20  # elements of one tensor_zeros tensor, the product of its dims

_PEEK = 1024  # the most words RandomStream.peek shows at once (docs/stdlib.md)


# --- argument checks -----------------------------------------------------

# Each check tries the exact built-in type first: engine values have it, so the
# common case costs one comparison.

def _number(x: Value, what: str) -> int | float:
    if type(x) is float or type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"{what} must be a number, got {type_name(x)}")
    return x


def _float(x: Value, what: str) -> float:
    if type(x) is float:
        return x
    try:
        return float(x if type(x) is int else _number(x, what))
    except OverflowError:
        raise DomainError(f"{what} is too large for a 64-bit real") from None


def _int(x: Value, what: str) -> int:
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} must be an integer, got {type_name(x)}")
    return x


def _str(x: Value, what: str) -> str:
    if type(x) is str:
        return x
    if not isinstance(x, str):
        raise DomainError(f"{what} must be a string, got {type_name(x)}")
    return x


def _list(x: Value, what: str) -> list:
    if not isinstance(x, list):
        raise DomainError(f"{what} must be a list, got {type_name(x)}")
    return x


def _probs(x: Value, what: str) -> list[float]:
    ps = [_float(p, f"{what} entry") for p in _list(x, what)]
    if not ps:
        raise DomainError(f"{what} must be non-empty")
    if any(p < 0 for p in ps):
        raise DomainError(f"{what} entries must be non-negative")
    total = sum(ps)
    if not abs(total - 1.0) <= 1e-9:  # so is a NaN or infinite entry, which makes the sum non-finite
        if not math.isfinite(total):
            raise DomainError(f"{what} entries must be finite reals")
        raise DomainError(f"{what} must sum to 1 (got {total!r})")
    return ps


# --- distributions -------------------------------------------------------

def _uniform(rng: RandomStream, a, b):
    a, b = _float(a, "uniform lower bound"), _float(b, "uniform upper bound")
    width = b - a
    if not 0.0 <= width < math.inf:  # also a NaN or infinite bound, or a width past the float range
        if a > b and math.isfinite(a) and math.isfinite(b):
            raise DomainError(f"uniform requires a <= b, got ({a}, {b})")
        raise DomainError(f"uniform requires finite bounds a <= b whose difference is finite, got ({a}, {b})")
    if rng.draw_counter:
        u = rng.next_float()
    else:  # a fresh stream: its first word is already mixed
        rng.draw_counter = 1
        u = (rng._word1 >> 11) * 2.0**-53
    return a + width * u


def _binomial(rng: RandomStream, n, p):
    n = _int(n, "binomial trial count")
    p = _float(p, "binomial probability")
    if not 0 <= n <= MAX_BINOMIAL_TRIALS:
        if n < 0:
            raise DomainError(f"binomial requires n >= 0, got {_brief(n)}")
        raise DomainError(f"binomial trial count {_brief(n)} is larger than the limit of {MAX_BINOMIAL_TRIALS}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial requires 0 <= p <= 1, got {p}")
    k = 0
    for _ in range(n):
        if rng.next_float() < p:
            k += 1
    return k


def _randint(rng: RandomStream, lo, hi):
    lo, hi = _int(lo, "randint lower bound"), _int(hi, "randint upper bound")
    if lo >= hi:
        raise DomainError(f"randint requires lo < hi (half-open range), got ({_brief(lo)}, {_brief(hi)})")
    if rng.draw_counter:
        return lo + rng.next_word() % (hi - lo)
    rng.draw_counter = 1
    return lo + rng._word1 % (hi - lo)


def _normal(rng: RandomStream, mu, sigma):
    mu, sigma = _float(mu, "normal mean"), _float(sigma, "normal sd")
    if sigma < 0:
        raise DomainError(f"normal requires sigma >= 0, got {sigma}")
    # Box-Muller cosine branch; exactly 2 raw draws, discarding none
    if rng.draw_counter:
        w1, w2 = rng.next_word(), rng.next_word()
    else:
        rng.draw_counter = 2
        w1, w2 = rng._word1, rng._word2
    u1 = ((w1 >> 11) + 1) * 2.0**-53  # (0, 1]
    u2 = (w2 >> 11) * 2.0**-53
    x = mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    if -math.inf < x < math.inf:  # not so for a NaN or infinite argument, or a result past the float range
        return x
    raise DomainError(f"normal requires finite mu and sigma and a finite result, got ({mu}, {sigma})")


def _poisson(rng: RandomStream, lam):
    lam = _float(lam, "poisson rate")
    if not 0 <= lam < math.inf:
        raise DomainError(f"poisson requires a finite lam >= 0, got {lam}")
    if lam > MAX_POISSON_RATE:
        raise DomainError(f"poisson rate {lam} is larger than the limit of {MAX_POISSON_RATE}")
    # split into chunks of rate <= 500 (Poisson additivity) so exp() never
    # underflows; draw count is max(1, ceil(lam/500))
    chunks = max(1, math.ceil(lam / 500.0))
    rate = lam / chunks
    total = 0
    for _ in range(chunks):
        u = rng.next_float()
        p = math.exp(-rate)
        cum = p
        k = 0
        cap = int(rate + 10.0 * math.sqrt(rate) + 50.0)
        while u >= cum and k < cap:
            k += 1
            p *= rate / k
            cum += p
        total += k
    return total


def _pick(rng: RandomStream, ps: list[float]) -> int:
    u = rng.next_float()
    cum = 0.0
    for i, p in enumerate(ps):
        cum += p
        if u < cum:
            return i
    return len(ps) - 1


def _categorical(rng: RandomStream, probs):
    return _pick(rng, _probs(probs, "categorical probabilities"))


def _choice(rng: RandomStream, items, probs):
    items = _list(items, "choice items")
    ps = _probs(probs, "choice probabilities")
    if len(items) != len(ps):
        raise DomainError(f"choice requires len(items) == len(probs), got {len(items)} vs {len(ps)}")
    return items[_pick(rng, ps)]


def _random_seq(rng: RandomStream, alphabet, length):
    alphabet = _str(alphabet, "random_seq alphabet")
    length = _int(length, "random_seq length")
    if not alphabet:
        raise DomainError("random_seq alphabet must be non-empty")
    if length < 0:
        raise DomainError(f"random_seq length must be >= 0, got {_brief(length)}")
    if length > MAX_SEQ_LENGTH:
        raise DomainError(f"random_seq length {_brief(length)} is larger than the limit of {MAX_SEQ_LENGTH}")
    k = len(alphabet)
    # when k divides 256, w % k == (w & 0xFF) % k: the low byte of a word is enough
    table = None if 256 % k else _byte_table(alphabet)
    parts = []
    for start in range(0, length, _PEEK):
        words, low = rng.peek(min(_PEEK, length - start))
        rng.skip(len(low))
        if table is None:
            parts.append("".join([alphabet[w % k] for w in words]))
        elif type(table) is bytes:
            parts.append(low.translate(table).decode("latin-1"))
        else:
            parts.append(low.decode("latin-1").translate(table))
    return "".join(parts)


@functools.lru_cache(maxsize=64)
def _byte_table(alphabet: str) -> bytes | str:
    """Table from a word's low byte to its character: ``bytes`` for a Latin-1 alphabet, else ``str``."""
    k = len(alphabet)
    chars = "".join([alphabet[b % k] for b in range(256)])
    try:
        return chars.encode("latin-1")
    except UnicodeEncodeError:
        return chars


# --- pure math ------------------------------------------------------------

def _sigmoid(x):
    x = _float(x, "sigmoid argument")
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _exp(x):
    try:
        return math.exp(_float(x, "exp argument"))
    except OverflowError:
        raise DomainError(f"exp overflow for argument {x!r}") from None


def _log(x):
    x = _float(x, "log argument")
    if x <= 0.0:
        raise DomainError(f"log requires a positive argument, got {x}")
    return math.log(x)


def _abs(x):
    return abs(_number(x, "abs argument"))


def _min(*args):
    return min(_number(a, "min argument") for a in args)


def _max(*args):
    return max(_number(a, "max argument") for a in args)


def _clamp(x, lo, hi):
    x = _number(x, "clamp value")
    lo = _number(lo, "clamp lower bound")
    hi = _number(hi, "clamp upper bound")
    if lo > hi:
        raise DomainError(f"clamp requires lo <= hi, got ({_brief(lo)}, {_brief(hi)})")
    return lo if x < lo else hi if x > hi else x


def _finite(x, what: str) -> int | float:
    x = _number(x, what)
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x}")
    return x


def _floor(x):
    return math.floor(_finite(x, "floor argument"))


def _round(x):
    # banker's rounding, matching the host language convention
    return round(_finite(x, "round argument"))


def _get(xs, i):
    xs = _list(xs, "get target")
    i = _int(i, "get index")
    if not 0 <= i < len(xs):
        raise DomainError(f"get index {_brief(i)} out of range for list of length {len(xs)}")
    return xs[i]


def _len(x):
    if isinstance(x, (list, str)):
        return len(x)
    raise DomainError(f"len requires a list or string, got {type_name(x)}")


def _concat(a, b):
    if not (isinstance(a, str) and isinstance(b, str) or isinstance(a, list) and isinstance(b, list)):
        raise DomainError(f"concat requires two strings or two lists, got {type_name(a)} and {type_name(b)}")
    if len(a) + len(b) > MAX_CONCAT_LENGTH:
        raise DomainError(f"concat result of {len(a) + len(b)} {'characters' if isinstance(a, str) else 'items'} "
                          f"is longer than the limit of {MAX_CONCAT_LENGTH}")
    return a + b


# --- sequence / tensor helpers ---------------------------------------------

def _implant(seq, motif, pos):
    seq = _str(seq, "implant sequence")
    motif = _str(motif, "implant motif")
    pos = _int(pos, "implant position")
    if pos < 0 or pos + len(motif) > len(seq):
        raise DomainError(
            f"implant position {_brief(pos)} with motif length {len(motif)} "
            f"does not fit in sequence of length {len(seq)}"
        )
    return seq[:pos] + motif + seq[pos + len(motif):]


def _kmer_counts(seqs, k, alphabet):
    seqs = _list(seqs, "kmer_counts sequences")
    k = _int(k, "kmer_counts k")
    alphabet = _str(alphabet, "kmer_counts alphabet")
    if k < 1:
        raise DomainError(f"kmer_counts requires k >= 1, got {_brief(k)}")
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise DomainError("kmer_counts alphabet must be non-empty without repeats")
    base = len(alphabet)
    # from this k on even 2**k passes the limit, so a huge k is never used as an exponent
    if base > 1 and (k >= MAX_KMER_TABLE.bit_length() or base**k > MAX_KMER_TABLE):
        raise DomainError(
            f"kmer_counts table of {base}**{_brief(k)} counters is larger than the limit of {MAX_KMER_TABLE}")
    # B**8 >= 256 and B**1 >= 256 past 254 letters, for B = base + 1: tested first, so a huge k
    # never reaches the power, and neither a huge k nor a long alphabet the cache
    if k < 8 and base < 255 and (lanes := _kmer_lanes(alphabet, k)) is not None:
        table, codes = lanes
        try:
            digits = "\x00".join(seqs).encode("latin-1").translate(table)
        except (TypeError, UnicodeEncodeError):  # a non-string or non-Latin-1 element: the loop names it
            digits = b"\xff"
        # no character outside the alphabet, and no separator but the len(seqs) - 1 joins
        if 255 not in digits and digits.count(base) == len(seqs) - 1:
            # one byte a lane: lane i ends as the B-code of the window that starts at digit i
            m = max(len(digits) - k + 1, 0)
            code = 0
            for j in range(k):
                code = code * (base + 1) + int.from_bytes(digits[j:m + j], "big")
            windows = code.to_bytes(m, "big")
            return [windows.count(c) for c in codes]
    index = {c: i for i, c in enumerate(alphabet)}
    size = base**k
    counts = [0] * size
    for s in seqs:
        s = _str(s, "kmer_counts sequence")
        # rolling code of the window ending at each character; the first
        # k - 1 characters only start the first window
        chars = iter(s)
        code = 0
        try:
            for c in itertools.islice(chars, min(k - 1, len(s))):
                code = code * base + index[c]
            for c in chars:
                code = (code * base + index[c]) % size
                counts[code] += 1
        except KeyError:
            bad = sorted(set(s).difference(index))
            raise DomainError(f"sequence contains characters outside the alphabet: {bad}") from None
    return counts


@functools.lru_cache(maxsize=64)
def _kmer_lanes(alphabet: str, k: int) -> tuple[bytes, bytes] | None:
    """Tables to count k-mers one byte per lane, or None when a window's code does not fit a byte.

    The translate table maps each alphabet character to its digit, the separator
    "\\x00" to ``base = len(alphabet)`` and every other byte to 255. A window's
    code in base ``B = base + 1`` is below ``B**k < 256``, so the lanes never
    carry into each other, and one that crosses a separator holds the digit
    ``base`` and equals no table code. The codes are the B-codes of the table's
    indices, in lexicographic order.
    """
    base = len(alphabet)
    if (base + 1)**k >= 256 or max(alphabet) > "\xff":
        return None
    table = bytearray(b"\xff" * 256)
    for i, c in enumerate(alphabet):
        table[ord(c)] = i
    table[0] = base  # even when "\x00" is a letter: a sequence holding it adds a separator, so the loop counts
    codes = [0]
    for _ in range(k):
        codes = [c * (base + 1) + d for c in codes for d in range(base)]
    return bytes(table), bytes(codes)


def _tensor_zeros(shape):
    dims = [_int(d, "tensor_zeros dimension") for d in _list(shape, "tensor_zeros shape")]
    if not dims or any(d < 1 for d in dims):
        raise DomainError(f"tensor_zeros dimensions must be >= 1, got {_brief(dims)}")
    size = 1
    for d in dims:  # stops at the first partial product past the limit, however many dims follow
        size *= d
        if size > MAX_TENSOR_ELEMENTS:
            raise DomainError(
                f"tensor_zeros shape {_brief(dims)} has more elements than the limit of {MAX_TENSOR_ELEMENTS}")
    return Tensor._trusted(tuple(dims), (0.0,) * size)


def _tensor_fill_rect(t, r0, c0, r1, c1, v):
    if not isinstance(t, Tensor):
        raise DomainError(f"tensor_fill_rect requires a tensor, got {type_name(t)}")
    if len(t.shape) != 2:
        raise DomainError(f"tensor_fill_rect requires a 2-D tensor, got shape {list(t.shape)}")
    rows, cols = t.shape
    r0, c0 = _int(r0, "rectangle r0"), _int(c0, "rectangle c0")
    r1, c1 = _int(r1, "rectangle r1"), _int(c1, "rectangle c1")
    v = _float(v, "fill value")
    if not (0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols):
        raise DomainError(
            f"rectangle ({_brief(r0)},{_brief(c0)})..({_brief(r1)},{_brief(c1)}) out of range for shape {list(t.shape)}"
        )
    data = list(t.data)
    fill = [v] * (c1 - c0)
    for start in range(r0 * cols + c0, r1 * cols + c0, cols):
        data[start:start + len(fill)] = fill
    return Tensor._trusted(t.shape, tuple(data))


_BUILTINS = [
    # (name, arity, stochastic, impl)
    ("uniform", 2, True, _uniform),
    ("binomial", 2, True, _binomial),
    ("randint", 2, True, _randint),
    ("normal", 2, True, _normal),
    ("poisson", 1, True, _poisson),
    ("categorical", 1, True, _categorical),
    ("choice", 2, True, _choice),
    ("random_seq", 2, True, _random_seq),
    ("sigmoid", 1, False, _sigmoid),
    ("exp", 1, False, _exp),
    ("log", 1, False, _log),
    ("abs", 1, False, _abs),
    ("min", (2, None), False, _min),
    ("max", (2, None), False, _max),
    ("clamp", 3, False, _clamp),
    ("floor", 1, False, _floor),
    ("round", 1, False, _round),
    ("get", 2, False, _get),
    ("len", 1, False, _len),
    ("concat", 2, False, _concat),
    ("implant", 3, False, _implant),
    ("kmer_counts", 3, False, _kmer_counts),
    ("tensor_zeros", 1, False, _tensor_zeros),
    ("tensor_fill_rect", 6, False, _tensor_fill_rect),
]


def build_registry() -> FunctionRegistry:
    """Fresh registry with all built-ins installed."""
    reg = FunctionRegistry()
    for name, arity, stochastic, impl in _BUILTINS:
        reg.add_builtin(name, arity, stochastic, impl)
    return reg
