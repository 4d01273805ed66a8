"""Every function of the default registry, called with extreme arguments.

Each call must return an engine value or raise DomainError: no other
exception, and no call that runs long or allocates much.  Every size
argument (a trial count, a rate, a length, a dimension, a k-mer length) is
drawn at most 64 or past its limit, because a call at the limit is legal but
slow (``binomial(1 << 20, p)`` takes about a second and a half).

Each function gets half the examples of the Hypothesis profile, and
``HYPOTHESIS_PROFILE=ci`` gives ten times as many (tests/conftest.py).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dagforge import MISSING, RandomStream, Tensor, build_registry, register_example_functions, type_name
from dagforge.errors import DomainError

REGISTRY = build_registry()
register_example_functions(REGISTRY)

_ints = st.one_of(
    st.integers(-64, 64),
    # the largest have just under 4300 digits, the most Hypothesis can print
    st.sampled_from([2**70, -(2**70), 2**63, -(2**63), 2**14000, -(10**4000)]),
    st.integers(1 << 21, 1 << 80),
    st.integers(-(1 << 80), -65),
)
_floats = st.one_of(
    st.floats(-64.0, 64.0),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, -1e300, 2.0**70]),
)
# preset labels and protocols, sequence characters, and text beyond Latin-1
_strings = st.one_of(
    st.sampled_from(["", "A", "B", "H", "V", "ACGT", "GGGG", "αβγδ", "中\U0001f600"]),
    st.text(max_size=8),
)


@st.composite
def _tensors(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    return Tensor(tuple(shape), tuple(draw(st.lists(_floats, min_size=math.prod(shape), max_size=math.prod(shape)))))


_scalars = st.one_of(st.booleans(), _ints, _floats, _strings, st.just(MISSING), _tensors())
_values = st.one_of(
    st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=6),
    # lists the functions accept: probabilities, sequences, a shape
    st.sampled_from([[1.0], [0.5, 0.5], ["ACGT", "GGTA"], [4, 4], [[]]]),
)


def _check_value(v):
    type_name(v)
    if isinstance(v, list):
        for item in v:
            _check_value(item)


def _calls(name):
    """The arguments of one call of ``name``: a stream first when it draws, then a valid count of values."""
    entry = REGISTRY.lookup(name)
    high = entry.arity.high if entry.arity.high is not None else entry.arity.low + 2
    args = st.integers(entry.arity.low, high).flatmap(lambda n: st.lists(_values, min_size=n, max_size=n))
    if not entry.stochastic:
        return args
    streams = st.builds(RandomStream, *[st.integers(0, 2**64 - 1)] * 3)
    return st.builds(lambda rng, rest: [rng, *rest], streams, args)


@pytest.mark.parametrize("name", REGISTRY.names())
# half the profile's count per function keeps the module within ~10 s
@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(data=st.data())
def test_every_function_returns_a_value_or_raises_domain_error(name, data):
    args = data.draw(_calls(name), label="arguments")
    try:
        result = REGISTRY.lookup(name).impl(*args)
    except DomainError:
        return
    _check_value(result)
