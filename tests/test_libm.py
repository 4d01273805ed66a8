"""Known-answer vectors for the three C library functions that output bytes
rest on.

``normal`` calls ``math.log`` and ``math.cos`` on arguments it forms from
stream words, and ``exp``, ``sigmoid`` and ``poisson`` call ``math.exp``.
C leaves the rounding of these functions to the C library, so the
reproducibility contract (FORMATS.md, "Reproducibility") holds only where
they give the bits recorded here, as glibc 2.36 does on x86-64.  Each
vector is literal: an input and its result as ``float.hex`` text.  The
cases marked "not correctly rounded" are ones where glibc's result is not
the double nearest the exact value (found with a 300-bit reference; the
comment gives the error in ulp).  A C library that rounds them correctly
fails here, by name, and would change about 0.2 % of ``normal`` draws.
"""

import math

import pytest

from conftest import pointed
from dagforge import stdlib

# (k, argument, log(argument)): k is a stream word's top 53 bits, and
# ``normal`` takes the log of (k + 1) * 2**-53, in (0, 1]
LOG = [
    (0x0, "0x1.0000000000000p-53", "-0x1.25e4f7b2737fap+5"),
    (0x1, "0x1.0000000000000p-52", "-0x1.205966f2b4f12p+5"),
    (0xfffffffffffff, "0x1.0000000000000p-1", "-0x1.62e42fefa39efp-1"),
    (0x10000000000000, "0x1.0000000000001p-1", "-0x1.62e42fefa39edp-1"),
    (0x1ffffffffffffe, "0x1.fffffffffffffp-1", "-0x1.0000000000000p-53"),
    (0x1fffffffffffff, "0x1.0000000000000p+0", "0x0.0p+0"),
    (0x1e54e952e6b438, "0x1.e54e952e6b439p-1", "-0x1.b69fd98ce99e1p-5"),
    (0xca264269e0d37, "0x1.944c84d3c1a70p-2", "-0x1.dbcf7bab5913cp-1"),
    (0x18b8fa6a3a450, "0x1.8b8fa6a3a4510p-5", "-0x1.83eaf671f610fp+1"),
    (0x1a47e1128b2f33, "0x1.a47e1128b2f34p-1", "-0x1.933f4fed05f86p-3"),
    (0x3031d892f902b, "0x1.818ec497c8160p-4", "-0x1.2e7940b857a5cp+1"),
    (0x12a6335d9dc9f8, "0x1.2a6335d9dc9f9p-1", "-0x1.1471e7351baacp-1"),
    # not correctly rounded
    (0x1c8442a999b7b0, "0x1.c8442a999b7b1p-1", "-0x1.d80e56b7e96f1p-4"),  # 0.50097 ulp
    (0x1359ce41fb1f7e, "0x1.359ce41fb1f7fp-1", "-0x1.0189790fe8189p-1"),  # 0.50057 ulp
    (0x167b6a4db3902e, "0x1.67b6a4db3902fp-1", "-0x1.697d4169fdc26p-2"),  # 0.50025 ulp
    (0x1efbdb32cb7b17, "0x1.efbdb32cb7b18p-1", "-0x1.085d2733f74b1p-5"),  # 0.50027 ulp
    (0xb5e7b546d754c, "0x1.6bcf6a8daea9ap-2", "-0x1.08eb3cf440db7p+0"),  # 0.50031 ulp
    (0x11d62bcf43e54a, "0x1.1d62bcf43e54bp-1", "-0x1.2b415c77bf56cp-1"),  # 0.50015 ulp
]

# (k, argument, cos(argument)): ``normal`` takes the cosine of 2 * pi * k * 2**-53
COS = [
    (0x0, "0x0.0p+0", "0x1.0000000000000p+0"),
    (0x1, "0x1.921fb54442d18p-51", "0x1.0000000000000p+0"),
    (0x8000000000000, "0x1.921fb54442d18p+0", "0x1.1a62633145c07p-54"),
    (0x10000000000000, "0x1.921fb54442d18p+1", "-0x1.0000000000000p+0"),
    (0x18000000000000, "0x1.2d97c7f3321d2p+2", "-0x1.a79394c9e8a0ap-53"),
    (0x1fffffffffffff, "0x1.921fb54442d17p+2", "0x1.0000000000000p+0"),
    (0x1d1c4b0ed90475, "0x1.6dd047395e1eap+2", "0x1.afc8d544df62fp-1"),
    (0x6dece81e74ef5, "0x1.5957440b7e186p+0", "0x1.c28c4f47305b7p-3"),
    (0x2c014099950d8, "0x1.147dab0274995p-1", "0x1.b72428a9ff2f4p-1"),
    (0xd61aa6f03675a, "0x1.50505ef95b999p+1", "-0x1.bdce7d6231e6ep-1"),
    (0x7b38211e20b8f, "0x1.831ace19b9099p+0", "0x1.e0565363ea4a4p-5"),
    (0x11a22d1738f7d9, "0x1.bb2d9ee4ad4bcp+1", "-0x1.e5e3c2b1500f9p-1"),
    # not correctly rounded
    (0x173a7f1086a15e, "0x1.23e5e07f1ed1dp+2", "-0x1.350d881da9426p-3"),  # 0.50340 ulp
    (0x1ed3ce450da734, "0x1.83635b1317955p+2", "0x1.f27d0b2c7f4cap-1"),  # 0.50004 ulp
    (0xaec2e9cf32ea9, "0x1.1283b88016be6p+1", "-0x1.15f2cdeae1e6ap-1"),  # 0.50025 ulp
    (0x13c5770945eb22, "0x1.f0e87d5dcb0f7p+1", "-0x1.79ec23a141cf0p-1"),  # 0.50017 ulp
    (0x6fcfaa3a11610, "0x1.5f43e540e00b8p+0", "0x1.9432b08784ec4p-3"),  # 0.50545 ulp
    (0x16dc057aa6d228, "0x1.1f42ab7760c69p+2", "-0x1.c6d0a0f3d10e0p-3"),  # 0.50039 ulp
]

# (argument, exp(argument)) on [-10, 10]
EXP = [
    ("-0x1.4000000000000p+3", "0x1.7cd79b5647c9bp-15"),
    ("-0x1.0000000000000p+0", "0x1.78b56362cef38p-2"),
    ("-0x1.0000000000000p-30", "0x1.fffffff800000p-1"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x1.0000000000000p-1", "0x1.a61298e1e069cp+0"),
    ("0x1.0000000000000p+0", "0x1.5bf0a8b145769p+1"),
    ("0x1.4000000000000p+3", "0x1.5829dcf950560p+14"),
    ("-0x1.8276355a2b560p+0", "0x1.c498e8b172979p-3"),
    ("0x1.a25ee77a78fbcp+2", "0x1.591eff1e841bep+9"),
    ("-0x1.e18892c86875ep+2", "0x1.1b1c2b89a6e32p-11"),
    ("-0x1.62410e5b19902p+2", "0x1.028fc8b4bba62p-8"),
    ("0x1.463aa2fa8f1b0p+1", "0x1.9947c4690dc64p+3"),
    # not correctly rounded
    ("-0x1.9877796d8f7f8p+2", "0x1.bb5953936cbd1p-10"),  # 0.50241 ulp
    ("0x1.6c22b6eff54d0p-1", "0x1.04aa02a0eba28p+1"),  # 0.50087 ulp
    ("0x1.23e3c65bafd0cp+3", "0x1.1df3528a0a230p+13"),  # 0.50351 ulp
    ("0x1.529d010651e1cp+1", "0x1.c2dba179c2e4ep+3"),  # 0.50097 ulp
    ("-0x1.73159208451fep+1", "0x1.c3287179b0b5cp-5"),  # 0.50294 ulp
    ("0x1.ce6b9466a44b0p+0", "0x1.85a2bb2bc4412p+2"),  # 0.50227 ulp
]

# (word 1, word 2, normal(0, 1)) of a fresh stream whose first two words
# are these; the log and cos of each are not correctly rounded, and with a
# correctly rounded log and cos each result would differ in its last bit
NORMAL = [
    (0xe422154ccdbd85a5, 0xb9d3f884350af03c, "-0x1.28c0ab29ae0fcp-4"),
    (0x9ace720fd8fbf5a5, 0xf69e72286d39a03c, "0x1.f3fb8f42815c2p-1"),
    (0xb3db526d9c8175a5, 0x576174e79975483c, "-0x1.d318cec7268cbp-2"),
    (0xf7ded9965bd8bda5, 0x9e2bb84a2f59103c, "-0x1.800be2c06aab5p-3"),
]


def _ids(table):
    return [row[-2] for row in table]


@pytest.mark.parametrize("k, argument, result", LOG, ids=_ids(LOG))
def test_log_of_the_arguments_normal_forms(k, argument, result):
    x = (k + 1) * 2.0**-53
    assert x.hex() == argument
    assert math.log(x).hex() == result


@pytest.mark.parametrize("k, argument, result", COS, ids=_ids(COS))
def test_cos_of_the_arguments_normal_forms(k, argument, result):
    x = 2.0 * math.pi * (k * 2.0**-53)
    assert x.hex() == argument
    assert math.cos(x).hex() == result


@pytest.mark.parametrize("argument, result", EXP, ids=_ids(EXP))
def test_exp_on_minus_ten_to_ten(argument, result):
    assert math.exp(float.fromhex(argument)).hex() == result


@pytest.mark.parametrize("word1, word2, result", NORMAL, ids=[hex(row[0]) for row in NORMAL])
def test_normal_draws_from_known_words(word1, word2, result):
    assert stdlib._normal(pointed(0, word1, word2), 0.0, 1.0).hex() == result
