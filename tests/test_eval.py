import pytest

from dagforge import RandomStream, build_registry, parse, values_equal
from dagforge.errors import EvalError
from dagforge.evaluator import compile_expr


def ev(src, bindings=None, seed=0):
    return compile_expr(parse(src), build_registry())(bindings or {}, RandomStream(seed))


def test_arithmetic():
    assert ev("1 - 0.25") == 0.75
    assert isinstance(ev("1 - 0.25"), float)
    assert ev("2 + 3") == 5 and isinstance(ev("2 + 3"), int)
    assert ev("7 % 3") == 1
    assert ev("-2 * 3") == -6


def test_int_division_yields_float():
    v = ev("1 / 2")
    assert v == 0.5 and isinstance(v, float)
    v = ev("4 / 2")
    assert isinstance(v, float)


def test_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        ev("1 / 0")
    with pytest.raises(EvalError, match="modulo by zero"):
        ev("1 % 0")


def test_deterministic_bernoulli_endpoints():
    for seed in range(5):
        assert ev("binomial(1, U1)", {"U1": 1.0}, seed=seed) == 1
        assert ev("binomial(1, U1)", {"U1": 0.0}, seed=seed) == 0


def test_boolean_logic():
    assert ev("H == 1 and V == 1", {"H": 1, "V": 0}) is False
    assert ev("H == 1 or V == 1", {"H": 1, "V": 0}) is True
    assert ev("not (1 == 2)") is True


def test_short_circuit_skips_unevaluated_side():
    # rhs would raise (unknown function) if evaluated
    assert ev("1 == 1 or nosuchfn(1)") is True
    assert ev("1 == 2 and nosuchfn(1)") is False
    with pytest.raises(EvalError, match="unknown function"):
        ev("1 == 2 or nosuchfn(1)")


def test_comparisons():
    assert ev('"a" < "b"') is True
    assert ev("1 <= 1.0") is True
    with pytest.raises(EvalError, match="cannot order"):
        ev('1 < "a"')


def test_equality_uses_value_semantics():
    assert ev("X == 1.0", {"X": 1}) is True
    assert ev('[1, 2] == [1, 2.0]') is True
    assert ev('"1" == 1') is False


def test_type_errors():
    with pytest.raises(EvalError):
        ev('1 + "a"')
    with pytest.raises(EvalError):
        ev("not 1")
    with pytest.raises(EvalError):
        ev("if 1 then 2 else 3")
    with pytest.raises(EvalError):
        ev("-X", {"X": True})


def test_if_else_evaluates_only_taken_branch():
    assert ev("if X > 0 then 1 else nosuchfn(1)", {"X": 1}) == 1
    with pytest.raises(EvalError):
        ev("if X > 0 then 1 else nosuchfn(1)", {"X": -1})


def test_call_errors():
    with pytest.raises(EvalError, match="unknown function"):
        ev("mystery(1)")
    with pytest.raises(EvalError, match="argument"):
        ev("uniform(1)")
    with pytest.raises(EvalError, match="a <= b"):
        ev("uniform(2, 1)")  # DomainError surfaced as EvalError


def test_unbound_reference():
    with pytest.raises(EvalError, match="unbound reference"):
        ev("X + 1")


def test_list_literal_evaluates_elements():
    assert values_equal(ev("[1, 1 + 1, [X]]", {"X": 3}), [1, 2, [3]])


def test_stochastic_eval_is_deterministic_given_stream():
    e = parse("uniform(0, 1) + normal(0, 1)")
    reg = build_registry()
    a = compile_expr(e, reg)({}, RandomStream(123, 5))
    b = compile_expr(e, reg)({}, RandomStream(123, 5))
    assert values_equal(a, b)
    c = compile_expr(e, reg)({}, RandomStream(123, 6))
    assert a != c
