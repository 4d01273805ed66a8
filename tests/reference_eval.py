"""A reference tree-walking evaluator for expression ASTs.

It states the evaluation rules directly, one AST node at a time, so that
``dagforge.evaluator.compile_node`` can be checked against it: the same
value, or the same EvalError message and span, and the same draws.
"""

import operator

from dagforge.errors import DomainError, EvalError
from dagforge.expr import Binary, Call, IfElse, Lit, ListLit, Ref, Unary
from dagforge.values import type_name, values_equal


ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "%": operator.mod}


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_bool(v) -> bool:
    return v is True or v is False


def evaluate(e, bindings, rng, registry):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        if e.name not in bindings:
            raise EvalError(e.span, f"unbound reference {e.name!r}")
        return bindings[e.name]
    if isinstance(e, ListLit):
        return [evaluate(el, bindings, rng, registry) for el in e.elements]
    if isinstance(e, Call):
        entry = registry.lookup(e.name) if registry is not None else None
        if entry is None:
            raise EvalError(e.span, f"unknown function {e.name!r}")
        if not entry.arity.accepts(len(e.args)):
            raise EvalError(e.span, f"{e.name} expects {entry.arity.describe()} argument(s), got {len(e.args)}")
        args = [evaluate(a, bindings, rng, registry) for a in e.args]
        try:
            return entry.impl(rng, *args) if entry.stochastic else entry.impl(*args)
        except DomainError as err:
            raise EvalError(e.span, str(err)) from err
    if isinstance(e, Unary):
        v = evaluate(e.operand, bindings, rng, registry)
        if e.op == "not":
            if not is_bool(v):
                raise EvalError(e.span, f"operand of 'not' must be a boolean, got {type_name(v)}")
            return not v
        if not is_number(v):
            raise EvalError(e.span, f"cannot negate a {type_name(v)}")
        return -v
    if isinstance(e, IfElse):
        c = evaluate(e.cond, bindings, rng, registry)
        if not is_bool(c):
            raise EvalError(e.span, f"if condition must be a boolean, got {type_name(c)}")
        return evaluate(e.then if c else e.otherwise, bindings, rng, registry)
    if isinstance(e, Binary):
        return _binary(e, bindings, rng, registry)
    raise EvalError(e.span, f"cannot evaluate node of type {type(e).__name__}")


def _binary(e, bindings, rng, registry):
    op = e.op
    x = evaluate(e.lhs, bindings, rng, registry)
    if op in ("and", "or"):
        if not is_bool(x):
            raise EvalError(e.span, f"left operand of {op!r} must be a boolean, got {type_name(x)}")
        if x is (op == "or"):
            return x
        y = evaluate(e.rhs, bindings, rng, registry)
        if not is_bool(y):
            raise EvalError(e.span, f"right operand of {op!r} must be a boolean, got {type_name(y)}")
        return y
    y = evaluate(e.rhs, bindings, rng, registry)
    if op == "==":
        return values_equal(x, y)
    if op == "!=":
        return not values_equal(x, y)
    if op in ("<", "<=", ">", ">="):
        if not (is_number(x) and is_number(y) or isinstance(x, str) and isinstance(y, str)):
            raise EvalError(e.span, f"cannot order {type_name(x)} and {type_name(y)}")
        return ORDERING[op](x, y)
    if not (is_number(x) and is_number(y)):
        raise EvalError(e.span, f"arithmetic {op!r} needs numbers, got {type_name(x)} and {type_name(y)}")
    if op in ("/", "%") and y == 0:
        raise EvalError(e.span, f"{'division' if op == '/' else 'modulo'} by zero")
    try:
        return ARITHMETIC[op](x, y)
    except OverflowError as err:
        raise EvalError(e.span, f"arithmetic {op!r} overflows: {err}") from err
