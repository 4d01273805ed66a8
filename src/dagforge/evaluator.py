"""Expression evaluation against a set of node bindings.

An expression is compiled once into a closure ``program(bindings, rng)``
(Feeley & Lapalme, "Using closures for code generation", 1987): each AST
node becomes one small function whose operator, operands, registry entry and
source span are fixed when it is built, so evaluation does no type dispatch
and no registry lookup.  Captured values are bound as default arguments
rather than closure cells, and equal scalar literals share one closure, which
keeps a compiled model about the size of its AST.
"""

from __future__ import annotations

import operator
from typing import Callable

from .errors import DomainError, EvalError
from .expr import Binary, Call, Expr, IfElse, Lit, ListLit, Ref, Unary
from .registry import FunctionRegistry
from .rng import RandomStream
from .values import Value, type_name, values_equal

__all__ = ["compile_expr"]

Program = Callable[[dict, RandomStream], Value]

# exact types for the fast path of _is_number; subclasses take the slow one
_NUMBER_TYPES = frozenset({int, float})

_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# operator -> (function, what a zero divisor is called, or None)
_ARITHMETIC = {
    "+": (operator.add, None),
    "-": (operator.sub, None),
    "*": (operator.mul, None),
    "/": (operator.truediv, "division"),
    "%": (operator.mod, "modulo"),
}


def _is_number(v: Value) -> bool:
    return type(v) in _NUMBER_TYPES or (isinstance(v, (int, float)) and not isinstance(v, bool))


def compile_expr(e: Expr, registry: FunctionRegistry | None, literals: dict | None = None) -> Program:
    """Compile an expression into ``program(bindings, rng) -> value``.

    Calls are resolved against ``registry`` now.  An unknown function or a
    wrong argument count compiles to a closure that raises the EvalError
    evaluation would raise, and only when it is reached, so short-circuiting
    still skips it.  ``literals`` caches one closure per distinct scalar
    literal; pass one dict to share them across the expressions of a model.
    """
    if literals is None:
        literals = {}
    if isinstance(e, Lit):
        return _literal(e.value, literals)
    if isinstance(e, Ref):
        def ref(b, r, _name=e.name, _span=e.span):
            try:
                return b[_name]
            except KeyError:
                raise EvalError(_span, f"unbound reference {_name!r}") from None

        return ref
    if isinstance(e, Call):
        return _call(e, registry, literals)
    if isinstance(e, Binary):
        return _binary(e, compile_expr(e.lhs, registry, literals), compile_expr(e.rhs, registry, literals))
    if isinstance(e, Unary):
        operand = compile_expr(e.operand, registry, literals)
        if e.op == "not":
            def not_(b, r, _x=operand, _span=e.span):
                v = _x(b, r)
                if v is True or v is False:
                    return not v
                raise EvalError(_span, f"operand of 'not' must be a boolean, got {type_name(v)}")

            return not_

        def negate(b, r, _x=operand, _num=_is_number, _span=e.span):
            v = _x(b, r)
            if _num(v):
                return -v
            raise EvalError(_span, f"cannot negate a {type_name(v)}")

        return negate
    if isinstance(e, IfElse):
        def if_else(b, r, _cond=compile_expr(e.cond, registry, literals), _then=compile_expr(e.then, registry, literals),
                    _else=compile_expr(e.otherwise, registry, literals), _span=e.span):
            c = _cond(b, r)
            if c is True:
                return _then(b, r)
            if c is False:
                return _else(b, r)
            raise EvalError(_span, f"if condition must be a boolean, got {type_name(c)}")

        return if_else
    if isinstance(e, ListLit):
        def list_(b, r, _elements=tuple(compile_expr(el, registry, literals) for el in e.elements)):
            return [el(b, r) for el in _elements]

        return list_
    return _failing(e.span, f"cannot evaluate node of type {type(e).__name__}")


def _literal(value: Value, literals: dict) -> Program:
    def lit(b, r, _v=value):
        return _v

    if not isinstance(value, (bool, int, float, str)):
        return lit
    # repr tells 0.0 from -0.0 and 1 from True, which == does not
    return literals.setdefault((type(value), repr(value)), lit)


def _failing(span, message: str) -> Program:
    def fail(b, r, _span=span, _message=message):
        raise EvalError(_span, _message)

    return fail


def _call(e: Call, registry: FunctionRegistry | None, literals: dict) -> Program:
    entry = registry.lookup(e.name) if registry is not None else None
    if entry is None:
        return _failing(e.span, f"unknown function {e.name!r}")
    if not entry.arity.accepts(len(e.args)):
        return _failing(e.span, f"{e.name} expects {entry.arity.describe()} argument(s), got {len(e.args)}")
    args = tuple(compile_expr(a, registry, literals) for a in e.args)
    impl, span = entry.impl, e.span

    if not entry.stochastic:
        def pure(b, r, _f=impl, _args=args, _span=span):
            try:
                return _f(*[a(b, r) for a in _args])
            except DomainError as err:
                raise EvalError(_span, str(err)) from err

        return pure
    if len(args) == 1:
        def stochastic1(b, r, _f=impl, _a=args[0], _span=span):
            try:
                return _f(r, _a(b, r))
            except DomainError as err:
                raise EvalError(_span, str(err)) from err

        return stochastic1
    if len(args) == 2:
        def stochastic2(b, r, _f=impl, _a=args[0], _b=args[1], _span=span):
            try:
                return _f(r, _a(b, r), _b(b, r))
            except DomainError as err:
                raise EvalError(_span, str(err)) from err

        return stochastic2

    def stochastic(b, r, _f=impl, _args=args, _span=span):
        try:
            return _f(r, *[a(b, r) for a in _args])
        except DomainError as err:
            raise EvalError(_span, str(err)) from err

    return stochastic


def _binary(e: Binary, lhs: Program, rhs: Program) -> Program:
    op, span = e.op, e.span
    if op in ("and", "or"):
        def logic(b, r, _l=lhs, _r=rhs, _stop=op == "or", _op=op, _span=span):
            x = _l(b, r)
            if x is not True and x is not False:
                raise EvalError(_span, f"left operand of {_op!r} must be a boolean, got {type_name(x)}")
            if x is _stop:  # short-circuit: the right operand is never evaluated
                return x
            y = _r(b, r)
            if y is True or y is False:
                return y
            raise EvalError(_span, f"right operand of {_op!r} must be a boolean, got {type_name(y)}")

        return logic
    if op in ("==", "!="):
        def equal(b, r, _l=lhs, _r=rhs, _eq=values_equal, _want=op == "=="):
            return _eq(_l(b, r), _r(b, r)) is _want

        return equal
    if op in _ORDERING:
        def order(b, r, _l=lhs, _r=rhs, _op=_ORDERING[op], _num=_is_number, _span=span):
            x = _l(b, r)
            y = _r(b, r)
            if (_num(x) and _num(y)) or (isinstance(x, str) and isinstance(y, str)):
                return _op(x, y)
            raise EvalError(_span, f"cannot order {type_name(x)} and {type_name(y)}")

        return order

    if op not in _ARITHMETIC:  # only a hand-built AST gets here; the parser has no other operator
        return _failing(span, f"unknown operator {op!r}")
    fn, zero = _ARITHMETIC[op]

    def arithmetic(b, r, _l=lhs, _r=rhs, _op=fn, _zero=zero, _num=_is_number, _sym=op, _span=span):
        x = _l(b, r)
        y = _r(b, r)
        if _num(x) and _num(y):
            if _zero is not None and y == 0:
                raise EvalError(_span, f"{_zero} by zero")
            return _op(x, y)
        raise EvalError(_span, f"arithmetic {_sym!r} needs numbers, got {type_name(x)} and {type_name(y)}")

    return arithmetic
