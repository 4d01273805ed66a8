"""Expression evaluation against a set of node bindings.

An expression is compiled once into ``program(bindings, rng)``.  The nodes of
a model repeat a few expression shapes over different names and literals, so
programs are generated per shape and shared, after the AST specialisation of
Würthinger et al. ("One VM to rule them all", 2013):

* One walk over the AST, :func:`dagforge.expr.analyse`, which validation
  runs too, yields the expression's shape key and its operands.  The key
  holds the operators, the kind and argument count of each call and the
  *type* of each literal; the operands, in emission order, are the
  reference names, literal values, spans and registry implementations.
  Each call site is looked up once, during the walk, and an expression the
  walk finds a problem in is a ValidationError, so every program runs.
* For the first expression of a shape, Python source is generated from the
  key alone and compiled into a factory, which a bounded memo keeps for the
  process; every expression of that shape gets ``factory(*operands)``.
  Model text never becomes source: names and values reach a program only
  as factory arguments, so no name or string literal can change what runs.
* Operands reach a program as its parameter defaults,
  ``def program(b, r, o0=o0, ...)``, as they reach each helper function it
  calls: one tuple per function, where closure cells would cost an object
  per operand.

The generated code is straight-line, one statement per AST node, with the
type checks written in.  Operands known to be numbers (numeric literals,
arithmetic results) or booleans (comparison results) are not checked again.
``and``, ``or`` and ``if`` evaluate only the side they take.
"""

from __future__ import annotations

import functools
from typing import Callable

from .errors import DomainError, EvalError, ValidationError
from .expr import Expr, analyse
from .registry import FunctionRegistry
from .rng import RandomStream
from .values import Value, type_name, values_equal

__all__ = ["compile_node"]

Program = Callable[[dict, RandomStream], Value]

_ORDERING = frozenset({"<", "<=", ">", ">="})

# the most bits an int product may have; only '*' can grow an int this fast
MAX_INT_BITS = 1 << 20

# Python allows 100 levels of indentation.  A nested block (and, or, if) that
# would start deeper than this becomes a function of its own.
_MAX_INDENT = 40


def _is_number(v: Value) -> bool:
    return type(v) in (int, float) or (isinstance(v, (int, float)) and not isinstance(v, bool))


def compile_node(e: Expr, registry: FunctionRegistry) -> tuple[Program, bool]:
    """Compile an expression into ``program(bindings, rng) -> value``, and
    whether the program may draw.

    Calls are resolved against ``registry`` now.  An unknown function, a
    wrong argument count, or an operator or node that only a hand-built tree
    holds is a ValidationError carrying the problems of
    :func:`~dagforge.expr.analyse`.  A program may draw when it calls a
    stochastic function.
    """
    key, operands, draws, _, problems = analyse(e, registry)
    if problems:
        raise ValidationError(problems)
    return _factory(key)(*operands), draws


@functools.lru_cache(maxsize=256)
def _factory(key: tuple) -> Callable:
    """The compiled ``factory(*operands)`` of a shape key, which it depends on alone.

    Memoised, so expressions of one shape share code across models and
    across :func:`~dagforge.sampler.sample_one` calls.
    """
    namespace = dict(_GLOBALS)
    exec(compile(_source(key), "<dagforge shape>", "exec"), namespace)
    return namespace["factory"]


# --- code generation ---------------------------------------------------------

def _type_error(span, template: str, *values: Value) -> EvalError:
    return EvalError(span, template.format(*map(type_name, values)))


# every name generated code reads besides builtins, its operands and its temporaries
_GLOBALS = {
    "EvalError": EvalError, "DomainError": DomainError, "values_equal": values_equal,
    "is_number": _is_number, "type_error": _type_error, "MAX_INT_BITS": MAX_INT_BITS,
}

# Statement templates for str.format, in which {{ and }} stand for braces.  The
# fields are filled with operand and temporary names, operators from the
# tables above and messages written here, never with model text.
_REF = """try:
    {t} = b[{name}]
except KeyError:
    raise EvalError({span}, f'unbound reference {{{name}!r}}') from None"""
_CALL = """try:
    {t} = {fn}({args})
except DomainError as err:
    raise EvalError({span}, str(err)) from err"""
# OverflowError: an int too large for a float met a float, or an int quotient is too large
_ARITHMETIC_STEP = """try:
    {t} = {x} {op} {y}
except OverflowError as err:
    raise EvalError({span}, f"arithmetic '{op}' overflows: {{err}}") from err"""
_PRODUCT_SIZE = """if type({t}) is int and {t}.bit_length() > MAX_INT_BITS:
    raise EvalError({span}, f"arithmetic '*' result of {{{t}.bit_length()}} bits "
                            f"is larger than the limit of {{MAX_INT_BITS}}")"""
_NONZERO = """if {y} == 0:
    raise EvalError({span}, '{what} by zero')"""
_BOOLEAN = """if {x} is not True and {x} is not False:
    raise type_error({span}, {message!r}, {x})"""
# the exact-type test first; is_number only when it fails
_NUMBERS = """if ({fast}) and not ({slow}):
    raise type_error({span}, {message!r}, {values})"""


def _put(out: list[str], depth: int, template: str, **fields: str) -> None:
    out.extend("    " * depth + line for line in template.format(**fields).split("\n"))


def _not_exact_number(x: str) -> str:
    return f"type({x}) is not float and type({x}) is not int"


class _Generator:
    """Source for one shape key, read front to back in the walk's order.

    Operands are named ``o0, o1, ...`` in the order the walk emitted them and
    temporaries ``t0, t1, ...``; each ``emit`` appends the statements of one
    subexpression and returns the name holding its value and the value's
    static kind: ``"num"``, ``"bool"``, or None when unknown.
    """

    def __init__(self, key: tuple):
        self._next = iter(key).__next__
        self._operands = 0
        self._temps = 0
        self._functions = 0
        self._reads: list[str] = []  # the operands and helpers the function being generated reads
        self.functions: list[str] = []  # each function's source, after the helpers it calls

    def operand(self) -> str:
        self._operands += 1
        self._reads.append(f"o{self._operands - 1}")
        return self._reads[-1]

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps - 1}"

    def function(self, first_token) -> tuple[str, str | None]:
        """Generate ``def name(b, r, o0=o0, ...)`` for the subexpression that
        starts with ``first_token``: the operands and helpers it reads are the
        defaults of its parameters.  Returns the name and the result's kind."""
        name = f"f{self._functions}" if self._functions else "program"
        self._functions += 1
        outer, self._reads = self._reads, []
        body: list[str] = []
        result, kind = self._emit(first_token, body, 2)
        defaults = "".join(f", {p}={p}" for p in self._reads)
        self.functions.append("\n".join([f"    def {name}(b, r{defaults}):", *body, f"        return {result}"]))
        self._reads = outer
        return name, kind

    def source(self) -> str:
        self.function(self._next())
        params = ", ".join(f"o{i}" for i in range(self._operands))
        return "\n".join([f"def factory({params}):", *self.functions, "    return program"]) + "\n"

    def emit(self, out: list[str], depth: int) -> tuple[str, str | None]:
        token = self._next()
        if token in ("if", "and", "or") and depth > _MAX_INDENT:
            name, kind = self.function(token)
            self._reads.append(name)
            t = self.temp()
            _put(out, depth, "{t} = {name}(b, r)", t=t, name=name)
            return t, kind
        return self._emit(token, out, depth)

    def _emit(self, token, out: list[str], depth: int) -> tuple[str, str | None]:
        if token in ("num", "bool", "literal"):
            return self.operand(), None if token == "literal" else token
        if token == "[":
            elements = [self.emit(out, depth)[0] for _ in range(self._next())]
            t = self.temp()
            _put(out, depth, "{t} = [{elements}]", t=t, elements=", ".join(elements))
            return t, None
        span, t = self.operand(), self.temp()  # every other token has a span
        if token == "r":
            _put(out, depth, _REF, t=t, name=self.operand(), span=span)
            return t, None
        if token in ("s", "c"):
            fn = self.operand()
            args = [self.emit(out, depth)[0] for _ in range(self._next())]
            _put(out, depth, _CALL, t=t, fn=fn, args=", ".join(["r", *args] if token == "s" else args), span=span)
            return t, None
        if token == "if":
            return self._if_else(span, t, out, depth)
        if token in ("and", "or"):
            return self._logic(token, span, t, out, depth)
        x, kx = self.emit(out, depth)
        if token == "not":
            if kx != "bool":
                _put(out, depth, _BOOLEAN, x=x, span=span, message="operand of 'not' must be a boolean, got {}")
            _put(out, depth, "{t} = not {x}", t=t, x=x)
            return t, "bool"
        if token == "neg":
            if kx != "num":
                _put(out, depth, _NUMBERS, fast=_not_exact_number(x), slow=f"is_number({x})", span=span,
                     message="cannot negate a {}", values=x)
            _put(out, depth, "{t} = -{x}", t=t, x=x)
            return t, "num"
        y, ky = self.emit(out, depth)
        if token in ("==", "!="):
            template = "{t} = {x} {op} {y}" if kx == ky == "num" else "{t} = {negate}values_equal({x}, {y})"
            _put(out, depth, template, t=t, x=x, op=token, y=y, negate="" if token == "==" else "not ")
            return t, "bool"
        fast = " or ".join(_not_exact_number(v) for v, k in ((x, kx), (y, ky)) if k != "num")
        numbers = f"is_number({x}) and is_number({y})"
        if token in _ORDERING:
            if fast:
                _put(out, depth, _NUMBERS, fast=fast, slow=f"{numbers} or isinstance({x}, str) and isinstance({y}, str)",
                     span=span, message="cannot order {} and {}", values=f"{x}, {y}")
            _put(out, depth, "{t} = {x} {op} {y}", t=t, x=x, op=token, y=y)
            return t, "bool"
        if fast:
            _put(out, depth, _NUMBERS, fast=fast, slow=numbers, span=span,
                 message=f"arithmetic '{token}' needs numbers, got {{}} and {{}}", values=f"{x}, {y}")
        if token in ("/", "%"):
            _put(out, depth, _NONZERO, y=y, span=span, what="division" if token == "/" else "modulo")
        _put(out, depth, _ARITHMETIC_STEP, t=t, x=x, op=token, y=y, span=span)
        if token == "*":
            _put(out, depth, _PRODUCT_SIZE, t=t, span=span)
        return t, "num"

    def _logic(self, op: str, span: str, t: str, out: list[str], depth: int) -> tuple[str, str]:
        x, kx = self.emit(out, depth)
        if kx != "bool":
            _put(out, depth, _BOOLEAN, x=x, span=span, message=f"left operand of '{op}' must be a boolean, got {{}}")
        # short-circuit: the right operand is evaluated only when it decides
        _put(out, depth, "{t} = {x}\nif {negate}{t}:", t=t, x=x, negate="" if op == "and" else "not ")
        y, ky = self.emit(out, depth + 1)
        if ky != "bool":
            _put(out, depth + 1, _BOOLEAN, x=y, span=span, message=f"right operand of '{op}' must be a boolean, got {{}}")
        _put(out, depth + 1, "{t} = {y}", t=t, y=y)
        return t, "bool"

    def _if_else(self, span: str, t: str, out: list[str], depth: int) -> tuple[str, str | None]:
        c, kc = self.emit(out, depth)
        _put(out, depth, "if {c}:" if kc == "bool" else "if {c} is True:", c=c)
        then, k_then = self.emit(out, depth + 1)
        _put(out, depth + 1, "{t} = {then}", t=t, then=then)
        _put(out, depth, "else:" if kc == "bool" else "elif {c} is False:", c=c)
        otherwise, k_else = self.emit(out, depth + 1)
        _put(out, depth + 1, "{t} = {otherwise}", t=t, otherwise=otherwise)
        if kc != "bool":
            _put(out, depth, "else:\n    raise type_error({span}, 'if condition must be a boolean, got {{}}', {c})",
                 span=span, c=c)
        return t, k_then if k_then == k_else else None


def _source(key: tuple) -> str:
    """Python source defining ``factory(*operands) -> program`` for one shape key."""
    return _Generator(key).source()
