"""Lexer, parser, and pretty-printer for node-generating expressions.

Grammar (also published in docs/grammar.md):

    expr    := or_expr | "if" expr "then" expr "else" expr
    or_expr := and_expr { "or" and_expr }
    and_expr:= cmp { "and" cmp }
    cmp     := add [ ("=="|"!="|"<"|"<="|">"|">=") add ]
    add     := mul { ("+"|"-") mul }
    mul     := unary { ("*"|"/"|"%") unary }
    unary   := ["-"|"not"] atom
    atom    := literal | ident | ident "(" [expr {"," expr}] ")"
             | "[" [expr {"," expr}] "]" | "(" expr ")"

The front end is table-driven.  ``tokenize`` is one compiled regular
expression applied at each position; numbers are ASCII digits only, and a
literal outside the 64-bit integer range or too large for a finite float is a
LexError.  The parser descends only for if-else, prefix operators and atoms:
the five binary levels are one precedence-climbing loop (Pratt, "Top down
operator precedence", 1973) over ``_BIN_LEVEL``, the table the printer also
uses to decide where parentheses go.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import LexError, NestingError, ParseError
from .values import Value

__all__ = [
    "Token", "tokenize", "Expr", "Lit", "Ref", "Call", "Unary", "Binary",
    "IfElse", "ListLit", "parse_expr", "parse", "preorder",
    "pretty_print", "KEYWORDS", "MAX_DEPTH",
]

KEYWORDS = frozenset({"if", "then", "else", "and", "or", "not"})

# The deepest expression tree that parses.  The compiler, the evaluator and
# the printer recurse once or twice per level and the parser four times per
# call or list level, so this keeps them all well inside the interpreter's
# recursion limit.  A chain ``a + b + c`` nests one level per operator.
# Parentheses cost the parser three frames each and add no level, so about
# 330 of them exhaust its stack first, which is also a NestingError.
MAX_DEPTH = 200

INT64_MAX = 2**63 - 1

# Binding strength of each binary operator, loosest first; if-else is level 0,
# the prefix operators 6 and atoms 7.  The parser and the printer both read it.
_BIN_LEVEL = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
_CMP, _UNARY, _ATOM = 3, 6, 7


class Token(NamedTuple):
    kind: str  # ident | int-lit | float-lit | str-lit | punct | operator | eof
    text: str
    span: tuple[int, int]
    value: object = None  # decoded payload for literals


# Leading whitespace, then one token; the group that matched names its kind.
# A '"' that starts no complete string literal matches no group.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<int>[0-9]+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[()\[\],])
  | (?P<operator>[=!<>]=|[-+*/%<>])
)?""", re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(body: str, offset: int) -> str:
    """Decode a string literal's body, which starts at ``offset`` in the source."""
    if "\\" not in body:
        return body
    for m in _ESCAPE_RE.finditer(body):
        if m[1] not in '"\\':
            raise LexError((offset + m.start(), offset + m.end()), f"unknown escape \\{m[1]}")
    return _ESCAPE_RE.sub(r"\1", body)


def tokenize(src: str) -> list[Token]:
    """Split source into tokens; spans cover everything but whitespace."""
    tokens: list[Token] = []
    append, match = tokens.append, _TOKEN_RE.match
    pos, n = 0, len(src)
    while True:
        m = match(src, pos)
        kind = m.lastgroup
        if kind is None:
            pos = m.end()
            if pos == n:
                break
            if src[pos] == '"':
                _unescape(src[pos + 1:], pos + 1)  # an earlier bad escape wins
                raise LexError((pos, n), "unterminated string literal")
            raise LexError((pos, pos + 1), f"unexpected character {src[pos]!r}")
        text = m[kind]
        start, pos = m.span(kind)
        if kind == "ident":
            append(Token("operator" if text in KEYWORDS else "ident", text, (start, pos)))
        elif kind == "int":
            # int() refuses texts past its digit limit, which are out of range anyway
            digits = text.lstrip("0") or "0"
            v = int(digits) if len(digits) <= 19 else INT64_MAX + 1
            if v > INT64_MAX:
                raise LexError((start, pos), f"integer literal {text} exceeds the 64-bit signed range")
            append(Token("int-lit", text, (start, pos), v))
        elif kind == "float":
            v = float(text)
            if math.isinf(v):
                raise LexError((start, pos), f"float literal {text} is too large to be finite")
            append(Token("float-lit", text, (start, pos), v))
        elif kind == "string":
            append(Token("str-lit", text, (start, pos), _unescape(text[1:-1], start + 1)))
        else:
            append(Token(kind, text, (start, pos)))
    append(Token("eof", "", (n, n)))
    return tokens


# --- AST ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Expr:
    # span excluded from equality so printed-then-reparsed trees compare equal
    span: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)

    def children(self) -> tuple["Expr", ...]:
        """Direct subexpressions, left to right."""
        return ()


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: Value = None


@dataclass(frozen=True, slots=True)
class Ref(Expr):
    name: str = ""


@dataclass(frozen=True, slots=True)
class Call(Expr):
    name: str = ""
    args: tuple[Expr, ...] = ()

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str = "-"
    operand: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str = "+"
    lhs: Expr | None = None
    rhs: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True, slots=True)
class IfElse(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)


@dataclass(frozen=True, slots=True)
class ListLit(Expr):
    elements: tuple[Expr, ...] = ()

    def children(self) -> tuple[Expr, ...]:
        return self.elements


class _Parser:
    # a token's text fixes its kind, so the parser tests texts only
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        t = self.cur
        found = t.text if t.kind != "eof" else "end of input"
        raise ParseError(t.span, expected, found)

    def expect(self, text: str) -> Token:
        if self.cur.text != text:
            self.fail((text,))
        return self.advance()

    def expr(self) -> Expr:
        if self.cur.text == "if":
            start = self.advance().span[0]
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            otherwise = self.expr()
            return IfElse(cond=cond, then=then, otherwise=otherwise, span=(start, otherwise.span[1]))
        return self.binary(1)

    def binary(self, floor: int) -> Expr:
        """Binary operators of level ``floor`` or tighter, left-associative.

        Each right operand takes only tighter operators.  After a comparison
        only a looser operator may follow, so comparisons do not chain.
        """
        # going straight to atom keeps a call or list level to four frames
        lhs = self.unary() if self.cur.text in ("-", "not") else self.atom()
        ceiling = _UNARY
        while floor <= (level := _BIN_LEVEL.get(self.cur.text, 0)) < ceiling:
            op = self.advance().text
            rhs = self.binary(level + 1)
            lhs = Binary(op=op, lhs=lhs, rhs=rhs, span=(lhs.span[0], rhs.span[1]))
            ceiling = level if level == _CMP else level + 1
        return lhs

    def unary(self) -> Expr:
        tok = self.advance()
        operand = self.atom()
        return Unary(op=tok.text, operand=operand, span=(tok.span[0], operand.span[1]))

    def atom(self) -> Expr:
        t = self.cur
        if t.kind in ("int-lit", "float-lit", "str-lit"):
            self.advance()
            return Lit(value=t.value, span=t.span)
        if t.kind == "ident":
            self.advance()
            if self.cur.text != "(":
                return Ref(name=t.text, span=t.span)
            self.advance()
            args, end = self._expr_list(")")
            return Call(name=t.text, args=args, span=(t.span[0], end))
        if t.text == "[":
            self.advance()
            elems, end = self._expr_list("]")
            return ListLit(elements=elems, span=(t.span[0], end))
        if t.text == "(":
            self.advance()
            inner = self.expr()
            end = self.expect(")").span[1]
            # re-span to the parenthesized extent; structure is unchanged
            return dataclasses.replace(inner, span=(t.span[0], end))
        self.fail(("literal", "identifier", "(", "["))

    def _expr_list(self, closer: str) -> tuple[tuple[Expr, ...], int]:
        """Comma-separated expressions through ``closer``, and the closer's end."""
        items = []
        if self.cur.text != closer:
            items.append(self.expr())
            while self.cur.text == ",":
                self.advance()
                items.append(self.expr())
        return tuple(items), self.expect(closer).span[1]


def parse_expr(tokens: list[Token]) -> Expr:
    """Parse a token list (ending with eof) into a single expression.

    A tree deeper than MAX_DEPTH is a NestingError, as is nesting that
    exhausts the parser's own stack first, such as ~330 parentheses.
    """
    p = _Parser(tokens)
    try:
        e = p.expr()
    except RecursionError:
        raise NestingError(None, "expression is nested too deeply") from None
    if p.cur.kind != "eof":
        p.fail(("end of input",))
    # every tree node consumes a token of its own, so a short source is shallow
    if len(tokens) > MAX_DEPTH and _depth(e) > MAX_DEPTH:
        raise NestingError(None, f"expression is nested too deeply (more than {MAX_DEPTH} levels)")
    return e


def _depth(e: Expr) -> int:
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children())
    return deepest


def parse(src: str) -> Expr:
    """Tokenize and parse source text."""
    return parse_expr(tokenize(src))


def preorder(e: Expr) -> Iterator[Expr]:
    """Every node of the tree, each before its children, children left to right.

    Iterative, so nesting depth is not bounded by the interpreter's
    recursion limit.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


# --- printing ----------------------------------------------------------

def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _level(e: Expr) -> int:
    if isinstance(e, IfElse):
        return 0
    if isinstance(e, Binary):
        return _BIN_LEVEL[e.op]
    if isinstance(e, Unary):
        return _UNARY
    return _ATOM


def _print_at(e: Expr, minimum: int) -> str:
    text = _print(e)
    return f"({text})" if _level(e) < minimum else text


def _print(e: Expr) -> str:
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, str):
            return f'"{_escape(v)}"'
        if isinstance(v, float):
            return repr(v)
        return str(v)
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_print(a) for a in e.args)})"
    if isinstance(e, ListLit):
        return f"[{', '.join(_print(el) for el in e.elements)}]"
    if isinstance(e, Unary):
        op = e.op + " " if e.op == "not" else e.op
        return f"{op}{_print_at(e.operand, _ATOM)}"
    if isinstance(e, Binary):
        lvl = _BIN_LEVEL[e.op]
        if lvl == _CMP:
            # comparisons don't chain: parenthesize comparison operands
            return f"{_print_at(e.lhs, _CMP + 1)} {e.op} {_print_at(e.rhs, _CMP + 1)}"
        return f"{_print_at(e.lhs, lvl)} {e.op} {_print_at(e.rhs, lvl + 1)}"
    if isinstance(e, IfElse):
        return f"if {_print(e.cond)} then {_print(e.then)} else {_print(e.otherwise)}"
    raise TypeError(f"not an expression node: {e!r}")


def pretty_print(e: Expr) -> str:
    """Render an expression to source that re-parses to a structurally equal tree.

    Negative numeric literals re-parse as a unary minus over the positive
    literal; parser-produced trees never contain negative literals, so the
    round trip is exact for parsed source.
    """
    return _print(e)
