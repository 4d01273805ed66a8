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
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import LexError, NestingError, ParseError
from .values import Value

__all__ = [
    "Token", "tokenize", "Expr", "Lit", "Ref", "Call", "Unary", "Binary",
    "IfElse", "ListLit", "parse_expr", "parse", "preorder",
    "pretty_print", "KEYWORDS", "MAX_DEPTH",
]

KEYWORDS = frozenset({"if", "then", "else", "and", "or", "not"})

# The deepest expression tree that parses.  The compiler, the evaluator and
# the printer recurse once or twice per level, so this keeps them well inside
# the interpreter's recursion limit.  A chain ``a + b + c`` nests one level
# per operator.
MAX_DEPTH = 200

INT64_MAX = 2**63 - 1

_PUNCT = frozenset("()[],")
_SYMBOL_OPS = ("==", "!=", "<=", ">=", "+", "-", "*", "/", "%", "<", ">")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # ident | int-lit | float-lit | str-lit | punct | operator | eof
    text: str
    span: tuple[int, int]
    value: object = None  # decoded payload for literals


def _is_ident_start(c: str) -> bool:
    return c.isascii() and (c.isalpha() or c == "_")


def _is_ident_char(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c == "_")


def tokenize(src: str) -> list[Token]:
    """Split source into tokens; spans cover everything but whitespace."""
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if _is_ident_start(c):
            while i < n and _is_ident_char(src[i]):
                i += 1
            text = src[start:i]
            kind = "operator" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, (start, i)))
            continue
        if c.isdigit():
            while i < n and src[i].isdigit():
                i += 1
            is_float = False
            if i < n and src[i] == "." and i + 1 < n and src[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    is_float = True
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
            text = src[start:i]
            if is_float:
                tokens.append(Token("float-lit", text, (start, i), float(text)))
            else:
                v = int(text)
                if v > INT64_MAX:
                    raise LexError((start, i), f"integer literal {text} exceeds the 64-bit signed range")
                tokens.append(Token("int-lit", text, (start, i), v))
            continue
        if c == '"':
            i += 1
            buf: list[str] = []
            while True:
                if i >= n:
                    raise LexError((start, n), "unterminated string literal")
                c = src[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise LexError((start, n), "unterminated string literal")
                    esc = src[i + 1]
                    if esc not in ('"', "\\"):
                        raise LexError((i, i + 2), f"unknown escape \\{esc}")
                    buf.append(esc)
                    i += 2
                else:
                    buf.append(c)
                    i += 1
            tokens.append(Token("str-lit", src[start:i], (start, i), "".join(buf)))
            continue
        if c in _PUNCT:
            i += 1
            tokens.append(Token("punct", c, (start, i)))
            continue
        for op in _SYMBOL_OPS:
            if src.startswith(op, i):
                i += len(op)
                tokens.append(Token("operator", op, (start, i)))
                break
        else:
            raise LexError((start, start + 1), f"unexpected character {c!r}")
    tokens.append(Token("eof", "", (n, n)))
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
        if self.cur.text != text or self.cur.kind == "eof":
            self.fail((text,))
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        return self.cur.kind == "operator" and self.cur.text in texts

    def expr(self) -> Expr:
        if self.at_op("if"):
            start = self.advance().span[0]
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            otherwise = self.expr()
            return IfElse(cond=cond, then=then, otherwise=otherwise, span=(start, otherwise.span[1]))
        return self.or_expr()

    def _binary_chain(self, ops: tuple[str, ...], sub) -> Expr:
        lhs = sub()
        while self.at_op(*ops):
            op = self.advance().text
            rhs = sub()
            lhs = Binary(op=op, lhs=lhs, rhs=rhs, span=(lhs.span[0], rhs.span[1]))
        return lhs

    def or_expr(self) -> Expr:
        return self._binary_chain(("or",), self.and_expr)

    def and_expr(self) -> Expr:
        return self._binary_chain(("and",), self.cmp)

    def cmp(self) -> Expr:
        lhs = self.add()
        if self.at_op("==", "!=", "<", "<=", ">", ">="):
            op = self.advance().text
            rhs = self.add()
            return Binary(op=op, lhs=lhs, rhs=rhs, span=(lhs.span[0], rhs.span[1]))
        return lhs

    def add(self) -> Expr:
        return self._binary_chain(("+", "-"), self.mul)

    def mul(self) -> Expr:
        return self._binary_chain(("*", "/", "%"), self.unary)

    def unary(self) -> Expr:
        if self.at_op("-", "not"):
            tok = self.advance()
            operand = self.atom()
            return Unary(op=tok.text, operand=operand, span=(tok.span[0], operand.span[1]))
        return self.atom()

    def atom(self) -> Expr:
        t = self.cur
        if t.kind in ("int-lit", "float-lit", "str-lit"):
            self.advance()
            return Lit(value=t.value, span=t.span)
        if t.kind == "ident":
            self.advance()
            if self.cur.text == "(" and self.cur.kind == "punct":
                self.advance()
                args = self._expr_list(")")
                end = self.expect(")").span[1]
                return Call(name=t.text, args=tuple(args), span=(t.span[0], end))
            return Ref(name=t.text, span=t.span)
        if t.text == "[" and t.kind == "punct":
            self.advance()
            elems = self._expr_list("]")
            end = self.expect("]").span[1]
            return ListLit(elements=tuple(elems), span=(t.span[0], end))
        if t.text == "(" and t.kind == "punct":
            self.advance()
            inner = self.expr()
            end = self.expect(")").span[1]
            # re-span to the parenthesized extent; structure is unchanged
            return dataclasses.replace(inner, span=(t.span[0], end))
        self.fail(("literal", "identifier", "(", "["))

    def _expr_list(self, closer: str) -> list[Expr]:
        if self.cur.text == closer and self.cur.kind == "punct":
            return []
        items = [self.expr()]
        while self.cur.text == "," and self.cur.kind == "punct":
            self.advance()
            items.append(self.expr())
        return items


def parse_expr(tokens: list[Token]) -> Expr:
    """Parse a token list (ending with eof) into a single expression.

    A tree deeper than MAX_DEPTH is a NestingError, as is nesting of
    parentheses, calls or lists that exhausts the parser's own stack first.
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

# precedence levels: if-else 0 < or 1 < and 2 < cmp 3 < add 4 < mul 5 < unary 6 < atom 7
_BIN_LEVEL = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _level(e: Expr) -> int:
    if isinstance(e, IfElse):
        return 0
    if isinstance(e, Binary):
        return _BIN_LEVEL[e.op]
    if isinstance(e, Unary):
        return 6
    return 7


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
        return f"{op}{_print_at(e.operand, 7)}"
    if isinstance(e, Binary):
        lvl = _BIN_LEVEL[e.op]
        if lvl == 3:
            # comparisons don't chain: parenthesize comparison operands
            return f"{_print_at(e.lhs, 4)} {e.op} {_print_at(e.rhs, 4)}"
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
