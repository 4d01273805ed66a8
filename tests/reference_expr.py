"""A reference front end for expressions: a token-object lexer and parser.

It keeps the tokenizer and precedence-climbing parser that produced every
AST before the engine's front end moved to a flat scan, so that
``dagforge.expr.parse`` can be checked against it: the same tree with the
same span on every node, or the same error type, message and span.
"""

import dataclasses
import math
import re
from typing import NamedTuple

from dagforge.errors import LexError, NestingError, ParseError
from dagforge.expr import KEYWORDS, MAX_DEPTH, Binary, Call, IfElse, ListLit, Lit, Ref, Unary

INT64_MAX = 2**63 - 1

BIN_LEVEL = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
             "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
CMP, UNARY = 3, 6


class Token(NamedTuple):
    kind: str
    text: str
    span: tuple
    value: object = None


TOKEN_RE = re.compile(r"""\s*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<int>[0-9]+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[()\[\],])
  | (?P<operator>[=!<>]=|[-+*/%<>])
)?""", re.VERBOSE | re.DOTALL)
ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def unescape(body, offset):
    if "\\" not in body:
        return body
    for m in ESCAPE_RE.finditer(body):
        if m[1] not in '"\\':
            raise LexError((offset + m.start(), offset + m.end()), f"unknown escape \\{m[1]}")
    return ESCAPE_RE.sub(r"\1", body)


def tokenize(src):
    tokens = []
    pos, n = 0, len(src)
    while True:
        m = TOKEN_RE.match(src, pos)
        kind = m.lastgroup
        if kind is None:
            pos = m.end()
            if pos == n:
                break
            if src[pos] == '"':
                unescape(src[pos + 1:], pos + 1)
                raise LexError((pos, n), "unterminated string literal")
            raise LexError((pos, pos + 1), f"unexpected character {src[pos]!r}")
        text = m[kind]
        start, pos = m.span(kind)
        if kind == "ident":
            tokens.append(Token("operator" if text in KEYWORDS else "ident", text, (start, pos)))
        elif kind == "int":
            digits = text.lstrip("0") or "0"
            v = int(digits) if len(digits) <= 19 else INT64_MAX + 1
            if v > INT64_MAX:
                raise LexError((start, pos), f"integer literal {text} exceeds the 64-bit signed range")
            tokens.append(Token("int-lit", text, (start, pos), v))
        elif kind == "float":
            v = float(text)
            if math.isinf(v):
                raise LexError((start, pos), f"float literal {text} is too large to be finite")
            tokens.append(Token("float-lit", text, (start, pos), v))
        elif kind == "string":
            tokens.append(Token("str-lit", text, (start, pos), unescape(text[1:-1], start + 1)))
        else:
            tokens.append(Token(kind, text, (start, pos)))
    tokens.append(Token("eof", "", (n, n)))
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.cur
        self.pos += 1
        return t

    def fail(self, expected):
        t = self.cur
        raise ParseError(t.span, expected, t.text if t.kind != "eof" else "end of input")

    def expect(self, text):
        if self.cur.text != text:
            self.fail((text,))
        return self.advance()

    def expr(self):
        if self.cur.text == "if":
            start = self.advance().span[0]
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            otherwise = self.expr()
            return IfElse(cond=cond, then=then, otherwise=otherwise, span=(start, otherwise.span[1]))
        return self.binary(1)

    def binary(self, floor):
        lhs = self.unary() if self.cur.text in ("-", "not") else self.atom()
        ceiling = UNARY
        while floor <= (level := BIN_LEVEL.get(self.cur.text, 0)) < ceiling:
            op = self.advance().text
            rhs = self.binary(level + 1)
            lhs = Binary(op=op, lhs=lhs, rhs=rhs, span=(lhs.span[0], rhs.span[1]))
            ceiling = level if level == CMP else level + 1
        return lhs

    def unary(self):
        tok = self.advance()
        operand = self.atom()
        return Unary(op=tok.text, operand=operand, span=(tok.span[0], operand.span[1]))

    def atom(self):
        t = self.cur
        if t.kind in ("int-lit", "float-lit", "str-lit"):
            self.advance()
            return Lit(value=t.value, span=t.span)
        if t.kind == "ident":
            self.advance()
            if self.cur.text != "(":
                return Ref(name=t.text, span=t.span)
            self.advance()
            args, end = self.expr_list(")")
            return Call(name=t.text, args=args, span=(t.span[0], end))
        if t.text == "[":
            self.advance()
            elems, end = self.expr_list("]")
            return ListLit(elements=elems, span=(t.span[0], end))
        if t.text == "(":
            self.advance()
            inner = self.expr()
            end = self.expect(")").span[1]
            return dataclasses.replace(inner, span=(t.span[0], end))
        self.fail(("literal", "identifier", "(", "["))

    def expr_list(self, closer):
        items = []
        if self.cur.text != closer:
            items.append(self.expr())
            while self.cur.text == ",":
                self.advance()
                items.append(self.expr())
        return tuple(items), self.expect(closer).span[1]


def depth(e):
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in node.children())
    return deepest


def parse_expr(tokens):
    p = Parser(tokens)
    try:
        e = p.expr()
    except RecursionError:
        raise NestingError(None, "expression is nested too deeply") from None
    if p.cur.kind != "eof":
        p.fail(("end of input",))
    if len(tokens) > MAX_DEPTH and depth(e) > MAX_DEPTH:
        raise NestingError(None, f"expression is nested too deeply (more than {MAX_DEPTH} levels)")
    return e


def parse(src):
    return parse_expr(tokenize(src))
