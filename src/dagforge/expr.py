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

``parse`` is the one entry, and it builds no object per token.  ``_scan``
applies one compiled regular expression at each position and records each
token as a plain ``(kind, text, span, value)`` tuple; numbers are ASCII
digits only, and a literal outside the 64-bit integer range or too large for
a finite float is a LexError.  ``_Parser`` reads the tokens as four parallel
tuples at an int position.  It descends only for if-else, prefix operators
and atoms: the five binary levels are one precedence-climbing loop (Pratt,
"Top down operator precedence", 1973) over ``_BIN_LEVEL``, the table the
printer also uses to decide where parentheses go.  It fills the slots of the
nodes it builds directly, skipping the frozen ``__init__``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import LexError, NestingError, ParseError
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .registry import FunctionRegistry

__all__ = [
    "Expr", "Lit", "Ref", "Call", "Unary", "Binary", "IfElse", "ListLit",
    "parse", "analyse", "pretty_print", "KEYWORDS", "MAX_DEPTH",
]

KEYWORDS = frozenset({"if", "then", "else", "and", "or", "not"})

# what the scanner reads as an identifier; node and function names must be one
_IDENT = re.compile("[A-Za-z_][A-Za-z0-9_]*")


def _name_problem(name) -> str | None:
    """Why ``name`` cannot name a node or a function, or None if it can."""
    if not isinstance(name, str) or not _IDENT.fullmatch(name):
        return "is not a valid identifier"
    return "is a reserved word" if name in KEYWORDS else None


# The deepest expression tree that parses.  The code generator and the
# printer recurse once or twice per level and the parser four times per call
# or list level, so this keeps them all well inside the interpreter's
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


# Leading whitespace, then one token; the group that matched names its kind.
# A '"' that starts no complete string literal matches no group.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<ident>""" + _IDENT.pattern + r""")
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


def _scan(src: str) -> list[tuple[str, str, tuple[int, int], object]]:
    """The ``(kind, text, span, value)`` of each token of ``src``, eof last."""
    tokens = []
    add, match = tokens.append, _TOKEN_RE.match
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
        span = m.span(kind)
        pos = span[1]
        value = None
        if kind == "ident":
            if text in KEYWORDS:
                kind = "operator"
        elif kind == "int":
            kind = "int-lit"
            # int() refuses texts past its digit limit, which are out of range anyway
            digits = text.lstrip("0") or "0"
            value = int(digits) if len(digits) <= 19 else INT64_MAX + 1
            if value > INT64_MAX:
                raise LexError(span, f"integer literal {text} exceeds the 64-bit signed range")
        elif kind == "float":
            kind = "float-lit"
            value = float(text)
            if math.isinf(value):
                raise LexError(span, f"float literal {text} is too large to be finite")
        elif kind == "string":
            kind = "str-lit"
            value = _unescape(text[1:-1], span[0] + 1)
        add((kind, text, span, value))
    add(("eof", "", (n, n), None))
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


# The parser sets a new node's slots through their descriptors: the frozen
# __init__ goes through object.__setattr__, at twice the cost.
_new = object.__new__
_set_span = Expr.span.__set__
_set_value, _set_ref = Lit.value.__set__, Ref.name.__set__
_set_callee, _set_args = Call.name.__set__, Call.args.__set__
_set_prefix, _set_operand = Unary.op.__set__, Unary.operand.__set__
_set_op, _set_lhs, _set_rhs = Binary.op.__set__, Binary.lhs.__set__, Binary.rhs.__set__
_set_cond, _set_then, _set_otherwise = IfElse.cond.__set__, IfElse.then.__set__, IfElse.otherwise.__set__
_set_elements = ListLit.elements.__set__


class _Parser:
    # A token's text fixes its kind, except that literals and identifiers
    # must be told apart by kind, which only atom does.

    def __init__(self, kinds, texts, spans, values):
        self.kinds, self.texts, self.spans, self.values = kinds, texts, spans, values
        self.pos = 0

    def fail(self, expected: tuple[str, ...]):
        pos = self.pos
        found = self.texts[pos] if self.kinds[pos] != "eof" else "end of input"
        raise ParseError(self.spans[pos], expected, found)

    def expect(self, text: str) -> int:
        """Consume ``text`` and return its end offset."""
        pos = self.pos
        if self.texts[pos] != text:
            self.fail((text,))
        self.pos = pos + 1
        return self.spans[pos][1]

    def expr(self) -> Expr:
        start = self.pos
        if self.texts[start] != "if":
            return self.binary(1)
        self.pos = start + 1
        cond = self.expr()
        self.expect("then")
        then = self.expr()
        self.expect("else")
        otherwise = self.expr()
        e = _new(IfElse)
        _set_cond(e, cond)
        _set_then(e, then)
        _set_otherwise(e, otherwise)
        _set_span(e, (self.spans[start][0], otherwise.span[1]))
        return e

    def binary(self, floor: int) -> Expr:
        """Binary operators of level ``floor`` or tighter, left-associative.

        Each right operand takes only tighter operators.  After a comparison
        only a looser operator may follow, so comparisons do not chain.
        """
        texts = self.texts
        # going straight to atom keeps a call or list level to four frames
        lhs = self.unary() if texts[self.pos] in ("-", "not") else self.atom()
        ceiling = _UNARY
        while floor <= (level := _BIN_LEVEL.get(op := texts[self.pos], 0)) < ceiling:
            self.pos += 1
            rhs = self.binary(level + 1)
            e = _new(Binary)
            _set_op(e, op)
            _set_lhs(e, lhs)
            _set_rhs(e, rhs)
            _set_span(e, (lhs.span[0], rhs.span[1]))
            lhs = e
            ceiling = level if level == _CMP else level + 1
        return lhs

    def unary(self) -> Expr:
        start = self.pos
        self.pos = start + 1
        operand = self.atom()
        e = _new(Unary)
        _set_prefix(e, self.texts[start])
        _set_operand(e, operand)
        _set_span(e, (self.spans[start][0], operand.span[1]))
        return e

    def atom(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            if self.texts[pos + 1] != "(":  # an ident is never the last token
                self.pos = pos + 1
                e = _new(Ref)
                _set_ref(e, self.texts[pos])
                _set_span(e, self.spans[pos])
                return e
            self.pos = pos + 2
            args, end = self._expr_list(")")
            e = _new(Call)
            _set_callee(e, self.texts[pos])
            _set_args(e, args)
        elif kind in ("int-lit", "float-lit", "str-lit"):
            self.pos = pos + 1
            e = _new(Lit)
            _set_value(e, self.values[pos])
            _set_span(e, self.spans[pos])
            return e
        elif (text := self.texts[pos]) == "[":
            self.pos = pos + 1
            elements, end = self._expr_list("]")
            e = _new(ListLit)
            _set_elements(e, elements)
        elif text == "(":
            self.pos = pos + 1
            e = self.expr()
            end = self.expect(")")
            # the inner node is new, so it is re-spanned in place to the parenthesized extent
        else:
            self.fail(("literal", "identifier", "(", "["))
        _set_span(e, (self.spans[pos][0], end))
        return e

    def _expr_list(self, closer: str) -> tuple[tuple[Expr, ...], int]:
        """Comma-separated expressions through ``closer``, and the closer's end."""
        items = []
        if self.texts[self.pos] != closer:
            items.append(self.expr())
            while self.texts[self.pos] == ",":
                self.pos += 1
                items.append(self.expr())
        return tuple(items), self.expect(closer)


def parse(src: str) -> Expr:
    """Scan and parse source text into a single expression.

    A tree deeper than MAX_DEPTH is a NestingError, as is nesting that
    exhausts the parser's own stack first, such as ~330 parentheses.
    """
    tokens = _scan(src)
    # four parallel tuples: every token's kind, every token's text, ...
    p = _Parser(*zip(*tokens))
    try:
        e = p.expr()
    except RecursionError:
        raise NestingError(None, "expression is nested too deeply") from None
    if p.kinds[p.pos] != "eof":
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


# --- the walk ---------------------------------------------------------

# a literal's key token, which is the static kind of its value ("literal" when
# none is known); int and float share one, since code that is right for one
# number is right for the other
_LITERAL = {int: "num", float: "num", bool: "bool"}
_BINARY = frozenset(_BIN_LEVEL)
# the node classes, most frequent first; dict keys keep the order
_NODE_CLASSES = dict.fromkeys((Ref, Lit, Binary, Call, IfElse, Unary, ListLit))
_LEAVE_FAILED = object()  # pushed under a failed node's children; popping it leaves the node


def analyse(e: Expr, registry: FunctionRegistry) -> tuple[tuple, list, bool, list[str], list[str]]:
    """``(key, operands, draws, refs, problems)`` of ``e``, from one iterative preorder walk.

    The shape key holds the operators, the kind and argument count of each
    call and the *type* of each literal; the operands, in emission order, are
    the reference names, literal values, spans, registry implementations and
    error messages.  ``draws`` tells whether the code may call a stochastic or
    an unknown function, ``refs`` are the referenced names in first-mention
    order and ``problems`` what is wrong with each call site that does not
    resolve; each is looked up once.  A failed call, or a hand-built unknown
    operator or node, emits code that raises when reached; nothing under it
    emits, but its references and call problems are still collected.
    """
    key, operands, problems, refs = [], [], [], {}
    draws, failed = False, 0  # failed: how many failed nodes the walk is under
    stack = [e]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        cls = type(node)
        if cls not in _NODE_CLASSES:
            if node is _LEAVE_FAILED:
                failed -= 1
                continue
            cls = next((c for c in _NODE_CLASSES if isinstance(node, c)), None)  # a subclass, in a hand-built AST
        if cls is Ref:
            refs[node.name] = None
            if not failed:
                key.append("r")
                operands += (node.span, node.name)
            continue
        if cls is Lit:
            if not failed:
                key.append(_LITERAL.get(type(node.value), "literal"))
                operands.append(node.value)
            continue
        if cls is Binary and node.op in _BINARY:
            if not failed:
                key.append(node.op)
                operands.append(node.span)
            push((node.rhs, node.lhs))
            continue
        if cls is Call:
            args = node.args
            entry, message = registry.resolve(node.name, len(args))
            if message is None:
                if not failed:
                    key += ("s" if entry.stochastic else "c", len(args))
                    operands += (node.span, entry.impl)
                    draws |= entry.stochastic
                push(args[::-1])
                continue
            problems.append(message)
            may_draw = entry is None or entry.stochastic
        elif cls is IfElse:
            if not failed:
                key.append("if")
                operands.append(node.span)
            push((node.otherwise, node.then, node.cond))
            continue
        elif cls is Unary:
            if not failed:
                key.append("not" if node.op == "not" else "neg")
                operands.append(node.span)
            stack.append(node.operand)
            continue
        elif cls is ListLit:
            if not failed:
                key += ("[", len(node.elements))
            push(node.elements[::-1])
            continue
        elif cls is Binary:  # only a hand-built AST gets here
            message, may_draw = f"unknown operator {node.op!r}", False
        else:
            message, may_draw = f"cannot evaluate node of type {type(node).__name__}", False
        if not failed:
            key.append("!")
            operands += (node.span, message)
            draws |= may_draw
        failed += 1
        push((_LEAVE_FAILED, *node.children()[::-1]))
    return tuple(key), operands, draws, list(refs), problems


# --- printing ----------------------------------------------------------

def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _print(e: Expr, minimum: int = 0, cls: type | None = None) -> str:
    """``e`` as source, in parentheses when it binds more loosely than the
    level ``minimum``: 0 takes any expression, ``_ATOM`` only an atom.

    It dispatches on the exact node class, most frequent first; ``cls`` is
    the node class that a subclass, in a hand-built AST, is printed as.
    """
    if cls is None:
        cls = type(e)
    if cls is Binary:
        level = _BIN_LEVEL[e.op]
        # comparisons don't chain: a comparison's operands bind tighter on both sides
        text = f"{_print(e.lhs, level + (level == _CMP))} {e.op} {_print(e.rhs, level + 1)}"
        return f"({text})" if level < minimum else text
    if cls is Lit:
        v = e.value
        if type(v) is int or type(v) is float:
            return repr(v)
        if isinstance(v, str):
            return f'"{_escape(v)}"'
        return repr(v) if isinstance(v, float) else str(v)
    if cls is Ref:
        return e.name
    if cls is Call:
        return f"{e.name}({', '.join([_print(a) for a in e.args])})"
    if cls is IfElse:
        text = f"if {_print(e.cond)} then {_print(e.then)} else {_print(e.otherwise)}"
        return f"({text})" if minimum else text
    if cls is Unary:
        text = f"{'not ' if e.op == 'not' else e.op}{_print(e.operand, _ATOM)}"
        return f"({text})" if _UNARY < minimum else text
    if cls is ListLit:
        return f"[{', '.join([_print(el) for el in e.elements])}]"
    for base in _NODE_CLASSES:
        if isinstance(e, base):
            return _print(e, minimum, base)
    raise TypeError(f"not an expression node: {e!r}")


def pretty_print(e: Expr) -> str:
    """Render an expression to source that re-parses to a structurally equal tree.

    Negative numeric literals re-parse as a unary minus over the positive
    literal; parser-produced trees never contain negative literals, so the
    round trip is exact for parsed source.
    """
    return _print(e)
