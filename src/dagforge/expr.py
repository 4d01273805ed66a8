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
nodes it builds through their descriptors, as a node's ``__init__`` does,
without calling it.

A model repeats a few expression shapes over different names, so ``parse``
scans and parses each shape once.  Its memo key is the source with every
name run replaced by a NUL: a maximal ``[A-Za-z_][A-Za-z0-9_]*`` that does
not follow a letter, digit, ``_`` or ``.`` (so ``1e5``, ``2x`` and ``1.e5``
keep their text) and is not a keyword (so ``iffy`` is masked and ``if`` is
not).  Such a run starts a token and is one identifier token to ``_scan``,
and the parser never reads an identifier's text, so two sources with one
key have the same tokens but for names, and the same tree but for names and
spans.  A hit builds fresh nodes from the recipe of the shape's first
source: names in source order, each span endpoint shifted by the lengths of
the names before it.  A miss scans and parses as above, and only a source
they accept, whose Ref and Call names are its masked runs in order, leaves a
recipe, so every error, message and span comes from them.  A source holding
``"`` (a string literal may hold any text) or a NUL, or longer than
``_MEMO_SOURCE`` characters, skips the memo, which keeps at most
``_MEMO_SIZE`` recipes and drops the oldest first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import LexError, NestingError, ParseError
from .frozen import Frozen
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

@dataclass(init=False, repr=False, eq=False, slots=True)
class Expr(Frozen):
    """An expression node; ``span`` is its ``(start, end)`` in the source, if any."""

    # span excluded from equality so printed-then-reparsed trees compare equal
    span: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)

    def __init__(self, *, span=None):
        _set_span(self, span)

    def children(self) -> tuple["Expr", ...]:
        """Direct subexpressions, left to right."""
        return ()

    # copy and pickle restore the slots through here, not through __setattr__
    def __getstate__(self):
        return [getattr(self, f.name) for f in fields(self)]

    def __setstate__(self, state):
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Lit(Expr):
    """A literal: a bool, int, float or str."""

    value: Value = None

    def __init__(self, value=None, *, span=None):
        _set_value(self, value)
        _set_span(self, span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Ref(Expr):
    """A reference to the node called ``name``."""

    name: str = ""

    def __init__(self, name="", *, span=None):
        _set_ref(self, name)
        _set_span(self, span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Call(Expr):
    """A call of the registered function ``name``."""

    name: str = ""
    args: tuple[Expr, ...] = ()

    def __init__(self, name="", args=(), *, span=None):
        _set_callee(self, name)
        _set_args(self, args)
        _set_span(self, span)

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(init=False, repr=False, eq=False, slots=True)
class Unary(Expr):
    """A prefix operator, ``-`` or ``not``, over its operand."""

    op: str = "-"
    operand: Expr | None = None

    def __init__(self, op="-", operand=None, *, span=None):
        _set_prefix(self, op)
        _set_operand(self, operand)
        _set_span(self, span)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Binary(Expr):
    """A binary operator over its two operands."""

    op: str = "+"
    lhs: Expr | None = None
    rhs: Expr | None = None

    def __init__(self, op="+", lhs=None, rhs=None, *, span=None):
        _set_op(self, op)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_span(self, span)

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass(init=False, repr=False, eq=False, slots=True)
class IfElse(Expr):
    """``if cond then then else otherwise``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None

    def __init__(self, cond=None, then=None, otherwise=None, *, span=None):
        _set_cond(self, cond)
        _set_then(self, then)
        _set_otherwise(self, otherwise)
        _set_span(self, span)

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)


@dataclass(init=False, repr=False, eq=False, slots=True)
class ListLit(Expr):
    """A list display: ``[elements]``."""

    elements: tuple[Expr, ...] = ()

    def __init__(self, elements=(), *, span=None):
        _set_elements(self, elements)
        _set_span(self, span)

    def children(self) -> tuple[Expr, ...]:
        return self.elements


# The constructors and the parser set a node's slots through their
# descriptors: object.__setattr__ costs twice as much.
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
    A source of a shape parsed before is built from the shape's recipe.
    """
    if len(src) > _MEMO_SOURCE or '"' in src or "\0" in src:
        return _parse(src)
    parts = _NAME_RUN.split(src)  # text, name, text, ..., name, text
    key = "\0".join(parts[::2])
    recipe = _memo.get(key)
    if recipe is not None:
        return _build(recipe, parts[1::2])
    e = _parse(src)
    recipe = _recipe(e, parts)
    if recipe is not None:
        if len(_memo) >= _MEMO_SIZE:
            _memo.pop(next(iter(_memo)), None)  # the oldest shape
        _memo[key] = recipe
    return e


def _parse(src: str) -> Expr:
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


# --- the shape memo -----------------------------------------------------

# A run that _scan reads as one identifier token, unless it is a keyword:
# maximal, and not inside a number or a name (``1e5``, ``2x``, ``1.e5``).
_NAME_RUN = re.compile(r"(?<![A-Za-z0-9_.])(?!(?:%s)(?![A-Za-z0-9_]))(%s)"
                       % ("|".join(sorted(KEYWORDS)), _IDENT.pattern))
_MEMO_SIZE = 256  # recipes, the oldest dropped first
_MEMO_SOURCE = 256  # the longest source the memo takes, in characters
_memo: dict[str, tuple] = {}


def _recipe(e: Expr, parts: list[str]) -> tuple | None:
    """The steps that build ``e`` again for another source of its shape,
    or None if its Ref and Call names are not the runs ``parts`` masks.

    A step is ``(class, argument, start, i, end, j)`` in postorder: the
    node's span is ``(start + c[i], end + c[j])``, where ``c[k]`` is the
    length of the first ``k`` names of the source it is built for.
    """
    names = parts[1::2]
    # each Ref's and Call's place among the names, in source order
    place, stack = {}, [e]
    while stack:
        node = stack.pop()
        if type(node) is Ref or type(node) is Call:
            if len(place) == len(names) or node.name != names[len(place)]:
                return None
            place[id(node)] = len(place)
        stack.extend(reversed(node.children()))
    if len(place) != len(names):
        return None
    # a span endpoint lies between tokens, so never inside a name
    ends = list(accumulate(map(len, parts)))[1::2]
    length = list(accumulate(map(len, names), initial=0))

    def at(offset):
        k = sum(end <= offset for end in ends)
        return offset - length[k], k

    steps, stack = [], [e]
    while stack:  # root first, children right to left: postorder reversed
        node = stack.pop()
        cls = type(node)
        if cls is Ref:
            arg = place[id(node)]
        elif cls is Call:
            arg = place[id(node)], len(node.args)
        elif cls is Lit:
            arg = node.value
        elif cls is Binary or cls is Unary:
            arg = node.op
        elif cls is ListLit:
            arg = len(node.elements)
        else:
            arg = None
        steps.append((cls, arg, *at(node.span[0]), *at(node.span[1])))
        stack.extend(node.children())
    steps.reverse()
    return tuple(steps)


def _build(steps: tuple, names: list[str]) -> Expr:
    """A fresh tree from a shape's steps and another source's names."""
    c = list(accumulate(map(len, names), initial=0))
    stack = []
    push, pop = stack.append, stack.pop
    for cls, arg, start, i, end, j in steps:
        e = _new(cls)
        if cls is Ref:
            _set_ref(e, names[arg])
        elif cls is Lit:
            _set_value(e, arg)
        elif cls is Binary:
            rhs = pop()
            _set_op(e, arg)
            _set_lhs(e, pop())
            _set_rhs(e, rhs)
        elif cls is Call:
            cut = len(stack) - arg[1]
            _set_callee(e, names[arg[0]])
            _set_args(e, tuple(stack[cut:]))
            del stack[cut:]
        elif cls is IfElse:
            otherwise, then = pop(), pop()
            _set_cond(e, pop())
            _set_then(e, then)
            _set_otherwise(e, otherwise)
        elif cls is Unary:
            _set_prefix(e, arg)
            _set_operand(e, pop())
        else:
            cut = len(stack) - arg
            _set_elements(e, tuple(stack[cut:]))
            del stack[cut:]
        _set_span(e, (start + c[i], end + c[j]))
        push(e)
    return stack[0]


# --- the walk ---------------------------------------------------------

# a literal's key token, which is the static kind of its value ("literal" for a
# str); int and float share one, since code that is right for one number is
# right for the other.  The keys are the value types a parse gives.
_LITERAL = {int: "num", float: "num", bool: "bool", str: "literal"}
_PREFIX = {"-": "neg", "not": "not"}  # each prefix operator's key token
# the node classes, most frequent first; dict keys keep the order
_NODE_CLASSES = dict.fromkeys((Ref, Lit, Binary, Call, IfElse, Unary, ListLit))


def analyse(e: Expr, registry: FunctionRegistry) -> tuple[tuple, list, bool, list[str], list[str]]:
    """``(key, operands, draws, refs, problems)`` of ``e``, from one iterative preorder walk.

    The shape key holds the operators, the kind and argument count of each
    call and the *type* of each literal; the operands, in emission order, are
    the reference names, literal values, spans and registry implementations.
    ``draws`` tells whether the code may call a stochastic function, ``refs``
    are the referenced names in first-mention order and ``problems`` what
    cannot run, in preorder: each call site that does not resolve (each is
    looked up once), and what only a hand-built tree holds: each operator
    outside the grammar, unknown node, and field of a type a parse does not
    give (a ``Ref`` or ``Call`` name or an operator that is not a str, a
    literal that is not a bool, int, float or str, call arguments or list
    elements that are not a tuple).  A tree with a problem has no program,
    so its key and operands describe none; the walk goes on under a failed
    call or operator for references and problems, and does not enter an
    unknown node or a field that is not a tuple.
    """
    key, operands, problems, refs = [], [], [], {}
    draws = False
    stack = [e]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        cls = type(node)
        if cls not in _NODE_CLASSES:
            cls = next((c for c in _NODE_CLASSES if isinstance(node, c)), None)  # a subclass, in a hand-built AST
        if cls is Ref:
            name = node.name
            if type(name) is str:
                refs[name] = None
                key.append("r")
                operands += (node.span, name)
            else:
                problems.append(_bad_field(node, "name"))
        elif cls is Lit:
            token = _LITERAL.get(type(node.value))
            if token is not None:
                key.append(token)
                operands.append(node.value)
            else:
                problems.append(_bad_field(node, "value"))
        elif cls is Binary:
            op = node.op
            if type(op) is str and op in _BIN_LEVEL:
                key.append(op)
                operands.append(node.span)
            else:
                problems.append(_op_problem(node))
            push((node.rhs, node.lhs))
        elif cls is Call:
            name, args = node.name, node.args
            if type(name) is not str:
                problems.append(_bad_field(node, "name"))
            elif type(args) is tuple:
                entry, message = registry.resolve(name, len(args))
                if message is None:
                    key += ("s" if entry.stochastic else "c", len(args))
                    operands += (node.span, entry.impl)
                    draws |= entry.stochastic
                else:
                    problems.append(message)
            if type(args) is tuple:
                push(args[::-1])
            else:
                problems.append(_bad_field(node, "args"))
        elif cls is IfElse:
            key.append("if")
            operands.append(node.span)
            push((node.otherwise, node.then, node.cond))
        elif cls is Unary:
            op = node.op
            if type(op) is str and op in _PREFIX:
                key.append(_PREFIX[op])
                operands.append(node.span)
            else:
                problems.append(_op_problem(node))
            stack.append(node.operand)
        elif cls is ListLit:
            elements = node.elements
            if type(elements) is tuple:
                key += ("[", len(elements))
                push(elements[::-1])
            else:
                problems.append(_bad_field(node, "elements"))
        else:
            problems.append(f"cannot evaluate node of type {type(node).__name__}")
    return tuple(key), operands, draws, list(refs), problems


# what each field a parse fills must be, where a hand-built tree may hold something else
_FIELD_TYPES = {"name": "a str", "op": "a str", "value": "a bool, int, float or str",
                "args": "a tuple", "elements": "a tuple"}


def _bad_field(node: Expr, name: str) -> str:
    """The problem of ``node``, whose field ``name`` holds a type a parse does not give."""
    return f"{type(node).__name__}.{name} must be {_FIELD_TYPES[name]}, got {type(getattr(node, name)).__name__}"


def _op_problem(node: Expr) -> str:
    """The problem of ``node``, whose operator is outside the grammar."""
    return f"unknown operator {node.op!r}" if type(node.op) is str else _bad_field(node, "op")


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
        level = _BIN_LEVEL.get(e.op) if type(e.op) is str else None
        if level is None:
            raise TypeError(_op_problem(e))
        # comparisons don't chain: a comparison's operands bind tighter on both sides
        text = f"{_print(e.lhs, level + (level == _CMP))} {e.op} {_print(e.rhs, level + 1)}"
        return f"({text})" if level < minimum else text
    if cls is Lit:
        v = e.value
        if type(v) is int or type(v) is float:
            return repr(v)
        if type(v) is str:
            return f'"{_escape(v)}"'
        if type(v) is bool:
            return str(v)
        raise TypeError(_bad_field(e, "value"))
    if cls is Ref:
        if type(e.name) is not str:
            raise TypeError(_bad_field(e, "name"))
        return e.name
    if cls is Call:
        if type(e.name) is not str:
            raise TypeError(_bad_field(e, "name"))
        if type(e.args) is not tuple:
            raise TypeError(_bad_field(e, "args"))
        return f"{e.name}({', '.join([_print(a) for a in e.args])})"
    if cls is IfElse:
        text = f"if {_print(e.cond)} then {_print(e.then)} else {_print(e.otherwise)}"
        return f"({text})" if minimum else text
    if cls is Unary:
        if type(e.op) is not str or e.op not in _PREFIX:
            raise TypeError(_op_problem(e))
        text = f"{'not ' if e.op == 'not' else e.op}{_print(e.operand, _ATOM)}"
        return f"({text})" if _UNARY < minimum else text
    if cls is ListLit:
        if type(e.elements) is not tuple:
            raise TypeError(_bad_field(e, "elements"))
        return f"[{', '.join([_print(el) for el in e.elements])}]"
    for base in _NODE_CLASSES:
        if isinstance(e, base):
            return _print(e, minimum, base)
    raise TypeError(f"not an expression node: {e!r}")


def pretty_print(e: Expr) -> str:
    """Render an expression to source that re-parses to a structurally equal tree.

    Negative numeric literals re-parse as a unary minus over the positive
    literal; parser-produced trees never contain negative literals, so the
    round trip is exact for parsed source.  An operator outside the grammar,
    a field of a type a parse does not give, and an object that is not a
    node are each a TypeError.
    """
    return _print(e)
