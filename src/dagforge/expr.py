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
printer also uses to decide where parentheses go.  It builds no node: it
lists each node's class, argument and span in postorder, and each Ref's and
Call's name in source order, and ``_build`` makes the tree from these steps.
Each of its methods returns the height of the tree it parsed, so ``parse``
bounds depth by MAX_DEPTH without walking the tree.

A model repeats a few expression shapes over different names, so ``parse``
scans and parses each shape once.  Its memo key is the source with every
name run replaced by a NUL: a maximal ``[A-Za-z_][A-Za-z0-9_]*`` that does
not follow a letter, digit, ``_`` or ``.`` (so ``1e5``, ``2x`` and ``1.e5``
keep their text) and is not a keyword (so ``iffy`` is masked and ``if`` is
not).  Such a run starts a token and is one identifier token to ``_scan``,
and no step of the parser turns on an identifier's text, so two sources with
one key have the same tokens but for names, and the same tree but for names
and spans.  A step takes names by their place and holds each span endpoint
less the lengths of the names before it, so the parser's steps are the
shape's recipe: ``_build`` makes every tree ``parse`` returns, on a miss
from the steps and the parser's names, and on a hit from the recipe and the
new source's name runs.  Equal spans of built nodes are one tuple, from a
table that keeps at most ``_SPANS_SIZE`` and drops the oldest first (spans
take no part in ``==``).  A miss scans and parses as above, and keeps its
steps as a recipe only when they accept the source and the parser's names
are its masked runs in order, so every error, message and span comes from
them.  A source holding ``"`` (a string literal may hold any text) or a NUL,
or longer than ``_MEMO_SOURCE`` characters, skips the memo, which keeps at
most ``_MEMO_SIZE`` recipes and drops the oldest first.
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
        object.__setattr__(self, "span", span)

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
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Ref(Expr):
    """A reference to the node called ``name``."""

    name: str = ""

    def __init__(self, name="", *, span=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Call(Expr):
    """A call of the registered function ``name``."""

    name: str = ""
    args: tuple[Expr, ...] = ()

    def __init__(self, name="", args=(), *, span=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Unary(Expr):
    """A prefix operator, ``-`` or ``not``, over its operand."""

    op: str = "-"
    operand: Expr | None = None

    def __init__(self, op="-", operand=None, *, span=None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Binary(Expr):
    """A binary operator over its two operands."""

    op: str = "+"
    lhs: Expr | None = None
    rhs: Expr | None = None

    def __init__(self, op="+", lhs=None, rhs=None, *, span=None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class IfElse(Expr):
    """``if cond then then else otherwise``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None

    def __init__(self, cond=None, then=None, otherwise=None, *, span=None):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", then)
        object.__setattr__(self, "otherwise", otherwise)
        object.__setattr__(self, "span", span)


@dataclass(init=False, repr=False, eq=False, slots=True)
class ListLit(Expr):
    """A list display: ``[elements]``."""

    elements: tuple[Expr, ...] = ()

    def __init__(self, elements=(), *, span=None):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "span", span)


# _build sets a node's slots through their descriptors, which costs half of
# what object.__setattr__ does; the constructors call object.__setattr__, as
# every record does.  Each class's span goes through its own descriptor:
# Python 3.10 gives each subclass a span slot of its own over Expr's.
_new = object.__new__
_set_span = {cls: cls.span.__set__ for cls in (Lit, Ref, Call, Unary, Binary, IfElse, ListLit)}
_set_value, _set_ref = Lit.value.__set__, Ref.name.__set__
_set_callee, _set_args = Call.name.__set__, Call.args.__set__
_set_prefix, _set_operand = Unary.op.__set__, Unary.operand.__set__
_set_op, _set_lhs, _set_rhs = Binary.op.__set__, Binary.lhs.__set__, Binary.rhs.__set__
_set_cond, _set_then, _set_otherwise = IfElse.cond.__set__, IfElse.then.__set__, IfElse.otherwise.__set__
_set_elements = ListLit.elements.__set__


class _Parser:
    # It builds no node: it appends to ``steps`` each node's recipe step for
    # _build, in postorder, and to ``names`` each Ref's and Call's name, in
    # source order, and each method returns the height of the tree it parsed.
    # A node spans the first to the last token its method reads.  A token's
    # text fixes its kind, except that literals and identifiers must be told
    # apart by kind, which only atom does.

    def __init__(self, kinds, texts, spans, values):
        self.kinds, self.texts, self.spans, self.values = kinds, texts, spans, values
        self.pos = 0
        self.steps, self.names = [], []
        self.length = 0  # of the names read so far

    def fail(self, expected: tuple[str, ...]):
        pos = self.pos
        found = self.texts[pos] if self.kinds[pos] != "eof" else "end of input"
        raise ParseError(self.spans[pos], expected, found)

    def expect(self, text: str):
        """Consume ``text``."""
        pos = self.pos
        if self.texts[pos] != text:
            self.fail((text,))
        self.pos = pos + 1

    def add(self, cls, arg, start: int, count: int):
        """Append the step of a node that starts at ``start`` less the length
        of the ``count`` names before it, and ends at the last token read."""
        self.steps.append((cls, arg, start, count, self.spans[self.pos - 1][1] - self.length, len(self.names)))

    def expr(self) -> int:
        pos = self.pos
        if self.texts[pos] != "if":
            return self.binary(1)
        start, count = self.spans[pos][0] - self.length, len(self.names)
        self.pos = pos + 1
        height = self.expr()
        self.expect("then")
        height = max(height, self.expr())
        self.expect("else")
        height = max(height, self.expr())
        self.add(IfElse, None, start, count)
        return height + 1

    def binary(self, floor: int) -> int:
        """Binary operators of level ``floor`` or tighter, left-associative.

        Each right operand takes only tighter operators.  After a comparison
        only a looser operator may follow, so comparisons do not chain.
        """
        texts = self.texts
        # going straight to atom keeps a call or list level to four frames
        height = self.unary() if texts[self.pos] in ("-", "not") else self.atom()
        ceiling = _UNARY
        while floor <= (level := _BIN_LEVEL.get(op := texts[self.pos], 0)) < ceiling:
            lhs = self.steps[-1]  # this node starts where its left operand does
            self.pos += 1
            rhs = self.binary(level + 1)
            height = (height if height > rhs else rhs) + 1
            self.add(Binary, op, lhs[2], lhs[3])
            ceiling = level if level == _CMP else level + 1
        return height

    def unary(self) -> int:
        pos = self.pos
        start, count = self.spans[pos][0] - self.length, len(self.names)
        self.pos = pos + 1
        height = self.atom()
        self.add(Unary, self.texts[pos], start, count)
        return height + 1

    def atom(self) -> int:
        pos = self.pos
        kind = self.kinds[pos]
        length, count = self.length, len(self.names)
        start, end = self.spans[pos]
        start -= length
        if kind == "ident":
            name = self.texts[pos]
            self.names.append(name)
            self.length = length = length + len(name)
            if self.texts[pos + 1] != "(":  # an ident is never the last token
                self.pos = pos + 1
                # add's step for a node of one token, the commonest nodes
                self.steps.append((Ref, count, start, count, end - length, count + 1))
                return 1
            self.pos = pos + 2
            items, height = self._expr_list(")")
            cls, arg = Call, (count, items)
        elif kind in ("int-lit", "float-lit", "str-lit"):
            self.pos = pos + 1
            self.steps.append((Lit, self.values[pos], start, count, end - length, count))
            return 1
        elif (text := self.texts[pos]) == "[":
            self.pos = pos + 1
            items, height = self._expr_list("]")
            cls, arg = ListLit, items
        elif text == "(":
            self.pos = pos + 1
            height = self.expr()
            self.expect(")")
            # the inner node is re-spanned to the parenthesized extent, at its own height
            cls, arg = self.steps.pop()[:2]
            self.add(cls, arg, start, count)
            return height
        else:
            self.fail(("literal", "identifier", "(", "["))
        self.add(cls, arg, start, count)
        return height + 1

    def _expr_list(self, closer: str) -> tuple[int, int]:
        """How many comma-separated expressions precede ``closer``, which it
        consumes, and the greatest of their heights (0 for none)."""
        count = height = 0
        if self.texts[self.pos] != closer:
            height = self.expr()
            count = 1
            while self.texts[self.pos] == ",":
                self.pos += 1
                height = max(height, self.expr())
                count += 1
        self.expect(closer)
        return count, height


def parse(src: str) -> Expr:
    """Scan and parse source text into a single expression.

    A tree deeper than MAX_DEPTH is a NestingError, as is nesting that
    exhausts the parser's own stack first, such as ~330 parentheses.
    A source of a shape parsed before is built from the shape's recipe.
    """
    memo = len(src) <= _MEMO_SOURCE and '"' not in src and "\0" not in src
    if memo:
        parts = _NAME_RUN.split(src)  # text, name, text, ..., name, text
        key = "\0".join(parts[::2])
        recipe = _memo.get(key)
        if recipe is not None:
            return _build(recipe, parts[1::2])
    # four parallel tuples: every token's kind, every token's text, ...
    p = _Parser(*zip(*_scan(src)))
    try:
        height = p.expr()
    except RecursionError:
        raise NestingError(None, "expression is nested too deeply") from None
    if p.kinds[p.pos] != "eof":
        p.fail(("end of input",))
    if height > MAX_DEPTH:
        raise NestingError(None, f"expression is nested too deeply (more than {MAX_DEPTH} levels)")
    if memo and p.names == parts[1::2]:
        if len(_memo) >= _MEMO_SIZE:
            _memo.pop(next(iter(_memo)), None)  # the oldest shape
        _memo[key] = tuple(p.steps)
    return _build(p.steps, p.names)


# --- the shape memo -----------------------------------------------------

# A run that _scan reads as one identifier token, unless it is a keyword:
# maximal, and not inside a number or a name (``1e5``, ``2x``, ``1.e5``).
_NAME_RUN = re.compile(r"(?<![A-Za-z0-9_.])(?!(?:%s)(?![A-Za-z0-9_]))(%s)"
                       % ("|".join(sorted(KEYWORDS)), _IDENT.pattern))
_MEMO_SIZE = 256  # recipes, the oldest dropped first
_MEMO_SOURCE = 256  # the longest source the memo takes, in characters
_memo: dict[str, tuple] = {}
_SPANS_SIZE = 1024  # spans shared by built nodes, the oldest dropped first
_spans: dict[tuple[int, int], tuple[int, int]] = {}


def _build(steps, names: list[str]) -> Expr:
    """A fresh tree from postorder steps and the names that their Refs and
    Calls take by place; equal spans are one tuple.

    A step is ``(class, argument, start, i, end, j)``: the node's span is
    ``(start + c[i], end + c[j])``, where ``c[k]`` is the length of the
    first ``k`` names.  The parser's steps are in this form, so they build
    the tree of any source of their shape.
    """
    c = list(accumulate(map(len, names), initial=0))
    stack = []
    push, pop, shared, set_span = stack.append, stack.pop, _spans.get, _set_span
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
        span = (start + c[i], end + c[j])
        known = shared(span)
        if known is None:
            if len(_spans) >= _SPANS_SIZE:
                _spans.pop(next(iter(_spans)), None)  # the oldest span
            _spans[span] = known = span
        set_span[cls](e, known)
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
    """Render an expression as source; a tree a parse gives re-parses to an equal tree.

    A hand-built literal may not: ``True``, ``False``, ``inf`` and ``nan``
    print as names, which re-parse as references, an int outside 64 bits
    prints as text the lexer rejects, and a negative number re-parses as a
    unary minus over its magnitude.  ``output.model_hash`` hashes this text,
    so it inherits the limit.  An operator outside the grammar, a field of a
    type a parse does not give, and an object that is not a node are each a
    TypeError.
    """
    return _print(e)
