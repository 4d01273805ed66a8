import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import reference_expr
from conftest import preorder
from dagforge import expr, parse, pretty_print
from dagforge.errors import LexError, NestingError, ParseError
from dagforge.evaluator import compile_node
from dagforge.expr import MAX_DEPTH, Binary, Call, IfElse, Lit, ListLit, Ref, Unary


def kinds_and_texts(src):
    return [(kind, text) for kind, text, _, _ in expr._scan(src)]


def test_tokenize_call():
    assert kinds_and_texts("uniform(0,1)") == [
        ("ident", "uniform"), ("punct", "("), ("int-lit", "0"),
        ("punct", ","), ("int-lit", "1"), ("punct", ")"), ("eof", ""),
    ]


def test_tokenize_arithmetic():
    assert kinds_and_texts("1 - U1") == [
        ("int-lit", "1"), ("operator", "-"), ("ident", "U1"), ("eof", ""),
    ]


def test_unclosed_call_lexes_but_does_not_parse():
    # lexing and parsing are separate stages
    assert expr._scan('binomial(1, "H"')[-1][0] == "eof"
    with pytest.raises(ParseError):
        parse('binomial(1, "H"')


def test_lex_errors():
    with pytest.raises(LexError):
        parse("1 @ 2")
    with pytest.raises(LexError):
        parse('"unterminated')
    with pytest.raises(LexError):
        parse(r'"bad \q escape"')
    with pytest.raises(LexError):
        parse(str(2**63))  # one past the signed range
    assert parse(str(2**63 - 1)).value == 2**63 - 1


@pytest.mark.parametrize("src, span", [
    ("1 + \u00b2", (4, 5)),  # superscript two: a digit to str.isdigit, not to int()
    ("\u0663 + 1", (0, 1)),  # Arabic-Indic three
    ("12\u00b2", (2, 3)),
])
def test_only_ascii_digits_are_digits(src, span):
    with pytest.raises(LexError) as exc:
        parse(src)
    assert exc.value.message == f"unexpected character {src[span[0]]!r}"
    assert exc.value.span == span


def test_non_finite_float_literal_is_a_lex_error():
    # it would print as ``inf``, which re-parses as a reference
    for src in ("1e999 + 1", "1.5e400", "17976931348623159" + "0" * 292 + ".0"):
        with pytest.raises(LexError, match="too large to be finite"):
            parse(src)
    assert parse("1e-999").value == 0.0
    assert parse("1.7976931348623157e308").value == 1.7976931348623157e308


def test_integer_literal_past_the_conversion_digit_limit_is_a_lex_error():
    with pytest.raises(LexError, match="exceeds the 64-bit signed range"):
        parse("1" * 5000)
    assert parse("0" * 5000 + "7").value == 7


def test_string_escapes():
    assert expr._scan(r'"a\"b\\c"')[0][0] == "str-lit"
    assert parse(r'"a\"b\\c"').value == 'a"b\\c'


def test_float_literals():
    assert expr._scan("0.5")[0][0] == "float-lit"
    assert parse("1e3").value == 1000.0
    assert parse("2.5e-2").value == 0.025


def test_parse_examples():
    assert parse("binomial(1, U1)") == Call(name="binomial", args=(Lit(value=1), Ref(name="U1")))
    assert parse("1") == Lit(value=1)
    assert parse("binomial(1, 1 - U1)") == Call(
        name="binomial",
        args=(Lit(value=1), Binary(op="-", lhs=Lit(value=1), rhs=Ref(name="U1"))),
    )


def test_parse_precedence():
    assert parse("1 + 2 * 3") == Binary(
        op="+", lhs=Lit(value=1), rhs=Binary(op="*", lhs=Lit(value=2), rhs=Lit(value=3))
    )
    assert parse("a or b and c") == Binary(
        op="or", lhs=Ref(name="a"), rhs=Binary(op="and", lhs=Ref(name="b"), rhs=Ref(name="c"))
    )
    assert parse("not x and y") == Binary(
        op="and", lhs=Unary(op="not", operand=Ref(name="x")), rhs=Ref(name="y")
    )


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError):
        parse("1 < 2 < 3")
    assert parse("(1 < 2) == (2 < 3)") == Binary(
        op="==",
        lhs=Binary(op="<", lhs=Lit(value=1), rhs=Lit(value=2)),
        rhs=Binary(op="<", lhs=Lit(value=2), rhs=Lit(value=3)),
    )


def test_if_else_nests_greedily():
    e = parse("if a then if b then x else y else z")
    assert isinstance(e, IfElse)
    assert isinstance(e.then, IfElse)
    assert e.otherwise == Ref(name="z")


def test_list_literals():
    assert parse("[1, 2]") == ListLit(elements=(Lit(value=1), Lit(value=2)))
    assert parse("[]") == ListLit(elements=())


def test_parse_error_reports_expected():
    with pytest.raises(ParseError) as exc:
        parse("1 +")
    assert "end of input" in str(exc.value)
    with pytest.raises(ParseError):
        parse("f(1,)")
    with pytest.raises(ParseError):
        parse("")


# Each source with the printed tree it parses to, or the (expected, found, span)
# of the ParseError it raises.  Recorded from the descent parser this one replaced.
_FRONT_END_CASES = [
    ("a - b - c", "a - b - c"),
    ("a / b * c", "a / b * c"),
    ("a * b / c % d", "a * b / c % d"),
    ("a - (b - c)", "a - (b - c)"),
    ("(a * b) * c", "a * b * c"),
    ("-x * y", "-x * y"),
    ("- x - y", "-x - y"),
    ("-(a + b)", "-(a + b)"),
    ("not a == b", "not a == b"),
    ("not a and b", "not a and b"),
    ("a or b and c", "a or b and c"),
    ("a and b or c", "a and b or c"),
    ("a < b and c", "a < b and c"),
    ("a + b < c * d", "a + b < c * d"),
    ("a < -b", "a < -b"),
    ("(a < b) == (c < d)", "(a < b) == (c < d)"),
    ("a == b or c != d", "a == b or c != d"),
    ("f(if a then b else c, d)", "f(if a then b else c, d)"),
    ("[if a then 1 else 2, 3]", "[if a then 1 else 2, 3]"),
    ("if a or b then c + 1 else -d", "if a or b then c + 1 else -d"),
    ("g(a, [b, c], h(1.5))", "g(a, [b, c], h(1.5))"),
    ('""', '""'),
    ("1 +", (("(", "[", "identifier", "literal"), "end of input", (3, 3))),
    ("f(1,)", (("(", "[", "identifier", "literal"), ")", (4, 5))),
    ("", (("(", "[", "identifier", "literal"), "end of input", (0, 0))),
    ("(1", ((")",), "end of input", (2, 2))),
    ("- - 1", (("(", "[", "identifier", "literal"), "-", (2, 3))),
    ("not not a", (("(", "[", "identifier", "literal"), "not", (4, 7))),
    ("a +* b", (("(", "[", "identifier", "literal"), "*", (3, 4))),
    ("a < b < c", (("end of input",), "<", (6, 7))),
    ("a and b < c < d", (("end of input",), "<", (12, 13))),
    ("f(a < b < c)", ((")",), "<", (8, 9))),
    ("[1 2]", (("]",), "2", (3, 4))),
    ("a b", (("end of input",), "b", (2, 3))),
    ("if a then b", (("else",), "end of input", (11, 11))),
    ("if a b", (("then",), "b", (5, 6))),
]


@pytest.mark.parametrize("src, want", _FRONT_END_CASES)
def test_front_end_table(src, want):
    if isinstance(want, str):
        e = parse(src)
        assert pretty_print(e) == want
        assert parse(want) == e
    else:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.expected, exc.value.found, exc.value.span) == want


# The first lex error in source order is the one reported.
_LEX_ERROR_CASES = [
    ("1 @ 2", "unexpected character '@'", (2, 3)),
    ('"abc', "unterminated string literal", (0, 4)),
    ('"a\\', "unterminated string literal", (0, 3)),
    ('"ok" + "\\"', "unterminated string literal", (7, 10)),
    ('"bad \\q', "unknown escape \\q", (5, 7)),
    ('"bad \\q escape"', "unknown escape \\q", (5, 7)),
    ('x + "\\q" @', "unknown escape \\q", (5, 7)),
    ('@ "\\q', "unexpected character '@'", (0, 1)),
    ("9223372036854775808 @", "integer literal 9223372036854775808 exceeds the 64-bit signed range", (0, 19)),
    ("a = b", "unexpected character '='", (2, 3)),
    ("1.e5", "unexpected character '.'", (1, 2)),
    ("1 + ) @", "unexpected character '@'", (6, 7)),  # the whole source is scanned before parsing
]


@pytest.mark.parametrize("src, message, span", _LEX_ERROR_CASES)
def test_lex_error_table(src, message, span):
    with pytest.raises(LexError) as exc:
        parse(src)
    assert (exc.value.message, exc.value.span) == (message, span)


def free_refs(e):
    return {node.name for node in preorder(e) if isinstance(node, Ref)}


def test_free_refs_examples():
    assert free_refs(parse('sigmoid_binomial(C, H, "H")')) == {"C", "H"}
    assert free_refs(parse("uniform(0,1)")) == set()
    assert free_refs(parse("if X > 0 then Y else Z")) == {"X", "Y", "Z"}


def test_free_refs_excludes_string_literals():
    assert free_refs(parse('concat("X", concat(Y, "Z"))')) == {"Y"}


def test_spans_cover_source_except_whitespace():
    src = 'if x > 0 then f(1.5, "a b") else [y, 2]'
    last = 0
    for _, _, (start, end), _ in expr._scan(src):
        assert start >= last
        assert src[last:start].strip() == ""
        last = end
    assert src[last:].strip() == ""


_names = st.sampled_from(["a", "b2", "x_y", "U1", "foo"])

_lits = st.one_of(
    st.integers(0, 2**63 - 1).map(lambda v: Lit(value=v)),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(lambda v: Lit(value=v)),
    st.text(max_size=8).map(lambda s: Lit(value=s)),
)

_BINOPS = ["or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]

_exprs = st.recursive(
    _lits | _names.map(lambda n: Ref(name=n)),
    lambda inner: st.one_of(
        st.builds(lambda op, a: Unary(op=op, operand=a), st.sampled_from(["-", "not"]), inner),
        st.builds(lambda op, a, b: Binary(op=op, lhs=a, rhs=b), st.sampled_from(_BINOPS), inner, inner),
        st.builds(lambda c, t, e: IfElse(cond=c, then=t, otherwise=e), inner, inner, inner),
        st.lists(inner, max_size=3).map(lambda es: ListLit(elements=tuple(es))),
        st.builds(lambda n, args: Call(name=n, args=tuple(args)), _names, st.lists(inner, max_size=3)),
    ),
    max_leaves=25,
)


@settings(deadline=None, max_examples=200)
@given(_exprs)
def test_pretty_print_round_trip(e):
    assert parse(pretty_print(e)) == e


@settings(deadline=None, max_examples=200)
@given(_exprs)
def test_printed_source_spans_cover(e):
    src = pretty_print(e)
    last = 0
    for _, _, (start, end), _ in expr._scan(src):
        assert start >= last
        assert src[last:start].strip() == ""
        last = end


def test_a_hand_built_subclass_prints_as_its_node_class():
    class Scaled(Binary):
        pass

    class Named(Lit):
        pass

    inner = Scaled(op="+", lhs=Ref(name="x"), rhs=Named(value='q"'))
    assert pretty_print(Unary(op="-", operand=Scaled(op="*", lhs=Named(value=2.5), rhs=inner))) == \
        '-(2.5 * (x + "q\\""))'
    with pytest.raises(TypeError, match="not an expression node: 3"):
        pretty_print(Binary(op="+", lhs=Lit(value=1), rhs=3))


@pytest.mark.parametrize("make", [
    lambda n: " + ".join(["1"] * n),  # left-deep: n - 1 operators over a literal
    lambda n: "if 1 == 2 then 1 else " * (n - 2) + "0",  # the last if's condition is 2 levels below it
    lambda n: "abs(" * (n - 1) + "0" + ")" * (n - 1),  # n - 1 calls around a literal
    lambda n: "[" * (n - 1) + "0" + "]" * (n - 1),  # n - 1 lists around a literal
])
def test_depth_limit_is_checked_at_parse(make, registry):
    ok = make(MAX_DEPTH)
    e = parse(ok)
    assert parse(pretty_print(e)) == e
    value = compile_node(e, registry)[0]({}, None)
    while isinstance(value, list):
        (value,) = value
    assert value in (0, MAX_DEPTH)
    with pytest.raises(NestingError, match="nested too deeply"):
        parse(make(MAX_DEPTH + 1))


def test_parser_stack_exhaustion_is_a_nesting_error():
    with pytest.raises(NestingError, match="nested too deeply"):
        parse("(" * 400 + "1" + ")" * 400)


def _outcome(parse_fn, src):
    """The tree with every node's type and span in preorder, or the error's type, message and span."""
    try:
        e = parse_fn(src)
    except (LexError, ParseError, NestingError) as err:
        return type(err), str(err), err.span
    return e, [(type(node), node.span) for node in preorder(e)]


_SOUP = ["a", "x_y", "if", "then", "else", "and", "or", "not", "f", "0", "007", "1.5", "2e3", "1e999", "1.e5",
         "9223372036854775807", "9223372036854775808", '"s"', '""', '"a\\"b"', '"q\\q"', '"open',
         "(", ")", "[", "]", ",", "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "=", "@", "\u00b2", "\t"]


@st.composite
def _sources(draw):
    """Token soups, and printed trees with one character cut or one token spliced in."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.tuples(st.sampled_from(_SOUP), st.sampled_from(["", " "])).map("".join),
                                     max_size=20)))
    src = pretty_print(draw(_exprs))
    cut = draw(st.integers(0, len(src)))
    change = draw(st.sampled_from(["keep", "cut", "splice"]))
    if change == "cut":
        return src[:cut] + src[cut + 1:]
    if change == "splice":
        return src[:cut] + draw(st.sampled_from(_SOUP)) + src[cut:]
    return src


@settings(deadline=None, max_examples=300)
@given(_sources())
def test_parse_agrees_with_the_reference_front_end(src):
    assert _outcome(parse, src) == _outcome(reference_expr.parse, src)


# a source with every kind of node
_ALL_NODES = 'if f(-x, [1.5, "s"]) < 2 then (a + b) * c else not d'


def _rebuilt(e):
    """``e`` built again through the node constructors."""
    def rebuilt(v):
        if isinstance(v, expr.Expr):
            return _rebuilt(v)
        return tuple(map(_rebuilt, v)) if isinstance(v, tuple) and v and isinstance(v[0], expr.Expr) else v
    return type(e)(**{f.name: rebuilt(getattr(e, f.name)) for f in dataclasses.fields(e)})


def test_parser_built_nodes_are_the_frozen_dataclasses():
    nodes = list(preorder(parse(_ALL_NODES)))
    assert {type(n) for n in nodes} == {IfElse, Binary, Call, Unary, Ref, ListLit, Lit}
    for node in nodes:
        twin = _rebuilt(node)
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
        assert dataclasses.replace(node, span=None) == node
        for f in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f.name, getattr(node, f.name))
