import contextlib
import dataclasses
import re
import sys

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import corpus
import reference_expr
from conftest import MODELS, REPO, model_yaml, preorder
from test_sampler import _wide_model_text
from dagforge import apply_interventions, build_registry, expr, parse, parse_model, pretty_print, validate
from dagforge.errors import LexError, NestingError, ParseError, ValidationError
from dagforge.evaluator import compile_node
from dagforge.expr import KEYWORDS, MAX_DEPTH, Binary, Call, IfElse, Lit, ListLit, Ref, Unary, analyse

sys.path.insert(0, str(REPO / "benchmarks"))
import workloads  # noqa: E402  the generator of the benchmark's wide_deep model, read only


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


class _Scaled(Binary):
    pass


@pytest.mark.parametrize("e, op", [
    (Binary(op="^", lhs=Lit(value=1), rhs=Lit(value=2)), "^"),
    (Unary(op="~", operand=Lit(value=1)), "~"),
    (Call(name="abs", args=(Unary(op="+", operand=Ref(name="x")),)), "+"),
    (_Scaled(op="**", lhs=Lit(value=1), rhs=Lit(value=2)), "**"),
])
def test_an_operator_outside_the_grammar_neither_prints_nor_compiles(e, op):
    with pytest.raises(TypeError, match=f"^unknown operator {re.escape(repr(op))}$"):
        pretty_print(e)
    with pytest.raises(ValidationError) as exc:
        compile_node(e, build_registry())
    assert exc.value.problems == [f"unknown operator {op!r}"]


def _rejected_as_wrongly_typed(e, problem):
    """``e`` neither prints nor compiles nor replaces a node's expression, for ``problem``."""
    with pytest.raises(TypeError, match=f"^{re.escape(problem)}$"):
        pretty_print(e)
    with pytest.raises(ValidationError) as exc:
        compile_node(e, build_registry())
    assert exc.value.problems == [problem]
    registry = build_registry()
    model = validate(parse_model(model_yaml("    A: 1\n    B: A + 1\n"), registry), registry)
    with pytest.raises(ValidationError) as exc:
        apply_interventions(model, {"B": e}, registry)
    assert exc.value.problems == [f"node B: {problem}"]


def test_a_call_name_that_is_not_a_str_is_rejected():
    # printed as ``5()`` before
    _rejected_as_wrongly_typed(Call(name=5), "Call.name must be a str, got int")


def test_a_literal_of_a_type_a_parse_never_gives_is_rejected():
    # compiled before, to a program that gave the object itself
    _rejected_as_wrongly_typed(Lit(value=object()), "Lit.value must be a bool, int, float or str, got object")


def test_an_operator_that_is_not_a_str_is_rejected():
    # a raw ``unhashable type: 'list'`` from both the walk and the printer before
    _rejected_as_wrongly_typed(Binary(op=["x"], lhs=Lit(value=1), rhs=Lit(value=2)), "Binary.op must be a str, got list")


def test_a_reference_name_that_is_not_a_str_is_rejected():
    # printed as ``7`` before, which parses as a literal
    _rejected_as_wrongly_typed(Ref(name=7), "Ref.name must be a str, got int")


@pytest.mark.parametrize("e, problem", [
    (Unary(op=("-",), operand=Lit(value=1)), "Unary.op must be a str, got tuple"),
    (Call(name="abs", args=[Lit(value=1)]), "Call.args must be a tuple, got list"),
    (ListLit(elements=[Lit(value=1)]), "ListLit.elements must be a tuple, got list"),
    (_Scaled(op=None, lhs=Lit(value=1), rhs=Lit(value=2)), "_Scaled.op must be a str, got NoneType"),
    (Lit(value=1.5j), "Lit.value must be a bool, int, float or str, got complex"),
])
def test_other_fields_of_a_type_a_parse_never_gives_are_rejected(e, problem):
    _rejected_as_wrongly_typed(e, problem)


def test_every_wrongly_typed_field_is_a_problem_in_preorder():
    e = Call(name=5, args=[Ref(name="x")])
    assert analyse(e, build_registry())[4] == ["Call.name must be a str, got int", "Call.args must be a tuple, got list"]
    e = ListLit(elements=(Ref(name=7), Call(name=None, args=(Lit(value=[]),))))
    assert analyse(e, build_registry())[3:] == ([], [
        "Ref.name must be a str, got int", "Call.name must be a str, got NoneType",
        "Lit.value must be a bool, int, float or str, got list"])


DEPTH_LIMIT_SOURCES = [
    lambda n: " + ".join(["1"] * n),  # left-deep: n - 1 operators over a literal
    lambda n: "if 1 == 2 then 1 else " * (n - 2) + "0",  # the last if's condition is 2 levels below it
    lambda n: "abs(" * (n - 1) + "0" + ")" * (n - 1),  # n - 1 calls around a literal
    lambda n: "[" * (n - 1) + "0" + "]" * (n - 1),  # n - 1 lists around a literal
]


@pytest.mark.parametrize("make", DEPTH_LIMIT_SOURCES)
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


# names of other lengths, some of them starting with a keyword
_RENAMES = ["b", "n12_34", "iffy", "orx", "nothing", "_", "thenelse9"]
_NAME = re.compile(r"(?<![A-Za-z0-9_.])[A-Za-z_][A-Za-z0-9_]*")


def _renamed(src, names):
    """``src`` with each identifier that is not a keyword replaced by the next of ``names``."""
    names = iter(names)
    return _NAME.sub(lambda m: m[0] if m[0] in KEYWORDS else next(names), src)


@settings(deadline=None, max_examples=3 * settings.default.max_examples)
@given(_sources(), st.lists(st.sampled_from(_RENAMES), min_size=40, max_size=40))
def test_parse_agrees_with_the_reference_front_end(src, names):
    # the original first, so that its twin can be built from the shape it leaves
    for text in (src, _renamed(src, names)):
        assert _outcome(parse, text) == _outcome(reference_expr.parse, text)


def _model_sources():
    """Every node source of the shipped models, the corpus models, the
    sampler tests' wide model and the benchmark's wide_deep seeds 1-3, and
    every intervention they are run with."""
    docs = [path.read_text(encoding="utf-8") for path in sorted(MODELS.glob("*.yaml"))]
    sources = []
    for doc in [*docs, *corpus.models(), _wide_model_text()]:
        for name, value in yaml.safe_load(doc)["graph"]["nodes"].items():
            value = value["function"] if isinstance(value, dict) else value
            if name != "python_file" and isinstance(value, str):
                sources.append(value)
    sources += [item.split("=", 1)[1] for run in corpus.INTERVENTIONS for item in run]
    for seed in (1, 2, 3):
        sources += [workloads.node_expression(node) for node in workloads.wide_deep_nodes(seed)]
    return [*sources, workloads.INTERVENTION_EXPR]


def test_model_sources_parse_to_the_reference_trees(monkeypatch):
    monkeypatch.setattr(expr, "_memo", {})
    scanned = []
    monkeypatch.setattr(expr, "_scan", lambda src, scan=expr._scan: scanned.append(src) or scan(src))
    sources = _model_sources()
    assert len(sources) > 6000
    for src in sources:
        assert _outcome(parse, src) == _outcome(reference_expr.parse, src)
    # each shape is scanned once, and a source with a string literal every time
    quoted = sum('"' in src for src in sources)
    assert len(expr._memo) < 100
    assert len(scanned) == len(expr._memo) + quoted


_TWINS = {
    "string literal": ('f(a, "a")', 'f(bb, "a")'),
    "string literal with names": ('concat(s, "x + y")', 'concat(tt, "x + yy")'),
    "nul": ("a + b\0", "aa + b\0"),
    "nul in a name's place": ("a + b", "a + \0"),
    "float exponent": ("a * 1e5", "a * 1x5"),
    "float with a fraction": ("a - 1.5e3", "a - 1.5x3"),
    "float with a sign": ("a / 1e-5", "bb / 1e-5"),
    "digit then name": ("f(a) + 2", "f(a) + 2x"),
    "point then exponent": ("a + 1", "a + 1.e5"),
    "keyword prefixes": ("iffy + nothing - orx", "if + nothing - orx"),
    "keyword for a name": ("a or b", "a or not"),
    "names to keywords": ("f(a, b)", "f(then, b)"),
    "parenthesised names": ("if ((a)) then (f(b)) else c", "if ((nothing)) then (iffy(b2)) else c_c"),
}


@pytest.mark.parametrize("first, second", list(_TWINS.values()), ids=list(_TWINS))
def test_a_source_of_a_parsed_shape_parses_as_the_reference_does(first, second):
    for text in (first, second, _renamed(first, _RENAMES * 3), first):
        assert _outcome(parse, text) == _outcome(reference_expr.parse, text)


@pytest.mark.parametrize("first, second", [
    ("a * 1e5", "bb * 1e5"),
    ("a - 1.5e3 / x2", "long_name - 1.5e3 / x"),
    ("iffy + nothing - orx", "b + c - d"),
    ("if a then f(b) else not c", "if iffy then g2(b) else not nothing"),
    ("if n0_1 > n0_22 then n0_1 * 0.5 + normal(0, 1) else n0_22 * 0.5 - uniform(0, 1)",
     "if n12_1 > n12_0 then n12_1 * 0.5 + normal(0, 1) else n12_0 * 0.5 - uniform(0, 1)"),
])
def test_a_renamed_source_is_built_without_a_scan(monkeypatch, first, second):
    monkeypatch.setattr(expr, "_memo", {})
    parse(first)
    scanned = []
    monkeypatch.setattr(expr, "_scan", lambda src, scan=expr._scan: scanned.append(src) or scan(src))
    assert _outcome(parse, second) == _outcome(reference_expr.parse, second)
    assert scanned == []


def test_sources_holding_a_quote_or_a_nul_skip_the_memo(monkeypatch):
    monkeypatch.setattr(expr, "_memo", {})
    for src in ('f(a, "a")', 'f(a, "a")', "a + b\0", "a + b\0"):
        with pytest.raises(LexError) if "\0" in src else contextlib.nullcontext():
            parse(src)
    assert expr._memo == {}


@pytest.mark.parametrize("make", DEPTH_LIMIT_SOURCES)
@pytest.mark.parametrize("depth", [expr._MEMO_SOURCE // 8, MAX_DEPTH, MAX_DEPTH + 1])
def test_depth_limit_sources_parse_as_the_reference_does(make, depth):
    # a shallow source is memoised; the limit's own sources are too long to be
    for src in (make(depth), _renamed(make(depth), _RENAMES * depth)):
        for _ in range(2):
            assert _outcome(parse, src) == _outcome(reference_expr.parse, src)


def test_the_memo_keeps_at_most_its_size_of_shapes(monkeypatch):
    monkeypatch.setattr(expr, "_memo", {})
    sources = [f"a{i} + {i}" for i in range(expr._MEMO_SIZE + 50)]
    for src in sources:
        parse(src)
    assert len(expr._memo) == expr._MEMO_SIZE
    # the oldest shapes went first, and a source of a dropped shape still parses
    assert "\0 + 0" not in expr._memo and "\0 + %d" % (len(sources) - 1) in expr._memo
    for src in (sources[0], "bb + 0", sources[-1], "bb + %d" % (len(sources) - 1)):
        assert _outcome(parse, src) == _outcome(reference_expr.parse, src)
    assert len(expr._memo) == expr._MEMO_SIZE


def test_built_trees_whose_names_have_equal_lengths_share_span_objects(monkeypatch):
    monkeypatch.setattr(expr, "_memo", {})
    monkeypatch.setattr(expr, "_spans", {})
    parse("first + f(second, [2, -x]) * 3")  # scanned and parsed: the shape's recipe
    a, b = parse("alpha + g(gamma, [2, -y]) * 3"), parse("omega + h(delta, [2, -z]) * 3")
    pairs = list(zip(preorder(a), preorder(b)))
    assert len(pairs) == 10
    assert all(x.span is y.span for x, y in pairs)
    assert len(expr._spans) == len({x.span for x, _ in pairs})
    # a name of another length shifts the spans that end after it; equal ones are shared
    c = parse("al + g(gamma, [2, -y]) * 3")
    assert [n.span for n in preorder(c)] == [(s - 3 * (s > 0), e - 3) for s, e in (x.span for x, _ in pairs)]
    assert all(expr._spans[n.span] is n.span for n in preorder(c))


def test_the_span_table_keeps_at_most_its_size_of_spans(monkeypatch):
    monkeypatch.setattr(expr, "_spans", {})
    # the right operand's span (i + 3, i + 3 + j) differs for each pair
    trees = [parse(f"{'a' * i} + {'b' * j}") for i in range(1, 41) for j in range(1, 41)]
    assert len({t.rhs.span for t in trees}) > expr._SPANS_SIZE
    assert len(expr._spans) == expr._SPANS_SIZE
    # the oldest went first: the last tree's spans are kept, the second tree's are not
    assert all(expr._spans[n.span] is n.span for n in preorder(trees[-1]))
    assert trees[1].rhs.span not in expr._spans
    assert [_outcome(parse, src) for src in ("a + bb", "a" * 40 + " + " + "b" * 40)] == \
        [_outcome(reference_expr.parse, src) for src in ("a + bb", "a" * 40 + " + " + "b" * 40)]


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
