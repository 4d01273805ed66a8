"""Invariants of compile-once evaluation: streams keyed modulo 2**64, one registry
lookup per call site, loader agreement, observed-only rows."""

import ast
import csv
import dataclasses
import io
import itertools
import math
import random
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from dagforge import (
    FunctionRegistry,
    RandomStream,
    RunConfig,
    apply_interventions,
    build_registry,
    parse,
    parse_model,
    register_example_functions,
    sample_one,
    simulate,
    validate,
)
from dagforge import evaluator, modelspec
from dagforge.errors import NestingError, SpecError, ValidationError
from dagforge.evaluator import compile_node
from dagforge.expr import MAX_DEPTH, Binary, Call, IfElse, ListLit, Lit, Ref, Unary, analyse
from dagforge.values import MISSING, Tensor

import reference_eval
import reference_expr
import reference_yaml
from conftest import DATA, MODELS, model_yaml, preorder
from test_loader import IMAGES_WITH_A_BAD_TAG
from test_modelspec import _mutate

UINT64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(seed=UINT64, index=UINT64, key=UINT64, k=st.integers(1, 8))
def test_streams_take_seed_index_and_key_modulo_2_64(seed, index, key, k):
    full = RandomStream(seed, index, key)
    wrapped = RandomStream(seed + 2**64, index - 2**64, key + 2**64)
    assert [wrapped.next_word() for _ in range(k)] == [full.next_word() for _ in range(k)]


class CountingRegistry(FunctionRegistry):
    def __init__(self):
        super().__init__()
        self.lookups = 0

    def lookup(self, name):
        self.lookups += 1
        return super().lookup(name)


def counting_registry() -> CountingRegistry:
    plain = build_registry()
    register_example_functions(plain)
    reg = CountingRegistry()
    for name in plain.names():
        entry = plain.lookup(name)
        reg.add_builtin(name, entry.arity, entry.stochastic, entry.impl)
    return reg


@pytest.mark.parametrize("model_file", ["images.yaml", "bioseq.yaml"])
def test_one_lookup_per_call_site_per_simulate(registry, model_file):
    # validated against one registry, simulated against another
    model = validate(parse_model((MODELS / model_file).read_text(), registry), registry)
    call_sites = sum(isinstance(e, Call) for decl in model.nodes for e in preorder(decl.expr))
    for n in (1, 50):
        counting = counting_registry()
        simulate(model, RunConfig(num_samples=n, seed=0), counting)
        assert counting.lookups == call_sites


def test_intervening_looks_up_only_the_replacement_call_sites():
    counting = counting_registry()
    model = validate(parse_model((DATA / "strata.yaml").read_text(), counting), counting)
    call_sites = sum(isinstance(e, Call) for decl in model.nodes for e in preorder(decl.expr))
    assert counting.lookups == call_sites
    apply_interventions(model, {"Score": parse("normal(U, 2)")}, counting)
    assert counting.lookups == call_sites + 1


def test_literal_closures_keep_type_and_sign():
    empty = FunctionRegistry()
    program = compile_node(ListLit(elements=tuple(Lit(value=v) for v in (1, True, 1.0, 0.0, -0.0, "1"))), empty)[0]
    out = program({}, None)
    assert [type(v) for v in out] == [int, bool, float, float, float, str]
    assert [repr(v) for v in out] == ["1", "True", "1.0", "0.0", "-0.0", "'1'"]
    # the nodes of one model share code per shape, and each keeps its own literal
    values = (1, True, 1.0, 0.0, -0.0, "1")
    model = modelspec.compile_nodes(tuple(modelspec.NodeDecl(f"N{i}", Lit(value=v)) for i, v in enumerate(values)), empty)
    row, _ = sample_one(model, 0, 0, empty)
    out = [row[f"N{i}"] for i in range(len(values))]
    assert [type(v) for v in out] == [int, bool, float, float, float, str]
    assert [repr(v) for v in out] == ["1", "True", "1.0", "0.0", "-0.0", "'1'"]
    assert len({analyse(decl.expr, FunctionRegistry())[0] for decl in model.nodes}) == 3  # numbers, booleans, strings


def test_sample_one_generates_each_shape_once(monkeypatch, registry):
    # a shape's code depends on its key alone, so repeated calls reuse it
    model = validate(parse_model((MODELS / "images.yaml").read_text(), registry), registry)
    generated = []
    source = evaluator._source
    monkeypatch.setattr(evaluator, "_source", lambda key: generated.append(key) or source(key))
    rows = [sample_one(model, i, 1, registry) for i in range(50)]
    assert len(generated) == len(set(generated))
    assert rows == [sample_one(model, i, 1, registry) for i in range(50)]


# (template, innermost expression, expected cell or None for an error), over
# the nodes T: true, F: false and X: -3; the template is applied until the
# expression is MAX_DEPTH levels deep
DEEP = {
    "then-chain": ("if T then {} else 0", "X", "-3"),
    "else-chain": ("if F then 0 else {}", "X", "-3"),
    "condition-chain": ("if ({}) then T else F", "T", "true"),
    "or-chain": ("F or ({})", "T", "true"),
    "and-chain": ("T and ({})", "F", "false"),
    "calls": ("abs({})", "X", "3"),
    "lists": ("[{}]", "X", "[" * (MAX_DEPTH - 1) + "-3" + "]" * (MAX_DEPTH - 1)),
    "negations": ("-({})", "X", "3"),
    "nots": ("not ({})", "T", "false"),
    "failing then-chain": ("if T then {} else 0", 'X + "a"', None),
}


@pytest.mark.parametrize("name", DEEP)
def test_expressions_at_the_depth_limit_run(run_cli, tmp_path, name):
    template, inner, expected = DEEP[name]
    source = inner
    for _ in range(MAX_DEPTH - reference_expr.depth(parse(inner))):
        source = template.format(source)
    assert reference_expr.depth(parse(source)) == MAX_DEPTH
    spec = tmp_path / "deep.yaml"
    spec.write_text(model_yaml(f'    T: "1 == 1"\n    F: "1 == 2"\n    X: "-3"\n    D: \'{source}\'\n'))
    code, _, err = run_cli("run", spec, "--out", tmp_path / "out")
    assert "Traceback" not in err
    if expected is None:
        assert code == 2
        start = source.index(inner)
        assert err.startswith("dagforge: node D: arithmetic '+' needs numbers, got int and str")
        assert err.rstrip().endswith(f" at {start}..{start + len(inner)} at sample index 0 (seed 0)")
        return
    assert code == 0, err
    rows = list(csv.reader(io.StringIO((tmp_path / "out" / "out.csv").read_text())))
    assert rows[0][-1] == "D"
    assert {row[-1] for row in rows[1:]} == {expected}


# --- generated code against the reference evaluator -------------------------

BINDINGS = {
    "B": True, "I": 3, "ZERO": 0, "HUGE": 10**309, "F": 2.5, "NZ": -0.0, "INF": math.inf, "NAN": math.nan,
    "S": "ab", "L": [1, 2.0, "x"], "M": MISSING, "T": Tensor((2,), (0.0, -0.0)),
}
# pure and stochastic built-ins whose cost does not grow with their arguments,
# and one name no registry has, with the argument count each accepts
ARITY = {"uniform": 2, "normal": 2, "randint": 2, "categorical": 1, "abs": 1, "min": 2, "max": 3, "exp": 1,
         "floor": 1, "len": 1, "get": 2, "concat": 2, "nosuch": 1}
COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]
LEAVES = st.one_of(
    st.builds(Lit, value=st.booleans()),
    st.builds(Lit, value=st.integers(-3, 3)),
    st.builds(Lit, value=st.sampled_from([0.0, -0.0, 0.5, 1e308, math.inf, math.nan])),
    st.builds(Lit, value=st.sampled_from(["", "a", "ab"])),
    st.builds(Ref, name=st.sampled_from([*BINDINGS] * 3 + ["UNBOUND"])),
)


def _branches(children):
    condition = st.one_of(children, st.builds(Binary, op=st.sampled_from(COMPARISONS), lhs=children, rhs=children))
    calls = st.sampled_from(sorted(ARITY)).flatmap(lambda name: st.builds(
        Call, name=st.just(name),
        args=st.one_of(st.lists(children, min_size=ARITY[name], max_size=ARITY[name]),
                       st.lists(children, max_size=3)).map(tuple)))
    return st.one_of(
        st.builds(Binary, op=st.sampled_from(["+", "-", "*", "/", "%", *COMPARISONS]), lhs=children, rhs=children),
        st.builds(Binary, op=st.sampled_from(["and", "or"]), lhs=condition, rhs=condition),
        st.builds(Unary, op=st.sampled_from(["-", "not"]), operand=children),
        st.builds(IfElse, cond=condition, then=children, otherwise=children),
        calls,
        st.builds(ListLit, elements=st.lists(children, max_size=3).map(tuple)),
    )


NUMBERS = st.one_of(
    st.builds(Lit, value=st.sampled_from([0, 1, 2, -0.0, 0.5, 3.5])),
    st.builds(Ref, name=st.sampled_from(["I", "ZERO", "HUGE", "F", "NZ", "INF"])),
)


def _numeric_branches(children):
    """Mostly well-typed number expressions, so that evaluation goes deep and draws."""
    return st.one_of(
        st.builds(Binary, op=st.sampled_from(["+", "-", "*", "/", "%"]), lhs=children, rhs=children),
        st.builds(Unary, op=st.just("-"), operand=children),
        st.builds(IfElse, cond=st.builds(Binary, op=st.sampled_from(COMPARISONS), lhs=children, rhs=children),
                  then=children, otherwise=children),
        st.builds(Call, name=st.sampled_from(["uniform", "normal", "min"]), args=st.tuples(children, children)),
        st.builds(Call, name=st.just("abs"), args=st.tuples(children)),
    )


EXPRESSIONS = st.one_of(st.recursive(LEAVES, _branches, max_leaves=12),
                        st.recursive(NUMBERS, _numeric_branches, max_leaves=12))


def _rebuilt(e, own_fields):
    """A copy of ``e`` in which each node, taken in preorder, gets the fields ``own_fields(node)``."""
    fields = own_fields(e)
    for name in ("lhs", "rhs", "operand", "cond", "then", "otherwise"):
        if hasattr(e, name):
            fields[name] = _rebuilt(getattr(e, name), own_fields)
    for name in ("args", "elements"):
        if hasattr(e, name):
            fields[name] = tuple(_rebuilt(child, own_fields) for child in getattr(e, name))
    return dataclasses.replace(e, **fields)


def _respanned(e):
    """``e`` with distinct spans, so that an error's span names the node that raised it."""
    counter = itertools.count()
    return _rebuilt(e, lambda node: {"span": (next(counter),) * 2})


def _evaluation(run):
    rng = RandomStream(7, 0, 1)
    try:
        value = run(rng)
    except Exception as err:  # noqa: BLE001 - any failure is part of the outcome
        return ("error", type(err).__name__, str(err), getattr(err, "span", None), rng.draw_counter)
    return ("value", repr(value), rng.draw_counter)


# 250 examples by default, ten times that under the ci profile
@settings(max_examples=5 * settings.default.max_examples // 2, deadline=None)
@given(e=EXPRESSIONS.map(_respanned))
def test_generated_code_agrees_with_the_reference_evaluator(e):
    registry = build_registry()
    problems = analyse(e, registry)[4]
    try:
        program = compile_node(e, registry)[0]
    except ValidationError as err:  # an unknown function or a wrong argument count anywhere in the tree
        assert err.problems == problems != []
        return
    assert problems == []
    expected = _evaluation(lambda rng: reference_eval.evaluate(e, BINDINGS, rng, registry))
    assert _evaluation(lambda rng: program(BINDINGS, rng)) == expected


HOSTILE_NAMES = ("b", "r", "t1", "p0", "o0", "f0", "err", "EvalError", "type_name", "lambda", "def", "None",
                 "__builtins__", "factory", "program")
HOSTILE_STRINGS = ('"', "\\", "{__import__('os')}", '"""', "one\ntwo", "')\nraise SystemExit\n#", "o0")


def _dsl_string(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hostile_model(registry):
    nodes = {HOSTILE_NAMES[0]: "1"}
    for prev, name in zip(HOSTILE_NAMES, HOSTILE_NAMES[1:]):
        nodes[name] = f"if {prev} > 0 then {prev} + 1 else {prev}"
    for i, text in enumerate(HOSTILE_STRINGS):
        literal = _dsl_string(text)
        nodes[f"s{i}"] = f"[{literal}, concat({literal}, {literal}) == {literal} or {HOSTILE_NAMES[i]} > 0, len({literal})]"
    text = yaml.safe_dump({"graph": {"nodes": nodes}, "instructions": {"simulation": {"csv_name": "out", "num_samples": 1}}})
    return validate(parse_model(text, registry), registry)


def test_hostile_names_and_literals_are_only_data(registry):
    row, _ = sample_one(_hostile_model(registry), 0, 0, registry)
    for i, name in enumerate(HOSTILE_NAMES):
        assert type(row[name]) is int and row[name] == i + 1
    for i, text in enumerate(HOSTILE_STRINGS):
        assert row[f"s{i}"] == [text, True, len(text)]


def _renamed(node):
    """Fields that change a name, or a literal to another value of the same type."""
    if isinstance(node, Ref):
        return {"name": node.name + "_renamed"}
    if isinstance(node, Lit):
        v = node.value
        return {"value": (not v) if isinstance(v, bool) else v * 2 + 7 if isinstance(v, (int, float)) else v + "'\"{x}"}
    return {}


def test_generated_source_holds_no_name_or_literal(registry):
    models = [_hostile_model(registry)] + [
        validate(parse_model(path.read_text(encoding="utf-8"), registry), registry)
        for path in (MODELS / "images.yaml", MODELS / "bioseq.yaml", DATA / "strata.yaml")
    ]
    for model in models:
        for decl in model.nodes:
            source = evaluator._source(analyse(decl.expr, registry)[0])
            assert evaluator._source(analyse(_rebuilt(decl.expr, _renamed), registry)[0]) == source
            assert "__import__" not in source and "SystemExit" not in source


def _generated_functions(program):
    """``program`` and the helpers it calls, through their parameter defaults."""
    functions, stack = [], [program]
    while stack:
        f = stack.pop()
        functions.append(f)
        stack += (d for d in f.__defaults__ or () if getattr(d, "__code__", None)
                  and d.__code__.co_filename == "<dagforge shape>")
    return functions


def test_a_program_holds_its_operands_as_defaults_not_closure_cells(registry):
    for path in (MODELS / "images.yaml", MODELS / "bioseq.yaml", DATA / "strata.yaml"):
        model = validate(parse_model(path.read_text(encoding="utf-8"), registry), registry)
        for decl in model.nodes:
            program = compile_node(decl.expr, registry)[0]
            assert program.__closure__ is None and program.__code__.co_freevars == ()
            operands = analyse(decl.expr, registry)[1]
            assert len(program.__defaults__) == len(operands)
            assert all(d is o for d, o in zip(program.__defaults__, operands))


# chains of if-else and of and-or this long nest past the indent limit, into helpers
PAST_THE_INDENT_LIMIT = {
    "then-chain": "if T then {} else X",
    "else-chain": "if F then X else {}",
    "and-or-chain": "T and (F or ({}))",
}


@pytest.mark.parametrize("template", PAST_THE_INDENT_LIMIT.values(), ids=list(PAST_THE_INDENT_LIMIT))
@pytest.mark.parametrize("bindings", [{"T": True, "F": False, "X": -3},
                                      {"T": True, "F": 0, "X": -3},
                                      {"T": 1, "F": False, "X": -3}])
def test_helpers_past_the_indent_limit_read_only_their_own_defaults(registry, template, bindings):
    source = "T"
    for _ in range(2 * evaluator._MAX_INDENT + 5):
        source = template.format(source)
    e = _respanned(parse(source))
    key, operands = analyse(e, registry)[:2]
    factory = ast.parse(evaluator._source(key)).body[0]
    defs = factory.body[:-1]
    assert len(defs) > 2  # the program and its helpers
    own = []
    for f in defs:
        params = [a.arg for a in f.args.args]
        assert params[:2] == ["b", "r"]
        assert params[2:] == [d.id for d in f.args.defaults]  # each one o3=o3, f1=f1, ...
        reads = {n.id for statement in f.body for n in ast.walk(statement)
                 if isinstance(n, ast.Name) and re.fullmatch(r"[of]\d+", n.id)}
        assert set(params[2:]) == reads
        own += [p for p in params[2:] if p.startswith("o")]
    assert sorted(own, key=lambda p: int(p[1:])) == [f"o{i}" for i in range(len(operands))]
    program = compile_node(e, registry)[0]
    assert len(_generated_functions(program)) == len(defs)
    assert all(f.__closure__ is None for f in _generated_functions(program))
    expected = _evaluation(lambda rng: reference_eval.evaluate(e, bindings, rng, registry))
    assert _evaluation(lambda rng: program(bindings, rng)) == expected


def test_the_walk_is_iterative_and_left_to_right(registry):
    deep = Ref(name="X")
    for _ in range(5000):
        deep = Unary(op="-", operand=deep)
    e = Call(name="max", args=(Ref(name="B"), Unary(op="-", operand=Ref(name="A")), Ref(name="B")))
    key, operands, draws, refs, problems = analyse(e, registry)
    assert key == ("c", 3, "r", "neg", "r", "r")
    assert operands[2:] == [None, "B", None, None, "A", None, "B"]
    assert (draws, refs, problems) == (False, ["B", "A"], [])
    assert analyse(deep, registry)[3] == ["X"]
    decls = {"A": Lit(value=1), "B": Lit(value=2), "X": Lit(value=3), "D": deep, "E": e}
    model = modelspec.compile_nodes(tuple(modelspec.NodeDecl(n, x) for n, x in decls.items()), registry)
    assert model.parents["D"] == ["X"]
    assert model.parents["E"] == ["B", "A"]
    # the code generator recurses, so a tree this deep fails cleanly, naming its node
    with pytest.raises(NestingError, match=r"^node D: expression is nested too deeply$"):
        simulate(model, RunConfig(num_samples=1), registry)


# the operators of the grammar, and some that only a hand-built tree holds
GRAMMAR_OPERATORS = {"or", "and", *COMPARISONS, "+", "-", "*", "/", "%"}
ODD_OPERATORS = st.recursive(LEAVES, lambda children: st.one_of(
    _branches(children),
    st.builds(Binary, op=st.sampled_from(["^", "**", "=", "not", "xor"]), lhs=children, rhs=children),
    st.builds(Unary, op=st.sampled_from(["~", "+", "!", "and"]), operand=children),
), max_leaves=12)


def _expected_problem(node, registry):
    if isinstance(node, Call):
        return registry.resolve(node.name, len(node.args))[1]
    if isinstance(node, Binary) and node.op not in GRAMMAR_OPERATORS or \
            isinstance(node, Unary) and node.op not in ("-", "not"):
        return f"unknown operator {node.op!r}"
    return None


# 250 examples by default, ten times that under the ci profile
@settings(max_examples=5 * settings.default.max_examples // 2, deadline=None)
@given(e=st.one_of(EXPRESSIONS, ODD_OPERATORS))
def test_the_walk_collects_references_and_call_problems_in_preorder(e):
    registry = build_registry()
    nodes = list(preorder(e))
    refs, problems = analyse(e, registry)[3:]
    assert refs == list(dict.fromkeys(node.name for node in nodes if isinstance(node, Ref)))
    expected = [_expected_problem(node, registry) for node in nodes]
    assert problems == [problem for problem in expected if problem is not None]


# --- YAML loading ----------------------------------------------------------

LOADER_BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
DOCUMENTS = sorted(MODELS.glob("*.yaml")) + sorted(DATA.glob("*.yaml"))


def test_strict_loader_uses_libyaml_when_installed():
    assert modelspec._StrictLoader is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert modelspec._PyStrictLoader is yaml.SafeLoader


@pytest.fixture(params=LOADER_BASES, ids=lambda base: base.__name__)
def loader_base(request, monkeypatch):
    monkeypatch.setattr(modelspec, "_StrictLoader", request.param)
    return request.param


def _outcome(text, registry):
    try:
        return parse_model(text, registry)
    except SpecError as err:  # YamlSyntaxError included
        return type(err).__name__


def test_loader_bases_load_identical_documents(loader_base, registry):
    reference = modelspec._PyStrictLoader
    assert len(DOCUMENTS) >= 4
    for path in DOCUMENTS:
        text = path.read_text(encoding="utf-8")
        got = modelspec._load_yaml(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modelspec, "_StrictLoader", reference)
            assert got == modelspec._load_yaml(text)
        assert got == reference_yaml.load(text)
    # mutated documents are accepted or rejected alike
    rng = random.Random(7)
    base = (MODELS / "images.yaml").read_text(encoding="utf-8")
    for _ in range(200):
        mutated = _mutate(base, rng)
        got = _outcome(mutated, registry)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modelspec, "_StrictLoader", reference)
            assert got == _outcome(mutated, registry)


@pytest.mark.parametrize("text", [
    "graph:\n  nodes:\n    X: uni\tform(0, 1)\n",  # tab in a plain scalar: libyaml alone accepts it
    "graph:\n  nodes:\n    X: \"1\"\n\ufeffinstructions: {}\n",  # byte-order mark mid-document
    "graph:\n  nodes:\n    X: !f(1, 2)\n",  # tag libyaml rejects as a token
    # tag libyaml accepts and cannot construct; the pure-Python scanner rejects it
    pytest.param(IMAGES_WITH_A_BAD_TAG, id="images with a bad tag"),
])
def test_loader_bases_agree_where_scanners_differ(loader_base, registry, text):
    got = _outcome(text, registry)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelspec, "_StrictLoader", modelspec._PyStrictLoader)
        assert got == _outcome(text, registry)


def test_duplicate_key_is_spec_error_with_line(loader_base, registry):
    text = model_yaml('    X: "1"\n    Y: "2"\n    X: "3"\n')
    with pytest.raises(SpecError, match=r"duplicate key 'X' \(line 5\)"):
        parse_model(text, registry)


# --- kept rows ---------------------------------------------------------------

def test_kept_rows_hold_observed_columns_only(registry):
    text = model_yaml(
        '    A: "uniform(0, 1)"\n'
        '    Hidden:\n      function: "binomial(1, A)"\n      observed: false\n'
        '    S:\n      function: "Hidden == 1 or A < 0.5"\n      kind: selection\n'
        '    M:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: A\n'
        '    G:\n      function: "Hidden"\n      kind: stratify\n'
    )
    model = validate(parse_model(text, registry), registry)
    ds = simulate(model, RunConfig(num_samples=30, seed=2), registry)
    assert ds.column_order == ["A", "M", "G"]
    for row in ds.rows:
        assert list(row.values) == ds.column_order
        assert row.stratum == row.values["G"]

    bioseq = validate(parse_model((MODELS / "bioseq.yaml").read_text(), registry), registry)
    ds = simulate(bioseq, RunConfig(num_samples=5, seed=0), registry)
    assert all(list(row.values) == ds.column_order for row in ds.rows)
    assert "AIRR" not in ds.column_order
