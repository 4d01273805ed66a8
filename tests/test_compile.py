"""Invariants of compile-once evaluation: per-sample stream bases, one registry
lookup per call site, loader agreement, observed-only rows."""

import random

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
    simulate,
    validate,
)
from dagforge import modelspec
from dagforge.errors import SpecError
from dagforge.evaluator import compile_expr
from dagforge.expr import Call, ListLit, Lit, Ref, Unary, preorder
from dagforge.rng import sample_base

from conftest import DATA, MODELS, model_yaml
from test_modelspec import _mutate

UINT64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(seed=UINT64, index=UINT64, key=UINT64, k=st.integers(1, 8))
def test_sample_base_streams_match_full_construction(seed, index, key, k):
    full = RandomStream(seed, index, key)
    hoisted = RandomStream(seed, index, key, sample_base(seed, index))
    assert [full.next_word() for _ in range(k)] == [hoisted.next_word() for _ in range(k)]
    assert (hoisted.seed, hoisted.sample_index, hoisted.node_key) == (full.seed, full.sample_index, full.node_key)


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
    literals = {}
    program = compile_expr(ListLit(elements=tuple(Lit(value=v) for v in (1, True, 1.0, 0.0, -0.0, "1"))), None, literals)
    out = program({}, None)
    assert [type(v) for v in out] == [int, bool, float, float, float, str]
    assert [repr(v) for v in out] == ["1", "True", "1.0", "0.0", "-0.0", "'1'"]
    assert len(literals) == 6
    again = compile_expr(Lit(value=1.0), None, literals)
    assert again is literals[(float, "1.0")]


def test_preorder_is_iterative_and_left_to_right():
    deep = Ref(name="X")
    for _ in range(5000):
        deep = Unary(op="-", operand=deep)
    e = Call(name="f", args=(Ref(name="B"), Unary(op="-", operand=Ref(name="A")), Ref(name="B")))
    assert [type(n).__name__ for n in preorder(e)] == ["Call", "Ref", "Unary", "Ref", "Ref"]
    decls = {"A": Lit(value=1), "B": Lit(value=2), "X": Lit(value=3), "D": deep, "E": e}
    parents = modelspec.compile_nodes(tuple(modelspec.NodeDecl(n, x) for n, x in decls.items()), None).parents
    assert parents["D"] == ["X"]
    assert parents["E"] == ["B", "A"]


# --- YAML loading ----------------------------------------------------------

LOADER_BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
DOCUMENTS = sorted(MODELS.glob("*.yaml")) + sorted(DATA.glob("*.yaml"))


def test_strict_loader_uses_libyaml_when_installed():
    expected = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert modelspec._StrictLoader.__mro__[1] is expected


@pytest.fixture(params=LOADER_BASES, ids=lambda base: base.__name__)
def loader_base(request, monkeypatch):
    monkeypatch.setattr(modelspec, "_StrictLoader", modelspec._strict_loader(request.param))
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
        assert yaml.load(text, Loader=modelspec._StrictLoader) == yaml.load(text, Loader=reference)
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
