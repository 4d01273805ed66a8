import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dagforge import parse_model, to_dot, validate
from dagforge.errors import SpecError, ValidationError, YamlSyntaxError
from dagforge.expr import Ref, parse, preorder
from dagforge.modelspec import NodeDecl, SpecWarning, compile_nodes
from dagforge.yamlwalk import MAX_NESTING

from conftest import DATA, MODELS, model_yaml


def load(path):
    return path.read_text(encoding="utf-8")


def test_bundled_images_spec(registry):
    spec = parse_model(load(MODELS / "images.yaml"), registry)
    assert len(spec.nodes) == 8
    assert [n.name for n in spec.nodes] == ["U1", "U2", "H", "C", "V", "R", "Y", "Image"]
    assert spec.instructions.num_samples == 50
    assert spec.instructions.csv_name == "Images_metadata"
    assert spec.instructions.seed is None


def test_minimal_one_node_spec(registry):
    spec = parse_model(model_yaml('    X: "uniform(0,1)"\n'), registry)
    assert len(spec.nodes) == 1
    assert spec.nodes[0].name == "X"
    assert spec.nodes[0].kind == "standard"
    assert spec.nodes[0].observed is True


def test_unobserved_node_parsed(registry):
    spec = parse_model(load(MODELS / "bioseq.yaml"), registry)
    airr = next(n for n in spec.nodes if n.name == "AIRR")
    assert airr.observed is False


def test_python_file_is_ignored_with_warning(registry):
    for fixture, count in (("images_verbatim.yaml", 8), ("bioseq_verbatim.yaml", 5)):
        with pytest.warns(SpecWarning, match="python_file"):
            spec = parse_model(load(DATA / fixture), registry)
        assert len(spec.nodes) == count
        assert all(n.name != "python_file" for n in spec.nodes)


def test_observed_bool_is_case_insensitive(registry):
    for spelling in ("False", "false", "FALSE", '"false"', '"False"'):
        text = model_yaml(f"    X: \"uniform(0,1)\"\n    Y:\n      function: \"binomial(1, X)\"\n      observed: {spelling}\n")
        spec = parse_model(text, registry)
        assert spec.nodes[1].observed is False


def test_declaration_order_preserved(registry):
    spec = parse_model(model_yaml('    Zed: "1"\n    Alpha: "2"\n    Mid: "3"\n'), registry)
    assert [n.name for n in spec.nodes] == ["Zed", "Alpha", "Mid"]


@pytest.mark.parametrize("nodes_block,fragment", [
    ('    X:\n      function: "1"\n      whatever: 2\n', "unknown key"),
    ('    X:\n      function: "1"\n      1: 2\n      whatever: 2\n', r"unknown key\(s\): \['whatever', 1\]$"),
    ('    X:\n      function: "1"\n      kind: wild\n', "bad kind"),
    ('    X: "1 +"\n', "bad expression"),
    ('    X: "@@"\n', "bad expression"),
    ('    5x: "1"\n', "identifier"),
    ('    if: "1"\n', "reserved"),
    ('    X:\n      function: "1"\n      size: 0\n', "positive integer"),
    ('    X:\n      kind: selection\n', "function"),
    ('    X:\n      function: "1"\n      kind: selection\n      size: 2\n', "standard"),
    ('    X:\n      function: "1"\n      underlying: Y\n', "missing nodes"),
    ('    X:\n      function: "binomial(1, 0.5)"\n      kind: missing\n', "underlying"),
    ('    X:\n      function: "1"\n      size: 1048577\n',
     r"^graph\.nodes\.X\.size: size 1048577 is larger than the limit of 1048576$"),
])
def test_spec_errors(registry, nodes_block, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_model(model_yaml(nodes_block), registry)


def test_duplicate_node_name_is_spec_error(registry):
    text = model_yaml('    X: "1"\n    X: "2"\n')
    with pytest.raises(SpecError, match="duplicate key"):
        parse_model(text, registry)
    # but not a YAML syntax error: the document itself is well-formed
    with pytest.raises(SpecError) as exc:
        parse_model(text, registry)
    assert not isinstance(exc.value, YamlSyntaxError)


def test_missing_instructions_block(registry):
    with pytest.raises(SpecError, match="instructions"):
        parse_model('graph:\n  nodes:\n    X: "1"\n', registry)


def test_instructions_schema_errors(registry):
    base = 'graph:\n  nodes:\n    X: "1"\ninstructions:\n  simulation:\n'
    with pytest.raises(SpecError, match="csv_name"):
        parse_model(base + "    num_samples: 5\n", registry)
    with pytest.raises(SpecError, match="num_samples"):
        parse_model(base + "    csv_name: out\n    num_samples: 0\n", registry)
    with pytest.raises(SpecError, match="seed"):
        parse_model(base + "    csv_name: out\n    num_samples: 5\n    seed: -1\n", registry)
    with pytest.raises(SpecError, match="unknown"):
        parse_model(base + "    csv_name: out\n    num_samples: 5\n    extra: 1\n", registry)


def test_non_map_document(registry):
    with pytest.raises(SpecError):
        parse_model("- just\n- a list\n", registry)
    with pytest.raises(SpecError):
        parse_model("plain string\n", registry)


def test_yaml_syntax_error(registry):
    with pytest.raises(YamlSyntaxError):
        parse_model("graph: [unclosed\n", registry)


def test_two_selection_nodes_rejected(registry):
    block = (
        '    X: "binomial(1, 0.5)"\n'
        '    S1:\n      function: "X == 1"\n      kind: selection\n'
        '    S2:\n      function: "X == 0"\n      kind: selection\n'
    )
    with pytest.raises(SpecError, match="at most one selection"):
        parse_model(model_yaml(block), registry)


def test_numeric_scalar_expression_accepted(registry):
    spec = parse_model(model_yaml("    X: 5\n    Y: 2.5\n"), registry)
    model = validate(spec, registry)
    assert model.parents == {"X": [], "Y": []}


@pytest.mark.parametrize("number", [".inf", "-.inf", ".nan", ".NaN", "1.0e+999"])
def test_non_finite_bare_number_is_spec_error(registry, number):
    # repr would make it the text inf or nan, a reference to the node below
    for node, path in (
        (f"    X: {number}\n", "graph.nodes.X"),
        (f"    X:\n      function: {number}\n", "graph.nodes.X.function"),
    ):
        with pytest.raises(SpecError, match="expected a finite number") as exc:
            parse_model(model_yaml(node + "    inf: 7\n    nan: 8\n"), registry)
        assert exc.value.path == path


# --- validate ---------------------------------------------------------------

def test_validate_bioseq_topology(registry):
    spec = parse_model(load(MODELS / "bioseq.yaml"), registry)
    model = validate(spec, registry)
    order = model.topo_order
    assert order.index("Disease") < order.index("Protocol")
    assert order.index("Age") < order.index("Protocol")
    assert order.index("AIRR") < order.index("kmerVec")
    assert model.parents["AIRR"] == ["Disease", "Age", "Protocol"]


def test_validate_cycle(registry):
    spec = parse_model(model_yaml('    X: "sigmoid(Y)"\n    Y: "sigmoid(X)"\n'), registry)
    with pytest.raises(ValidationError, match="cycle"):
        validate(spec, registry)
    try:
        validate(spec, registry)
    except ValidationError as err:
        assert any("X -> Y" in p or "X -> " in p for p in err.problems)


def test_cycle_is_reported_after_the_other_problems(registry):
    spec = parse_model(model_yaml('    X: "sigmoid(Y)"\n    Y: "sigmoid(X)"\n    Z: "Ghost"\n'), registry)
    with pytest.raises(ValidationError) as exc:
        validate(spec, registry)
    assert exc.value.problems == ["node Z: unresolved reference 'Ghost'", "cycle: X -> Y"]


def test_validate_unknown_function(registry):
    spec = parse_model(model_yaml('    X: "nosuchfn(1)"\n'), registry)
    with pytest.raises(ValidationError, match="nosuchfn"):
        validate(spec, registry)


def test_validate_collects_all_problems(registry):
    block = (
        '    X: "nosuchfn(Ghost)"\n'
        '    Y: "uniform(0, 1, 2)"\n'
    )
    spec = parse_model(model_yaml(block), registry)
    with pytest.raises(ValidationError) as exc:
        validate(spec, registry)
    text = str(exc.value)
    assert "nosuchfn" in text and "Ghost" in text and "argument" in text
    assert len(exc.value.problems) == 3


def test_validate_underlying_rules(registry):
    bad_target = model_yaml(
        '    X: "uniform(0,1)"\n'
        '    M:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: Nope\n'
    )
    with pytest.raises(ValidationError, match="Nope"):
        validate(parse_model(bad_target, registry), registry)

    non_standard = model_yaml(
        '    X: "uniform(0,1)"\n'
        '    S:\n      function: "X < 0.5"\n      kind: selection\n'
        '    M:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: S\n'
    )
    with pytest.raises(ValidationError, match="standard"):
        validate(parse_model(non_standard, registry), registry)

    duplicate_target = model_yaml(
        '    X: "uniform(0,1)"\n'
        '    M1:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: X\n'
        '    M2:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: X\n'
    )
    with pytest.raises(ValidationError, match="already targeted"):
        validate(parse_model(duplicate_target, registry), registry)


def test_missing_node_depends_on_underlying(registry):
    text = model_yaml(
        '    X: "uniform(0,1)"\n'
        '    M:\n      function: "binomial(1, 0.3)"\n      kind: missing\n      underlying: X\n'
    )
    model = validate(parse_model(text, registry), registry)
    assert model.parents["M"] == ["X"]
    assert model.by_name["M"].underlying == "X"
    assert model.topo_order.index("X") < model.topo_order.index("M")


class _CountedName(str):
    """A node name that counts the equality tests made on it."""

    comparisons = 0

    def __eq__(self, other):
        _CountedName.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_missing_nodes_find_their_targets_in_linear_comparisons():
    # a scan of the node list per missing node would make ~n**2 / 2 comparisons
    n = 400
    targets = [NodeDecl(_CountedName(f"X{i}"), parse("uniform(0, 1)")) for i in range(n)]
    missing = [
        NodeDecl(_CountedName(f"M{i}"), parse("binomial(1, 0.5)"), kind="missing", underlying=_CountedName(f"X{i}"))
        for i in range(n)
    ]
    _CountedName.comparisons = 0
    model = compile_nodes(tuple(targets + missing), None)
    assert model.parents[f"M{n - 1}"] == [f"X{n - 1}"]
    assert _CountedName.comparisons < 10 * n


def _dot_edges(dot_text):
    return {
        tuple(line.strip().rstrip(";").split(" -> "))
        for line in dot_text.splitlines()
        if " -> " in line
    }


def test_to_dot_images_edges(registry):
    model = validate(parse_model(load(MODELS / "images.yaml"), registry), registry)
    assert _dot_edges(to_dot(model)) == {
        ("U1", "H"), ("U1", "V"), ("U2", "C"), ("H", "R"), ("C", "R"),
        ("V", "Y"), ("C", "Y"), ("H", "Image"), ("V", "Image"),
        ("R", "Image"), ("C", "Image"),
    }


def test_to_dot_single_node(registry):
    model = validate(parse_model(model_yaml('    Only: "1"\n'), registry), registry)
    dot = to_dot(model)
    assert _dot_edges(dot) == set()
    assert "Only;" in dot


def test_to_dot_marks_unobserved_and_kinds(registry):
    model = validate(parse_model(load(MODELS / "bioseq.yaml"), registry), registry)
    dot = to_dot(model)
    assert "AIRR [style=dashed];" in dot
    assert ("Disease", "Protocol") in _dot_edges(dot)

    text = model_yaml(
        '    X: "binomial(1, 0.5)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n'
        '    G:\n      function: "if X == 1 then \\"a\\" else \\"b\\""\n      kind: stratify\n'
    )
    dot = to_dot(validate(parse_model(text, registry), registry))
    assert "shape=diamond" in dot and "(selection)" in dot
    assert "shape=box" in dot and "(stratify)" in dot


# --- properties ---------------------------------------------------------------

_exprs_text = st.sampled_from([
    "uniform(0,1)", "binomial(1, {p})", "sigmoid({p}) + {p}", "{p} * 2",
    "if {p} > 0.5 then 1 else 0", "[{p}, 1]", "min({p}, 1) - max({p}, 0)",
])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_parent_sets_match_brute_force_walk(data):
    from dagforge import build_registry, register_example_functions

    registry = build_registry()
    register_example_functions(registry)
    n = data.draw(st.integers(1, 6))
    names = [f"N{i}" for i in range(n)]
    lines = []
    for i, name in enumerate(names):
        template = data.draw(_exprs_text)
        parent = data.draw(st.sampled_from(names[:i])) if i and data.draw(st.booleans()) else "0.5"
        lines.append(f'    {name}: "{template.format(p=parent)}"\n')
    spec = parse_model(model_yaml("".join(lines)), registry)
    model = validate(spec, registry)
    for decl in spec.nodes:
        assert set(model.parents[decl.name]) == {e.name for e in preorder(decl.expr) if isinstance(e, Ref)}


def _mutate(text: str, rng: random.Random) -> str:
    ops = rng.randint(1, 3)
    chars = list(text)
    for _ in range(ops):
        kind = rng.randrange(4)
        if not chars:
            break
        if kind == 0:
            chars.pop(rng.randrange(len(chars)))
        elif kind == 1:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(' :"{}[]-\n\tabc01'))
        elif kind == 2:
            lines = "".join(chars).splitlines(keepends=True)
            if len(lines) > 1:
                i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
                chars = list("".join(lines))
        else:
            i = rng.randrange(len(chars))
            chars[i] = rng.choice(' :"x9')
    return "".join(chars)


def test_parse_model_never_crashes_on_mutations(registry):
    rng = random.Random(99)
    base = load(MODELS / "images.yaml")
    outcomes = {"ok": 0, "spec_error": 0}
    for _ in range(200):
        mutated = _mutate(base, rng)
        try:
            parse_model(mutated, registry)
            outcomes["ok"] += 1
        except SpecError:
            outcomes["spec_error"] += 1
    assert outcomes["spec_error"] > 0


def _nested_seed(style: str, k: int, tab: bool = False) -> str:
    """A model whose seed is a value nested ``k`` levels deep, so the document nests ``k + 3``.

    With ``tab``, a tab in a comment sends the document through the pure-Python loader.
    """
    if style == "flow list":
        seed = " " + "[" * k + "1" + "]" * k + "\n"
    elif style == "flow mapping":
        seed = " " + "{a: " * k + "1" + "}" * k + "\n"
    elif style == "block mapping":
        seed = "\n" + "".join(" " * (6 + i) + "a:" + (" 1" if i == k - 1 else "") + "\n" for i in range(k))
    elif style == "compact list":
        seed = "\n      " + "- " * k + "1\n"
    else:  # mappings holding indentless lists: two levels per column
        lines, col = [], 6
        for level in range(k):
            lines.append(" " * col + ("a:" if level % 2 == 0 else "-"))
            col += level % 2
        seed = "\n" + "\n".join(lines) + "\n" + " " * (col + k % 2) + "1\n"
    return model_yaml('    X: "1"\n') + ("# a\ttab\n" if tab else "") + "    seed:" + seed


_NESTING_STYLES = ["flow list", "flow mapping", "block mapping", "compact list", "indentless"]


@pytest.mark.parametrize("tab", [False, True], ids=["libyaml", "pure-Python"])
@pytest.mark.parametrize("style", _NESTING_STYLES)
def test_document_nesting_is_bounded(style, tab):
    # at the limit the document loads, and only the seed is wrong
    with pytest.raises(SpecError) as exc:
        parse_model(_nested_seed(style, MAX_NESTING - 3, tab))
    assert exc.value.path == "instructions.simulation.seed"
    assert exc.value.message.startswith("expected an unsigned 64-bit integer, got ")
    with pytest.raises(SpecError) as exc:
        parse_model(_nested_seed(style, MAX_NESTING - 2, tab))
    assert str(exc.value) == f"document: nested more than {MAX_NESTING} levels deep"


def test_a_document_within_the_bound_loads_with_the_stack_nearly_full():
    # the walk over the parser's events does not recurse, so the stack depth
    # at the call does not matter; both loaders are tried
    script = (
        "import sys\n"
        "from dagforge import parse_model\n"
        "from dagforge.errors import SpecError\n"
        f"texts = {_nested_seed('flow mapping', 40)!r}, {_nested_seed('flow mapping', 40, tab=True)!r}\n"
        "sys.setrecursionlimit(70)\n"
        "for text in texts:\n"
        "    try:\n"
        "        parse_model(text)\n"
        "    except SpecError as err:\n"
        "        print(err.path)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "instructions.simulation.seed\n" * 2, "")
