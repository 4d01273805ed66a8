"""The one-pass YAML walk against the composer-based loader it replaced (``reference_yaml``).

Both must give every document the same exit class; a document both accept
the same objects with the same sharing; and a syntax error the same message.
A construction error's message may differ, because the walk reports the first
one it meets in the document and PyYAML another.  The outcomes that differ on
purpose, documents outside the YAML subset of SCHEMA.md, are pinned by the
last tests.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_yaml
from conftest import DATA, MODELS
from dagforge import modelspec, parse_model
from dagforge.errors import SpecError, YamlSyntaxError
from dagforge.yamlwalk import MAX_NESTING

BASES = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.yaml")) + sorted(DATA.glob("*.yaml"))]

# Lines to insert into a model document, each using a YAML feature the walk
# must build as PyYAML's composer and constructor do, or reject on purpose.
SNIPPETS = [
    "    Z: &a uniform(0, 1)", "    W: *a", "    V: *nope", "    Z: &a 2", "  <<: {x: 1}", "    <<: *a",
    "    Z: {<<: [{k: 1}, {j: 2}], k: 3}", "    Z: !!str 5", "    Z: !!int 0x1F", "    Z: !!float .nan",
    "    Z: !!set {a, b}", "    Z: !!omap [{a: 1}, {b: 2}]", "    Z: !!pairs [{a: 1}, b, {c: 1, d: 2}]",
    "    Z: !!binary aGVsbG8=", "    Z: !!binary '***'", "    Z: 2001-12-14", "    Z: 2001-12-14 10:00:00Z",
    "    Z: !foo x", "    Z: !!seq {a: 1}", "    Z: !!seq [a]", "    Z: !!omap {a: 1}", "---", "...", "--- !!map",
    "    Z: &r [*r]", "    Z: &m {k: *m}", "    Z: &m {k: [*m]}", "    Z: {a: 1, a: 2}", "    1: a", "    1.0: b",
    "    ? [a]", "    : 1", "    Z: [&s {k: 1}, *s, {<<: *s}]", "    *a : x", "    Z: ! 12", "    Z: !!null ''",
    "    Z: [&x {k: [*x]}, {a: 1, a: 2}]", "    Z: {? {a: 1} : 2}", "%YAML 1.1", "    Z: |\n      text",
    "    Z: &t\ttab", "\ufeff", "    Z: yes", "    Z: Off", "    Z: 1_000", "    Z: -0.0", "    Z: 1e400",
]


@st.composite
def documents(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.integers(0, 3))
        if op <= 1:
            lines.insert(at, draw(st.sampled_from(SNIPPETS)))
        elif op == 2 and at < len(lines):
            line = lines[at]
            k = draw(st.integers(0, len(line)))
            lines[at] = line[:k] + draw(st.sampled_from(' :"{}[]-\tabc01&*!')) + line[k + 1:]
        elif at < len(lines):
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    return "\n".join(lines) + "\n"


def _both(text):
    """The outcomes of the walk and of the reference, with and without libyaml."""
    got = []
    for base in reference_yaml.StrictLoader, reference_yaml.PyStrictLoader:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modelspec, "_StrictLoader", base.__mro__[1])
            got.append(reference_yaml.outcome(modelspec._load_yaml, text))
        got.append(reference_yaml.outcome(lambda t: reference_yaml.load(t, base), text))
    return got


def _agree(walk, reference):
    assert walk[0] == reference[0]
    if walk[0] != "SpecError":
        assert walk == reference


@settings(max_examples=4 * settings.default.max_examples, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_walk_and_composer_agree_on_mutated_models(text):
    walk, reference, py_walk, py_reference = _both(text)
    _agree(walk, reference)
    _agree(py_walk, py_reference)


OUTSIDE = "expected a mapping, list or scalar, but found"

# Each pins the walk's outcome, which must agree with the composer-based loader's as the differential does
EDGE_CASES = {
    "merge key": ("a: &x {b: 1}\nc:\n  <<: *x\n", ("SpecError", "could not determine a constructor for the tag 'tag:yaml.org,2002:merge' (line 3)")),
    "binary": ("a: !!binary aGVsbG8=\n", None),
    "timestamp": ("a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\n", None),
    "second document": ("a: 1\n---\nb: 2\n", "YamlSyntaxError"),
    "unknown tag": ("a: !foo 1\n", ("SpecError", "could not determine a constructor for the tag '!foo' (line 1)")),
    "int and float keys": ("1: a\n1.0: b\n", ("SpecError", "duplicate key 1.0 (line 2)")),
    "unhashable key": ("? [a]\n: 1\n", ("SpecError", "unhashable mapping key (line 1)")),
    "duplicate alias key": ("&k x: 1\ny: 2\n*k : 3\n", ("SpecError", "duplicate key 'x' (line 1)")),
    "recursive mapping": ("a: &m {b: *m}\n", ("SpecError", "found unconstructable recursive node (line 1)")),
    # a syntax error anywhere comes before any construction error
    "syntax after duplicate": ("a: 1\na: 2\nb: [\n", "YamlSyntaxError"),
    "undefined alias": ("a: *x\n", "YamlSyntaxError"),
    "int from nothing": ("a: !!int ''\n", ("SpecError", "cannot construct !!int from '' (line 1)")),
    "timestamp from text": ("a: !!timestamp abc\n", ("SpecError", "cannot construct !!timestamp from 'abc' (line 1)")),
    "bad date": ("a: 1\nb: 2001-13-45\n",
                 ("SpecError", "cannot construct !!timestamp from '2001-13-45': month must be in 1..12 (line 2)")),
    "empty": ("", None),
    "comment only": ("# nothing\n", None),
    # outside the subset, where PyYAML built a set, a list of pairs and a list holding itself
    "set": ("a: !!set {x, y}\n", ("SpecError", f"{OUTSIDE} !!set (line 1)")),
    "omap": ("a: !!omap [{x: 1}, {y: 2}]\n", ("SpecError", f"{OUTSIDE} !!omap (line 1)")),
    "self-containing list": ("a: &r [*r]\n", ("SpecError", "found unconstructable recursive node (line 1)")),
    # the first error in the document; PyYAML filled lists after the mappings around them and reported 'b' on line 2
    "construction order": ("k: [{a: 1, a: 2}]\nj: {b: 1, b: 2}\n", ("SpecError", "duplicate key 'a' (line 1)")),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_cases_keep_the_composer_outcome(name):
    text, expected = EDGE_CASES[name]
    walk, reference, py_walk, py_reference = _both(text)
    assert walk == py_walk
    _agree(walk, reference)
    _agree(py_walk, py_reference)
    if expected is None:
        assert walk[0] == "ok"
    elif isinstance(expected, str):
        assert walk[0] == expected
    else:
        assert walk == expected


def test_a_second_document_exits_1(run_cli, tmp_path):
    spec = tmp_path / "two.yaml"
    spec.write_text((MODELS / "images.yaml").read_text() + "---\na: 1\n")
    code, _, err = run_cli("validate", spec)
    assert code == 1 and "expected a single document in the stream" in err


def test_the_walk_builds_shared_and_tagged_values():
    doc = modelspec._load_yaml("a: &x [1, {k: v}]\nb: *x\nc: !!str 5\nd: !!binary aGVsbG8=\n")
    assert doc["a"] is doc["b"]
    assert doc == {"a": [1, {"k": "v"}], "b": [1, {"k": "v"}], "c": "5", "d": b"hello"}


@pytest.mark.parametrize("text, message", [
    # the collection tags of YAML 1.1 that a model does not use; PyYAML built a set or a list of pairs
    ("a: !!set {<<: {b: 1}, c}\n", f"{OUTSIDE} !!set (line 1)"),
    ("a: !!set {=, c}\n", f"{OUTSIDE} !!set (line 1)"),
    ("a: !!omap [&e !foo {k: 1}]\nb: *e\n", f"{OUTSIDE} !!omap (line 1)"),
    ("a: !!pairs [{x: 1}, {x: 2}]\n", f"{OUTSIDE} !!pairs (line 1)"),
    ("a: !!set x\n", f"{OUTSIDE} !!set (line 1)"),
    ("a: !!omap {x: 1}\n", f"{OUTSIDE} !!omap (line 1)"),
    # a tag on a node of another kind; PyYAML's strict mapping constructor took a list or a scalar under !!map apart
    ("a: !!map [b]\n", "expected a mapping node, but found sequence (line 1)"),
    ("a: !!map []\n", "expected a mapping node, but found sequence (line 1)"),
    ("a: !!map b\n", "expected a mapping node, but found scalar (line 1)"),
    ("a: !!seq {b: 1}\n", "expected a sequence node, but found mapping (line 1)"),
    ("a: !!seq b\n", "expected a sequence node, but found scalar (line 1)"),
    ("a: !!str {=: b}\n", "expected a scalar node, but found mapping (line 1)"),
    ("a: !!int [1]\n", "expected a scalar node, but found sequence (line 1)"),
    ("a: !foo [1]\n", "could not determine a constructor for the tag '!foo' (line 1)"),
    # an alias inside its own anchor; PyYAML built a mapping holding itself through a list
    ("a:\n  - 1\n  - &m {k: [*m]}\n", "found unconstructable recursive node (line 3)"),
])
def test_documents_the_walk_rejects_on_purpose(text, message):
    walk, _, py_walk, _ = _both(text)
    assert walk == py_walk == ("SpecError", message)
    with pytest.raises(SpecError) as exc:
        parse_model(text)
    assert not isinstance(exc.value, YamlSyntaxError)
    assert str(exc.value) == f"document: {message}"


def test_an_undefined_alias_before_deep_nesting_exits_1(run_cli, tmp_path):
    # no scan for depth follows the alias, as the composer-based loader's pre-scan did
    spec = tmp_path / "alias.yaml"
    spec.write_text("a: *x\nb: " + "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1) + "\n")
    code, _, err = run_cli("validate", spec)
    assert code == 1 and "found undefined alias 'x'" in err
    assert reference_yaml.outcome(reference_yaml.load, spec.read_text())[0] == "SpecError"
