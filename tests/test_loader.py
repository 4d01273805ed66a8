"""The one-pass YAML walk against the composer-based loader it replaced (``reference_yaml``).

Both must give every document the same outcome: the same objects with the
same sharing, or the same exception class and message.  Four things differ
on purpose, pinned by the last two tests.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import reference_yaml
from conftest import DATA, MODELS
from dagforge import modelspec, parse_model
from dagforge.errors import SpecError, YamlSyntaxError

BASES = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.yaml")) + sorted(DATA.glob("*.yaml"))]

# Lines to insert into a model document, each using a YAML feature the
# walk must build exactly as PyYAML's composer and constructor do.
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
    text = "\n".join(lines) + "\n"
    assume(not ("!!set" in text and "<<" in text))  # merged on purpose no more, as pinned below
    return text


def _both(text):
    """The outcomes of the walk and of the reference, with and without libyaml."""
    got = []
    for base in reference_yaml.StrictLoader, reference_yaml.PyStrictLoader:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modelspec, "_StrictLoader", base.__mro__[1])
            got.append(reference_yaml.outcome(modelspec._load_yaml, text))
        got.append(reference_yaml.outcome(lambda t: reference_yaml.load(t, base), text))
    return got


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_walk_and_composer_agree_on_mutated_models(text):
    walk, reference, py_walk, py_reference = _both(text)
    assert walk == reference
    assert py_walk == py_reference


EDGE_CASES = {
    "merge key": ("a: &x {b: 1}\nc:\n  <<: *x\n", ("SpecError", "could not determine a constructor for the tag 'tag:yaml.org,2002:merge' (line 3)")),
    "set": ("a: !!set {x, y}\n", None),
    "omap": ("a: !!omap [{x: 1}, {y: 2}]\n", None),
    "binary": ("a: !!binary aGVsbG8=\n", None),
    "timestamp": ("a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\n", None),
    "self-containing list": ("a: &r [*r]\n", None),
    "second document": ("a: 1\n---\nb: 2\n", "YamlSyntaxError"),
    "unknown tag": ("a: !foo 1\n", ("SpecError", "could not determine a constructor for the tag '!foo' (line 1)")),
    "int and float keys": ("1: a\n1.0: b\n", ("SpecError", "duplicate key 1.0 (line 2)")),
    "unhashable key": ("? [a]\n: 1\n", ("SpecError", "unhashable mapping key (line 1)")),
    "duplicate alias key": ("&k x: 1\ny: 2\n*k : 3\n", ("SpecError", "duplicate key 'x' (line 1)")),
    "recursive mapping": ("a: &m {b: *m}\n", ("SpecError", "found unconstructable recursive node (line 1)")),
    # PyYAML fills lists after the mappings around them, so the later error is the one raised
    "construction order": ("k: [{a: 1, a: 2}]\nj: {b: 1, b: 2}\n", ("SpecError", "duplicate key 'b' (line 2)")),
    # and a syntax error anywhere comes before any construction error
    "syntax after duplicate": ("a: 1\na: 2\nb: [\n", "YamlSyntaxError"),
    "undefined alias": ("a: *x\n", "YamlSyntaxError"),
    "int from nothing": ("a: !!int ''\n", ("SpecError", "cannot construct !!int from '' (line 1)")),
    "timestamp from text": ("a: !!timestamp abc\n", ("SpecError", "cannot construct !!timestamp from 'abc' (line 1)")),
    "bad date": ("a: 1\nb: 2001-13-45\n",
                 ("SpecError", "cannot construct !!timestamp from '2001-13-45': month must be in 1..12 (line 2)")),
    "empty": ("", None),
    "comment only": ("# nothing\n", None),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_cases_keep_the_composer_outcome(name):
    text, expected = EDGE_CASES[name]
    walk, reference, py_walk, py_reference = _both(text)
    assert walk == reference == py_walk == py_reference
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
    doc = modelspec._load_yaml("a: &x [1, {k: v}]\nb: *x\nc: &r [*r]\nd: !!set {p, q}\ne: !!omap [{s: 1}]\n")
    assert doc["a"] is doc["b"] and doc["c"][0] is doc["c"]
    assert doc["d"] == {"p", "q"} and doc["e"] == [("s", 1)]


@pytest.mark.parametrize("text, message", [
    # PyYAML's mapping constructor took a list or a scalar apart, with a TypeError or ValueError
    ("a: !!map [b]\n", "expected a mapping node, but found sequence (line 1)"),
    ("a: !!map []\n", "expected a mapping node, but found sequence (line 1)"),
    ("a: !!map b\n", "expected a mapping node, but found scalar (line 1)"),
    # merge and value keys were resolved inside a set, and nowhere else
    ("a: !!set {<<: {b: 1}, c}\n", "could not determine a constructor for the tag 'tag:yaml.org,2002:merge' (line 1)"),
    ("a: !!set {=, c}\n", "could not determine a constructor for the tag 'tag:yaml.org,2002:value' (line 1)"),
    # a value key stood for the mapping that holds it under a scalar tag
    ("a: !!str {=: b}\n", "expected a scalar node, but found mapping (line 1)"),
])
def test_documents_the_walk_rejects_on_purpose(text, message):
    with pytest.raises(SpecError) as exc:
        parse_model(text)
    assert not isinstance(exc.value, YamlSyntaxError)
    assert str(exc.value) == f"document: {message}"
    assert reference_yaml.outcome(reference_yaml.load, text) != ("SpecError", message)


def test_an_alias_to_an_omap_entry_stands_for_its_key_and_value():
    # PyYAML built the aliased entry anew, with its own tag, here an unknown one
    text = "a: !!omap [&e !foo {k: 1}]\nb: *e\n"
    assert modelspec._load_yaml(text) == {"a": [("k", 1)], "b": {"k": 1}}
    assert reference_yaml.outcome(reference_yaml.load, text)[0] == "SpecError"

