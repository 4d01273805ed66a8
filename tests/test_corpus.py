"""Byte-identity gate over a generated corpus (``tests/corpus.py``).

Every (model, seed, interventions) triple must reproduce the exit code and
the sha256 of every output file recorded in ``tests/data/corpus.json``.
The digests were recorded by the engine before its YAML loader became one
walk over the parser's events; a change to any of them is a change to the
reproducibility contract, not a refactor.
"""

import hashlib
import json
import warnings

import corpus
from dagforge import build_registry, parse_model, register_example_functions
from dagforge.expr import Call, preorder

RECORDED = json.loads(corpus.RECORD.read_text(encoding="utf-8"))


def test_corpus_models_are_the_recorded_ones():
    # a generator change would make every digest below meaningless
    assert [hashlib.sha256(d.encode()).hexdigest() for d in corpus.models()] == RECORDED["models"]


def test_corpus_covers_every_registry_name_node_kind_and_yaml_form():
    registry = build_registry()
    register_example_functions(registry)
    called, kinds, plates = set(), set(), 0
    docs = corpus.models()
    for doc in docs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # python_file entries
            spec = parse_model(doc)
        for decl in spec.nodes:
            called.update(e.name for e in preorder(decl.expr) if isinstance(e, Call))
            kinds.add(decl.kind)
            plates += decl.size is not None
    assert called == set(registry.names())
    assert kinds == {"standard", "selection", "missing", "stratify"} and plates
    assert {i for _, _, i in corpus.runs()} == set(corpus.INTERVENTIONS)
    text = "".join(docs)
    for form in (": &e", ": *e", ": '", ': "', "{function: ", "\n      function: ", "FALSE", "False", "python_file"):
        assert form in text, form


def test_corpus_output_bytes_match_the_record(tmp_path):
    assert corpus.record(tmp_path)["runs"] == RECORDED["runs"]
