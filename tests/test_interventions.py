"""apply_interventions: the one way to intervene, checking only what it replaces."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from dagforge import (
    RunConfig,
    apply_interventions,
    build_registry,
    parse,
    parse_model,
    register_example_functions,
    simulate,
    validate,
    write_csv,
    write_manifest,
)
from dagforge.errors import EvalError, ValidationError
from dagforge.modelspec import NodeDecl, compile_nodes

from conftest import MODELS, model_yaml

REGISTRY = build_registry()
register_example_functions(REGISTRY)

ARITY = {"uniform": 2, "normal": 2, "binomial": 2, "sigmoid": 1}


@functools.lru_cache(maxsize=None)
def _exprs(leaves: tuple[str, ...], faulty: bool):
    """Expression source over ``leaves``; when ``faulty``, calls may be to an
    unknown function or have the wrong number of arguments."""

    def calls(inner):
        if faulty:
            names = st.sampled_from([*ARITY, "nosuch"])
            return st.builds(lambda f, args: f"{f}({', '.join(args)})", names, st.lists(inner, max_size=3))
        return st.sampled_from(sorted(ARITY)).flatmap(
            lambda f: st.lists(inner, min_size=ARITY[f], max_size=ARITY[f]).map(lambda args: f"{f}({', '.join(args)})")
        )

    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            calls(inner),
            st.tuples(inner, inner).map(lambda t: f"({t[0]} + {t[1]})"),
            st.tuples(inner, inner, inner).map(lambda t: f"(if {t[0]} > 0 then {t[1]} else {t[2]})"),
        ),
        max_leaves=6,
    )


@st.composite
def intervened_documents(draw):
    """A valid 1-8 node list and 1-3 interventions on its standard nodes.

    Nodes read only earlier nodes, so the document validates.  About half the
    replacements do too; the rest may read any declared node (a back-edge
    can close a cycle) or an undeclared name, and may call an unknown
    function or pass the wrong number of arguments.
    """
    names = [f"N{i}" for i in range(draw(st.integers(1, 8)))]
    nodes: list[NodeDecl] = []
    for i, name in enumerate(names):
        targeted = {d.underlying for d in nodes}
        free = [d.name for d in nodes if d.kind == "standard" and d.name not in targeted]
        kinds = ["standard"] * 3  # the first node is always standard
        if i and all(d.kind != "selection" for d in nodes):
            kinds.append("selection")
        if free:
            kinds.append("missing")
        kind = draw(st.sampled_from(kinds))
        underlying = draw(st.sampled_from(free)) if kind == "missing" else None
        expr = parse(draw(_exprs((*names[:i], "0.5", "2"), faulty=False)))
        nodes.append(NodeDecl(name, expr, kind=kind, observed=kind != "selection", underlying=underlying))
    standard = [d.name for d in nodes if d.kind == "standard"]
    targets = draw(st.lists(st.sampled_from(standard), min_size=1, max_size=3, unique=True))
    faulty = _exprs((*names, "Ghost", "0.5"), faulty=True)
    return tuple(nodes), {
        t: parse(draw(_exprs((*names[:names.index(t)], "0.5", "2"), faulty=False) | faulty)) for t in targets
    }


def _outcome(compile_fn):
    try:
        return compile_fn()
    except ValidationError as err:
        return err.problems


@settings(deadline=None, max_examples=200)
@given(intervened_documents())
def test_apply_interventions_matches_compiling_the_substituted_nodes(document):
    nodes, interventions = document
    model = compile_nodes(nodes, REGISTRY)
    substituted = tuple(
        dataclasses.replace(n, expr=interventions[n.name]) if n.name in interventions else n for n in nodes
    )
    expected = _outcome(lambda: compile_nodes(substituted, REGISTRY))
    got = _outcome(lambda: apply_interventions(model, interventions, REGISTRY))
    assert type(got) is type(expected)
    assert got == expected


def test_untouched_nodes_of_a_model_validated_without_registry_are_not_rechecked(registry):
    """apply_interventions checks only the replacement expressions.

    A model validated with ``registry=None`` has had no function checks, and
    intervening does not add them for the nodes it leaves alone: an unknown
    function in an untouched node is not a ValidationError here but the
    node-named EvalError that ``simulate`` raises when it is reached.  The
    replacements themselves are still checked against the registry given.
    """
    model = validate(parse_model(model_yaml('    A: "nosuch(1)"\n    B: "uniform(0, 1)"\n'), None), None)
    effective = apply_interventions(model, {"B": parse("normal(0, 1)")}, registry)
    with pytest.raises(EvalError, match="unknown function 'nosuch'") as exc:
        simulate(effective, RunConfig(num_samples=1), registry)
    assert exc.value.node == "A"
    with pytest.raises(ValidationError, match="node B: unknown function 'other'"):
        apply_interventions(model, {"B": parse("other(1)")}, registry)


def test_run_config_has_no_interventions():
    with pytest.raises(TypeError):
        RunConfig(num_samples=1, seed=0, interventions={"H": parse("1")})
    assert len(dataclasses.fields(RunConfig)) == 3


def _model_hash_line(manifest_path) -> str:
    return next(line for line in manifest_path.read_text().splitlines() if line.startswith("model_hash = "))


def test_library_intervention_manifest_matches_cli(registry, tmp_path, run_cli):
    spec = parse_model((MODELS / "images.yaml").read_text(), registry)
    model = validate(spec, registry)
    config = RunConfig(num_samples=5, seed=0)

    def library_run(m, out):
        ds = simulate(m, config, registry)
        return write_manifest(ds, config, write_csv(ds, m, spec.instructions, out), m, spec.instructions, out)

    effective = apply_interventions(model, {"H": parse("1")}, registry)
    intervened = library_run(effective, tmp_path / "lib_do")
    plain = library_run(model, tmp_path / "lib_plain")

    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path / "cli", "--seed", "0",
                           "--num-samples", "5", "--intervene", "H=1")
    assert code == 0, err
    assert _model_hash_line(intervened) == _model_hash_line(tmp_path / "cli" / intervened.name)
    assert _model_hash_line(intervened) != _model_hash_line(plain)
