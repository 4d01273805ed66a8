"""YAML model documents: parsing into a ModelSpec and validation into a CompiledModel.

Schema (full reference in SCHEMA.md):

    graph:
      nodes:
        Name: <expression>
        Name: {function: <expression>, observed: <bool>, size: <int>,
               kind: standard|selection|missing|stratify, underlying: <name>}
    instructions:
      simulation:
        csv_name: <str>
        num_samples: <int >= 1>
        seed: <uint64, optional>
        output_dir: <path, optional>

``python_file`` entries are accepted and ignored with a warning so that
legacy documents load unchanged.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, replace

import yaml

from .errors import CycleError, LexError, NestingError, ParseError, SpecError, ValidationError, YamlSyntaxError
from .expr import Call, Expr, KEYWORDS, Ref, parse, preorder
from .graph import CompiledModel, topo_sort
from .registry import FunctionRegistry

__all__ = [
    "NodeDecl", "SimInstructions", "ModelSpec", "SpecWarning",
    "parse_model", "validate", "apply_interventions", "to_dot", "NODE_KINDS",
]

NODE_KINDS = ("standard", "selection", "missing", "stratify")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_UINT64_MAX = 2**64 - 1


class SpecWarning(UserWarning):
    """Non-fatal oddity in a model document (e.g. an ignored key)."""


@dataclass(frozen=True)
class NodeDecl:
    name: str
    expr: Expr
    kind: str = "standard"
    observed: bool = True
    size: int | None = None
    underlying: str | None = None


@dataclass(frozen=True)
class SimInstructions:
    csv_name: str
    num_samples: int
    seed: int | None = None  # None = not set in the document
    output_dir: str | None = None


@dataclass(frozen=True)
class ModelSpec:
    nodes: tuple[NodeDecl, ...]  # declaration order
    instructions: SimInstructions


def _require_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _as_bool(value, path: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise SpecError(path, f"expected a boolean, got {value!r}")


def _as_expr(value, path: str) -> Expr:
    if isinstance(value, bool) or value is None:
        raise SpecError(path, f"expected an expression string, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        # repr would give ``inf`` or ``nan``, which parse as references
        raise SpecError(path, f"expected a finite number, got {value!r}")
    if isinstance(value, (int, float)):
        value = repr(value)
    if not isinstance(value, str):
        raise SpecError(path, f"expected an expression string, got {type(value).__name__}")
    try:
        return parse(value)
    except (LexError, ParseError) as err:
        raise SpecError(path, f"bad expression {value!r}: {err}") from err
    except NestingError as err:
        raise SpecError(path, str(err)) from err


def _strict_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        try:
            duplicate = key in mapping
        except TypeError:
            raise yaml.constructor.ConstructorError(
                None, None, f"unhashable mapping key", key_node.start_mark
            ) from None
        if duplicate:
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate key {key!r}", key_node.start_mark
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


def _strict_loader(base: type) -> type:
    """A subclass of the safe loader ``base`` that rejects duplicate mapping keys."""
    loader = type("_StrictLoader", (base,), {})
    loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_mapping)
    return loader


# PyYAML's pure-Python scanner decides which documents are accepted.  When
# PyYAML was built with libyaml, its scanner loads documents several times
# faster, but it also accepts tabs inside plain scalars and byte-order marks
# that the pure-Python one rejects, and words some errors differently.  So
# documents holding either character, and every document libyaml rejects, go
# through the pure-Python loader.
_PyStrictLoader = _strict_loader(yaml.SafeLoader)
_StrictLoader = _strict_loader(yaml.CSafeLoader) if hasattr(yaml, "CSafeLoader") else _PyStrictLoader


def _load_yaml(text: str):
    if _StrictLoader is not _PyStrictLoader and "\t" not in text and "\ufeff" not in text:
        try:
            return yaml.load(text, Loader=_StrictLoader)
        except yaml.YAMLError:
            pass  # reject it exactly as the pure-Python loader does
    return yaml.load(text, Loader=_PyStrictLoader)


def _parse_node(name, raw, path: str) -> NodeDecl:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise SpecError(path, f"node name {name!r} is not a valid identifier")
    if name in KEYWORDS:
        raise SpecError(path, f"node name {name!r} is a reserved word")

    if not isinstance(raw, dict):
        return NodeDecl(name=name, expr=_as_expr(raw, path))

    allowed = {"function", "observed", "size", "kind", "underlying"}
    unknown = set(raw) - allowed
    if unknown:
        raise SpecError(path, f"unknown key(s): {sorted(unknown)}")
    if "function" not in raw:
        raise SpecError(path, "missing required key 'function'")

    kind = raw.get("kind", "standard")
    if kind not in NODE_KINDS:
        raise SpecError(f"{path}.kind", f"bad kind {kind!r}; expected one of {list(NODE_KINDS)}")

    observed = _as_bool(raw["observed"], f"{path}.observed") if "observed" in raw else True
    if kind == "selection":
        observed = False  # selection never appears in output rows

    size = None
    if "size" in raw:
        size = raw["size"]
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise SpecError(f"{path}.size", f"size must be a positive integer, got {size!r}")
        if kind != "standard":
            raise SpecError(f"{path}.size", f"size is only allowed on standard nodes, not {kind}")

    underlying = raw.get("underlying")
    if kind == "missing":
        if not isinstance(underlying, str):
            raise SpecError(f"{path}.underlying", "missing-kind nodes require an 'underlying' node name")
    elif underlying is not None:
        raise SpecError(f"{path}.underlying", f"underlying is only allowed on missing nodes, not {kind}")

    return NodeDecl(
        name=name,
        expr=_as_expr(raw["function"], f"{path}.function"),
        kind=kind,
        observed=observed,
        size=size,
        underlying=underlying,
    )


def _parse_instructions(doc: dict) -> SimInstructions:
    if "instructions" not in doc:
        raise SpecError("instructions", "missing instructions block")
    instructions = _require_map(doc["instructions"], "instructions")
    unknown = set(instructions) - {"simulation"}
    if unknown:
        raise SpecError("instructions", f"unknown key(s): {sorted(unknown)}")
    if "simulation" not in instructions:
        raise SpecError("instructions.simulation", "missing simulation block")
    sim = _require_map(instructions["simulation"], "instructions.simulation")
    unknown = set(sim) - {"csv_name", "num_samples", "seed", "output_dir"}
    if unknown:
        raise SpecError("instructions.simulation", f"unknown key(s): {sorted(unknown)}")

    csv_name = sim.get("csv_name")
    if not isinstance(csv_name, str) or not csv_name:
        raise SpecError("instructions.simulation.csv_name", f"expected a non-empty string, got {csv_name!r}")

    num_samples = sim.get("num_samples")
    if isinstance(num_samples, bool) or not isinstance(num_samples, int) or num_samples < 1:
        raise SpecError("instructions.simulation.num_samples", f"expected a positive integer, got {num_samples!r}")

    seed = sim.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _UINT64_MAX):
        raise SpecError("instructions.simulation.seed", f"expected an unsigned 64-bit integer, got {seed!r}")

    output_dir = sim.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise SpecError("instructions.simulation.output_dir", f"expected a path string, got {output_dir!r}")

    return SimInstructions(csv_name=csv_name, num_samples=num_samples, seed=seed, output_dir=output_dir)


def parse_model(yaml_text: str, registry: FunctionRegistry | None = None) -> ModelSpec:
    """Parse a model document; every way it can fail raises SpecError.

    The registry argument is accepted for signature symmetry with
    :func:`validate`, which performs all function-resolution checks.
    """
    del registry
    try:
        doc = _load_yaml(yaml_text)
    except yaml.constructor.ConstructorError as err:
        # duplicate mapping keys come from our strict loader: a schema
        # violation in well-formed YAML, not a syntax error
        where = f" (line {err.problem_mark.line + 1})" if err.problem_mark else ""
        raise SpecError("document", f"{err.problem}{where}") from err
    except yaml.YAMLError as err:
        raise YamlSyntaxError("", f"not valid YAML: {err}") from err

    doc = _require_map(doc, "document")
    unknown = set(doc) - {"graph", "instructions"}
    if unknown:
        raise SpecError("document", f"unknown key(s): {sorted(unknown)}")
    if "graph" not in doc:
        raise SpecError("graph", "missing graph block")
    graph = _require_map(doc["graph"], "graph")
    unknown = set(graph) - {"nodes", "python_file"}
    if unknown:
        raise SpecError("graph", f"unknown key(s): {sorted(unknown)}")
    if "python_file" in graph:
        warnings.warn(f"ignoring python_file entry {graph['python_file']!r}", SpecWarning, stacklevel=2)
    if "nodes" not in graph:
        raise SpecError("graph.nodes", "missing nodes block")
    raw_nodes = _require_map(graph["nodes"], "graph.nodes")

    nodes: list[NodeDecl] = []
    seen: set[str] = set()
    for name, raw in raw_nodes.items():
        if name == "python_file":
            warnings.warn(f"ignoring python_file entry {raw!r}", SpecWarning, stacklevel=2)
            continue
        path = f"graph.nodes.{name}"
        decl = _parse_node(name, raw, path)
        if decl.name in seen:
            raise SpecError(path, f"duplicate node name {decl.name!r}")
        seen.add(decl.name)
        nodes.append(decl)
    if not nodes:
        raise SpecError("graph.nodes", "model declares no nodes")

    for kind in ("selection", "stratify"):
        named = [n.name for n in nodes if n.kind == kind]
        if len(named) > 1:
            raise SpecError("graph.nodes", f"at most one {kind} node is allowed, found {named}")

    return ModelSpec(nodes=tuple(nodes), instructions=_parse_instructions(doc))


def _check_node(
    n: NodeDecl, declared: set[str], registry: FunctionRegistry | None, unresolved: list[str], functions: list[str]
) -> list[str]:
    """Walk ``n.expr`` once and return its parents in first-mention order.

    Unresolved references go to ``unresolved``; unknown functions and wrong
    argument counts, checked only when there is a registry, go to ``functions``.
    """
    refs: dict[str, None] = {}
    for e in preorder(n.expr):
        if isinstance(e, Ref):
            refs[e.name] = None
        elif registry is not None and isinstance(e, Call):
            entry = registry.lookup(e.name)
            if entry is None:
                functions.append(f"node {n.name}: unknown function {e.name!r}")
            elif not entry.arity.accepts(len(e.args)):
                functions.append(
                    f"node {n.name}: {e.name} expects {entry.arity.describe()} argument(s), got {len(e.args)}"
                )
    parents = []
    for ref in refs:
        if ref in declared:
            parents.append(ref)
        else:
            unresolved.append(f"node {n.name}: unresolved reference {ref!r}")
    if n.kind == "missing" and n.underlying in declared and n.underlying not in parents:
        parents.append(n.underlying)
    return parents


def _link(
    nodes: tuple[NodeDecl, ...], parents: dict[str, list[str]], missing_map: dict[str, str], problems: list[str]
) -> CompiledModel:
    """Order the graph; add a cycle witness to ``problems`` and raise if there are any."""
    try:
        order = topo_sort([n.name for n in nodes], parents)
    except CycleError as err:
        problems.append(f"cycle: {' -> '.join(err.cycle)}")
    if problems:
        raise ValidationError(problems)
    return CompiledModel(
        nodes=nodes,
        parents=parents,
        topo_order=order,
        selection=next((n.name for n in nodes if n.kind == "selection"), None),
        stratify=next((n.name for n in nodes if n.kind == "stratify"), None),
        missing_map=missing_map,
    )


def compile_nodes(nodes: tuple[NodeDecl, ...], registry: FunctionRegistry | None) -> CompiledModel:
    """Semantic checks over a declaration-ordered node list; all failures collected.

    Problems come in this order: unresolved references, function problems,
    missing-node problems, then the cycle.
    """
    nodes = tuple(nodes)
    declared = {n.name for n in nodes}
    unresolved: list[str] = []
    functions: list[str] = []
    parents = {n.name: _check_node(n, declared, registry, unresolved, functions) for n in nodes}
    problems = unresolved + functions

    missing_map: dict[str, str] = {}
    for n in nodes:
        if n.kind != "missing":
            continue
        u = n.underlying
        if u not in declared:
            problems.append(f"node {n.name}: underlying {u!r} is not a declared node")
            continue
        target = next(d for d in nodes if d.name == u)
        if target.kind != "standard":
            problems.append(f"node {n.name}: underlying {u!r} must be a standard node, is {target.kind}")
        if u in missing_map:
            problems.append(f"node {n.name}: underlying {u!r} already targeted by {missing_map[u]}")
        else:
            missing_map[u] = n.name

    return _link(nodes, parents, missing_map, problems)


def apply_interventions(
    model: CompiledModel,
    interventions: dict[str, Expr],
    registry: FunctionRegistry | None = None,
) -> CompiledModel:
    """Replace each target node's generating expression: the do-operator.

    Severs the target's previous parent edges.  Only the replacement
    expressions are checked for reference and function resolution; every
    other node keeps the parents ``model`` already has.  The result is
    re-checked for acyclicity and re-ordered.
    """
    if not interventions:
        return model
    problems = []
    for target in interventions:
        decl = model.by_name.get(target)
        if decl is None:
            problems.append(f"intervention target {target!r} is not a declared node")
        elif decl.kind != "standard":
            problems.append(f"intervention target {target!r} is a {decl.kind} node; only standard nodes can be intervened on")
    if problems:
        raise ValidationError(problems)

    declared = set(model.by_name)
    unresolved: list[str] = []
    functions: list[str] = []
    parents = dict(model.parents)
    nodes = []
    for n in model.nodes:
        if n.name in interventions:
            n = replace(n, expr=interventions[n.name])
            parents[n.name] = _check_node(n, declared, registry, unresolved, functions)
        nodes.append(n)
    return _link(tuple(nodes), parents, model.missing_map, unresolved + functions)


def validate(spec: ModelSpec, registry: FunctionRegistry | None = None) -> CompiledModel:
    """Resolve references and functions, reject cycles, fix the evaluation order."""
    return compile_nodes(spec.nodes, registry)


_KIND_SHAPE = {"selection": "diamond", "missing": "hexagon", "stratify": "box"}


def to_dot(model: CompiledModel) -> str:
    """Graphviz text: one node per declaration, one edge per parent relation.

    Unobserved nodes are dashed; selection/missing/stratify nodes get a
    distinguishing shape and a kind tag in their label.
    """
    lines = ["digraph model {"]
    for n in model.nodes:
        attrs = []
        if n.kind in _KIND_SHAPE:
            attrs.append(f"shape={_KIND_SHAPE[n.kind]}")
            attrs.append(f'label="{n.name} ({n.kind})"')
        if not n.observed:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {n.name}{suffix};")
    for n in model.nodes:
        for p in model.parents[n.name]:
            lines.append(f"  {p} -> {n.name};")
    lines.append("}")
    return "\n".join(lines) + "\n"
