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

A document is a YAML subset: mappings, lists and scalars, with anchors and
aliases.  It is read by one iterative walk over the YAML parser's events
(:mod:`dagforge.yamlwalk`), which builds its dicts and lists on an explicit
stack and rejects nesting too deep, duplicate keys and tags outside the
subset as it goes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import yaml

from .errors import CycleError, LexError, NestingError, ParseError, SpecError, ValidationError, YamlSyntaxError
from .expr import Expr, _name_problem, analyse, parse
from .frozen import Frozen
from .graph import CompiledModel, topo_sort
from .registry import FunctionRegistry
from .values import _brief, _cut
from .yamlwalk import walk

__all__ = [
    "NodeDecl", "SimInstructions", "ModelSpec", "SpecWarning",
    "parse_model", "validate", "apply_interventions", "to_dot", "NODE_KINDS",
]

NODE_KINDS = ("standard", "selection", "missing", "stratify")
MAX_PLATE_SIZE = 1 << 20  # replicates in one plate, the `size:` of a node (SCHEMA.md)


class SpecWarning(UserWarning):
    """Non-fatal oddity in a model document (e.g. an ignored key)."""


@dataclass(init=False, repr=False, eq=False)
class NodeDecl(Frozen):
    """One node of a model: its name, its expression and its ``kind``,
    ``observed``, ``size`` and ``underlying`` keys (SCHEMA.md)."""

    name: str
    expr: Expr
    kind: str = "standard"
    observed: bool = True
    size: int | None = None
    underlying: str | None = None

    def __init__(self, name, expr, kind="standard", observed=True, size=None, underlying=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "underlying", underlying)


@dataclass(init=False, repr=False, eq=False)
class SimInstructions(Frozen):
    """A document's ``instructions.simulation`` block; a field that breaks
    the schema raises SpecError, whether it comes from a document or not."""

    csv_name: str
    num_samples: int
    seed: int | None = None  # None = not set in the document
    output_dir: str | None = None

    def __init__(self, csv_name, num_samples, seed=None, output_dir=None):
        where = "instructions.simulation"
        if not isinstance(csv_name, str) or not csv_name:
            raise SpecError(f"{where}.csv_name", f"expected a non-empty string, got {_brief(csv_name)}")
        # the stem of every output file, which the manifest lists on one line separated by commas
        bad = [c for c in ",/\\\r\n\0" if c in csv_name]
        if bad:
            raise SpecError(f"{where}.csv_name", f"{_brief(csv_name)} holds {bad[0]!r}; "
                            "a file name stem may not hold ',', '/', '\\', CR, LF or NUL")

        if isinstance(num_samples, bool) or not isinstance(num_samples, int) or num_samples < 1:
            raise SpecError(f"{where}.num_samples", f"expected a positive integer, got {_brief(num_samples)}")

        if seed is not None:
            # the bound is the RNG's word mask; imported here, a document without a seed never loads the RNG
            from .rng import _MASK as _UINT64_MAX

            if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _UINT64_MAX:
                raise SpecError(f"{where}.seed", f"expected an unsigned 64-bit integer, got {_brief(seed)}")

        if output_dir is not None and not isinstance(output_dir, str):
            raise SpecError(f"{where}.output_dir", f"expected a path string, got {_brief(output_dir)}")
        object.__setattr__(self, "csv_name", csv_name)
        object.__setattr__(self, "num_samples", num_samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "output_dir", output_dir)


@dataclass(init=False, repr=False, eq=False)
class ModelSpec(Frozen):
    """A parsed model document: its nodes and its simulation instructions."""

    nodes: tuple[NodeDecl, ...]  # declaration order
    instructions: SimInstructions

    def __init__(self, nodes, instructions):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "instructions", instructions)


def _require_map(obj, path: str, allowed: tuple[str, ...] | None = None) -> dict:
    """``obj``, which must be a mapping, with keys only from ``allowed`` if given."""
    if not isinstance(obj, dict):
        raise SpecError(path, f"expected a mapping, got {type(obj).__name__}")
    unknown = set(obj).difference(allowed) if allowed is not None else None
    if unknown:
        try:
            unknown = sorted(unknown)
        except TypeError:  # keys of types that do not compare, such as 1 and "a"
            unknown = sorted(unknown, key=repr)
        raise SpecError(path, f"unknown key(s): {_brief(unknown)}")
    return obj


def _as_bool(value, path: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise SpecError(path, f"expected a boolean, got {_brief(value)}")


def _as_expr(value, path: str) -> Expr:
    if isinstance(value, bool) or value is None:
        raise SpecError(path, f"expected an expression string, got {_brief(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        # repr would give ``inf`` or ``nan``, which parse as references
        raise SpecError(path, f"expected a finite number, got {_brief(value)}")
    if isinstance(value, (int, float)):
        value = repr(value)
    if not isinstance(value, str):
        raise SpecError(path, f"expected an expression string, got {type(value).__name__}")
    try:
        return parse(value)
    except (LexError, ParseError) as err:
        raise SpecError(path, f"bad expression {_brief(value)}: {err}") from err
    except NestingError as err:
        raise SpecError(path, str(err)) from err


# PyYAML's pure-Python scanner decides which documents are accepted.  When
# PyYAML was built with libyaml, its scanner loads documents several times
# faster, but it also accepts tabs inside plain scalars and byte-order marks
# that the pure-Python one rejects, and words some errors differently.  So
# documents holding either character, and every document libyaml rejects,
# go through the pure-Python loader.
_PyStrictLoader = yaml.SafeLoader
_StrictLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str):
    if _StrictLoader is not _PyStrictLoader and "\t" not in text and "\ufeff" not in text:
        try:
            return walk(_StrictLoader(text))
        except yaml.YAMLError:
            pass  # reject it exactly as the pure-Python loader does
    return walk(_PyStrictLoader(text))


def _parse_node(name, raw) -> NodeDecl:
    problem = _name_problem(name)
    if problem is not None:
        raise SpecError("graph.nodes", f"node name {_brief(name)} {problem}")
    path = f"graph.nodes.{_cut(name)}"  # a name is as long as its YAML key

    if not isinstance(raw, dict):
        return NodeDecl(name=name, expr=_as_expr(raw, path))

    _require_map(raw, path, ("function", "observed", "size", "kind", "underlying"))
    if "function" not in raw:
        raise SpecError(path, "missing required key 'function'")

    kind = raw.get("kind", "standard")
    if kind not in NODE_KINDS:
        raise SpecError(f"{path}.kind", f"bad kind {_brief(kind)}; expected one of {list(NODE_KINDS)}")

    observed = _as_bool(raw["observed"], f"{path}.observed") if "observed" in raw else True
    if kind == "selection":
        observed = False  # selection never appears in output rows

    size = None
    if "size" in raw:
        size = raw["size"]
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise SpecError(f"{path}.size", f"size must be a positive integer, got {_brief(size)}")
        if size > MAX_PLATE_SIZE:
            raise SpecError(f"{path}.size", f"size {_brief(size)} is larger than the limit of {MAX_PLATE_SIZE}")
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
    instructions = _require_map(doc["instructions"], "instructions", ("simulation",))
    if "simulation" not in instructions:
        raise SpecError("instructions.simulation", "missing simulation block")
    sim = _require_map(instructions["simulation"], "instructions.simulation",
                       ("csv_name", "num_samples", "seed", "output_dir"))

    return SimInstructions(csv_name=sim.get("csv_name"), num_samples=sim.get("num_samples"),
                           seed=sim.get("seed"), output_dir=sim.get("output_dir"))


def parse_model(yaml_text: str, registry: FunctionRegistry | None = None) -> ModelSpec:
    """Parse a model document; every way it can fail raises SpecError.

    ``registry`` is ignored, since :func:`validate` resolves functions; it
    stays because callers, the benchmark's traced driver among them, pass one.
    """
    del registry
    try:
        doc = _load_yaml(yaml_text)
    except yaml.constructor.ConstructorError as err:
        # duplicate mapping keys come from the strict walk: a schema
        # violation in well-formed YAML, not a syntax error
        where = f" (line {err.problem_mark.line + 1})" if err.problem_mark else ""
        raise SpecError("document", f"{err.problem}{where}") from err
    except yaml.YAMLError as err:
        raise YamlSyntaxError("", f"not valid YAML: {err}") from err

    doc = _require_map(doc, "document", ("graph", "instructions"))
    if "graph" not in doc:
        raise SpecError("graph", "missing graph block")
    graph = _require_map(doc["graph"], "graph", ("nodes", "python_file"))
    if "python_file" in graph:
        warnings.warn(f"ignoring python_file entry {_brief(graph['python_file'])}", SpecWarning, stacklevel=2)
    if "nodes" not in graph:
        raise SpecError("graph.nodes", "missing nodes block")
    raw_nodes = _require_map(graph["nodes"], "graph.nodes")

    nodes: list[NodeDecl] = []
    for name, raw in raw_nodes.items():
        if name == "python_file":
            warnings.warn(f"ignoring python_file entry {_brief(raw)}", SpecWarning, stacklevel=2)
            continue
        nodes.append(_parse_node(name, raw))
    if not nodes:
        raise SpecError("graph.nodes", "model declares no nodes")

    for kind in ("selection", "stratify"):
        named = [n.name for n in nodes if n.kind == kind]
        if len(named) > 1:
            raise SpecError("graph.nodes", f"at most one {kind} node is allowed, found {named}")

    return ModelSpec(nodes=tuple(nodes), instructions=_parse_instructions(doc))


def _check_node(
    n: NodeDecl, declared: dict[str, NodeDecl], registry: FunctionRegistry, unresolved: list[str], functions: list[str]
) -> list[str]:
    """Walk ``n.expr`` once with :func:`~dagforge.expr.analyse` and return
    its parents in first-mention order.

    Unresolved references go to ``unresolved``; unknown functions, wrong
    argument counts and the operators and nodes that cannot run go to
    ``functions``.
    """
    refs, problems = analyse(n.expr, registry)[3:]
    functions.extend(f"node {_cut(n.name)}: {problem}" for problem in problems)
    parents = [ref for ref in refs if ref in declared]
    unresolved.extend(f"node {_cut(n.name)}: unresolved reference {_brief(ref)}" for ref in refs if ref not in declared)
    if n.kind == "missing" and n.underlying in declared and n.underlying not in parents:
        parents.append(n.underlying)
    return parents


def _link(nodes: tuple[NodeDecl, ...], parents: dict[str, list[str]], problems: list[str]) -> CompiledModel:
    """Order the graph; add a cycle witness to ``problems`` and raise if there are any."""
    try:
        order = topo_sort([n.name for n in nodes], parents)
    except CycleError as err:
        problems.append(f"cycle: {' -> '.join(map(_cut, err.cycle))}")
    if problems:
        raise ValidationError(problems)
    return CompiledModel(
        nodes=nodes,
        parents=parents,
        topo_order=order,
        selection=next((n.name for n in nodes if n.kind == "selection"), None),
        stratify=next((n.name for n in nodes if n.kind == "stratify"), None),
    )


def compile_nodes(nodes: tuple[NodeDecl, ...], registry: FunctionRegistry) -> CompiledModel:
    """Semantic checks over a declaration-ordered node list; all failures collected.

    Problems come in this order: unresolved references, function problems,
    missing-node problems, then the cycle.
    """
    nodes = tuple(nodes)
    declared = {n.name: n for n in nodes}
    unresolved: list[str] = []
    functions: list[str] = []
    parents = {n.name: _check_node(n, declared, registry, unresolved, functions) for n in nodes}
    problems = unresolved + functions

    targeted: dict[str, str] = {}  # underlying name -> missing node name
    for n in nodes:
        if n.kind != "missing":
            continue
        u, name = n.underlying, _cut(n.name)
        if u not in declared:
            problems.append(f"node {name}: underlying {_brief(u)} is not a declared node")
            continue
        target = declared[u]
        if target.kind != "standard":
            problems.append(f"node {name}: underlying {_brief(u)} must be a standard node, is {target.kind}")
        if u in targeted:
            problems.append(f"node {name}: underlying {_brief(u)} already targeted by {_cut(targeted[u])}")
        else:
            targeted[u] = n.name

    return _link(nodes, parents, problems)


def apply_interventions(
    model: CompiledModel,
    interventions: dict[str, Expr],
    registry: FunctionRegistry,
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
            problems.append(f"intervention target {_brief(target)} is not a declared node")
        elif decl.kind != "standard":
            problems.append(f"intervention target {_brief(target)} is a {decl.kind} node; only standard nodes can be intervened on")
    if problems:
        raise ValidationError(problems)

    unresolved: list[str] = []
    functions: list[str] = []
    parents = dict(model.parents)
    nodes = []
    for n in model.nodes:
        if n.name in interventions:
            n = replace(n, expr=interventions[n.name])
            parents[n.name] = _check_node(n, model.by_name, registry, unresolved, functions)
        nodes.append(n)
    return _link(tuple(nodes), parents, unresolved + functions)


def validate(spec: ModelSpec, registry: FunctionRegistry) -> CompiledModel:
    """Resolve references and functions (against ``registry``), reject cycles, fix the evaluation order."""
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
