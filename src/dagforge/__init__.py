"""dagforge: forward-sampling simulation of DAG models written in YAML.

Typical library use:

    from dagforge import build_registry, parse_model, validate, simulate, RunConfig, write_csv

    registry = build_registry()
    spec = parse_model(yaml_text, registry)
    model = validate(spec, registry)
    dataset = simulate(model, RunConfig(num_samples=100, seed=0), registry)
"""

from .errors import (
    CoercionError,
    CycleError,
    DagforgeError,
    DomainError,
    EvalError,
    LexError,
    ParseError,
    RegistryError,
    SelectionStarvation,
    SpecError,
    StratumNameError,
    ValidationError,
    YamlSyntaxError,
)
from .examplefns import register_example_functions
from .expr import Expr, parse, pretty_print
from .graph import CompiledModel, detect_cycle, topo_sort
from .modelspec import ModelSpec, NodeDecl, SimInstructions, SpecWarning, apply_interventions, parse_model, to_dot, validate
from .output import ENGINE_VERSION, model_hash, write_csv, write_manifest
from .registry import FunctionRegistry, register_host_function
from .rng import RandomStream, node_stream_key
from .sampler import Dataset, RunConfig, SampleRow, sample_one, simulate
from .stdlib import build_registry
from .values import MISSING, Tensor, Value, csv_cell, parse_cell, type_name, values_equal

__version__ = ENGINE_VERSION

__all__ = [
    "CoercionError", "CycleError", "DagforgeError", "DomainError", "EvalError",
    "LexError", "ParseError", "RegistryError", "SelectionStarvation", "SpecError",
    "StratumNameError", "ValidationError", "YamlSyntaxError",
    "register_example_functions",
    "Expr", "parse", "pretty_print",
    "CompiledModel", "detect_cycle", "topo_sort",
    "ModelSpec", "NodeDecl", "SimInstructions", "SpecWarning", "apply_interventions", "parse_model", "to_dot", "validate",
    "ENGINE_VERSION", "model_hash", "write_csv", "write_manifest",
    "FunctionRegistry", "register_host_function",
    "RandomStream", "node_stream_key",
    "Dataset", "RunConfig", "SampleRow", "sample_one", "simulate",
    "build_registry",
    "MISSING", "Tensor", "Value", "csv_cell", "parse_cell", "type_name", "values_equal",
    "__version__",
]
