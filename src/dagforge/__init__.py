"""dagforge: forward-sampling simulation of DAG models written in YAML.

Typical library use:

    from dagforge import build_registry, parse_model, validate, simulate, RunConfig, write_csv

    registry = build_registry()
    spec = parse_model(yaml_text)
    model = validate(spec, registry)
    dataset = simulate(model, RunConfig(num_samples=100, seed=0), registry)

Each name below loads its submodule on first use (PEP 562), so ``import
dagforge`` alone loads none of them.
"""

import importlib

# every public name, in __all__ order, and the submodule that defines it;
# __version__ is output.ENGINE_VERSION
_HOME = {
    name: module
    for module, names in {
        "errors": "CoercionError CycleError DagforgeError DomainError EvalError LexError ParseError RegistryError "
                  "SelectionStarvation SpecError StratumNameError ValidationError YamlSyntaxError",
        "examplefns": "register_example_functions",
        "expr": "Expr parse pretty_print",
        "graph": "CompiledModel detect_cycle topo_sort",
        "modelspec": "ModelSpec NodeDecl SimInstructions SpecWarning apply_interventions parse_model to_dot validate",
        "output": "ENGINE_VERSION model_hash write_csv write_manifest",
        "registry": "FunctionRegistry register_host_function",
        "rng": "RandomStream node_stream_key",
        "sampler": "Dataset RunConfig SampleRow sample_one simulate",
        "stdlib": "build_registry",
        "values": "MISSING Tensor Value csv_cell parse_cell type_name values_equal",
    }.items()
    for name in names.split()
}
_HOME["__version__"] = "output"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, "ENGINE_VERSION" if name == "__version__" else name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
