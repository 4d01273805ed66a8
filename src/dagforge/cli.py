"""Command-line front end: ``dagforge validate|run|graph``.

Exit codes: 0 ok, 1 io/yaml-syntax error, 3 selection starvation,
2 anything that makes the model or flags invalid.  Diagnostics go to
stderr; data and DOT text go to stdout or files only.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (
    DagforgeError,
    LexError,
    NestingError,
    ParseError,
    SelectionStarvation,
    SpecError,
    ValidationError,
    YamlSyntaxError,
)
from .examplefns import register_example_functions
from .expr import parse as parse_expression
from .modelspec import ModelSpec, apply_interventions, parse_model, to_dot, validate
from .output import write_csv, write_manifest
from .registry import FunctionRegistry
from .sampler import KeptRows, RunConfig
from .stdlib import build_registry

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_STARVED = 3

SEED_ENV_VAR = "DAGFORGE_SEED"


def _err(msg: str) -> None:
    print(f"dagforge: {msg}", file=sys.stderr)


def _default_registry() -> FunctionRegistry:
    registry = build_registry()
    register_example_functions(registry)
    return registry


def _load(path: str) -> tuple[FunctionRegistry, ModelSpec]:
    """The default registry and the parsed document at ``path``."""
    registry = _default_registry()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot read {path}: {err}") from err
    try:
        return registry, parse_model(text)
    except YamlSyntaxError as err:
        raise _Exit(EXIT_IO, str(err)) from err
    except SpecError as err:
        raise _Exit(EXIT_INVALID, str(err)) from err


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _resolve_seed(flag_seed: int | None, spec_seed: int | None) -> int:
    """Precedence: --seed flag > document seed > DAGFORGE_SEED env > 0."""
    if flag_seed is not None:
        return flag_seed
    if spec_seed is not None:
        return spec_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _Exit(EXIT_IO, f"{SEED_ENV_VAR} is not an integer: {env!r}") from None
    return 0


def cmd_validate(args) -> int:
    registry, spec = _load(args.spec)
    model = validate(spec, registry)
    edges = sum(len(ps) for ps in model.parents.values())
    print(f"{len(model.nodes)} nodes, {edges} edges")
    print(f"topological order: {', '.join(model.topo_order)}")
    return EXIT_OK


def cmd_graph(args) -> int:
    registry, spec = _load(args.spec)
    model = validate(spec, registry)
    sys.stdout.write(to_dot(model))
    return EXIT_OK


def _parse_interventions(pairs: list[str]) -> dict:
    interventions = {}
    for item in pairs:
        node, eq, text = item.partition("=")
        if not eq or not node:
            raise _Exit(EXIT_INVALID, f"--intervene expects NODE=EXPR, got {item!r}")
        if node in interventions:
            raise _Exit(EXIT_INVALID, f"--intervene {node}: given more than once")
        try:
            interventions[node] = parse_expression(text)
        except (LexError, NestingError, ParseError) as err:
            raise _Exit(EXIT_INVALID, f"--intervene {node}: {err}") from err
    return interventions


def cmd_run(args) -> int:
    registry, spec = _load(args.spec)
    interventions = _parse_interventions(args.intervene or [])
    effective = apply_interventions(validate(spec, registry), interventions, registry)

    instructions = spec.instructions
    config = RunConfig(
        num_samples=args.num_samples if args.num_samples is not None else instructions.num_samples,
        seed=_resolve_seed(args.seed, instructions.seed),
        max_rejection_factor=args.max_rejection_factor,
    )
    out_dir = args.out if args.out is not None else (instructions.output_dir or ".")

    rows = KeptRows(effective, config, registry)
    try:
        paths = write_csv(rows, effective, instructions, out_dir)
        manifest = write_manifest(rows, config, paths, effective, instructions, out_dir)
    except SelectionStarvation as err:
        _err(str(err))
        return EXIT_STARVED
    except OSError as err:
        _err(f"write failed: {err}")
        return EXIT_IO
    except DagforgeError as err:
        _err(str(err))
        return EXIT_INVALID

    _err(f"kept {rows.kept} rows from {rows.attempts} attempts (seed {config.seed})")
    for p in [*paths, manifest]:
        _err(f"wrote {p}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagforge", description="Simulate datasets from DAG model documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model document and print a summary")
    p_validate.add_argument("spec", help="path to the model YAML")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate and write CSV output")
    p_run.add_argument("spec", help="path to the model YAML")
    p_run.add_argument("--seed", type=int, default=None, help="random seed (overrides the document)")
    p_run.add_argument("--num-samples", type=int, default=None, help="rows to keep (overrides the document)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--intervene", action="append", metavar="NODE=EXPR",
                       help="replace a node's expression (repeatable)")
    p_run.add_argument("--max-rejection-factor", type=int, default=1000,
                       help="give up after num_samples times this many attempts")
    p_run.set_defaults(func=cmd_run)

    p_graph = sub.add_parser("graph", help="emit the model DAG")
    p_graph.add_argument("spec", help="path to the model YAML")
    p_graph.add_argument("--format", choices=["dot"], default="dot")
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as stop:
        _err(stop.message)
        return stop.code
    except ValidationError as err:
        for problem in err.problems:
            _err(problem)
        return EXIT_INVALID
    except ValueError as err:
        _err(str(err))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
