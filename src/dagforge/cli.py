"""Command-line front end: ``dagforge validate|run|graph``.

Exit codes: 0 ok; 1 unreadable file, YAML syntax error, failed write or a
DAGFORGE_SEED that is not an integer; 2 anything that makes the model or
flags invalid; 3 selection starvation.  :func:`main` alone picks them.
Diagnostics go to stderr; data and DOT text go to stdout or files only.
A command's set-up runs with the cyclic GC off, which is safe because set-up
builds tens of thousands of objects but no reference cycle (a test pins
that a collection afterwards frees nothing); ``run`` then freezes what
set-up built and gives its rows the caller's GC, and :func:`main` restores
the caller's GC and leaves nothing frozen on every exit.  The process entry
points call :func:`process_main`, which freezes everything once ``main``
returns.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

from .errors import (
    DagforgeError,
    LexError,
    NestingError,
    ParseError,
    SelectionStarvation,
    ValidationError,
    YamlSyntaxError,
)
from .examplefns import register_example_functions
from .expr import parse as parse_expression
from .modelspec import ModelSpec, apply_interventions, parse_model, to_dot, validate
from .registry import FunctionRegistry
from .stdlib import build_registry
from .values import _brief, _cut

__all__ = ["main", "process_main"]

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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _Exit(EXIT_IO, f"cannot read {_cut(path)}: {_os_error_text(err)}") from err
    return _default_registry(), parse_model(text)


class _Exit(Exception):
    """``_Exit(code, message)``: an unreadable file, a bad DAGFORGE_SEED or a bad --intervene."""


def _os_error_text(err: OSError) -> str:
    """``str(err)`` with the file names in it cut for a message."""
    names = [_brief(name) for name in (err.filename, err.filename2) if name is not None]
    return f"[Errno {err.errno}] {err.strerror}: {' -> '.join(names)}" if names else str(err)


def _resolve_seed(flag_seed: int | None, spec_seed: int | None) -> int:
    """Precedence: --seed flag > document seed > DAGFORGE_SEED env > 0."""
    if flag_seed is not None:
        return flag_seed
    if spec_seed is not None:
        return spec_seed
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(env)
    except ValueError:
        raise _Exit(EXIT_IO, f"{SEED_ENV_VAR} is not an integer: {_brief(env)}") from None


def cmd_validate(args) -> int:
    registry, spec = _load(args.spec)
    model = validate(spec, registry)
    edges = sum(len(ps) for ps in model.parents.values())
    print(f"{len(model.nodes)} nodes, {edges} edges")
    print(f"topological order: {', '.join(model.topo_order)}")
    return EXIT_OK


def cmd_graph(args) -> int:
    registry, spec = _load(args.spec)
    sys.stdout.write(to_dot(validate(spec, registry)))
    return EXIT_OK


def _parse_interventions(pairs: list[str]) -> dict:
    interventions = {}
    for item in pairs:
        node, eq, text = item.partition("=")
        if not eq or not node:
            raise _Exit(EXIT_INVALID, f"--intervene expects NODE=EXPR, got {_brief(item)}")
        if node in interventions:
            raise _Exit(EXIT_INVALID, f"--intervene {_cut(node)}: given more than once")
        try:
            interventions[node] = parse_expression(text)
        except (LexError, NestingError, ParseError) as err:
            raise _Exit(EXIT_INVALID, f"--intervene {_cut(node)}: {err}") from err
    return interventions


def cmd_run(args) -> int:
    # only `run` samples and writes, so only it loads the sampler, evaluator and writer;
    # sampler first, as a run compiled from source peaked lower in this order
    from .sampler import KeptRows, RunConfig
    from .output import write_csv, write_manifest

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
    # set-up is done: its objects go to the permanent generation, so no collection the rows
    # make scans them again
    gc.freeze()
    if args.gc_enabled:
        gc.enable()
    paths = write_csv(rows, effective, instructions, out_dir)
    manifest = write_manifest(rows, config, paths, effective, instructions, out_dir)
    _err(f"kept {rows.kept} rows from {rows.attempts} attempts (seed {config.seed})")
    for p in [*paths, manifest]:
        _err(f"wrote {p}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # after the package modules: imported before them, it raised a run's peak RSS

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
    args.gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _Exit as stop:
        code, message = stop.args
        _err(message)
        return code
    except YamlSyntaxError as err:
        _err(str(err))
        return EXIT_IO
    except OSError as err:
        _err(f"write failed: {_os_error_text(err)}")
        return EXIT_IO
    except SelectionStarvation as err:
        _err(str(err))
        return EXIT_STARVED
    except ValidationError as err:
        for problem in err.problems:
            _err(problem)
        return EXIT_INVALID
    except (DagforgeError, ValueError) as err:
        sample = getattr(err, "sample", None)  # a ValueError has none
        _err(str(err) if sample is None else f"{err} at sample index {sample[0]} (seed {sample[1]})")
        return EXIT_INVALID
    finally:
        gc.unfreeze()
        if args.gc_enabled:
            gc.enable()


def process_main() -> int:
    """:func:`main` for a process that exits once it returns, as ``python -m
    dagforge`` and the ``dagforge`` script do: it freezes every object again,
    so the interpreter's last collection does not scan all of set-up."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
