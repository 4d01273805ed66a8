import contextlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import settings

from dagforge import RandomStream, build_registry, register_example_functions
from dagforge.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"
DATA = Path(__file__).resolve().parent / "data"

# ten times the examples for every test that does not fix its own count, such
# as the fuzz of the built-ins; loaded only when asked for
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


def pointed(state: int, word1: int, word2: int) -> RandomStream:
    """A stream re-pointed, as the sampler re-points one, at the stream with
    ``state`` whose first two words are ``word1`` and ``word2``."""
    rng = RandomStream(0)
    rng.draw_counter = 0
    rng._state, rng._word1, rng._word2 = state, word1, word2
    return rng


def preorder(e):
    """Every node of the tree ``e``, each before its children, children left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


MINIMAL_INSTRUCTIONS = """
instructions:
  simulation:
    csv_name: out
    num_samples: {num_samples}
"""


def model_yaml(nodes_block: str, num_samples: int = 10) -> str:
    """Assemble a model document from an indented nodes block."""
    return "graph:\n  nodes:\n" + nodes_block + MINIMAL_INSTRUCTIONS.format(num_samples=num_samples)


@pytest.fixture()
def registry():
    reg = build_registry()
    register_example_functions(reg)
    return reg


@pytest.fixture()
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main([str(a) for a in argv])
            except SystemExit as stop:  # argparse usage errors
                code = int(stop.code or 0)
        return code, out.getvalue(), err.getvalue()

    return run
