"""Exception hierarchy for the dagforge engine."""

from __future__ import annotations


def _cut(text: str) -> str:
    """``text`` cut to 80 characters for an error message."""
    return text if len(text) <= 80 else text[:77] + "..."


class DagforgeError(Exception):
    """Base class for all engine errors.

    ``sample`` is ``(sample_index, seed)`` when a run raised the error while
    evaluating that sample index, so :func:`~dagforge.sampler.sample_one`
    can replay it; otherwise ``None``.
    """

    sample: tuple[int, int] | None = None


class DslError(DagforgeError):
    """An error anchored to a span of DSL source text.

    ``span`` is a ``(start, end)`` pair of character offsets into the
    expression source, or ``None`` when no location is known.
    """

    def __init__(self, span: tuple[int, int] | None, message: str):
        self.span = span
        self.message = message
        loc = f" at {span[0]}..{span[1]}" if span is not None else ""
        super().__init__(f"{message}{loc}")


class LexError(DslError):
    """Illegal character or malformed literal in expression source."""


class ParseError(DslError):
    """Malformed expression; carries the set of expected token texts."""

    def __init__(self, span: tuple[int, int] | None, expected: tuple[str, ...], found: str):
        self.expected = tuple(sorted(expected))
        self.found = found
        message = f"expected {', '.join(self.expected)}; found {found}"
        super().__init__(span, message)


class NestingError(DslError):
    """Expression nests deeper than ``expr.MAX_DEPTH`` levels."""


class EvalError(DslError):
    """Runtime failure while evaluating an expression.

    ``node`` names the model node being evaluated when the failure occurred
    inside the sampler, otherwise ``None``.
    """

    def __init__(self, span: tuple[int, int] | None, message: str, node: str | None = None):
        self.node = node
        if node is not None:
            message = f"node {_cut(node)}: {message}"
        super().__init__(span, message)


class DomainError(DagforgeError):
    """Argument outside a built-in function's documented domain."""


class RegistryError(DagforgeError):
    """Invalid or conflicting function registration."""


class SpecError(DagforgeError):
    """Model document violates the YAML schema.

    ``path`` is a dotted location inside the document, e.g. ``graph.nodes.X``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class YamlSyntaxError(SpecError):
    """The document is not syntactically valid YAML at all."""


class ValidationError(DagforgeError):
    """Model failed semantic validation; aggregates every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CycleError(DagforgeError):
    """Topological sort invoked on a cyclic graph; ``cycle`` is one witness."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(f"graph contains a cycle: {' -> '.join(map(_cut, cycle))}")


class CoercionError(DagforgeError):
    """A selection, missing, or stratify value could not be coerced, or a value
    could not be written as a CSV cell."""


class SelectionStarvation(DagforgeError):
    """Selection rejected too many samples; the predicate is near-impossible."""

    def __init__(self, attempts: int, kept: int, limit: int):
        self.attempts = attempts
        self.kept = kept
        self.limit = limit
        super().__init__(
            f"selection kept {kept} of {attempts} attempts (limit {limit}); "
            "acceptance probability is too low"
        )


class StratumNameError(DagforgeError):
    """Stratum label is unusable as a file name component."""
