"""Forward sampling: per-sample evaluation, selection, plates, missing values,
stratum labels.

Each node draws from its own random sub-stream keyed by ``(seed,
sample_index, hash(node name))``.  Because the key depends only on the
node's name, structural edits elsewhere (adding, deleting, or intervening
on other nodes) can never shift this node's draws, and samples with
distinct indices may be evaluated in any order.  Every drawing node has a
slot, and :meth:`~dagforge.rng.KeyLanes.rows` gives the state and first two
words of every node stream at each sample index, slot by slot; how it mixes
them in blocks of indices is :mod:`dagforge.rng`'s.  Only words are mixed
ahead: no node program or host function runs for an index before the run
reaches it.  Each node's kind and plate size are folded into its program
when the model is compiled, so a sample runs one kind of step per node:
bind the program's value to the node's name.  :func:`sample_one` takes a
block of one, so replaying one index stays O(1).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CoercionError, EvalError, NestingError, SelectionStarvation, StratumNameError, ValidationError
from .evaluator import compile_node
from .frozen import Frozen
from .graph import CompiledModel
from .registry import FunctionRegistry
from .rng import _MASK as _UINT64_MAX, KeyLanes, RandomStream, node_stream_key
from .values import MISSING, Value, _brief, _cut, csv_cell, type_name

if TYPE_CHECKING:  # pragma: no cover
    from .modelspec import NodeDecl

__all__ = ["RunConfig", "SampleRow", "Dataset", "KeptRows", "sample_one", "simulate"]

# A stratum label becomes part of a file name, so it is limited to these.
_SAFE_STRATUM = re.compile(r"[A-Za-z0-9_-]+\Z")


@dataclass(init=False, repr=False, eq=False)
class RunConfig(Frozen):
    """How many rows to keep, the run's seed, and the cap on sample indices
    tried, as a multiple of ``num_samples``; each must be an exact int."""

    num_samples: int
    seed: int = 0
    max_rejection_factor: int = 1000

    def __init__(self, num_samples, seed=0, max_rejection_factor=1000):
        for name, value in (("num_samples", num_samples), ("seed", seed),
                            ("max_rejection_factor", max_rejection_factor)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {type(value).__name__}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if not 0 <= seed <= _UINT64_MAX:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if max_rejection_factor < 1:
            raise ValueError(f"max_rejection_factor must be >= 1, got {max_rejection_factor}")
        object.__setattr__(self, "num_samples", num_samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_rejection_factor", max_rejection_factor)


@dataclass(init=False, repr=False, eq=False)
class SampleRow(Frozen):
    """One kept sample.

    ``values`` holds the observed columns only, keyed in ``Dataset.column_order``;
    unobserved nodes and the selection node are evaluated but not kept.  Use
    :func:`sample_one` to see every node of a sample.
    """

    values: dict[str, Value]
    stratum: str | None = None

    def __init__(self, values, stratum=None):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stratum", stratum)


@dataclass(init=False, repr=False, eq=False)
class Dataset(Frozen):
    """The kept rows of a run, its column order, and how many sample indices it took to keep them."""

    rows: list[SampleRow]
    column_order: list[str]  # topological order restricted to observed nodes
    attempts: int

    def __init__(self, rows, column_order, attempts):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column_order", column_order)
        object.__setattr__(self, "attempts", attempts)


def _as_flag(v: Value, node: str, what: str) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, int) and v in (0, 1):
        return bool(v)
    raise CoercionError(f"node {_cut(node)}: {what} must be a boolean or 0/1, got {type_name(v)} {_brief(v)}")


def _as_label(v: Value, node: str) -> str:
    if isinstance(v, (bool, int, float, str)):
        try:
            return v if isinstance(v, str) else csv_cell(v)
        except ValueError as err:  # an int past the interpreter's digit limit
            raise CoercionError(f"node {_cut(node)}: stratum label cannot be written: {err}") from None
    raise CoercionError(f"node {_cut(node)}: stratum label must be a scalar, got {type_name(v)}")


def check_stratum_label(label: str | None) -> str:
    """Return ``label`` if it can name a stratum's CSV file, else raise StratumNameError."""
    if label is None or not _SAFE_STRATUM.match(label):
        raise StratumNameError(
            f"stratum label {_brief(label)} is not usable in a file name "
            "(allowed: non-empty [A-Za-z0-9_-])"
        )
    return label


def _compile_steps(model: CompiledModel, registry: FunctionRegistry) -> tuple[list[tuple], list[int]]:
    """One step per node in topological order: (name, lane slot or None for a
    node that never draws, program that gives the node's value); and the
    stream keys of the drawing nodes, slot by slot.  A node that cannot run
    against ``registry`` is a ValidationError that names it."""
    steps, keys = [], []
    for name in model.topo_order:
        decl = model.by_name[name]
        try:
            program, draws = compile_node(decl.expr, registry)
        except RecursionError:  # the code generator recurses; only a hand-built tree is this deep
            raise NestingError(None, f"node {_cut(name)}: expression is nested too deeply") from None
        except ValidationError as err:
            raise ValidationError([f"node {_cut(name)}: {problem}" for problem in err.problems]) from None
        slot = None
        if draws:
            slot = len(keys)
            keys.append(node_stream_key(name))
        steps.append((name, slot, _node_program(decl, program)))
    return steps, keys


def _node_program(decl: NodeDecl, program: Callable) -> Callable:
    """The node's value from its expression's ``program``, as its kind and plate size make it."""
    name, kind, underlying = decl.name, decl.kind, decl.underlying
    if kind == "selection":
        return lambda bindings, rng: _as_flag(program(bindings, rng), name, "selection value")
    if kind == "missing":
        return lambda bindings, rng: (
            MISSING if _as_flag(program(bindings, rng), name, "missing indicator") else bindings[underlying])
    if kind == "stratify":
        return lambda bindings, rng: _as_label(program(bindings, rng), name)
    if decl.size is None:
        return program
    replicates = range(decl.size)
    return lambda bindings, rng: [program(bindings, rng) for _ in replicates]


def _run_steps(steps: list[tuple], stream: RandomStream, states, words1, words2) -> dict[str, Value]:
    """Every node's value at one sample index, from the state, word 1 and
    word 2 of every node stream at that index, slot by slot.

    ``stream`` serves every drawing node: it is re-pointed at each one's
    state and first words with its counter at 0, which gives the same words
    as a new stream (a stream is its state and counter).  A plate node keeps
    it across its replicates; a node that never draws gets None.
    """
    bindings: dict[str, Value] = {}
    for name, slot, program in steps:
        if slot is None:
            rng = None
        else:
            rng = stream
            rng.draw_counter = 0
            rng._state, rng._word1, rng._word2 = states[slot], words1[slot], words2[slot]
        try:
            bindings[name] = program(bindings, rng)
        except EvalError as err:
            if err.node is None:
                raise EvalError(err.span, err.message, node=name) from err
            raise
    return bindings


def sample_one(model: CompiledModel, sample_index: int, seed: int,
               registry: FunctionRegistry) -> tuple[dict[str, Value], bool]:
    """Evaluate one sample in topological order.

    Returns the row (every node except the selection node) and whether the
    selection predicate accepted it.  Plate nodes (``size: k``) evaluate
    their expression k times into a list.
    """
    steps, keys = _compile_steps(model, registry)
    bindings = _run_steps(steps, RandomStream(seed), *next(KeyLanes(keys, 1).rows(seed, sample_index)))
    selected = bindings.pop(model.selection, True)  # no selection node keeps every sample
    return bindings, selected


def _observed_columns(model: CompiledModel) -> list[str]:
    return [
        name for name in model.topo_order
        if model.by_name[name].kind != "selection" and model.by_name[name].observed
    ]


class KeptRows:
    """The kept rows of one run, produced lazily in sample-index order.

    Sample indices are evaluated one at a time, as rows are taken, so
    iterating holds one row (and the stream words of one block of indices)
    at a time, whatever ``num_samples`` is.  Iterating gives each kept row
    as a :class:`SampleRow`; ``write_csv`` takes every node's value of a
    kept row straight from the evaluation instead, so the ``run`` command
    builds no SampleRow.
    Rejected indices stay consumed, so the kept rows depend only on the
    seed, never on the acceptance pattern; the keyed streams make every row
    independent of the order in which indices are evaluated.

    A node that cannot run against ``registry`` is a ValidationError here.
    Iterating raises SelectionStarvation if fewer than ``num_samples`` rows
    are kept within the rejection limit, and StratumNameError at the first
    kept row whose stratum label cannot name a file.  An EvalError,
    CoercionError or StratumNameError raised for a sample index carries
    ``sample = (index, seed)``.  ``kept`` counts the rows produced so far;
    ``attempts`` is set once the last row is.
    """

    def __init__(self, model: CompiledModel, config: RunConfig, registry: FunctionRegistry):
        self.column_order = _observed_columns(model)
        self.kept = 0
        self.attempts = 0
        self._selection, self._stratify = model.selection, model.stratify
        self._steps, keys = _compile_steps(model, registry)
        self._lanes = KeyLanes(keys)
        self._config = config

    def __iter__(self) -> Iterator[SampleRow]:
        columns = self.column_order
        for bindings, stratum in self._bindings():
            yield SampleRow(values={c: bindings[c] for c in columns}, stratum=stratum)

    def _bindings(self) -> Iterator[tuple[dict[str, Value], str | None]]:
        """Each kept row as every node's value and its checked stratum label (None unstratified)."""
        steps, seed = self._steps, self._config.seed
        selection, stratify = self._selection, self._stratify
        needed = self._config.num_samples
        limit = needed * self._config.max_rejection_factor
        stream = RandomStream(seed)
        # no name holds an index's words once its row is done, so at most one block is alive
        words = self._lanes.rows(seed, 0)
        self.kept = self.attempts = 0
        try:
            for i in range(limit):
                bindings = _run_steps(steps, stream, *next(words))
                if selection is not None and not bindings[selection]:
                    continue
                stratum = check_stratum_label(bindings[stratify]) if stratify else None
                self.kept += 1
                yield bindings, stratum
                if self.kept == needed:
                    self.attempts = i + 1
                    return
        except (EvalError, CoercionError, StratumNameError) as err:
            err.sample = (i, seed)
            raise
        raise SelectionStarvation(attempts=limit, kept=self.kept, limit=limit)


def simulate(model: CompiledModel, config: RunConfig, registry: FunctionRegistry) -> Dataset:
    """Draw rows at consecutive sample indices until num_samples are kept.

    Collects :class:`KeptRows` into a Dataset; see there for errors.
    """
    rows = KeptRows(model, config, registry)
    return Dataset(rows=list(rows), column_order=rows.column_order, attempts=rows.attempts)
