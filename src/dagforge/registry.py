"""Function registry mapping DSL call names to implementations.

Built-ins are installed at construction; hosts may add their own generator
functions but can never shadow an existing name.  Pure implementations are
called as ``impl(*args)``; stochastic ones as ``impl(rng, *args)`` with the
evaluating node's random stream first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import RegistryError
from .expr import _name_problem
from .frozen import Frozen
from .values import _brief, _cut, as_value

__all__ = ["Arity", "FunctionEntry", "FunctionRegistry", "register_host_function"]


def _is_count(n) -> bool:
    return type(n) is int and n >= 0


@dataclass(init=False, repr=False, eq=False)
class Arity(Frozen):
    """Accepted argument count: fixed when ``low == high``, open-ended when high is None."""

    low: int
    high: int | None

    def __init__(self, low, high):
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @classmethod
    def of(cls, spec) -> "Arity | None":
        """``spec`` as an Arity: an Arity as it is, a count, or a ``(min,
        max-or-None)`` pair of counts with min <= max; None for anything else."""
        if isinstance(spec, Arity):
            return spec
        if _is_count(spec):
            return cls(spec, spec)
        if isinstance(spec, (tuple, list)) and len(spec) == 2:
            low, high = spec
            if _is_count(low) and (high is None or _is_count(high) and low <= high):
                return cls(low, high)
        return None

    def accepts(self, n: int) -> bool:
        return n >= self.low and (self.high is None or n <= self.high)

    def describe(self) -> str:
        if self.low == self.high:
            return str(self.low)
        return f"{self.low}+" if self.high is None else f"{self.low}..{self.high}"


@dataclass(init=False, repr=False, eq=False)
class FunctionEntry(Frozen):
    """A registered function: its arity, whether it draws, its callable, and whether it is built in."""

    arity: Arity
    stochastic: bool
    impl: Callable
    builtin: bool = False

    def __init__(self, arity, stochastic, impl, builtin=False):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "stochastic", stochastic)
        object.__setattr__(self, "impl", impl)
        object.__setattr__(self, "builtin", builtin)


class FunctionRegistry:
    """Name -> FunctionEntry table; names are unique for the registry's lifetime."""

    def __init__(self):
        self._entries: dict[str, FunctionEntry] = {}

    def _add(self, name: str, arity, stochastic: bool, impl: Callable, builtin: bool):
        problem = _name_problem(name)
        if problem is not None:
            raise RegistryError(f"function name {name!r} {problem}")
        if name in self._entries:
            kind = "built-in" if self._entries[name].builtin else "registered"
            raise RegistryError(f"function {name!r} is already {kind}")
        spec = Arity.of(arity)
        if spec is None:
            raise RegistryError(f"function {name!r} arity {arity!r} is not a count "
                                "or a (min, max-or-None) pair of counts with min <= max")
        self._entries[name] = FunctionEntry(spec, stochastic, impl, builtin)

    def add_builtin(self, name: str, arity, stochastic: bool, impl: Callable):
        self._add(name, arity, stochastic, impl, builtin=True)

    def lookup(self, name: str) -> FunctionEntry | None:
        return self._entries.get(name)

    def resolve(self, name: str, nargs: int) -> tuple[FunctionEntry | None, str | None]:
        """The entry a call of ``name`` with ``nargs`` arguments reaches, and what is wrong with the call."""
        entry = self.lookup(name)
        if entry is None:
            return None, f"unknown function {_brief(name)}"
        if not entry.arity.accepts(nargs):
            return entry, f"{_cut(name)} expects {entry.arity.describe()} argument(s), got {nargs}"
        return entry, None

    def names(self) -> list[str]:
        return sorted(self._entries)


def register_host_function(registry: FunctionRegistry, name: str, arity, stochastic: bool, impl: Callable) -> None:
    """Expose a host callable to the DSL under ``name``.

    The callable receives engine values (plus the node's RandomStream first
    when ``stochastic``) and must return a value in the closed algebra;
    tuples are normalized to lists.  A list of plain scalars is bound as it
    is, not copied, so the callable must not change it afterwards.
    """

    if stochastic:
        def wrapped(rng, *args, _impl=impl):
            return as_value(_impl(rng, *args))
    else:
        def wrapped(*args, _impl=impl):
            return as_value(_impl(*args))

    registry._add(name, arity, stochastic, wrapped, builtin=False)
