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
from .values import as_value

__all__ = ["Arity", "FunctionEntry", "FunctionRegistry", "register_host_function"]


@dataclass(frozen=True)
class Arity:
    """Accepted argument count: fixed when ``low == high``, open-ended when high is None."""

    low: int
    high: int | None

    @classmethod
    def of(cls, spec) -> "Arity":
        if isinstance(spec, Arity):
            return spec
        if isinstance(spec, int):
            return cls(spec, spec)
        low, high = spec
        return cls(low, high)

    def accepts(self, n: int) -> bool:
        return n >= self.low and (self.high is None or n <= self.high)

    def describe(self) -> str:
        if self.low == self.high:
            return str(self.low)
        return f"{self.low}+" if self.high is None else f"{self.low}..{self.high}"


@dataclass(frozen=True)
class FunctionEntry:
    arity: Arity
    stochastic: bool
    impl: Callable
    builtin: bool = False


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
        self._entries[name] = FunctionEntry(Arity.of(arity), stochastic, impl, builtin)

    def add_builtin(self, name: str, arity, stochastic: bool, impl: Callable):
        self._add(name, arity, stochastic, impl, builtin=True)

    def lookup(self, name: str) -> FunctionEntry | None:
        return self._entries.get(name)

    def resolve(self, name: str, nargs: int) -> tuple[FunctionEntry | None, str | None]:
        """The entry a call of ``name`` with ``nargs`` arguments reaches, and what is wrong with the call."""
        entry = self.lookup(name)
        if entry is None:
            return None, f"unknown function {name!r}"
        if not entry.arity.accepts(nargs):
            return entry, f"{name} expects {entry.arity.describe()} argument(s), got {nargs}"
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
