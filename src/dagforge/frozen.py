"""The methods shared by every record and expression node.

Each such class is a ``@dataclass(init=False, repr=False, eq=False)`` that
writes its own ``__init__`` and inherits :class:`Frozen`, so
``dataclasses.fields``, ``replace`` and ``asdict`` work as they do for a
frozen dataclass, but ``@dataclass`` compiles no method when its module is
imported.  :class:`Frozen` gives them, written once, what
``@dataclass(frozen=True)`` would generate for each: ``==`` and ``hash``
over the compared fields, ``repr`` in the same text, and fields that raise
``FrozenInstanceError`` when assigned or deleted.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields
from functools import cache
from reprlib import recursive_repr

__all__ = ["Frozen"]


@cache
def _names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of ``cls``'s compared fields, and of the fields its repr shows."""
    fs = fields(cls)
    return tuple(f.name for f in fs if f.compare), tuple(f.name for f in fs if f.repr)


class Frozen:
    """A frozen dataclass's comparison, hash, repr and read-only fields."""

    __slots__ = ()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        compared = _names(cls)[0]
        return tuple([getattr(self, n) for n in compared]) == tuple([getattr(other, n) for n in compared])

    def __hash__(self):
        return hash(tuple([getattr(self, n) for n in _names(self.__class__)[0]]))

    @recursive_repr()
    def __repr__(self):
        cls = self.__class__
        return f"{cls.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in _names(cls)[1]])})"

    # a plain subclass of a record, which has a __dict__, may set what is not a field
    def __setattr__(self, name, value):
        cls = self.__class__
        if "__dataclass_fields__" in cls.__dict__ or name in cls.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        cls = self.__class__
        if "__dataclass_fields__" in cls.__dict__ or name in cls.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)
