"""The dynamic value algebra passed along graph edges.

Values are ordinary Python objects: ``bool``, ``int``, ``float``, ``str``,
``list`` (heterogeneous, arbitrarily nested), :class:`Tensor`, and the
:data:`MISSING` marker.  Values are treated as immutable once bound to a
node; the engine never mutates them and host functions must not either.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Tensor", "MISSING", "Value", "type_name", "values_equal", "csv_cell", "parse_cell", "as_value"]


class _Missing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()


@dataclass(frozen=True)
class Tensor:
    """Row-major tensor of 64-bit reals.

    Invariant: ``len(data) == product(shape)`` and every dim is positive.
    The constructor is the boundary check for tensors built outside the
    engine (host functions, :func:`parse_cell`): every dim must be an
    ``int`` (not a bool, not a float such as ``2.7``) and every element an
    ``int`` or a ``float`` (not a bool or a string); anything else is a
    :class:`DomainError`, never a lossy conversion.  Built-ins whose
    arguments already hold the invariant use :meth:`_trusted` instead.
    """

    shape: tuple[int, ...]
    data: tuple[float, ...]

    def __post_init__(self):
        shape = tuple(_dim(d) for d in self.shape)
        if not shape or any(d < 1 for d in shape):
            raise DomainError(f"tensor shape must be positive integers, got {_brief(list(self.shape))}")
        n = math.prod(shape)
        data = tuple(_element(x) for x in self.data)
        if len(data) != n:
            raise DomainError(f"tensor data length {len(data)} != product of shape {n}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def _trusted(cls, shape: tuple[int, ...], data: tuple[float, ...]) -> Tensor:
        """Build without checks, for built-ins whose arguments already hold the invariant.

        ``shape`` must be a tuple of positive ``int`` and ``data`` a tuple of
        ``float`` of length ``product(shape)``.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "data", data)
        return t

    @functools.cached_property
    def _cell(self) -> str:
        """Compact JSON cell text, encoded on first use and kept on this tensor.

        It is stored on the object, not in a table keyed by value: ``==``
        treats ``0.0`` and ``-0.0`` as equal, but their cells differ.
        """
        return _JSON.encode(self)


def _dim(d) -> int:
    if isinstance(d, bool) or not isinstance(d, int):
        raise DomainError(f"tensor dimension must be an integer, got {_brief(d)}")
    return int(d)


def _element(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"tensor element must be a number, got {_brief(x)}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"tensor element {_brief(x)} is too large for a 64-bit real") from None


def _brief(v: object) -> str:
    """``repr(v)`` for an error message, cut to 80 characters.

    An int past the interpreter's digit limit has no text, so it is given by
    its size, or named when it sits inside a list, as is a list nested too
    deeply for ``repr``.
    """
    try:
        text = repr(v)
    except RecursionError:
        return f"a {type(v).__name__} nested too deeply to print"
    except ValueError:
        if isinstance(v, int):
            return f"an int of {v.bit_length()} bits"
        return f"a {type(v).__name__} holding an int too long to print"
    return text if len(text) <= 80 else text[:77] + "..."


Value = bool | int | float | str | list | _Missing | Tensor


def type_name(v: Value) -> str:
    """Return the value's kind tag: bool, int, float, str, list, tensor, or missing."""
    if v is MISSING:
        return "missing"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, str):
        return "str"
    if isinstance(v, list):
        return "list"
    if isinstance(v, Tensor):
        return "tensor"
    raise TypeError(f"not an engine value: {v!r}")


_PLAIN = frozenset({bool, int, float, str})


def as_value(obj: object) -> Value:
    """Normalize a host-function result into the closed value algebra.

    An exact ``bool``, ``int``, ``float`` or ``str``, and a ``list`` of only
    those, is already a value and comes back as the same object.  Otherwise
    tuples become lists, int and float subclasses their base type, and
    anything outside the algebra raises ``TypeError``.
    """
    t = type(obj)
    if t in _PLAIN or (t is list and _PLAIN.issuperset(map(type, obj))):
        return obj
    if obj is MISSING or isinstance(obj, (bool, str, Tensor)):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [as_value(x) for x in obj]
    raise TypeError(f"unsupported value type {type(obj).__name__!r}")


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality.

    ``int`` and ``float`` compare numerically (exact); ``bool`` is a distinct
    kind and never equals a number; MISSING equals only MISSING.
    """
    if a is MISSING or b is MISSING:
        return a is b
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a.shape == b.shape and a.data == b.data
    return False


def _json_default(v):
    """What :data:`_JSON` writes for the values json has no form of."""
    if v is MISSING:
        return None
    if isinstance(v, Tensor):
        # json writes tuples as arrays, so the tuples need no list copy
        return {"shape": v.shape, "data": v.data}
    raise TypeError(f"not an engine value: {v!r}")


# the one compact encoder for list and tensor cells
_JSON = json.JSONEncoder(separators=(",", ":"), default=_json_default)


def csv_cell(v: Value) -> str:
    """Serialize one value to its CSV cell text (quoting is the CSV layer's job).

    Floats use the shortest decimal that round-trips to the same 64-bit real.
    Lists and tensors use compact JSON; MISSING is the empty cell.
    """
    if v is MISSING:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Tensor):
        return v._cell
    return _JSON.encode(v)


_INT_RE = re.compile(r"-?[0-9]+\Z")
_FLOAT_RE = re.compile(r"-?(?:[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)\Z")


def _from_jsonable(obj) -> Value:
    if obj is None:
        return MISSING
    if isinstance(obj, dict):
        if set(obj) != {"shape", "data"}:
            raise ValueError(f"object cell must have exactly shape/data keys, got {sorted(obj)}")
        return Tensor(tuple(obj["shape"]), tuple(obj["data"]))
    if isinstance(obj, list):
        return [_from_jsonable(x) for x in obj]
    return obj


def parse_cell(text: str) -> Value:
    """Read a cell back under the serialization grammar in FORMATS.md.

    Strings whose raw text collides with another form (empty, ``true``/
    ``false``, numeric, or bracket-leading) are the documented lossy corner
    and come back as the other kind.
    """
    if text == "":
        return MISSING
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    if text[0] in "[{":
        return _from_jsonable(json.loads(text))
    return text
