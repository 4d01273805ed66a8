"""One pass from a YAML parser's events to a model document's Python objects.

A model document is a YAML subset (SCHEMA.md): mappings, lists and scalars,
with anchors and aliases.  ``walk(loader)`` builds it without composing a node
graph: each event goes straight into the open collection on an explicit stack
of ``[collection, pending key, mark]`` lists, so no depth of nesting recurses,
and a document nesting more than ``MAX_NESTING`` levels is a
:class:`SpecError`.  A plain scalar is resolved with the loader's own resolver,
once per distinct text; only a scalar that is not a string runs PyYAML's
constructor for its tag.

A construction error is a ``ConstructorError`` at its node: a duplicate or an
unhashable mapping key, a scalar that its tag's constructor cannot read, an
unknown tag, a collection tag outside the subset (``!!set``, ``!!omap``,
``!!pairs``, or ``!!map``/``!!seq`` on another kind of node, or a scalar tag on
a collection), and an alias met inside its own anchor.  The walk keeps the
first construction error it meets and raises it after the last event, so a
parse error anywhere in the document wins.  An undefined alias or a duplicate
anchor is PyYAML's composer error, raised where it is met.
"""

from __future__ import annotations

import yaml

from .errors import SpecError
from .values import _brief

__all__ = ["MAX_NESTING", "walk"]

# The deepest a document may nest mappings and lists; a model needs three
# levels.  The walk itself does not recurse; the bound keeps the values it
# hands on shallow enough for code that does, such as ``==`` and ``repr``.
MAX_NESTING = 100

_T = "tag:yaml.org,2002:"
_KIND = {_T + "map": "mapping", _T + "seq": "sequence"}  # the collection tags built here
_OUTSIDE = (_T + "set", _T + "omap", _T + "pairs")  # PyYAML's other collection tags
_NOKEY, _BAD = object(), object()
_Error = yaml.constructor.ConstructorError


def _tag_error(tag: str, found: str, mark) -> yaml.YAMLError:
    """The error for an explicit ``tag`` on a node of kind ``found`` that does not carry it."""
    if tag in _OUTSIDE:
        problem = f"expected a mapping, list or scalar, but found {tag.replace(_T, '!!')}"
    else:
        problem = f"expected a {_KIND.get(tag, 'scalar')} node, but found {found}"
    return _Error(None, None, problem, mark)


def _yaml_error(exc: Exception, node) -> yaml.YAMLError:
    """``exc``, raised by a constructor for ``node``, as a YAML error.

    PyYAML's scalar constructors fail on some texts with plain Python errors
    (``!!int ''`` with an ``IndexError``, ``!!timestamp abc`` with an
    ``AttributeError``); each becomes a construction error at the node, as a
    duplicate key is.  A ``ValueError`` keeps its message, which is meant to
    be read (``month must be in 1..12``); the others' messages are not.
    """
    if isinstance(exc, yaml.YAMLError):
        return exc
    detail = f": {exc}" if isinstance(exc, ValueError) else ""
    problem = f"cannot construct {node.tag.replace(_T, '!!')} from {_brief(node.value)}{detail}"
    return _Error(None, None, problem, node.start_mark)


def walk(loader):
    """The object of the first document in ``loader``'s events; ``loader`` is disposed of."""
    get, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
    try:
        get()  # stream start
        if isinstance(get(), yaml.StreamEndEvent):
            return None
        first = loader.peek_event().start_mark  # the document's node, named if a second document follows
        root = []
        top = [root, _NOKEY, None]
        stack = [top]
        memo, anchors, error = {}, {}, None

        def fail(exc):
            nonlocal error
            if error is None:
                error = exc

        def anchor(ev, obj):
            if ev.anchor in anchors:
                raise yaml.composer.ComposerError(f"found duplicate anchor {ev.anchor!r}; first occurrence",
                                                  anchors[ev.anchor][1], "second occurrence", ev.start_mark)
            anchors[ev.anchor] = obj, ev.start_mark

        def construct(tag, ev):
            """PyYAML's constructor for a scalar; a failure is kept, and gives _BAD."""
            if tag in _KIND or tag in _OUTSIDE:
                fail(_tag_error(tag, "scalar", ev.start_mark))
                return _BAD
            node = yaml.ScalarNode(tag, ev.value, ev.start_mark, ev.end_mark, ev.style)
            try:
                return constructors.get(tag, constructors[None])(loader, node)
            except Exception as exc:  # kept, and raised at the end if no error came before it
                fail(_yaml_error(exc, node))
                return _BAD

        def scalar(ev):
            """The object of a scalar that is tagged, anchored or new to the memo."""
            tag, value = ev.tag, ev.value
            if tag is not None and tag != "!":
                v = construct(tag, ev)
            elif not ev.implicit[0]:  # quoted
                v = value
            else:
                v = memo.get(value, _NOKEY)
                if v is _NOKEY:
                    tag = resolve(yaml.ScalarNode, value, ev.implicit)
                    v = value if tag == _T + "str" else construct(tag, ev)
                    if v is not _BAD:  # the same text would fail again
                        memo[value] = v
            if ev.anchor is not None:
                anchor(ev, v)
            return v

        def add(v, mark):
            obj, key = top[0], top[1]
            if type(obj) is list:
                obj.append(v)
            elif key is _NOKEY:
                try:
                    duplicate = v in obj
                except TypeError:
                    fail(_Error(None, None, "unhashable mapping key", mark))
                    v = _BAD
                else:
                    if duplicate:
                        fail(_Error(None, None, f"duplicate key {_brief(v)}", mark))
                        v = _BAD
                top[1] = v
            else:
                if key is not _BAD:
                    obj[key] = v
                top[1] = _NOKEY

        while True:
            ev = get()
            cls = type(ev)
            if cls is yaml.ScalarEvent:
                v = ev.value
                if ev.tag is not None or ev.anchor is not None:
                    v = scalar(ev)
                elif ev.implicit[0]:  # plain
                    v = memo.get(v, _NOKEY)
                    if v is _NOKEY:
                        v = scalar(ev)
                key = top[1]
                if key is _NOKEY or key is _BAD:
                    add(v, ev.start_mark)
                else:  # a mapping's value, the commonest case
                    top[0][key] = v
                    top[1] = _NOKEY
            elif cls is yaml.MappingStartEvent or cls is yaml.SequenceStartEvent:
                if len(stack) > MAX_NESTING:
                    raise SpecError("document", f"nested more than {MAX_NESTING} levels deep")
                found = "mapping" if cls is yaml.MappingStartEvent else "sequence"
                obj = {} if cls is yaml.MappingStartEvent else []
                tag = ev.tag
                if tag is not None and tag != "!" and _KIND.get(tag) != found:
                    fail(_tag_error(tag, found, ev.start_mark) if tag in constructors else
                         _Error(None, None, f"could not determine a constructor for the tag {tag!r}", ev.start_mark))
                if ev.anchor is not None:
                    anchor(ev, obj)
                top = [obj, _NOKEY, ev.start_mark]
                stack.append(top)
            elif cls is yaml.MappingEndEvent or cls is yaml.SequenceEndEvent:
                obj, _, mark = stack.pop()
                top = stack[-1]
                add(obj, mark)
            elif cls is yaml.AliasEvent:
                if ev.anchor not in anchors:
                    raise yaml.composer.ComposerError(None, None, f"found undefined alias {ev.anchor!r}", ev.start_mark)
                obj, mark = anchors[ev.anchor]
                if any(frame[0] is obj for frame in stack):  # inside its own anchor
                    fail(_Error(None, None, "found unconstructable recursive node", mark))
                add(obj, mark)
            else:  # the document's end
                break

        ev = get()
        if not isinstance(ev, yaml.StreamEndEvent):
            raise yaml.composer.ComposerError(
                "expected a single document in the stream", first, "but found another document", ev.start_mark)
        if error is not None:
            raise error
        return root[0]
    finally:
        loader.dispose()
