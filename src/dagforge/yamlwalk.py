"""One pass from a YAML parser's events to the document's Python objects.

``walk(loader)`` builds what ``yaml.load`` with PyYAML's safe constructor
builds, except that a mapping rejects a duplicate or an unhashable key, and it
composes no node graph: each event goes straight into the open collection on
an explicit stack, so no depth of nesting recurses, and a document nesting
more than ``MAX_NESTING`` levels is a :class:`SpecError`.  A plain scalar is
resolved with the loader's own resolver, once per distinct text; only a scalar
that is not a string runs PyYAML's constructor for its tag.

Every failure is the one ``yaml.load`` raises, except that a constructor's
plain Python error (``IndexError`` for ``!!int ''``) is raised as a
construction error at its node.  A parse error, an undefined
alias or a duplicate anchor ends the walk, after a scan for nesting too deep,
which PyYAML's loader met first.  A construction error does not end it:
PyYAML constructs only a fully composed document, and it fills lists and sets
breadth-first, one pass per level, after the mappings around them.  So each
construction error is kept with its place in that order, ``(level, path,
position)``, and the first in order is raised after the last event.  An alias
constructs its node where PyYAML first meets it, so the node's first error is
kept again at each alias.

Four kinds of document get another outcome on purpose; ``tests/test_loader.py``
pins them: ``!!map`` on a list or a scalar is an error (PyYAML's strict mapping
constructor took the node apart with a ``TypeError`` or ``ValueError``, or
built ``{}`` from an empty one), a merge or value key inside ``!!set`` is an
unknown tag as in every other mapping, a value key under a scalar tag is not
the scalar, and an alias to an anchored ``!!omap`` entry stands for its key
and value rather than a mapping built anew with the entry's own tag.
"""

from __future__ import annotations

from types import GeneratorType

import yaml

from .errors import SpecError
from .values import _brief

__all__ = ["MAX_NESTING", "walk"]

# The deepest a document may nest mappings and lists; a model needs three
# levels.  The walk itself does not recurse; the bound keeps the values it
# hands on shallow enough for code that does, such as ``==`` and ``repr``.
MAX_NESTING = 100

_T = "tag:yaml.org,2002:"
_MAP, _SEQ, _SET, _OMAP, _PAIR, _ROOT = "map", "seq", "set", "omap", "pair", "root"
_KINDS = {  # the collection tags built here, by the start event they tag
    (_T + "map", yaml.MappingStartEvent): _MAP, (_T + "seq", yaml.SequenceStartEvent): _SEQ,
    (_T + "set", yaml.MappingStartEvent): _SET, (_T + "omap", yaml.SequenceStartEvent): _OMAP,
    (_T + "pairs", yaml.SequenceStartEvent): _OMAP,
}
_CONTEXT = {_T + "omap": "while constructing an ordered map", _T + "pairs": "while constructing pairs",
            _T + "set": "while constructing a mapping"}
_LATER = (_SEQ, _SET, _OMAP)  # PyYAML fills these one pass after the one that creates them
_OPEN, _NOKEY, _BAD = object(), object(), object()
_Error = yaml.constructor.ConstructorError


class _Node:
    """An open collection, or an anchored node."""

    __slots__ = ("kind", "obj", "key", "mark", "pos", "path", "err", "dead", "inner", "id", "tag")

    def __init__(self, kind, obj, mark, pos, path, err, id, tag=None):
        self.kind, self.obj, self.key, self.mark, self.pos, self.path, self.tag = kind, obj, _NOKEY, mark, pos, path, tag
        # the first index of its errors, the error that kills it, and (if
        # anchored) its first error relative to its place, or _OPEN until built
        self.err, self.dead, self.inner, self.id = err, None, None, id


def _too_deep() -> SpecError:
    return SpecError("document", f"nested more than {MAX_NESTING} levels deep")


def _duplicate_anchor(first: _Node, ev) -> yaml.YAMLError:
    return yaml.composer.ComposerError(
        f"found duplicate anchor {ev.anchor!r}; first occurrence", first.mark, "second occurrence", ev.start_mark)


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
        memo, anchors, errors = {}, {}, []
        stack = [_Node(_ROOT, None, None, 0, (), 0, None)]
        top, i, broken = stack[0], 0, None

        def fail(exc, pos, path=None):
            path = top.path if path is None else path
            errors.append(((len(path), path, pos), len(errors), exc))

        def construct(tag, node, pos):
            """PyYAML's constructor for ``node``; a failure is kept, and gives None."""
            try:
                data = constructors.get(tag, constructors[None])(loader, node)
                if isinstance(data, GeneratorType):  # the rest runs one pass later
                    obj = next(data)
                    try:
                        for _ in data:
                            pass
                    except Exception as exc:
                        fail(_yaml_error(exc, node), pos, top.path + (pos,))
                    return obj
                return data
            except Exception as exc:  # kept, and raised at the end if PyYAML would have raised it first
                fail(_yaml_error(exc, node), pos)

        def finish(node):
            if node.err < len(errors):
                (_, path, pos), _, exc = min(errors[node.err:])
                shift = lambda p: (p[0] - node.pos,) + p[1:]
                node.inner = tuple(map(shift, path[len(top.path):])), shift(pos), exc
            else:
                node.inner = None

        def entry(items, id, mark, pos):
            """Append the one key and value of an !!omap or !!pairs entry."""
            if id != "mapping":
                fail(_Error(_CONTEXT[top.tag], top.mark, f"expected a mapping of length 1, but found {id}", mark), pos)
            elif len(items) != 1:
                fail(_Error(_CONTEXT[top.tag], top.mark, f"expected a single mapping item, but found {len(items)} items",
                            mark), pos)
            else:
                top.obj.append(items[0])

        def scalar(ev, i):
            """The object of a scalar that is tagged, anchored, in an !!omap or new to the memo."""
            nonlocal broken
            tag, value, anchor, n = ev.tag, ev.value, ev.anchor, len(errors)
            if anchor in anchors:
                broken = _duplicate_anchor(anchors[anchor], ev)
                return None
            if tag is not None and tag != "!":
                v = construct(tag, yaml.ScalarNode(tag, value, ev.start_mark, ev.end_mark, ev.style), (i,))
            elif not ev.implicit[0]:  # quoted
                v = value
            else:
                v = memo.get(value, _NOKEY)
                if v is _NOKEY:
                    tag = resolve(yaml.ScalarNode, value, ev.implicit)
                    v = value if tag == _T + "str" else construct(
                        tag, yaml.ScalarNode(tag, value, ev.start_mark, ev.end_mark), (i,))
                    if n == len(errors):  # the same text would fail again
                        memo[value] = v
            if anchor is not None:
                finish(anchors.setdefault(anchor, _Node(None, v, ev.start_mark, i, top.path, n, "scalar")))
            if top.kind is _OMAP:  # PyYAML constructs only mapping entries
                del errors[n:]
            return v

        def add(v, mark, i, id):
            kind, key = top.kind, top.key
            if kind is _MAP or kind is _SET:
                if key is _NOKEY:
                    try:
                        hash(v)  # a set holds a key only if it hashes; ``in`` would take a set key as frozenset
                        duplicate = kind is _MAP and v in top.obj
                    except TypeError:
                        fail(_Error(None, None, "unhashable mapping key", mark) if kind is _MAP else
                             _Error(_CONTEXT[top.tag], top.mark, "found unhashable key", mark), (i,))
                        v = _BAD
                    else:
                        if duplicate:
                            fail(_Error(None, None, f"duplicate key {_brief(v)}", mark), (i,))
                            v = _BAD
                    top.key = v
                    return
                if key is not _BAD:
                    if kind is _MAP:
                        top.obj[key] = v
                    else:
                        top.obj.add(key)
                top.key = _NOKEY
            elif kind is _SEQ or kind is _PAIR:
                top.obj.append(v)
            elif kind is _OMAP:
                entry(list(v.items()) if isinstance(v, dict) else (), id, mark, (i,))
            else:
                top.obj, top.mark = v, mark

        while True:
            ev = get()
            i += 1
            cls = type(ev)
            if cls is yaml.ScalarEvent:
                v = ev.value
                if ev.tag is not None or ev.anchor is not None or top.kind is _OMAP:
                    v = scalar(ev, i)
                    if broken is not None:
                        break
                elif ev.implicit[0]:  # plain
                    v = memo.get(v, _NOKEY)
                    if v is _NOKEY:
                        v = scalar(ev, i)
                key = top.key
                if key is _NOKEY or key is _BAD or top.kind is not _MAP:
                    add(v, ev.start_mark, i, "scalar")
                else:  # a mapping's value, the commonest case
                    top.obj[key] = v
                    top.key = _NOKEY
            elif cls is yaml.MappingStartEvent or cls is yaml.SequenceStartEvent:
                if len(stack) > MAX_NESTING:
                    raise _too_deep()
                anchor, tag, mapping = ev.anchor, ev.tag, cls is yaml.MappingStartEvent
                if anchor in anchors:
                    broken = _duplicate_anchor(anchors[anchor], ev)
                    break
                if top.kind is _OMAP and mapping:
                    kind = _PAIR  # an entry, whose tag PyYAML ignores
                elif tag is None or tag == "!":  # the safe resolvers give the default tags
                    kind = _MAP if mapping else _SEQ
                else:
                    kind = _KINDS.get((tag, cls))
                node = _Node(kind, None, ev.start_mark, i, top.path, len(errors), "mapping" if mapping else "sequence", tag)
                if kind is None:  # the tag's own constructor rejects this node
                    node.kind = _MAP if mapping else _SEQ
                    construct(tag, (yaml.MappingNode if mapping else yaml.SequenceNode)(tag, [], ev.start_mark, None), (i,))
                    node.dead = errors[-1] if len(errors) > node.err else None
                if node.kind in _LATER:
                    node.path = top.path + ((i,),)
                node.obj = {} if node.kind is _MAP else set() if node.kind is _SET else []
                if anchor is not None:
                    anchors[anchor], node.inner = node, _OPEN
                stack.append(node)
                top = node
            elif cls is yaml.MappingEndEvent or cls is yaml.SequenceEndEvent:
                node = stack.pop()
                top = stack[-1]
                if node.dead is not None:  # PyYAML constructs nothing inside it
                    del errors[node.err:]
                    errors.append(node.dead)
                if node.inner is _OPEN:
                    finish(node)
                if node.kind is _PAIR:
                    pairs = list(zip(node.obj[::2], node.obj[1::2]))
                    entry(pairs, "mapping", node.mark, (node.pos,))
                    try:
                        node.obj = dict(pairs)  # what an alias to it stands for
                    except TypeError:
                        pass
                else:
                    if top.kind is _OMAP:
                        del errors[node.err:]
                    add(node.obj, node.mark, i, node.id)
            elif cls is yaml.AliasEvent:
                node = anchors.get(ev.anchor)
                if node is None:
                    broken = yaml.composer.ComposerError(None, None, f"found undefined alias {ev.anchor!r}", ev.start_mark)
                    break
                if node.inner is _OPEN:  # inside its own anchor
                    if node.kind is _MAP and not any(f.kind in _LATER for f in stack[stack.index(node):]):
                        fail(_Error(None, None, "found unconstructable recursive node", node.mark), (i,))
                elif node.inner is not None and (top.kind is not _OMAP or node.id == "mapping"):
                    path, pos, exc = node.inner  # constructed here, unless PyYAML met it before
                    at = (i - 0.5,)
                    path = top.path + tuple(at + p for p in path)
                    errors.append(((len(path), path, at + pos), len(errors), exc))
                add(node.obj, node.mark, i, node.id)
            else:  # the document's end
                break

        if broken is not None:
            depth = len(stack) - 1 + isinstance(ev, yaml.CollectionStartEvent)
            try:
                while not isinstance(ev, yaml.DocumentEndEvent):
                    ev = get()
                    depth += isinstance(ev, yaml.CollectionStartEvent) - isinstance(ev, yaml.CollectionEndEvent)
                    if depth > MAX_NESTING:
                        raise _too_deep()
            except yaml.YAMLError:
                pass
            raise broken
        ev = get()
        if not isinstance(ev, yaml.StreamEndEvent):
            raise yaml.composer.ComposerError(
                "expected a single document in the stream", stack[0].mark, "but found another document", ev.start_mark)
        if errors:
            raise min(errors)[2]
        return stack[0].obj
    finally:
        loader.dispose()
