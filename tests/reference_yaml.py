"""The composer-based YAML loader that ``modelspec`` used before its one-pass event walk, kept as a test oracle.

PyYAML composes the whole document into a node graph and its safe
constructor builds the objects, with a mapping constructor that rejects
duplicate and unhashable keys.  libyaml loads a document unless it holds a
tab or a byte-order mark or libyaml rejects it; the pure-Python loader loads
the rest.  A document nesting deeper than ``MAX_NESTING`` is rejected by an
event scan first, because both composers recurse.

It is the oracle for the exit class of every document and for the value of
every accepted one, not for the message of a construction error: PyYAML
constructs lists and sets one pass after the mappings around them, so of two
construction errors it may report another one than the walk does.  Three
changes are made on purpose, in both loaders:

- a constructor that fails with an error that is not a YAML error
  (``!!int ''`` raises ``IndexError``) raises a construction error at its
  node instead, with the text ``cannot construct <tag> from <value>``,
  followed by the message of a ``ValueError``;
- the mapping constructor rejects a node that is not a mapping with
  PyYAML's own text, where it took a list or a scalar under ``!!map`` apart;
- a document whose value holds a set, an ``!!omap`` or ``!!pairs`` entry, or
  a list or mapping inside itself is a construction error, as it is outside
  the YAML subset of SCHEMA.md.

``outcome`` turns what a loader does with a text into a value that compares
equal across loaders: the document's shape, or the exception's class and
message as ``parse_model`` would report it.
"""

import math

import yaml

from dagforge.errors import SpecError
from dagforge.values import _brief

MAX_NESTING = 100


def _strict_mapping(loader, node, deep=False):
    if not isinstance(node, yaml.MappingNode):
        raise yaml.constructor.ConstructorError(
            None, None, f"expected a mapping node, but found {node.id}", node.start_mark)
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        try:
            duplicate = key in mapping
        except TypeError:
            raise yaml.constructor.ConstructorError(None, None, "unhashable mapping key", key_node.start_mark) from None
        if duplicate:
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate key {_brief(key)}", key_node.start_mark)
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


def _at_node(constructor):
    def construct(loader, node):
        try:
            return constructor(loader, node)
        except yaml.YAMLError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported at the node, as the walk does
            detail = f": {exc}" if isinstance(exc, ValueError) else ""
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot construct {tag} from {_brief(node.value)}{detail}", node.start_mark) from exc

    return construct


def _strict_loader(base):
    loader = type("_StrictLoader", (base,), {})
    loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_mapping)
    for tag, constructor in list(loader.yaml_constructors.items()):
        loader.add_constructor(tag, _at_node(constructor))
    return loader


PyStrictLoader = _strict_loader(yaml.SafeLoader)
StrictLoader = _strict_loader(yaml.CSafeLoader) if hasattr(yaml, "CSafeLoader") else PyStrictLoader


def _check_nesting(text, loader):
    depth = 0
    try:
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_NESTING:
                    raise SpecError("document", f"nested more than {MAX_NESTING} levels deep")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
            elif isinstance(event, yaml.DocumentEndEvent):
                return
    except yaml.YAMLError:
        pass


def _check_subset(doc):
    """Raise a construction error if ``doc`` holds a set, a tuple or a list or mapping inside itself."""
    open_, done, todo = set(), set(), [(doc, False)]
    while todo:
        v, leaving = todo.pop()
        if leaving:
            open_.discard(id(v))
            done.add(id(v))
        elif isinstance(v, (set, tuple)) or id(v) in open_:
            raise yaml.constructor.ConstructorError(None, None, "outside the model document subset", None)
        elif isinstance(v, (list, dict)) and id(v) not in done:
            open_.add(id(v))
            todo.append((v, True))
            todo.extend((x, False) for x in (v.values() if isinstance(v, dict) else v))
    return doc


def load(text, libyaml=StrictLoader):
    """The document ``text`` holds, as the composer-based loader builds it."""
    if libyaml is not PyStrictLoader and "\t" not in text and "\ufeff" not in text:
        try:
            _check_nesting(text, libyaml)
            return _check_subset(yaml.load(text, Loader=libyaml))
        except yaml.YAMLError:
            pass
    _check_nesting(text, PyStrictLoader)
    return _check_subset(yaml.load(text, Loader=PyStrictLoader))


def shape(doc):
    """``doc`` as a flat list of tokens: equal lists mean equal documents with the same sharing.

    A container met before is a back-reference to its first index, so
    aliases and self-references must match; a float is its ``repr``, so
    ``nan`` equals ``nan`` and ``-0.0`` differs from ``0.0``.
    """
    out, seen, todo = [], {}, [doc]
    while todo:
        v = todo.pop()
        if isinstance(v, (list, dict, set, tuple)):
            if id(v) in seen:
                out.append(("ref", seen[id(v)]))
                continue
            if not isinstance(v, tuple):  # dict items are tuples made and freed as it goes
                seen[id(v)] = len(out)
            items = list(v.items()) if isinstance(v, dict) else list(v)
            out.append((type(v).__name__, len(items)))
            todo.extend(reversed(items))
        elif isinstance(v, float) and math.isnan(v):
            out.append(("float", "nan"))
        else:
            out.append((type(v).__name__, repr(v)))
    return out


def outcome(load_fn, text):
    """What ``load_fn(text)`` does, as ``parse_model`` reports it."""
    try:
        return ("ok", shape(load_fn(text)))
    except yaml.constructor.ConstructorError as err:
        where = f" (line {err.problem_mark.line + 1})" if err.problem_mark else ""
        return ("SpecError", f"{err.problem}{where}")
    except yaml.YAMLError as err:
        return ("YamlSyntaxError", str(err))
    except Exception as err:  # noqa: BLE001 - the class and text are the outcome
        return (type(err).__name__, str(err))
