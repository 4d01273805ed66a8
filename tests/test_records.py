"""The 18 records and expression nodes keep the frozen-dataclass contract.

``dataclasses.fields``, ``replace`` and ``asdict`` see each class as before;
construction takes the same keywords, positions and defaults; ``==`` and
``hash`` read the compared fields; ``repr`` gives the same text; and every
field is read-only.  The expectations were recorded from the methods that
``@dataclass(frozen=True)`` generated for these classes.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from dagforge.expr import Binary, Call, Expr, IfElse, ListLit, Lit, Ref, Unary
from dagforge.graph import CompiledModel
from dagforge.modelspec import ModelSpec, NodeDecl, SimInstructions
from dagforge.registry import Arity, FunctionEntry
from dagforge.sampler import Dataset, RunConfig, SampleRow
from dagforge.values import Tensor

_NO = dataclasses.MISSING
_KW = inspect.Parameter.KEYWORD_ONLY
_SPAN = ("span", None, True, True, False, True)

# each class's fields: (name, default, init, repr, compare, kw_only)
FIELDS = {
    Expr: [_SPAN],
    Lit: [_SPAN, ("value", None, True, True, True, False)],
    Ref: [_SPAN, ("name", "", True, True, True, False)],
    Call: [_SPAN, ("name", "", True, True, True, False), ("args", (), True, True, True, False)],
    Unary: [_SPAN, ("op", "-", True, True, True, False), ("operand", None, True, True, True, False)],
    Binary: [_SPAN, ("op", "+", True, True, True, False), ("lhs", None, True, True, True, False),
             ("rhs", None, True, True, True, False)],
    IfElse: [_SPAN, ("cond", None, True, True, True, False), ("then", None, True, True, True, False),
             ("otherwise", None, True, True, True, False)],
    ListLit: [_SPAN, ("elements", (), True, True, True, False)],
    Tensor: [("shape", _NO, True, True, True, False), ("data", _NO, True, True, True, False)],
    Arity: [("low", _NO, True, True, True, False), ("high", _NO, True, True, True, False)],
    FunctionEntry: [("arity", _NO, True, True, True, False), ("stochastic", _NO, True, True, True, False),
                    ("impl", _NO, True, True, True, False), ("builtin", False, True, True, True, False)],
    CompiledModel: [("nodes", _NO, True, True, True, False), ("parents", _NO, True, True, True, False),
                    ("topo_order", _NO, True, True, True, False), ("selection", _NO, True, True, True, False),
                    ("stratify", _NO, True, True, True, False), ("by_name", _NO, False, False, False, False)],
    NodeDecl: [("name", _NO, True, True, True, False), ("expr", _NO, True, True, True, False),
               ("kind", "standard", True, True, True, False), ("observed", True, True, True, True, False),
               ("size", None, True, True, True, False), ("underlying", None, True, True, True, False)],
    SimInstructions: [("csv_name", _NO, True, True, True, False), ("num_samples", _NO, True, True, True, False),
                      ("seed", None, True, True, True, False), ("output_dir", None, True, True, True, False)],
    ModelSpec: [("nodes", _NO, True, True, True, False), ("instructions", _NO, True, True, True, False)],
    RunConfig: [("num_samples", _NO, True, True, True, False), ("seed", 0, True, True, True, False),
                ("max_rejection_factor", 1000, True, True, True, False)],
    SampleRow: [("values", _NO, True, True, True, False), ("stratum", None, True, True, True, False)],
    Dataset: [("rows", _NO, True, True, True, False), ("column_order", _NO, True, True, True, False),
              ("attempts", _NO, True, True, True, False)],
}

# the Expr nodes hold their fields in slots
SLOTTED = {Expr, Lit, Ref, Call, Unary, Binary, IfElse, ListLit}

_A = NodeDecl("A", Lit(value=1, span=(0, 1)))
_B = NodeDecl("B", Ref(name="A", span=(0, 1)), kind="missing", observed=False, size=3, underlying="A")
_MODEL = CompiledModel((_A, _B), {"A": [], "B": ["A"]}, ["A", "B"], None, "B")

# a sample of each class, and its repr
SAMPLES = [
    (Expr(span=(0, 1)), "Expr(span=(0, 1))"),
    (Lit(value=1.5, span=(0, 3)), "Lit(span=(0, 3), value=1.5)"),
    (Lit(value='q"'), "Lit(span=None, value='q\"')"),
    (Ref(name="x", span=(2, 3)), "Ref(span=(2, 3), name='x')"),
    (Call(name="f", args=(Lit(value=1), Ref(name="y")), span=(0, 7)),
     "Call(span=(0, 7), name='f', args=(Lit(span=None, value=1), Ref(span=None, name='y')))"),
    (Unary(op="not", operand=Ref(name="b")), "Unary(span=None, op='not', operand=Ref(span=None, name='b'))"),
    (Binary(op="*", lhs=Lit(value=True), rhs=Ref(name="x")),
     "Binary(span=None, op='*', lhs=Lit(span=None, value=True), rhs=Ref(span=None, name='x'))"),
    (IfElse(cond=Ref(name="c"), then=Lit(value=1), otherwise=Lit(value=2), span=(0, 20)),
     "IfElse(span=(0, 20), cond=Ref(span=None, name='c'), then=Lit(span=None, value=1), "
     "otherwise=Lit(span=None, value=2))"),
    (ListLit(elements=(Lit(value="a"),)), "ListLit(span=None, elements=(Lit(span=None, value='a'),))"),
    (Tensor((2,), (1, -0.0)), "Tensor(shape=(2,), data=(1.0, -0.0))"),
    (Arity(1, None), "Arity(low=1, high=None)"),
    (FunctionEntry(Arity(2, 2), True, abs), "FunctionEntry(arity=Arity(low=2, high=2), stochastic=True, "
                                            "impl=<built-in function abs>, builtin=False)"),
    (_MODEL, "CompiledModel(nodes=(NodeDecl(name='A', expr=Lit(span=(0, 1), value=1), kind='standard', "
             "observed=True, size=None, underlying=None), NodeDecl(name='B', expr=Ref(span=(0, 1), name='A'), "
             "kind='missing', observed=False, size=3, underlying='A')), parents={'A': [], 'B': ['A']}, "
             "topo_order=['A', 'B'], selection=None, stratify='B')"),
    (_A, "NodeDecl(name='A', expr=Lit(span=(0, 1), value=1), kind='standard', observed=True, size=None, "
         "underlying=None)"),
    (SimInstructions("out", 10), "SimInstructions(csv_name='out', num_samples=10, seed=None, output_dir=None)"),
    (SimInstructions("out", 10, seed=7, output_dir="d"),
     "SimInstructions(csv_name='out', num_samples=10, seed=7, output_dir='d')"),
    (ModelSpec((_A,), SimInstructions("o", 1)),
     "ModelSpec(nodes=(NodeDecl(name='A', expr=Lit(span=(0, 1), value=1), kind='standard', observed=True, "
     "size=None, underlying=None),), instructions=SimInstructions(csv_name='o', num_samples=1, seed=None, "
     "output_dir=None))"),
    (RunConfig(10), "RunConfig(num_samples=10, seed=0, max_rejection_factor=1000)"),
    (RunConfig(10, seed=3, max_rejection_factor=5), "RunConfig(num_samples=10, seed=3, max_rejection_factor=5)"),
    (SampleRow({"A": 1}, "s"), "SampleRow(values={'A': 1}, stratum='s')"),
    (Dataset([SampleRow({"A": 1})], ["A"], 1),
     "Dataset(rows=[SampleRow(values={'A': 1}, stratum=None)], column_order=['A'], attempts=1)"),
]
_IDS = [f"{type(x).__name__}-{k}" for k, (x, _) in enumerate(SAMPLES)]
# the compared field of each class that holds a dict or a list, so it has no hash
UNHASHABLE = {CompiledModel: "dict", SampleRow: "dict", Dataset: "list"}
# the classes whose constructor checks or derives from some field
CHECKED = {Tensor, SimInstructions, RunConfig, CompiledModel}


def _field_names(x, flag="init"):
    return [f.name for f in dataclasses.fields(x) if getattr(f, flag)]


def test_every_class_has_a_sample():
    assert {type(x) for x, _ in SAMPLES} == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_and_signature(cls):
    assert dataclasses.is_dataclass(cls)
    fields = dataclasses.fields(cls)
    assert [(f.name, f.default, f.init, f.repr, f.compare, f.kw_only) for f in fields] == FIELDS[cls]
    assert all(f.default_factory is _NO and f.hash is None for f in fields)
    # keyword-only fields come last in __init__, as dataclass orders them
    init = [f for f in fields if f.init]
    init = [f for f in init if not f.kw_only] + [f for f in init if f.kw_only]
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default, p.kind == _KW) for p in params] == \
        [(f.name, inspect.Parameter.empty if f.default is _NO else f.default, f.kw_only) for f in init]
    assert cls.__match_args__ == tuple(f.name for f in fields if f.init and not f.kw_only)
    assert cls.__doc__
    assert ("__dict__" not in dir(cls)) == (cls in SLOTTED)


@pytest.mark.parametrize("x, text", SAMPLES, ids=_IDS)
def test_repr_eq_and_hash(x, text):
    assert repr(x) == text
    cls = type(x)
    twin = dataclasses.replace(x)
    assert twin is not x and twin == x and not twin != x
    assert cls(**{n: getattr(x, n) for n in _field_names(x)}) == x
    assert cls(*[getattr(x, n) for n in _field_names(x) if n != "span"], span=x.span) == x \
        if cls in SLOTTED else cls(*[getattr(x, n) for n in _field_names(x)]) == x
    compared = tuple(getattr(x, n) for n in _field_names(x, "compare"))
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=f"unhashable type: '{UNHASHABLE[cls]}'"):
            hash(x)
    else:
        assert hash(x) == hash(twin) == hash(compared)
    assert x.__eq__(object()) is NotImplemented and x != object()
    assert dataclasses.asdict(x) == copy.deepcopy(dataclasses.asdict(twin))


@pytest.mark.parametrize("x, text", SAMPLES, ids=_IDS)
def test_a_compared_field_decides_equality(x, text):
    for f in dataclasses.fields(x):
        if not f.init:
            continue
        try:
            other = dataclasses.replace(x, **{f.name: _Other()})
        except Exception:  # the field is checked, or another is derived from it
            assert type(x) in CHECKED
            continue
        assert (other == x) is (not f.compare)
        assert repr(other) == text.replace(f"{f.name}={getattr(x, f.name)!r}", f"{f.name}=<other>", 1)


def test_a_checked_field_decides_equality():
    assert Tensor((1,), (1.0,)) != Tensor((1,), (2.0,)) and Tensor((1,), (1.0,)) != Tensor((1, 1), (1.0,))
    assert SimInstructions("a", 1) != SimInstructions("b", 1) != SimInstructions("b", 2)
    assert RunConfig(1) != RunConfig(2) != RunConfig(2, seed=1) != RunConfig(2, seed=1, max_rejection_factor=2)
    assert _MODEL != dataclasses.replace(_MODEL, nodes=(_A,))


class _Other:
    def __eq__(self, other):
        return isinstance(other, _Other)

    __hash__ = object.__hash__

    def __repr__(self):
        return "<other>"


@pytest.mark.parametrize("x, text", SAMPLES, ids=_IDS)
def test_fields_are_read_only(x, text):
    names = [f.name for f in dataclasses.fields(x)]
    if type(x) in SLOTTED:
        # no slot to hold it; on 3.11 the generated __setattr__ raised a TypeError
        with pytest.raises((AttributeError, TypeError)):
            x.not_a_field = 1
    else:
        names.append("not_a_field")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("x, text", SAMPLES, ids=_IDS)
def test_copies_and_pickles_are_equal(x, text):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == text


def test_a_plain_subclass_compares_by_class_and_may_add_attributes():
    class Named(Lit):
        pass

    class Decl(NodeDecl):
        pass

    assert Named(value=1) != Lit(value=1) and Named(value=1) == Named(value=1, span=(0, 1))
    assert repr(Named(value=1)) == "test_a_plain_subclass_compares_by_class_and_may_add_attributes.<locals>." \
                                   "Named(span=None, value=1)"
    d = Decl("A", Lit(value=1))
    d.note = "kept"  # not a field, and the subclass has a __dict__
    assert d.note == "kept" and d == Decl("A", Lit(value=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.name = "B"


def test_keyword_only_span_and_too_many_positions():
    assert Lit(1) == Lit(value=1) and Call("f").args == () and Binary().op == "+"
    assert RunConfig(4).seed == 0 and NodeDecl("A", Lit()).kind == "standard"
    with pytest.raises(TypeError):
        Lit(1, (0, 1))
    with pytest.raises(TypeError):
        RunConfig(1, 2, 3, 4)
    with pytest.raises(TypeError):
        NodeDecl("A")
    with pytest.raises(TypeError):
        Ref(nme="x")


def test_a_tensor_cell_is_kept_on_the_object_and_compared_by_value():
    t, u = Tensor((1, 2), (0.0, 1)), Tensor((1, 2), (-0.0, 1))
    assert "_cell" not in vars(t)
    cell = t._cell
    assert t._cell is cell and vars(t)["_cell"] is cell and cell == '{"shape":[1,2],"data":[0.0,1.0]}'
    assert u._cell == '{"shape":[1,2],"data":[-0.0,1.0]}'
    assert t == u and hash(t) == hash(u)
    assert repr(t) == "Tensor(shape=(1, 2), data=(0.0, 1.0))"
    assert dataclasses.replace(t)._cell is not cell
    assert [f.name for f in dataclasses.fields(t)] == ["shape", "data"]


def test_by_name_is_derived_from_the_nodes():
    assert _MODEL.by_name == {"A": _A, "B": _B}
    changed = dataclasses.replace(_MODEL, nodes=(_A,))
    assert changed.by_name == {"A": _A}
    other = dataclasses.replace(_MODEL)
    object.__setattr__(other, "by_name", {})
    assert other == _MODEL and repr(other) == repr(_MODEL)
    with pytest.raises(ValueError):
        dataclasses.replace(_MODEL, by_name={})
    with pytest.raises(TypeError):
        CompiledModel((), {}, [], None, None, by_name={})
