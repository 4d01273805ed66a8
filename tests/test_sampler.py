import functools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dagforge.sampler as sampler
from dagforge import (
    MISSING,
    RandomStream,
    RunConfig,
    apply_interventions,
    build_registry,
    parse,
    parse_model,
    register_example_functions,
    register_host_function,
    sample_one,
    simulate,
    validate,
    values_equal,
)
from dagforge.errors import CoercionError, DagforgeError, EvalError, SelectionStarvation, ValidationError
from dagforge.evaluator import compile_node
from dagforge.expr import Lit, Ref
from dagforge.rng import KeyLanes, node_stream_key
from dagforge.sampler import KeptRows, SampleRow

import corpus
import reference_eval
from conftest import DATA, MODELS, model_yaml


def compile_text(text, registry):
    return validate(parse_model(text, registry), registry)


def test_sample_one_constant_model(registry):
    model = compile_text(model_yaml('    X: "1"\n'), registry)
    row, selected = sample_one(model, 0, 0, registry)
    assert row == {"X": 1}
    assert selected is True


def test_sample_one_plate_node(registry):
    text = model_yaml('    X:\n      function: "binomial(1, 0.5)"\n      size: 3\n')
    model = compile_text(text, registry)
    row, _ = sample_one(model, 0, 0, registry)
    assert isinstance(row["X"], list) and len(row["X"]) == 3
    assert set(row["X"]) <= {0, 1}


def test_plate_draws_are_iid_not_copies(registry):
    text = model_yaml('    X:\n      function: "uniform(0, 1)"\n      size: 5\n')
    model = compile_text(text, registry)
    row, _ = sample_one(model, 0, 0, registry)
    assert len(set(row["X"])) == 5


def test_sample_one_bioseq_row(registry):
    model = compile_text((MODELS / "bioseq.yaml").read_text(), registry)
    for i in (0, 7, 23):
        row, _ = sample_one(model, i, 0, registry)
        assert row["Disease"] in (0, 1)
        assert 10 <= row["Age"] <= 79
        assert len(row["kmerVec"]) == 16
        assert "AIRR" in row  # unobserved nodes still exist in rows


def test_nodes_that_never_draw_get_no_stream(registry, monkeypatch):
    # bioseq's kmerVec calls only the pure encode_kmers: 4 drawing slots of 5
    # nodes, and its program is passed None in every row, the others a stream
    passed = {}
    compile_steps = sampler._compile_steps

    def recording_steps(model, registry):
        steps, keys = compile_steps(model, registry)

        def recording(name, program):
            def run(bindings, rng):
                passed.setdefault(name, set()).add(None if rng is None else type(rng))
                return program(bindings, rng)
            return run

        return [(name, *rest, recording(name, program)) for name, *rest, program in steps], keys

    model = compile_text((MODELS / "bioseq.yaml").read_text(), registry)
    steps, keys = compile_steps(model, registry)
    assert len(keys) == 4 and [name for name, slot, *_ in steps if slot is None] == ["kmerVec"]
    monkeypatch.setattr(sampler, "_compile_steps", recording_steps)
    ds = simulate(model, RunConfig(num_samples=20, seed=3), registry)
    assert ds.attempts == 20
    assert passed.pop("kmerVec") == {None}
    assert sorted(passed) == sorted(set(model.topo_order) - {"kmerVec"})
    assert all(kinds == {RandomStream} for kinds in passed.values())


def test_only_pure_calls_mean_no_stream(registry):
    text = model_yaml(
        '    A: "concat(\\"a\\", \\"b\\") == \\"ab\\""\n'
        '    B: "1 + not_registered(2)"\n'
        '    C: "[1, binomial(1, 0.5)]"\n'
        '    D: "if A then 1 else 2"\n'
    )
    # validated against a registry that has not_registered, compiled against one that does not
    validating = build_registry()
    register_example_functions(validating)
    register_host_function(validating, "not_registered", 1, False, lambda x: x)
    model = validate(parse_model(text), validating)
    steps, _ = sampler._compile_steps(model, registry)
    keys = {step[0]: step[1] for step in steps}
    assert keys["A"] is None and keys["D"] is None
    assert keys["B"] is not None and keys["C"] is not None


def test_selection_value_not_in_row(registry):
    text = model_yaml(
        '    X: "binomial(1, 0.5)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n'
    )
    model = compile_text(text, registry)
    row, selected = sample_one(model, 0, 0, registry)
    assert "S" not in row
    assert isinstance(selected, bool)


def test_selection_coercion_rejects_non_flags(registry):
    text = model_yaml('    X: "1"\n    S:\n      function: "X + 1"\n      kind: selection\n')
    model = compile_text(text, registry)
    with pytest.raises(CoercionError):
        sample_one(model, 0, 0, registry)


def test_stratify_label_coercion(registry):
    text = model_yaml(
        '    X: "randint(0, 2)"\n'
        '    G:\n      function: "X"\n      kind: stratify\n'
    )
    model = compile_text(text, registry)
    row, _ = sample_one(model, 0, 0, registry)
    assert row["G"] in ("0", "1")

    bad = model_yaml('    X: "[1]"\n    G:\n      function: "X"\n      kind: stratify\n')
    with pytest.raises(CoercionError):
        sample_one(compile_text(bad, registry), 0, 0, registry)


def test_eval_errors_carry_node_name(registry):
    from dagforge.errors import EvalError

    model = compile_text(model_yaml('    Bad: "log(0)"\n'), registry)
    with pytest.raises(EvalError, match="node Bad"):
        sample_one(model, 0, 0, registry)


def test_missing_indicator_scalars(registry):
    def row_with(indicator):
        text = model_yaml(
            '    U: "3.2"\n'
            f'    M:\n      function: "{indicator}"\n      kind: missing\n      underlying: U\n'
        )
        return sample_one(compile_text(text, registry), 0, 0, registry)[0]

    assert row_with("1")["M"] is MISSING
    assert row_with("0")["M"] == 3.2
    assert row_with("1 == 1")["M"] is MISSING  # True
    assert row_with("1 == 1")["U"] == 3.2
    with pytest.raises(CoercionError, match="missing indicator"):
        row_with("0.5")


def test_missing_rate_rough(registry):
    text = model_yaml(
        '    U: "uniform(0,1)"\n'
        '    M:\n      function: "binomial(1, 0.3)"\n      kind: missing\n      underlying: U\n',
        num_samples=3000,
    )
    model = compile_text(text, registry)
    ds = simulate(model, RunConfig(num_samples=3000, seed=0), registry)
    frac = sum(1 for r in ds.rows if r.values["M"] is MISSING) / 3000
    assert abs(frac - 0.3) < 0.03
    kept = [r.values["M"] for r in ds.rows if r.values["M"] is not MISSING]
    assert all(isinstance(v, float) for v in kept)


def test_simulate_without_selection_attempts_equal_samples(registry):
    model = compile_text(model_yaml('    X: "uniform(0,1)"\n'), registry)
    ds = simulate(model, RunConfig(num_samples=25, seed=1), registry)
    assert ds.attempts == 25
    assert len(ds.rows) == 25


def test_simulate_selection_keeps_only_matching_rows(registry):
    text = model_yaml(
        '    X: "binomial(1, 0.5)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n'
    )
    model = compile_text(text, registry)
    ds = simulate(model, RunConfig(num_samples=100, seed=0), registry)
    assert all(r.values["X"] == 1 for r in ds.rows)
    assert ds.attempts > 100


def test_selection_starvation(registry):
    text = model_yaml('    X: "1"\n    S:\n      function: "1 == 2"\n      kind: selection\n')
    model = compile_text(text, registry)
    with pytest.raises(SelectionStarvation):
        simulate(model, RunConfig(num_samples=5, seed=0, max_rejection_factor=10), registry)


@pytest.mark.parametrize("field, value", [
    ("num_samples", 2.5), ("num_samples", True), ("num_samples", 3.0),
    ("seed", 1.5), ("seed", True), ("max_rejection_factor", 10.0), ("max_rejection_factor", False),
])
def test_run_config_takes_only_exact_ints(field, value):
    fields = {"num_samples": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {type(value).__name__}$"):
        RunConfig(**fields)


def test_selection_soundness(registry):
    text = model_yaml(
        '    X: "randint(0, 10)"\n'
        '    S:\n      function: "X >= 5"\n      kind: selection\n'
    )
    model = compile_text(text, registry)
    ds = simulate(model, RunConfig(num_samples=50, seed=3), registry)

    predicate = compile_node(model.by_name["S"].expr, registry)[0]
    for row in ds.rows:
        assert predicate(dict(row.values), None) is True


def test_byte_determinism(registry):
    model = compile_text((MODELS / "images.yaml").read_text(), registry)
    a = simulate(model, RunConfig(num_samples=20, seed=11), registry)
    b = simulate(model, RunConfig(num_samples=20, seed=11), registry)
    for ra, rb in zip(a.rows, b.rows):
        assert set(ra.values) == set(rb.values)
        for k in ra.values:
            assert values_equal(ra.values[k], rb.values[k])


def test_sample_independence_prefix_property(registry):
    model = compile_text((MODELS / "bioseq.yaml").read_text(), registry)
    small = simulate(model, RunConfig(num_samples=10, seed=5), registry)
    large = simulate(model, RunConfig(num_samples=40, seed=5), registry)
    for i in range(10):
        for k in small.rows[i].values:
            assert values_equal(small.rows[i].values[k], large.rows[i].values[k])


def test_ancestral_consistency_leaf_deletion(registry):
    full_text = (MODELS / "images.yaml").read_text()
    # Y is a mid-declaration leaf: deleting it must not move anyone's draws
    pruned_text = "".join(line for line in full_text.splitlines(keepends=True) if not line.startswith("    Y:"))
    full = compile_text(full_text, registry)
    pruned = compile_text(pruned_text, registry)
    assert "Y" not in pruned.by_name

    a = simulate(full, RunConfig(num_samples=15, seed=2), registry)
    b = simulate(pruned, RunConfig(num_samples=15, seed=2), registry)
    for ra, rb in zip(a.rows, b.rows):
        for k in rb.values:
            assert values_equal(ra.values[k], rb.values[k])


def replay_on_threads(model, seed, attempts, registry):
    """Kept rows of ``sample_one`` over every attempted index, run on 4 threads."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda i: sample_one(model, i, seed, registry), range(attempts)))
    return [row for row, selected in results if selected]


def test_threads_do_not_change_output(registry):
    model = compile_text((MODELS / "images.yaml").read_text(), registry)
    ds = simulate(model, RunConfig(num_samples=30, seed=9), registry)
    kept = replay_on_threads(model, 9, ds.attempts, registry)
    assert len(kept) == len(ds.rows) == 30
    for row, got in zip(kept, ds.rows):
        for k in got.values:
            assert values_equal(row[k], got.values[k])


def test_threads_with_selection_match_sequential(registry):
    text = model_yaml(
        '    X: "binomial(1, 0.3)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n'
    )
    model = compile_text(text, registry)
    ds = simulate(model, RunConfig(num_samples=40, seed=4), registry)
    kept = replay_on_threads(model, 4, ds.attempts, registry)
    assert ds.attempts > 40
    assert len(kept) == len(ds.rows) == 40
    for row, got in zip(kept, ds.rows):
        assert values_equal(row["X"], got.values["X"])


@settings(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1), data=st.data())
def test_kept_rows_do_not_depend_on_index_order(registry, seed, data):
    # a plate, a selection, a missing and a stratify node, under an intervention
    model = compile_text((DATA / "strata.yaml").read_text(), registry)
    model = apply_interventions(model, {"Score": parse("normal(U, 2)")}, registry)
    ds = simulate(model, RunConfig(num_samples=12, seed=seed), registry)
    order = data.draw(st.permutations(range(ds.attempts)))
    replayed = {i: sample_one(model, i, seed, registry) for i in order}
    kept = [replayed[i][0] for i in range(ds.attempts) if replayed[i][1]]
    assert len(kept) == len(ds.rows) == 12
    for row, got in zip(kept, ds.rows):
        assert all(values_equal(row[c], got.values[c]) for c in ds.column_order)
        assert got.stratum == row[model.stratify]


def _wide_model_text():
    # 299 drawing nodes and a drawing selection node: blocks of 1024 // 300 = 3 indices
    nodes = "".join(f'    N{i}: "normal({i % 5}, 1) + uniform(0, 1)"\n' for i in range(299))
    return model_yaml(nodes + '    S:\n      function: "binomial(1, 0.7) == 1"\n      kind: selection\n')


@pytest.mark.parametrize("text, block, num_samples", [
    (_wide_model_text(), 3, 12),
    ((MODELS / "images.yaml").read_text(), 146, 146 + 5),
    (model_yaml('    X: "1 + 2"\n    Y: "X * 2"\n'), 1024, 2 * 1024 + 5),
], ids=["wide", "images", "no_draws"])
def test_kept_rows_equal_replays_across_blocks(registry, text, block, num_samples):
    model = compile_text(text, registry)
    rows = KeptRows(model, RunConfig(num_samples=num_samples, seed=21), registry)
    assert rows._lanes.count == block
    got = list(rows)
    assert len(got) == num_samples and rows.attempts > block + 1
    replayed = [sample_one(model, i, 21, registry) for i in range(rows.attempts)]
    kept = [row for row, selected in replayed if selected]
    assert len(kept) == num_samples
    for row, taken in zip(kept, got):
        assert all(values_equal(row[c], taken.values[c]) for c in rows.column_order)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython references")
@pytest.mark.parametrize("count", [1, 3])
def test_a_run_holds_no_block_while_the_next_is_mixed(registry, monkeypatch, count):
    # With one index a block, as for a model of more than 512 drawing nodes,
    # a row that kept its words until the next block was mixed would hold
    # two blocks at the peak.  So when a block is mixed, the block before it
    # is held by nothing but this test's list: not by the run, and not by
    # the iterator that hands out its rows.
    first_words = KeyLanes.first_words
    blocks, refcounts, probe = [], [], [object()]

    def recording(self, seed, start):
        if blocks:
            refcounts.append([sys.getrefcount(blocks[-1]), *map(sys.getrefcount, blocks[-1])])
        blocks.append(first_words(self, seed, start))
        return blocks[-1]

    monkeypatch.setattr(KeyLanes, "first_words", recording)
    monkeypatch.setattr(sampler, "KeyLanes", lambda keys: KeyLanes(keys, count))
    model = compile_text(model_yaml('    A: "uniform(0, 1)"\n    B: "normal(A, 1)"\n    C: "A + B"\n'), registry)
    assert len(list(KeptRows(model, RunConfig(num_samples=3 * count + 1, seed=4), registry))) == 3 * count + 1
    once = sys.getrefcount(probe[0])
    assert len(blocks) == 4 and refcounts == [[once] * 4] * 3


# --- the engine against one fresh stream per node --------------------------

def reference_sample(model, index, seed, registry):
    """``sample_one`` restated: each node evaluated by the reference evaluator
    from a fresh ``RandomStream(seed, index, node_stream_key(name))``, which a
    plate's replicates share, so its counter continues across them."""
    bindings, selected = {}, True
    for name in model.topo_order:
        decl = model.by_name[name]
        rng = RandomStream(seed, index, node_stream_key(name))
        try:
            if decl.kind == "standard" and decl.size is not None:
                value = [reference_eval.evaluate(decl.expr, bindings, rng, registry) for _ in range(decl.size)]
            else:
                value = reference_eval.evaluate(decl.expr, bindings, rng, registry)
        except EvalError as err:
            raise EvalError(err.span, err.message, node=name) from err
        if decl.kind == "selection":
            value = selected = sampler._as_flag(value, name, "selection value")
        elif decl.kind == "missing":
            value = MISSING if sampler._as_flag(value, name, "missing indicator") else bindings[decl.underlying]
        elif decl.kind == "stratify":
            value = sampler._as_label(value, name)
        bindings[name] = value
    bindings.pop(model.selection, None)
    return bindings, selected


def _outcome(run):
    try:
        return repr(run())
    except DagforgeError as err:
        return type(err).__name__, str(err)


def _kept_rows(rows):
    """The kept rows ``rows`` yields, as text, and the error that ends them, if any."""
    got = []
    try:
        for row in rows:
            got.append(repr((row.values, row.stratum)))
    except DagforgeError as err:
        got.append((type(err).__name__, str(err)))
    return got


def _reference_rows(model, config, registry):
    """``KeptRows`` restated over ``reference_sample``."""
    columns = sampler._observed_columns(model)
    kept, limit = 0, config.num_samples * config.max_rejection_factor
    for i in range(limit):
        row, selected = reference_sample(model, i, config.seed, registry)
        if selected:
            stratum = sampler.check_stratum_label(row[model.stratify]) if model.stratify else None
            yield SampleRow(values={c: row[c] for c in columns}, stratum=stratum)
            kept += 1
            if kept == config.num_samples:
                return
    raise SelectionStarvation(attempts=limit, kept=kept, limit=limit)


def assert_rows_equal_reference(model, seed, indices, num_samples, registry):
    for i in indices:
        assert _outcome(lambda: sample_one(model, i, seed, registry)) == \
            _outcome(lambda: reference_sample(model, i, seed, registry)), f"index {i}"
    config = RunConfig(num_samples=num_samples, seed=seed)
    assert _kept_rows(KeptRows(model, config, registry)) == _kept_rows(_reference_rows(model, config, registry))


@functools.cache
def corpus_models():
    return corpus.models()


def corpus_model(m, interventions, registry):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # python_file entries
        model = validate(parse_model(corpus_models()[m]), registry)
    return apply_interventions(model, {k: parse(v) for k, v in (i.split("=", 1) for i in interventions)}, registry)


def _three_words(rng, x):
    return x + sum(rng.next_word() % 7 for _ in range(3))


def registry_with_three_words():
    registry = build_registry()
    register_example_functions(registry)
    register_host_function(registry, "three", 1, True, _three_words)
    return registry


# a stochastic host function that draws past the first two words, before and
# after the fixed-draw built-ins, and plates whose replicates start at counters
# 0, 2, 4 (normal) and 0, 4 (randint then three words)
HOST_MODEL = model_yaml(
    '    U: "uniform(0, 1) + three(0)"\n'
    '    T: "three(U) + uniform(0, 1) + normal(0, 1)"\n'
    '    N:\n      function: "normal(T, 1)"\n      size: 3\n'
    '    R:\n      function: "randint(0, 10) + three(1)"\n      size: 2\n'
    '    V: "randint(0, 5) + normal(U, 2)"\n'
)


def test_corpus_rows_equal_reference_evaluation(registry):
    runs = {}
    for m, seed, interventions in corpus.runs():
        runs.setdefault(m, (seed, interventions))
    for m, (seed, interventions) in runs.items():
        model = corpus_model(m, interventions, registry)
        assert_rows_equal_reference(model, seed, range(3), 4, registry)


def test_host_function_rows_equal_reference_evaluation():
    registry = registry_with_three_words()
    assert_rows_equal_reference(compile_text(HOST_MODEL, registry), 7, range(5), 12, registry)


@settings(deadline=None)
@given(run=st.sampled_from(corpus.runs()), seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1))
def test_rows_equal_reference_evaluation_at_any_seed(run, seed, index):
    registry = registry_with_three_words()
    m, _, interventions = run
    for model in (corpus_model(m, interventions, registry), compile_text(HOST_MODEL, registry)):
        assert_rows_equal_reference(model, seed, (index, index ^ 1), 3, registry)


# --- interventions -----------------------------------------------------------

def test_apply_interventions_empty_is_identity(registry):
    model = compile_text((MODELS / "images.yaml").read_text(), registry)
    assert apply_interventions(model, {}, registry) == model


def test_apply_interventions_severs_parents(registry):
    model = compile_text((MODELS / "images.yaml").read_text(), registry)
    intervened = apply_interventions(model, {"H": Lit(value=1)}, registry)
    assert intervened.parents["H"] == []
    assert model.parents["H"] == ["U1"]  # original untouched
    ds = simulate(intervened, RunConfig(num_samples=10, seed=0), registry)
    assert all(r.values["H"] == 1 for r in ds.rows)


def test_apply_interventions_can_reference_other_nodes(registry):
    model = compile_text(model_yaml('    A: "uniform(0,1)"\n    B: "uniform(0,1)"\n'), registry)
    intervened = apply_interventions(model, {"B": parse("A + 1")}, registry)
    assert intervened.parents["B"] == ["A"]
    ds = simulate(intervened, RunConfig(num_samples=5, seed=0), registry)
    for r in ds.rows:
        assert r.values["B"] == r.values["A"] + 1


def test_intervention_cycle_rejected(registry):
    model = compile_text(model_yaml('    X: "uniform(0,1)"\n    Y: "sigmoid(X)"\n'), registry)
    with pytest.raises(ValidationError, match="cycle"):
        apply_interventions(model, {"X": Ref(name="Y")}, registry)


def test_intervention_target_rules(registry):
    text = model_yaml('    X: "binomial(1, 0.5)"\n    S:\n      function: "X == 1"\n      kind: selection\n')
    model = compile_text(text, registry)
    with pytest.raises(ValidationError, match="not a declared node"):
        apply_interventions(model, {"Ghost": Lit(value=1)}, registry)
    with pytest.raises(ValidationError, match="selection"):
        apply_interventions(model, {"S": Lit(value=1)}, registry)


def test_intervention_screens_nondescendants(registry):
    model = compile_text((MODELS / "images.yaml").read_text(), registry)
    base = simulate(model, RunConfig(num_samples=25, seed=6), registry)
    done = simulate(apply_interventions(model, {"H": Lit(value=1)}, registry), RunConfig(num_samples=25, seed=6), registry)
    for ra, rb in zip(base.rows, done.rows):
        for k in ("U1", "U2", "C", "V", "Y"):  # non-descendants of H
            assert values_equal(ra.values[k], rb.values[k])
        assert rb.values["H"] == 1


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(num_samples=0)
    with pytest.raises(ValueError):
        RunConfig(num_samples=1, seed=-1)
    with pytest.raises(ValueError):
        RunConfig(num_samples=1, max_rejection_factor=0)
