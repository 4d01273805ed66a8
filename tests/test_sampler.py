from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dagforge.sampler as sampler
from dagforge import (
    MISSING,
    RunConfig,
    apply_interventions,
    parse,
    parse_model,
    sample_one,
    simulate,
    validate,
    values_equal,
)
from dagforge.errors import CoercionError, SelectionStarvation, ValidationError
from dagforge.evaluator import compile_node
from dagforge.expr import Lit, Ref
from dagforge.sampler import KeptRows

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
    # bioseq's kmerVec calls only the pure encode_kmers: 4 streams a row, not 5
    made = []
    stream = sampler._stream

    def counting_stream(*args):
        made.append(args)
        return stream(*args)

    model = compile_text((MODELS / "bioseq.yaml").read_text(), registry)
    monkeypatch.setattr(sampler, "_stream", counting_stream)
    ds = simulate(model, RunConfig(num_samples=20, seed=3), registry)
    assert ds.attempts == 20
    assert len(made) == (len(model.topo_order) - 1) * 20


def test_only_pure_calls_mean_no_stream(registry):
    text = model_yaml(
        '    A: "concat(\\"a\\", \\"b\\") == \\"ab\\""\n'
        '    B: "1 + not_registered(2)"\n'
        '    C: "[1, binomial(1, 0.5)]"\n'
        '    D: "if A then 1 else 2"\n'
    )
    model = validate(parse_model(text, registry), None)
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
