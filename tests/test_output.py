import csv as csv_module
import math

import pytest

from dagforge import (
    MISSING,
    RunConfig,
    SimInstructions,
    Tensor,
    csv_cell,
    model_hash,
    parse_model,
    register_host_function,
    simulate,
    validate,
    write_csv,
    write_manifest,
)
from dagforge.errors import SpecError, StratumNameError
from dagforge.output import _field
from dagforge.sampler import Dataset, SampleRow

from conftest import model_yaml


def compile_text(text, registry):
    spec = parse_model(text, registry)
    return spec, validate(spec, registry)


def run_to_files(text, registry, tmp_path, n=10, seed=0):
    spec, model = compile_text(text, registry)
    ds = simulate(model, RunConfig(num_samples=n, seed=seed), registry)
    paths = write_csv(ds, model, spec.instructions, tmp_path)
    return spec, model, ds, paths


def test_single_csv_layout(registry, tmp_path):
    text = model_yaml(
        '    A: "uniform(0,1)"\n'
        '    Hidden:\n      function: "binomial(1, A)"\n      observed: false\n'
        '    B: "binomial(1, A)"\n'
    )
    spec, model, ds, paths = run_to_files(text, registry, tmp_path, n=7)
    assert [p.name for p in paths] == ["out.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "A,B"  # Hidden omitted, topological order
    assert len(lines) == 8


def test_missing_value_is_empty_cell(registry, tmp_path):
    text = model_yaml(
        '    U: "uniform(0,1)"\n'
        '    M:\n      function: "1 == 1"\n      kind: missing\n      underlying: U\n'
    )
    _, _, _, paths = run_to_files(text, registry, tmp_path, n=3)
    for line in paths[0].read_text().splitlines()[1:]:
        assert line.endswith(",")


def test_underlying_visibility_follows_its_observed_flag(registry, tmp_path):
    text = model_yaml(
        '    U:\n      function: "uniform(0,1)"\n      observed: false\n'
        '    M:\n      function: "binomial(1, 0.5)"\n      kind: missing\n      underlying: U\n'
    )
    _, _, _, paths = run_to_files(text, registry, tmp_path, n=5)
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "M"  # only the masked view is published


def test_rfc4180_quoting_and_strict_reparse(tmp_path, registry):
    rows = [
        SampleRow(values={"X": 'say "hi"', "Y": 1}),
        SampleRow(values={"X": "a,b", "Y": 2}),
        SampleRow(values={"X": "line1\nline2", "Y": 3}),
        SampleRow(values={"X": MISSING, "Y": 4}),
        SampleRow(values={"X": [1, "x,y"], "Y": 5}),
    ]
    ds = Dataset(rows=rows, column_order=["X", "Y"], attempts=5)
    spec, model = compile_text(model_yaml('    X: "1"\n    Y: "2"\n'), registry)
    paths = write_csv(ds, model, spec.instructions, tmp_path)
    raw = paths[0].read_text(encoding="utf-8")
    assert '"say ""hi""",1' in raw

    with open(paths[0], newline="", encoding="utf-8") as fh:
        parsed = list(csv_module.reader(fh, strict=True))
    assert parsed[0] == ["X", "Y"]
    assert all(len(row) == 2 for row in parsed)
    assert parsed[1][0] == 'say "hi"'
    assert parsed[3][0] == "line1\nline2"
    assert parsed[4][0] == ""
    assert parsed[5][0] == '[1,"x,y"]'


CELL_VALUES = [
    -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1, 2.5,
    0, -7, -(2**70), 2**63,
    True, False, "a,b", 'say "hi"', "", "plain", [1, "x,y", [2.0]], [], MISSING,
    Tensor((1, 2), (0.5, -0.0)),
]


def test_each_cell_is_the_quoted_csv_cell_text(tmp_path, registry):
    ds = Dataset(rows=[SampleRow(values={"X": v, "Y": v}) for v in CELL_VALUES], column_order=["X", "Y"],
                 attempts=len(CELL_VALUES))
    spec, model = compile_text(model_yaml('    X: "1"\n    Y: "2"\n'), registry)
    paths = write_csv(ds, model, spec.instructions, tmp_path)
    cells = [_field(csv_cell(v)) for v in CELL_VALUES]
    assert paths[0].read_text(encoding="utf-8") == "X,Y\n" + "".join(f"{c},{c}\n" for c in cells)


def test_lf_line_endings_and_no_bom(registry, tmp_path):
    _, _, _, paths = run_to_files(model_yaml('    X: "uniform(0,1)"\n'), registry, tmp_path)
    blob = paths[0].read_bytes()
    assert b"\r" not in blob
    assert not blob.startswith(b"\xef\xbb\xbf")
    assert blob.endswith(b"\n")


STRATIFIED = (
    '    X: "randint(0, 3)"\n'
    '    G:\n      function: "if X == 0 then \\"a\\" else (if X == 1 then \\"b\\" else \\"c\\")"\n'
    '      kind: stratify\n'
)


def test_stratified_partition(registry, tmp_path):
    spec, model, ds, paths = run_to_files(model_yaml(STRATIFIED), registry, tmp_path, n=50)
    names = sorted(p.name for p in paths)
    assert names == ["out_a.csv", "out_b.csv", "out_c.csv"]
    total_rows = 0
    all_lines = []
    for p in paths:
        lines = p.read_text().splitlines()
        assert lines[0] == "X,G"  # label column retained
        total_rows += len(lines) - 1
        all_lines += lines[1:]
        label = p.stem.rsplit("_", 1)[1]
        assert all(line.endswith(f",{label}") for line in lines[1:])
    assert total_rows == 50
    expected = [f"{r.values['X']},{r.values['G']}" for r in ds.rows]
    assert sorted(all_lines) == sorted(expected)


def test_stratum_label_sanitization(registry, tmp_path):
    for bad in ("a/b", "a b", "", "x."):
        text = model_yaml(f'    G:\n      function: \'"{bad}"\'\n      kind: stratify\n')
        spec, model = compile_text(text, registry)
        with pytest.raises(StratumNameError, match="not usable in a file name"):
            simulate(model, RunConfig(num_samples=2, seed=0), registry)
        # a hand-built dataset gets the same check before anything is written
        ds = Dataset(rows=[SampleRow(values={"G": bad}, stratum=bad)], column_order=["G"], attempts=1)
        with pytest.raises(StratumNameError):
            write_csv(ds, model, spec.instructions, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unusable_stratum_label_stops_simulate_at_first_kept_row(registry):
    calls = []

    def label():
        calls.append(1)
        return 0.5

    register_host_function(registry, "label", 0, False, label)
    text = model_yaml('    X: "uniform(0, 1)"\n    G:\n      function: "label()"\n      kind: stratify\n')
    _, model = compile_text(text, registry)
    with pytest.raises(StratumNameError, match="'0.5'"):
        simulate(model, RunConfig(num_samples=1000, seed=0), registry)
    assert len(calls) == 1


def test_rerun_into_same_directory_leaves_only_manifest_files(registry, tmp_path):
    # none is a file this model's manifest lists: another model's output,
    # user files whose names look like strata of this model, and the output
    # of a model named "out_v2"
    out = tmp_path / "out_dir"
    out.mkdir()
    foreign = {"other.csv", "out_raw.csv", "out_2023.csv", "out_a.b.csv", "out_v2.csv", "out_v2.manifest"}
    for name in foreign:
        (out / name).write_text("kept\n")
    (out / "out_v2.manifest").write_text("rows = 1\nfiles = out_v2.csv\n")

    def run(strata, stratified=True):
        block = f'    X: "randint(0, {strata})"\n'
        if stratified:
            block += '    G:\n      function: "X"\n      kind: stratify\n'
        spec, model = compile_text(model_yaml(block), registry)
        config = RunConfig(num_samples=40, seed=3)
        ds = simulate(model, config, registry)
        paths = write_csv(ds, model, spec.instructions, out)
        manifest = write_manifest(ds, config, paths, model, spec.instructions, out)
        listed = manifest.read_text().split("files = ")[1].splitlines()[0].split(",")
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == set(listed) | {manifest.name} | foreign
        return sorted(listed)

    assert run(3) == ["out_0.csv", "out_1.csv", "out_2.csv"]
    assert run(1) == ["out_0.csv"]
    assert run(2, stratified=False) == ["out.csv"]
    assert run(2) == ["out_0.csv", "out_1.csv"]

    # a listed name with a directory part is never followed out of out_dir
    (tmp_path / "escape.csv").write_text("kept\n")
    (out / "out.manifest").write_text("files = ../escape.csv,out_0.csv\n")
    run(2)
    assert (tmp_path / "escape.csv").read_text() == "kept\n"


def test_manifest_contents_and_stability(registry, tmp_path):
    text = model_yaml('    X: "uniform(0,1)"\n')
    spec, model = compile_text(text, registry)
    config = RunConfig(num_samples=4, seed=7)
    ds = simulate(model, config, registry)

    p1 = write_manifest(ds, config, [tmp_path / "out.csv"], model, spec.instructions, tmp_path / "a")
    p2 = write_manifest(ds, config, [tmp_path / "out.csv"], model, spec.instructions, tmp_path / "b")
    m1, m2 = p1.read_text(), p2.read_text()
    assert "seed = 7" in m1
    assert "num_samples = 4" in m1
    assert "attempts = 4" in m1
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("timestamp")]
    assert strip(m1) == strip(m2)


def test_model_hash_tracks_semantics_not_formatting(registry):
    spec_a, model_a = compile_text(model_yaml('    X: "uniform(0,1)"\n'), registry)
    spec_b, model_b = compile_text(model_yaml('    X: "uniform( 0 , 1 )"\n'), registry)
    spec_c, model_c = compile_text(model_yaml('    X: "uniform(0,2)"\n'), registry)
    spec_d, model_d = compile_text(model_yaml('    X: "uniform(0,1)"\n', num_samples=11), registry)
    assert model_hash(model_a, spec_a.instructions) == model_hash(model_b, spec_b.instructions)
    assert model_hash(model_a, spec_a.instructions) != model_hash(model_c, spec_c.instructions)
    # the instructions are part of what the hash covers
    assert model_d == model_a
    assert model_hash(model_d, spec_d.instructions) != model_hash(model_a, spec_a.instructions)


def test_a_csv_name_holding_a_comma_is_refused_on_the_library_path(registry, tmp_path):
    # the manifest lists its files on one line, separated by commas, so a
    # second run of "keep,notes" used to remove the user's keep and notes.csv
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep").write_text("mine\n")
    (out / "notes.csv").write_text("mine\n")
    _, model = compile_text(model_yaml('    X: "1"\n'), registry)
    config = RunConfig(num_samples=2)
    for _ in range(2):
        with pytest.raises(SpecError, match="^instructions.simulation.csv_name: 'keep,notes' holds ','"):
            instructions = SimInstructions(csv_name="keep,notes", num_samples=2)
            ds = simulate(model, config, registry)
            paths = write_csv(ds, model, instructions, out)
            write_manifest(ds, config, paths, model, instructions, out)
    assert sorted(p.name for p in out.iterdir()) == ["keep", "notes.csv"]


@pytest.mark.parametrize("field, value, yaml_value", [
    ("csv_name", "a/b", '"a/b"'),
    ("csv_name", "", '""'),
    ("csv_name", 7, "7"),
    ("num_samples", 0, "0"),
    ("num_samples", True, "true"),
    ("seed", -1, "-1"),
    ("seed", 1 << 64, str(1 << 64)),
    ("output_dir", 3, "3"),
])
def test_instructions_have_one_rule_and_one_message_on_both_paths(field, value, yaml_value):
    fields = {"csv_name": "out", "num_samples": 2}
    with pytest.raises(SpecError) as built:
        SimInstructions(**{**fields, field: value})
    lines = "".join(f"    {k}: {v}\n" for k, v in {**fields, field: yaml_value}.items())
    with pytest.raises(SpecError) as parsed:
        parse_model(f'graph:\n  nodes:\n    X: "1"\ninstructions:\n  simulation:\n{lines}')
    assert str(built.value) == str(parsed.value)
    assert str(built.value).startswith(f"instructions.simulation.{field}: ")
