import csv
import subprocess
import sys

import pytest

from dagforge.expr import MAX_DEPTH

from conftest import MODELS, model_yaml


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh, strict=True))


def test_validate_ok(run_cli):
    code, out, err = run_cli("validate", MODELS / "images.yaml")
    assert code == 0
    assert "8 nodes" in out
    assert "11 edges" in out
    assert "topological order" in out


def test_validate_cycle_exit_2(run_cli, tmp_path):
    spec = tmp_path / "cyclic.yaml"
    spec.write_text(model_yaml('    X: "sigmoid(Y)"\n    Y: "sigmoid(X)"\n'))
    code, out, err = run_cli("validate", spec)
    assert code == 2
    assert "cycle" in err
    assert "X" in err and "Y" in err


def test_validate_missing_file_exit_1(run_cli, tmp_path):
    code, _, err = run_cli("validate", tmp_path / "nope.yaml")
    assert code == 1
    assert "cannot read" in err


def test_validate_yaml_syntax_exit_1(run_cli, tmp_path):
    spec = tmp_path / "broken.yaml"
    spec.write_text("graph: [未closed\n")
    code, _, err = run_cli("validate", spec)
    assert code == 1


def test_validate_schema_error_exit_2(run_cli, tmp_path):
    spec = tmp_path / "bad.yaml"
    spec.write_text(model_yaml('    X: "1 +"\n'))
    code, _, err = run_cli("validate", spec)
    assert code == 2
    assert "bad expression" in err


def test_run_writes_outputs_and_reports(run_cli, tmp_path):
    code, out, err = run_cli("run", MODELS / "bioseq.yaml", "--out", tmp_path, "--seed", "1")
    assert code == 0
    assert out == ""  # data only in files; diagnostics on stderr
    assert "kept 50 rows" in err
    rows = read_csv(tmp_path / "BioseqExample_yaml.csv")
    assert rows[0] == ["Disease", "Age", "Protocol", "kmerVec"]
    assert len(rows) == 51
    assert (tmp_path / "BioseqExample_yaml.manifest").exists()


def test_run_num_samples_override(run_cli, tmp_path):
    code, _, _ = run_cli("run", MODELS / "bioseq.yaml", "--out", tmp_path, "--num-samples", "5")
    assert code == 0
    assert len(read_csv(tmp_path / "BioseqExample_yaml.csv")) == 6


def test_run_uses_document_output_dir_when_no_flag(run_cli, tmp_path):
    target = tmp_path / "from-doc"
    spec = tmp_path / "docdir.yaml"
    spec.write_text(
        'graph:\n  nodes:\n    X: "uniform(0,1)"\n'
        "instructions:\n  simulation:\n    csv_name: out\n    num_samples: 2\n"
        f"    output_dir: {target}\n"
    )
    code, _, _ = run_cli("run", spec)
    assert code == 0
    assert (target / "out.csv").exists()
    # an explicit --out still wins
    override = tmp_path / "override"
    assert run_cli("run", spec, "--out", override)[0] == 0
    assert (override / "out.csv").exists()


def test_run_does_not_mutate_spec_file(run_cli, tmp_path):
    original = (MODELS / "images.yaml").read_bytes()
    code, _, _ = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--num-samples", "3", "--seed", "8")
    assert code == 0
    assert (MODELS / "images.yaml").read_bytes() == original


def test_run_intervention_forces_column(run_cli, tmp_path):
    code, _, _ = run_cli(
        "run", MODELS / "images.yaml", "--out", tmp_path, "--seed", "0", "--intervene", "H=1"
    )
    assert code == 0
    rows = read_csv(tmp_path / "Images_metadata.csv")
    h = rows[0].index("H")
    assert all(row[h] == "1" for row in rows[1:])


def test_run_bad_intervention_exit_2(run_cli, tmp_path):
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--intervene", "H")
    assert code == 2
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--intervene", "H=1 +")
    assert code == 2
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--intervene", "Ghost=1")
    assert code == 2


def test_run_repeated_intervention_target_exit_2(run_cli, tmp_path):
    out = tmp_path / "out"
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", out, "--intervene", "H=0", "--intervene", "H=1")
    assert code == 2
    assert "--intervene H: given more than once" in err
    assert not out.exists()


def test_run_deeply_nested_intervention_exit_2(run_cli, tmp_path):
    nested = "(" * 400 + "1" + ")" * 400
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--intervene", f"H={nested}")
    assert code == 2
    assert "--intervene H: expression is nested too deeply" in err
    assert not (tmp_path / "Images_metadata.csv").exists()


def test_deep_flat_chain_exit_2_in_validate_run_and_intervene(run_cli, tmp_path):
    chain = "+".join(["1"] * 3000)
    spec = tmp_path / "deep.yaml"
    spec.write_text(model_yaml(f'    X: "uniform(0, 1)"\n    H: "{chain}"\n'))
    for argv in (("validate", spec), ("run", spec, "--out", tmp_path / "yaml")):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert "graph.nodes.H: expression is nested too deeply" in err
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", tmp_path / "flag", "--intervene", f"H={chain}")
    assert code == 2
    assert "--intervene H: expression is nested too deeply" in err
    assert list(tmp_path.iterdir()) == [spec]


def test_chain_at_depth_limit_runs(run_cli, tmp_path):
    chain = "+".join(["X"] * MAX_DEPTH)
    spec = tmp_path / "limit.yaml"
    spec.write_text(model_yaml(f'    X: "randint(0, 5)"\n    H: "{chain}"\n'))
    code, _, err = run_cli("run", spec, "--out", tmp_path)
    assert code == 0, err
    rows = read_csv(tmp_path / "out.csv")[1:]
    assert all(int(h) == MAX_DEPTH * int(x) for x, h in rows)


@pytest.mark.parametrize("source, char", [("1 + \u00b2", "\u00b2"), ("\u0663 + 1", "\u0663")])
def test_non_ascii_digit_is_a_lex_error_in_yaml_and_intervention(run_cli, tmp_path, source, char):
    spec = tmp_path / "digits.yaml"
    spec.write_text(model_yaml(f'    H: "1"\n    X: "{source}"\n'), encoding="utf-8")
    code, _, err = run_cli("validate", spec)
    assert code == 2
    assert f"graph.nodes.X: bad expression {source!r}: unexpected character {char!r}" in err
    out = tmp_path / "out"
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", out, "--intervene", f"H={source}")
    assert code == 2
    assert f"--intervene H: unexpected character {char!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("call, arg", [
    ("poisson", "exp(709) * 10"),
    ("round", "exp(709) * 10"),
    ("floor", "-exp(709) * 10"),
    ("poisson", "exp(709) * 10 - exp(709) * 10"),
    ("round", "exp(709) * 10 - exp(709) * 10"),
    ("floor", "exp(709) * 10 - exp(709) * 10"),
])
def test_non_finite_argument_exit_2_names_node_and_span(run_cli, tmp_path, call, arg):
    source = f"{call}({arg})"
    spec = tmp_path / "nonfinite.yaml"
    spec.write_text(model_yaml(f'    X: "{source}"\n'))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("dagforge: node X: ")
    assert "finite" in err and err.rstrip().endswith(f" at 0..{len(source)}")
    assert not out.exists()


# an int past the float range: int literals are bounded, their products are not
HUGE = "*".join(["4000000000000000000"] * 18)


@pytest.mark.parametrize("source", [
    f"uniform(0, {HUGE})", f"{HUGE} * 0.5", f"{HUGE} / 3", f"{HUGE} + 0.5", f"{HUGE} % 2.5",
], ids=lambda source: source.replace(HUGE, "P"))
def test_int_past_the_float_range_exit_2_names_node_and_span(run_cli, tmp_path, source):
    spec = tmp_path / "huge.yaml"
    spec.write_text(model_yaml(f'    X: "{source}"\n'))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("dagforge: node X: ")
    assert err.rstrip().endswith(f" at 0..{len(source)}")
    assert not out.exists()


@pytest.mark.parametrize("source, message", [
    (f"complement_binomial({HUGE})", "complement_binomial probability is too large for a 64-bit real"),
    (f'create_airr(1, {HUGE}, "A")', "create_airr age is too large for a 64-bit real"),
], ids=["complement_binomial", "create_airr"])
def test_example_function_of_an_int_past_the_float_range_exit_2(run_cli, tmp_path, source, message):
    spec = tmp_path / "huge.yaml"
    spec.write_text(model_yaml(f"    X: '{source}'\n"))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert err.rstrip() == f"dagforge: node X: {message} at 0..{len(source)}"
    assert not out.exists()


# X has ~2850 digits, its square ~5700: past the interpreter's 4300-digit limit
LONG = "*".join(["4000000000000000000"] * 150)


@pytest.mark.parametrize("source, message", [
    ("get([1], X * X)", "get index an int of 18539 bits out of range for list of length 1"),
    ('create_airr(1, 1, X * X)', "create_airr protocol must be 'A' or 'B', got an int of 18539 bits"),
    ("tensor_zeros([0 - X * X])", "tensor_zeros dimensions must be >= 1, got a list holding an int too long to print"),
], ids=["get", "create_airr", "tensor_zeros"])
def test_int_too_long_for_text_in_an_error_message_exit_2(run_cli, tmp_path, source, message):
    spec = tmp_path / "long.yaml"
    spec.write_text(model_yaml(f'    X: "{LONG}"\n    Y: \'{source}\'\n'))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert err.rstrip() == f"dagforge: node Y: {message} at 0..{len(source)}"
    assert not out.exists()


@pytest.mark.parametrize("node, kind, expected", [
    ("Y", "standard", "dagforge: column Y: cannot write the value"),
    ("G", "stratify", "dagforge: node G: stratum label cannot be written"),
])
def test_int_too_long_for_text_exit_2_names_its_node(run_cli, tmp_path, node, kind, expected):
    spec = tmp_path / "long.yaml"
    spec.write_text(model_yaml(f'    X: "{LONG}"\n    {node}:\n      function: "X * X"\n      kind: {kind}\n'))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(expected)
    assert not out.exists()


def assert_threads_flag_rejected(run_cli, tmp_path, threads):
    out = tmp_path / "out"
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", out, "--threads", threads)
    assert code == 2
    assert f"unrecognized arguments: --threads {threads}" in err
    assert not out.exists()


def test_run_threads_flag_is_rejected(run_cli, tmp_path):
    assert_threads_flag_rejected(run_cli, tmp_path, "2")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_threads_below_one_exit_2(run_cli, tmp_path, threads):
    # the values the removed flag used to range-check are usage errors too
    assert_threads_flag_rejected(run_cli, tmp_path, threads)

def test_run_starvation_exit_3(run_cli, tmp_path):
    spec = tmp_path / "starve.yaml"
    spec.write_text(model_yaml(
        '    X: "1"\n    S:\n      function: "1 == 2"\n      kind: selection\n', num_samples=5
    ))
    code, _, err = run_cli("run", spec, "--out", tmp_path, "--max-rejection-factor", "10")
    assert code == 3
    assert "selection" in err


def test_run_unusable_stratum_label_exit_2_writes_nothing(run_cli, tmp_path):
    spec = tmp_path / "floats.yaml"
    spec.write_text(model_yaml('    X:\n      function: "uniform(0, 1)"\n      kind: stratify\n'))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert "not usable in a file name" in err
    assert not out.exists()


def test_seed_precedence(run_cli, tmp_path, monkeypatch):
    spec = tmp_path / "seeded.yaml"
    spec.write_text(
        'graph:\n  nodes:\n    X: "uniform(0,1)"\n'
        "instructions:\n  simulation:\n    csv_name: out\n    num_samples: 1\n    seed: 3\n"
    )

    def first_value(directory):
        return read_csv(directory / "out.csv")[1][0]

    flag_dir, spec_dir, env_dir, default_dir = (tmp_path / n for n in "fsed")
    monkeypatch.setenv("DAGFORGE_SEED", "99")
    assert run_cli("run", spec, "--out", flag_dir, "--seed", "5")[0] == 0
    assert run_cli("run", spec, "--out", spec_dir)[0] == 0

    unseeded = tmp_path / "unseeded.yaml"
    unseeded.write_text(model_yaml('    X: "uniform(0,1)"\n', num_samples=1))
    assert run_cli("run", unseeded, "--out", env_dir)[0] == 0
    monkeypatch.delenv("DAGFORGE_SEED")
    assert run_cli("run", unseeded, "--out", default_dir)[0] == 0

    manifest = (flag_dir / "out.manifest").read_text()
    assert "seed = 5" in manifest
    assert "seed = 3" in (spec_dir / "out.manifest").read_text()
    assert "seed = 99" in (env_dir / "out.manifest").read_text()
    assert "seed = 0" in (default_dir / "out.manifest").read_text()
    assert first_value(spec_dir) != first_value(env_dir)


def test_bad_env_seed_errors_when_consulted(run_cli, tmp_path, monkeypatch):
    unseeded = tmp_path / "m.yaml"
    unseeded.write_text(model_yaml('    X: "uniform(0,1)"\n', num_samples=1))
    monkeypatch.setenv("DAGFORGE_SEED", "not-a-number")
    code, _, err = run_cli("run", unseeded, "--out", tmp_path)
    assert code == 1
    assert "DAGFORGE_SEED" in err
    # a flag makes the env var irrelevant
    assert run_cli("run", unseeded, "--out", tmp_path, "--seed", "1")[0] == 0


def test_graph_dot_output(run_cli):
    code, out, err = run_cli("graph", MODELS / "images.yaml")
    assert code == 0
    assert "U1 -> H;" in out
    assert out.startswith("digraph model {")

    code, out, _ = run_cli("graph", MODELS / "bioseq.yaml", "--format", "dot")
    assert code == 0
    assert "AIRR [style=dashed];" in out


def test_graph_one_node(run_cli, tmp_path):
    spec = tmp_path / "one.yaml"
    spec.write_text(model_yaml('    Solo: "1"\n'))
    code, out, _ = run_cli("graph", spec)
    assert code == 0
    assert "->" not in out


def test_graph_invalid_spec_exit_2(run_cli, tmp_path):
    spec = tmp_path / "bad.yaml"
    spec.write_text(model_yaml('    X: "nosuchfn(1)"\n'))
    code, _, err = run_cli("graph", spec)
    assert code == 2
    assert "nosuchfn" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "dagforge", "validate", str(MODELS / "images.yaml")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "8 nodes" in result.stdout


SEEDLESS = model_yaml('    X: "1"\n')

# Too deep to build within the interpreter's recursion limit
_DEEP_DOCUMENTS = {
    "flow mappings 600 deep": SEEDLESS + "    seed: " + "{a: " * 600 + "1" + "}" * 600 + "\n",
    "flow lists 1000 deep with a tab": "# a\ttab\n" + SEEDLESS + "    seed: " + "[" * 1000 + "1" + "]" * 1000 + "\n",
    "observed 1500 deep": model_yaml('    X:\n      function: "1"\n      observed: ' + "[" * 1500 + "1" + "]" * 1500 + "\n"),
}
# Deep enough to overflow the C stack in libyaml's composer, so run in a child process
_CRASHING_DOCUMENTS = {
    "flow lists 100k deep": SEEDLESS + "    seed: " + "[" * 100_000 + "1" + "]" * 100_000 + "\n",
    "compact lists 30k deep": SEEDLESS + "    seed:\n      " + "- " * 30_000 + "1\n",
}


@pytest.mark.parametrize("name", list(_DEEP_DOCUMENTS))
def test_deeply_nested_document_exit_2(run_cli, tmp_path, name):
    spec = tmp_path / "deep.yaml"
    spec.write_text(_DEEP_DOCUMENTS[name])
    code, _, err = run_cli("validate", spec)
    assert (code, err) == (2, "dagforge: document: nested more than 100 levels deep\n")


@pytest.mark.parametrize("name", list(_CRASHING_DOCUMENTS))
def test_document_too_deep_for_the_yaml_composer_exit_2(tmp_path, name):
    spec = tmp_path / "deep.yaml"
    spec.write_text(_CRASHING_DOCUMENTS[name])
    result = subprocess.run([sys.executable, "-m", "dagforge", "validate", str(spec)],
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (2, "dagforge: document: nested more than 100 levels deep\n")


LONG_LIST = "[" + ", ".join(["12345"] * 20_000) + "]"


@pytest.mark.parametrize("field, message", [
    ("csv_name", "expected a non-empty string"),
    ("num_samples", "expected a positive integer"),
    ("seed", "expected an unsigned 64-bit integer"),
    ("output_dir", "expected a path string"),
])
def test_schema_error_cuts_a_long_value_exit_2(run_cli, tmp_path, field, message):
    fields = {"csv_name": "out", "num_samples": "10", field: LONG_LIST}
    spec = tmp_path / "long.yaml"
    spec.write_text('graph:\n  nodes:\n    X: "1"\ninstructions:\n  simulation:\n'
                    + "".join(f"    {key}: {value}\n" for key, value in fields.items()))
    code, _, err = run_cli("validate", spec)
    assert code == 2
    assert err == f"dagforge: instructions.simulation.{field}: {message}, got {repr([12345] * 20_000)[:77]}...\n"
