import csv
import gc
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from dagforge import apply_interventions, parse_model, register_host_function, sample_one, validate
from dagforge import cli, output
from dagforge.errors import DagforgeError
from dagforge.expr import MAX_DEPTH, parse
from dagforge.sampler import check_stratum_label

from conftest import MINIMAL_INSTRUCTIONS, MODELS, model_yaml


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


def test_unreadable_long_path_gets_a_short_line_exit_1(run_cli, tmp_path):
    code, _, err = run_cli("validate", tmp_path / ("p" * 5000))
    assert code == 1
    assert err.startswith("dagforge: cannot read ") and err.count("\n") == 1 and len(err) < 300


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


@pytest.mark.parametrize("key, value, message", [
    ("x" * 100_000 + "-y", "normal(0, 1)", "graph.nodes: node name 'xxx"),
    ("x" * 100_000, "\n      function: normal(0, 1)\n      kind: wild", "graph.nodes.xxx"),
], ids=["bad_name", "long_name"])
def test_long_node_key_gets_a_short_one_line_schema_error(run_cli, tmp_path, key, value, message):
    # an explicit key is not held to PyYAML's 1024-character limit for implicit keys
    spec = tmp_path / "long.yaml"
    spec.write_text(f"graph:\n  nodes:\n    ? {key}\n    : {value}\n" + MINIMAL_INSTRUCTIONS.format(num_samples=1))
    code, _, err = run_cli("validate", spec)
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 300
    assert message in err


LONG_NAME = "x" * 100_000


@pytest.mark.parametrize("command, nodes, flags, code, message", [
    ("validate", f"    ? {LONG_NAME}\n    : normal(0, nope)\n", [], 2, "unresolved reference 'nope'"),
    ("run", f"    ? {LONG_NAME}\n    : normal(0, nope)\n", [], 2, "unresolved reference 'nope'"),
    ("run", f"    ? {LONG_NAME}\n    : normal(0, -1)\n", [], 2, "...: normal requires sigma >= 0"),
    ("run", f"""    X:\n      function: '"{'a/' * 50_000}"'\n      kind: stratify\n""", [], 2,
     "not usable in a file name"),
    ("run", f"""    X:\n      function: '"{'a' * 100_000}"'\n      kind: stratify\n""", [], 1,
     "write failed: [Errno 36] File name too long: '"),
    ("run", None, ["--intervene", "Q" * 100_000 + "=1"], 2, "is not a declared node"),
], ids=["validate_unresolved", "run_unresolved", "eval_error", "unsafe_label", "long_label", "intervene_target"])
def test_long_names_give_short_lines_with_the_same_exit_code(run_cli, tmp_path, command, nodes, flags, code, message):
    spec = MODELS / "images.yaml"
    if nodes is not None:
        spec = tmp_path / "long.yaml"
        spec.write_text(model_yaml(nodes, num_samples=1))
    args = ["--out", tmp_path / "out", *flags] if command == "run" else []
    got, _, err = run_cli(command, spec, *args)
    assert got == code
    assert message in err
    assert all(len(line.encode()) < 300 for line in err.splitlines())


def test_run_into_a_regular_file_is_a_write_failure_exit_1(run_cli, tmp_path):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    code, _, err = run_cli("run", MODELS / "images.yaml", "--out", taken, "--num-samples", "2")
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("dagforge: write failed:")
    assert taken.read_bytes() == b"not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


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


# a run names the sample index and seed of a row that fails to evaluate
FIRST_SAMPLE = " at sample index 0 (seed 0)"


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
    assert "finite" in err and err.rstrip().endswith(f" at 0..{len(source)}{FIRST_SAMPLE}")
    assert not out.exists()


NAN, INF = "(exp(709) * 10 - exp(709) * 10)", "exp(709) * 10"


@pytest.mark.parametrize("source", [
    f"uniform({NAN}, {NAN})", f"uniform(0, {INF})", f"uniform(-{INF}, 0)", "uniform(-1e308, 1e308)",
    f"normal({NAN}, 1)", f"normal(0, {NAN})", f"normal({INF}, 1)", f"normal(0, {INF})",
    f"categorical([{NAN}])", f"categorical([{NAN}, 1.0])", f"categorical([{INF}])",
    f'choice(["a", "b"], [0.5, {NAN}])',
], ids=lambda source: source.replace(NAN, "NAN").replace(INF, "INF"))
def test_non_finite_distribution_argument_exit_2_names_node_and_span(run_cli, tmp_path, source):
    spec = tmp_path / "nonfinite.yaml"
    spec.write_text(model_yaml(f"    X: '{source}'\n"))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("dagforge: node X: ")
    assert "finite" in err and err.rstrip().endswith(f" at 0..{len(source)}{FIRST_SAMPLE}")
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
    assert err.rstrip().endswith(f" at 0..{len(source)}{FIRST_SAMPLE}")
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
    assert err.rstrip() == f"dagforge: node X: {message} at 0..{len(source)}{FIRST_SAMPLE}"
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
    assert err.rstrip() == f"dagforge: node Y: {message} at 0..{len(source)}{FIRST_SAMPLE}"
    assert not out.exists()


@pytest.mark.parametrize("source, message", [
    ('kmer_counts(["ACGT"], 11, "ACGT")', "kmer_counts table of 4**11 counters is larger than the limit of 1048576"),
    # 4 ** k would never finish; the limit is checked without it
    ('kmer_counts(["ACGT"], 9223372036854775807, "ACGT")',
     "kmer_counts table of 4**9223372036854775807 counters is larger than the limit of 1048576"),
    ("tensor_zeros([1024, 1025])", "tensor_zeros shape [1024, 1025] has more elements than the limit of 1048576"),
    # one past each draw-cost limit; a hundred times past it, each used to run for longer than 5 s
    ("binomial(1048577, 0.5)", "binomial trial count 1048577 is larger than the limit of 1048576"),
    ("poisson(1048577.0)", "poisson rate 1048577.0 is larger than the limit of 1048576"),
    ('random_seq("ACGT", 1048577)', "random_seq length 1048577 is larger than the limit of 1048576"),
], ids=["kmer_counts", "kmer_counts huge k", "tensor_zeros", "binomial", "poisson", "random_seq"])
def test_a_value_past_a_size_limit_exit_2(run_cli, tmp_path, source, message):
    spec = tmp_path / "big.yaml"
    spec.write_text(model_yaml(f"    X: '{source}'\n"))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert err.rstrip() == f"dagforge: node X: {message} at 0..{len(source)}{FIRST_SAMPLE}"
    assert not out.exists()


def test_a_concat_chain_stops_at_the_length_limit_exit_2(run_cli, tmp_path):
    # X0 has 4 characters and each node doubles it: X18 holds 1048576, X19 would hold twice that
    chain = "".join(f'    X{i}: "concat(X{i - 1}, X{i - 1})"\n' for i in range(1, 21))
    spec = tmp_path / "doubling.yaml"
    spec.write_text(model_yaml("    X0: '\"abcd\"'\n" + chain, num_samples=1))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    assert err.rstrip() == f"dagforge: node X19: concat result of 2097152 characters is longer than the limit of 1048576 at 0..16{FIRST_SAMPLE}"
    assert not out.exists()


def test_an_int_squaring_chain_stops_at_the_bit_limit_exit_2(run_cli, tmp_path):
    # X0 is 2 or 3 and each node squares it: X19 has at most 831,028 bits, X20 at least 1,048,577
    chain = "".join(f'    X{i}: "X{i - 1} * X{i - 1}"\n' for i in range(1, 21))
    spec = tmp_path / "squaring.yaml"
    spec.write_text(model_yaml('    X0: "randint(2, 4)"\n' + chain, num_samples=1))
    out = tmp_path / "out"
    code, _, err = run_cli("run", spec, "--out", out)
    assert code == 2
    stop = re.fullmatch(
        r"dagforge: node X20: arithmetic '\*' result of (\d+) bits is larger than the limit of 1048576 at 0\.\.9 at sample index 0 \(seed 0\)\n", err)
    assert stop and int(stop[1]) > 1 << 20
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


@pytest.mark.parametrize("value, message", [
    # PyYAML's constructors fail on these with an IndexError and an AttributeError
    ("!!int ''", "cannot construct !!int from ''"),
    ("!!timestamp abc", "cannot construct !!timestamp from 'abc'"),
])
def test_a_scalar_the_yaml_constructor_cannot_read_exit_2(run_cli, tmp_path, value, message):
    spec = tmp_path / "scalar.yaml"
    spec.write_text(f"X: {value}\n")
    code, _, err = run_cli("validate", spec)
    assert (code, err) == (2, f"dagforge: document: {message} (line 1)\n")


def test_a_set_in_a_message_does_not_depend_on_the_hash_seed(tmp_path):
    # a model document holds no set, so the loader rejects it at its tag; `_brief` sorts a set a host returns
    spec = tmp_path / "set.yaml"
    spec.write_text(SEEDLESS + "    seed: !!set {alpha, beta, gamma, delta}\n")
    runs = [
        subprocess.run([sys.executable, "-m", "dagforge", "validate", str(spec)], capture_output=True, text=True,
                       timeout=60, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        for hash_seed in ("1", "2")
    ]
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr == (
        "dagforge: document: expected a mapping, list or scalar, but found !!set (line 9)\n")


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


def _named(csv_name: str) -> str:
    """A one-node model whose csv_name is the YAML double-quoted scalar ``csv_name``."""
    return f'graph:\n  nodes:\n    X: "1"\ninstructions:\n  simulation:\n    csv_name: "{csv_name}"\n    num_samples: 3\n'


def test_a_csv_name_holding_a_comma_cannot_make_a_rerun_delete_user_files(run_cli, tmp_path):
    # the manifest lists its files on one line, separated by commas, so
    # "keep,notes" once read back as the user's files keep and notes.csv,
    # which a second run then removed
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep").write_text("mine\n")
    (out / "notes.csv").write_text("mine\n")
    spec = tmp_path / "m.yaml"
    spec.write_text(_named("keep,notes"))
    for _ in range(2):
        code, _, err = run_cli("run", spec, "--out", out)
        assert code == 2
        assert err.startswith("dagforge: instructions.simulation.csv_name: 'keep,notes' holds ','")
    assert sorted(p.name for p in out.iterdir()) == ["keep", "notes.csv"]


@pytest.mark.parametrize("escaped, char", [
    (",", ","), ("/", "/"), ("\\\\", "\\"), ("\\r", "\r"), ("\\n", "\n"), ("\\0", "\0"),
])
def test_a_csv_name_holding_a_separator_exits_2(run_cli, tmp_path, escaped, char):
    # a line break would add a line to the manifest's fixed set, such as "seed = 99.csv"
    spec = tmp_path / "m.yaml"
    spec.write_text(_named(f"a{escaped}seed = 99"))
    for argv in (("validate", spec), ("run", spec, "--out", tmp_path / "out")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == (f"dagforge: instructions.simulation.csv_name: {'a' + char + 'seed = 99'!r} holds {char!r}; "
                       "a file name stem may not hold ',', '/', '\\', CR, LF or NUL\n")
    assert not (tmp_path / "out").exists()


def _shared_levels(levels: int) -> str:
    """A flow list of ``levels`` lists, each holding nine aliases of the one before."""
    lists = ["&a0 [" + ", ".join(["x"] * 9) + "]"]
    lists += [f"&a{k} [" + ", ".join([f"*a{k - 1}"] * 9) + "]" for k in range(1, levels)]
    return "[" + ", ".join(lists) + "]"


def test_schema_error_on_a_value_sharing_aliases_exit_2(run_cli, tmp_path):
    # the value holds 9**7 leaves, so its whole repr would be about 40 MB of text
    spec = tmp_path / "aliases.yaml"
    spec.write_text('graph:\n  nodes:\n    X: "1"\ninstructions:\n  simulation:\n'
                    f"    csv_name: out\n    num_samples: {_shared_levels(7)}\n")
    assert len(spec.read_bytes()) < 500
    code, _, err = run_cli("validate", spec)
    assert code == 2
    first = repr([["x"] * 9, [["x"] * 9] * 9])[:77]  # the first two of the seven lists
    assert err == f"dagforge: instructions.simulation.num_samples: expected a positive integer, got {first}...\n"



# --- a failed run names its sample index ------------------------------------

# nodes block and flags of runs that fail at one sample index, some past the first
FAILING_RUNS = {
    "eval error": ('    U: "uniform(0, 1)"\n    L: "if U < 0.99 then 1.0 else log(0 - 1)"\n', ()),
    "eval error past the first block": ('    U: "uniform(0, 1)"\n    L: "if U < 0.9998 then 1.0 else log(0 - 1)"\n', ()),
    "selection value": ('    U: "uniform(0, 1)"\n    S:\n      function: "if U < 0.99 then U < 0.5 else 2"\n'
                        "      kind: selection\n", ()),
    "missing indicator": ('    U: "uniform(0, 1)"\n    M:\n      function: "if U < 0.99 then 0 else 0.5"\n'
                          "      kind: missing\n      underlying: U\n", ()),
    "stratum label": ('    U: "uniform(0, 1)"\n    G:\n      function: \'if U < 0.99 then "a" else "a b"\'\n'
                      "      kind: stratify\n", ()),
    "intervened node": ('    U: "uniform(0, 1)"\n    L: "1.0"\n',
                        ("--intervene", "L=if U < 0.99 then 1.0 else log(0 - 1)")),
}


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_a_failed_run_names_the_sample_index_that_replays_its_error(run_cli, registry, tmp_path, case):
    nodes, flags = FAILING_RUNS[case]
    spec = tmp_path / "m.yaml"
    spec.write_text(model_yaml(nodes, num_samples=5000))
    code, _, err = run_cli("run", spec, "--seed", "11", "--out", tmp_path / "out", *flags)
    assert code == 2
    stop = re.fullmatch(r"dagforge: (.*) at sample index (\d+) \(seed 11\)\n", err)
    assert stop, err
    message, index = stop[1], int(stop[2])
    assert index > (1024 if "past the first block" in case else 0)

    model = validate(parse_model(spec.read_text()), registry)
    if flags:
        node, _, text = flags[1].partition("=")
        model = apply_interventions(model, {node: parse(text)}, registry)

    def replay(i):  # the checks a run makes at index i
        row, selected = sample_one(model, i, 11, registry)
        if selected and model.stratify:
            check_stratum_label(row[model.stratify])

    for i in range(index):
        replay(i)
    with pytest.raises(DagforgeError) as caught:
        replay(index)
    assert str(caught.value) == message


# --- the cyclic GC in the CLI ------------------------------------------------

def _gc_runs(tmp_path):
    """A name for each way out of main(): (argv, exit code)."""
    ok = tmp_path / "ok.yaml"
    ok.write_text(model_yaml('    U: "uniform(0, 1)"\n', num_samples=3))
    failing = tmp_path / "failing.yaml"
    failing.write_text(model_yaml(FAILING_RUNS["eval error"][0], num_samples=500))
    invalid = tmp_path / "invalid.yaml"
    invalid.write_text(model_yaml('    X: "nope(1)"\n'))
    starved = tmp_path / "starved.yaml"
    starved.write_text(model_yaml('    S:\n      function: "1 == 2"\n      kind: selection\n', num_samples=3))
    out = tmp_path / "out"
    return {
        "run": (("run", ok, "--out", out), 0),
        "validate": (("validate", ok), 0),
        "graph": (("graph", ok), 0),
        "unreadable file": (("run", tmp_path / "absent.yaml"), 1),
        "invalid model": (("run", invalid, "--out", out), 2),
        "failing row": (("run", failing, "--out", out), 2),
        "starved selection": (("run", starved, "--out", out, "--max-rejection-factor", "2"), 3),
    }


GC_EXITS = ["run", "validate", "graph", "unreadable file", "invalid model", "failing row", "starved selection"]


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("name", GC_EXITS)
def test_main_gives_back_the_callers_gc_on_every_exit(run_cli, tmp_path, name, caller_gc):
    argv, expected = _gc_runs(tmp_path)[name]
    gc.enable() if caller_gc else gc.disable()
    try:
        code, _, err = run_cli(*argv)
        state = gc.isenabled(), gc.get_freeze_count()
    finally:
        gc.enable()
    assert code == expected, err
    assert state == (caller_gc, 0)


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("where", ["set-up", "rows"])
def test_main_gives_back_the_callers_gc_on_an_uncaught_exception(run_cli, monkeypatch, tmp_path, where, caller_gc):
    def crash(*args, **kwargs):
        raise RuntimeError("crash")

    if where == "set-up":
        monkeypatch.setattr(cli, "validate", crash)
    else:
        monkeypatch.setattr(output, "write_csv", crash)
    argv, _ = _gc_runs(tmp_path)["run"]
    gc.enable() if caller_gc else gc.disable()
    try:
        with pytest.raises(RuntimeError, match="crash"):
            run_cli(*argv)
        state = gc.isenabled(), gc.get_freeze_count()
    finally:
        gc.enable()
    assert state == (caller_gc, 0)


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc on", "gc off"])
def test_run_sets_up_without_the_gc_and_makes_rows_with_the_callers(registry, monkeypatch, run_cli, tmp_path, caller_gc):
    seen = {"set-up": set(), "rows": set(), "frozen": set()}

    def validate_watched(*args):
        seen["set-up"].add(gc.isenabled())
        return validate(*args)

    def probe(x):
        seen["rows"].add(gc.isenabled())
        seen["frozen"].add(gc.get_freeze_count() > 0)
        return x

    register_host_function(registry, "probe", 1, False, probe)
    monkeypatch.setattr(cli, "_default_registry", lambda: registry)
    monkeypatch.setattr(cli, "validate", validate_watched)
    spec = tmp_path / "m.yaml"
    spec.write_text(model_yaml('    X: "probe(1)"\n', num_samples=5))
    gc.enable() if caller_gc else gc.disable()
    try:
        code, _, err = run_cli("run", spec, "--out", tmp_path / "out")
    finally:
        gc.enable()
    assert code == 0, err
    assert seen == {"set-up": {False}, "rows": {caller_gc}, "frozen": {True}}


def test_validate_and_graph_keep_the_gc_off_to_the_end(registry, monkeypatch, run_cli, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "to_dot", lambda model: seen.append(gc.isenabled()) or "")
    monkeypatch.setattr(cli, "print", lambda *args: seen.append(gc.isenabled()), raising=False)
    for command in ("validate", "graph"):
        code, _, err = run_cli(command, MODELS / "images.yaml")
        assert code == 0, err
    assert seen == [False, False, False]


# A layered model of 300 nodes with a plate, selection, missing and stratify
# node, in the shape of the benchmark's generated model.
LAYERED = "".join(
    [f'    n0_{j}: "{"normal(0, 1)" if j % 2 else "uniform(-1, 1)"}"\n' for j in range(30)]
    + [f'    n{k}_{j}: "if n{k - 1}_{j} > n{k - 1}_{(j * 7 + 3) % 30} then n{k - 1}_{j} * 0.5 + normal(0, 1) '
       f'else n{k - 1}_{(j * 7 + 3) % 30} * 0.5 - uniform(0, 1)"\n' for k in range(1, 10) for j in range(30)]
) + (
    '    plate:\n      function: "normal(n9_0, 1)"\n      size: 4\n'
    '    sel:\n      function: "uniform(0, 1) < 0.5"\n      kind: selection\n'
    '    miss:\n      function: "binomial(1, 0.2)"\n      kind: missing\n      underlying: n9_1\n'
    '    stratum:\n      function: "randint(0, 4)"\n      kind: stratify\n'
)

# A fresh interpreter with the GC off from its first line: after set-up and
# after the rows, a collection must find no garbage, so keeping the GC out of
# set-up leaks nothing.  Lazy imports a run makes count as set-up.
PREMISE = textwrap.dedent("""
    import gc
    gc.disable()
    import json, sys, tempfile
    from pathlib import Path
    import dagforge.cli
    gc.collect()
    found = {}
    for path, interventions in json.loads(sys.argv[1]):
        from dagforge import apply_interventions, build_registry, parse_model, register_example_functions, validate
        from dagforge.expr import parse
        from dagforge.output import write_csv
        from dagforge.sampler import KeptRows, RunConfig
        registry = build_registry()
        register_example_functions(registry)
        spec = parse_model(Path(path).read_text(encoding="utf-8"))
        model = validate(spec, registry)
        model = apply_interventions(model, {k: parse(v) for k, v in interventions.items()}, registry)
        rows = KeptRows(model, RunConfig(num_samples=50, seed=5), registry)
        set_up = gc.collect()
        with tempfile.TemporaryDirectory() as out:
            write_csv(rows, model, spec.instructions, out)
        found[Path(path).name] = [set_up, gc.collect()]
    print(json.dumps(found))
""")


def test_set_up_and_rows_make_no_reference_cycles(tmp_path):
    layered = tmp_path / "layered.yaml"
    layered.write_text(model_yaml(LAYERED, num_samples=50))
    runs = [(str(MODELS / "images.yaml"), {}), (str(MODELS / "bioseq.yaml"), {}),
            (str(layered), {"n5_7": "normal(0, 2)"})]
    result = subprocess.run([sys.executable, "-c", PREMISE, json.dumps(runs)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"images.yaml": [0, 0], "bioseq.yaml": [0, 0], "layered.yaml": [0, 0]}
