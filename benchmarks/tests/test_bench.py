"""Tests of the benchmark itself: small smoke runs and the output gate.

Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import check  # noqa: E402
import record  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/bench.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(name, trace):
    proc = run_bench("--workload", name, "--seed", "0", "--seconds", "0", "--trace", trace,
                     "--rows", str(record.TEST_ROWS[name]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "images", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wide_deep_generator_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.make("wide_deep", 5, bench.ROOT, tmp_path / "a")
    b = workloads.make("wide_deep", 5, bench.ROOT, tmp_path / "b")
    c = workloads.make("wide_deep", 6, bench.ROOT, tmp_path)
    assert a.model_path.read_text() == b.model_path.read_text() and a.interventions == b.interventions
    assert a.model_path.read_text() != c.model_path.read_text()


# --- the gate ------------------------------------------------------------------

def _output(tmp_path: Path, seed: int) -> tuple[workloads.Workload, int, Path]:
    w = workloads.make("images", seed, bench.ROOT, tmp_path, record.TEST_ROWS["images"])
    program_seed = w.program_seed(0)
    out = tmp_path / "out"
    assert bench.dagforge(w.run_args(out, program_seed), tmp_path).code == 0
    return w, program_seed, out


def _flip_last_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    i = max(data.rindex(bytes([d])) for d in b"0123456789")
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def _flip_first_row(path: Path) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"0.", b"1.", 1)
    path.write_bytes(b"\n".join(lines))


def test_clean_output_passes_at_a_recorded_seed(tmp_path):
    w, seed, out = _output(tmp_path, record.RECORDED_SEEDS[0])
    references = check.load_references()
    assert check.reference_key(w, seed) in references
    assert check.check_output(w, seed, out, references)[1] == []


def test_flipped_byte_fails_the_hash_at_a_recorded_seed(tmp_path):
    w, seed, out = _output(tmp_path, record.RECORDED_SEEDS[0])
    _flip_last_digit(out / f"{w.csv_name}.csv")  # beyond the rows the reference check reads
    problems = check.check_output(w, seed, out, check.load_references())[1]
    assert any("sha256" in p for p in problems)


def test_flipped_byte_fails_the_reference_rows_at_any_seed(tmp_path):
    w, seed, out = _output(tmp_path, 1000)
    _flip_first_row(out / f"{w.csv_name}.csv")
    problems = check.check_output(w, seed, out, check.load_references())[1]
    assert any("differs from the reference" in p for p in problems)


def test_manifest_disagreeing_with_disk_fails(tmp_path):
    w, seed, out = _output(tmp_path, 1000)
    (out / f"{w.csv_name}_stale.csv").write_text("U1\n0.5\n")
    problems = check.check_output(w, seed, out, {})[1]
    assert any("files on disk" in p for p in problems)


def _corrupting(corrupt):
    real = bench.dagforge

    def dagforge(args, log_dir):
        child = real(args, log_dir)
        if args[0] == "run":
            out = Path(args[args.index("--out") + 1])
            corrupt(out)
        return child

    return dagforge


@pytest.mark.parametrize("corrupt", [
    lambda out: _flip_last_digit(out / "Images_metadata.csv"),
    lambda out: (out / "Images_metadata_stale.csv").write_text("U1\n0.5\n"),
], ids=["flipped-byte", "stray-file"])
def test_every_corrupted_run_counts_as_failed(tmp_path, monkeypatch, corrupt):
    monkeypatch.setattr(bench, "dagforge", _corrupting(corrupt))
    w = workloads.make("images", record.RECORDED_SEEDS[0], bench.ROOT, tmp_path, record.TEST_ROWS["images"])
    result = bench.end_to_end(w, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == bench.SETUP_CHILDREN  # every run child


def test_non_zero_exit_counts_as_failed(tmp_path):
    w = workloads.make("images", 0, bench.ROOT, tmp_path, record.TEST_ROWS["images"])
    w.interventions = ["NoSuchNode=1"]  # `dagforge run` exits 2; `validate` still passes
    result = bench.end_to_end(w, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == bench.SETUP_CHILDREN  # every run child, no validate child
    assert result["attempted"] == 2 * bench.SETUP_CHILDREN
