"""Output gate: every check a run's output directory must pass.

* The manifest has the fixed line set of FORMATS.md, and its ``files`` and
  ``rows`` lines agree with the CSV files on disk.
* Every CSV's header and first rows equal the independent reference in
  ``oracle.py``, at any seed.
* At a seed whose hashes ``baseline.json`` records, every CSV's sha256 and the
  sha256 of the manifest without its ``timestamp`` line equal the recorded ones.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import oracle
from workloads import Workload

BASELINE = Path(__file__).resolve().parent / "baseline.json"
MANIFEST_KEYS = ["engine_version", "model_hash", "seed", "num_samples", "attempts", "rows", "files", "timestamp"]
ORACLE_ROWS = 8


def reference_key(w: Workload, run_seed: int) -> str:
    return f"{w.name}/seed={w.seed}/rows={w.rows}/program_seed={run_seed}"


def load_references() -> dict:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text(encoding="utf-8")).get("reference", {})


def digest(out_dir: Path, csv_name: str) -> dict:
    """sha256 of every CSV and of the manifest minus its timestamp line."""
    manifest = (out_dir / f"{csv_name}.manifest").read_text(encoding="utf-8")
    stable = "".join(line for line in manifest.splitlines(keepends=True) if not line.startswith("timestamp ="))
    return {
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))},
        "manifest": hashlib.sha256(stable.encode("utf-8")).hexdigest(),
    }


def _manifest_problems(w: Workload, run_seed: int, out_dir: Path) -> list[str]:
    path = out_dir / f"{w.csv_name}.manifest"
    if not path.exists():
        return [f"no manifest {path.name}"]
    pairs = [line.partition(" = ") for line in path.read_text(encoding="utf-8").splitlines()]
    keys = [k for k, _, _ in pairs]
    if keys != MANIFEST_KEYS:
        return [f"manifest keys {keys} != {MANIFEST_KEYS}"]
    fields = {k: v for k, _, v in pairs}
    problems = []
    listed = fields["files"].split(",")
    on_disk = sorted(p.name for p in out_dir.glob("*.csv"))
    if sorted(listed) != on_disk:
        problems.append(f"manifest files {listed} != files on disk {on_disk}")
    rows = sum((out_dir / name).read_bytes().count(b"\n") - 1 for name in on_disk)
    if fields["rows"] != str(rows) or rows != w.rows:
        problems.append(f"manifest rows {fields['rows']}, {rows} data rows on disk, {w.rows} requested")
    if fields["seed"] != str(run_seed) or fields["num_samples"] != str(w.rows):
        problems.append(f"manifest seed/num_samples {fields['seed']}/{fields['num_samples']} != {run_seed}/{w.rows}")
    return problems


def _oracle_problems(w: Workload, run_seed: int, out_dir: Path) -> list[str]:
    header, kept = oracle.expected_prefix(w, run_seed, min(ORACLE_ROWS, w.rows))
    expected: dict[str | None, list[str]] = {}
    for stratum, line in kept:
        expected.setdefault(stratum, []).append(line)
    problems = []
    for stratum, lines in expected.items():
        name = f"{w.csv_name}.csv" if stratum is None else f"{w.csv_name}_{stratum}.csv"
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        with path.open(encoding="utf-8", newline="") as f:
            got = [f.readline().rstrip("\n") for _ in range(len(lines) + 1)]
        if got[0] != header:
            problems.append(f"{name}: header differs from the reference")
        for i, (want, have) in enumerate(zip(lines, got[1:])):
            if want != have:
                problems.append(f"{name}: data row {i + 1} differs from the reference")
                break
    return problems


def check_output(w: Workload, run_seed: int, out_dir: Path, references: dict) -> tuple[dict | None, list[str]]:
    """Return the output's digest and every problem found (empty when it passes)."""
    problems = _manifest_problems(w, run_seed, out_dir)
    if problems:
        return None, problems
    problems = _oracle_problems(w, run_seed, out_dir)
    got = digest(out_dir, w.csv_name)
    want = references.get(reference_key(w, run_seed))
    if want is not None and got != want:
        problems.append(f"sha256 differs from the recorded reference {reference_key(w, run_seed)}")
    return got, problems
