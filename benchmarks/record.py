"""Write baseline.json: reference hashes, wide_deep model figures and baseline metrics.

Run from the repository root, on the commit whose output is the reference:

    python3 benchmarks/record.py

For each recorded seed and workload it runs every program seed a run can
use (``workloads.SEEDS_PER_RUN`` of them), at the default size and at the small
size the tests use, and stores each output's sha256 digests.  It then runs
the benchmark once per workload and mode at the first recorded seed and
stores the metrics.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

RECORDED_SEEDS = (0, 1, 2)
TEST_ROWS = {"images": 40, "bioseq": 40, "wide_deep": 4}
BASELINE_SECONDS = 30


def reference_digests(work: Path) -> dict:
    refs = {}
    for seed in RECORDED_SEEDS:
        for name in workloads.NAMES:
            for rows in (None, TEST_ROWS[name]):
                w = workloads.make(name, seed, bench.ROOT, work, rows)
                for k in range(workloads.SEEDS_PER_RUN):
                    run_seed = w.program_seed(k)
                    out = work / "out"
                    child = bench.dagforge(w.run_args(out, run_seed), work)
                    if child.code != 0:
                        raise SystemExit(f"{name} seed {run_seed} exited {child.code}: {child.stderr}")
                    refs[check.reference_key(w, run_seed)] = check.digest(out, w.csv_name)
                    shutil.rmtree(out)
                print(f"recorded {name} seed {seed} rows {w.rows}", flush=True)
    return refs


def wide_deep_figures(work: Path) -> dict:
    """Node, edge and observed-column counts and acceptance at the first recorded seed."""
    w = workloads.make("wide_deep", RECORDED_SEEDS[0], bench.ROOT, work)
    nodes, edges = bench.model_summary(bench.dagforge(["validate", str(w.model_path)], work).stdout)
    out = work / "out"
    bench.dagforge(w.run_args(out, w.program_seed(0)), work)
    fields = dict(line.split(" = ", 1) for line in (out / "wide_deep.manifest").read_text().splitlines())
    first = out / fields["files"].split(",")[0]
    columns = first.read_text().splitlines()[0].count(",") + 1
    shutil.rmtree(out)
    return {"seed": w.seed, "program_seed": w.program_seed(0), "nodes": nodes, "edges": edges,
            "observed_columns": columns, "rows": int(fields["rows"]), "attempts": int(fields["attempts"]),
            "acceptance": int(fields["rows"]) / int(fields["attempts"])}


def baseline_metrics() -> dict:
    out = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).with_name("bench.py")), "--workload", name,
                    "--seed", str(RECORDED_SEEDS[0]), "--seconds", str(BASELINE_SECONDS), "--trace", str(trace)]
            result = json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()[-1])
            out.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
            print(f"measured {name} trace={trace}", flush=True)
    return out


def main() -> int:
    work = bench.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        refs = reference_digests(work)
        # the benchmark runs below check against the fresh references
        check.BASELINE.write_text(json.dumps({"reference": refs}), encoding="utf-8")
        figures = wide_deep_figures(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    baseline = {
        "recorded_seeds": list(RECORDED_SEEDS),
        "seeds_per_run": workloads.SEEDS_PER_RUN,
        "wide_deep_model": figures,
        "metrics": baseline_metrics(),
        "reference": refs,
    }
    check.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {check.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
