"""dagforge benchmark: end-to-end CLI numbers, or per-layer numbers with --trace 1.

Run from the repository root:

    python3 benchmarks/bench.py --workload images --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the real CLI the way users do, one child process
at a time (``python -m dagforge validate|run`` with ``PYTHONPATH=src``), checks
every output with ``check.py`` and reports ``rows_per_s``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` it runs the in-process driver in
``traced.py`` instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed / attempted`` is
the failure share.  Everything it writes goes under ``.bench_out/`` in the
repository root.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out"

# A run's first SETUP_CHILDREN iterations each make one `validate` and one
# `run` child; later ones, until --seconds have passed, only a `run` child.
SETUP_CHILDREN = 5

# Host speed on a shared machine swings by a third within seconds, and the
# CPUs of one machine differ.  So every child runs on the same CPU, and each
# measured child sits between two calibration children: a fixed pure-Python
# loop in a fresh interpreter that never touches dagforge.  A child's time is
# reported scaled to a host on which the calibration child takes
# CALIBRATION_REF_S: wall * CALIBRATION_REF_S / mean(calibration before, after).
# Raw figures are printed alongside.
CALIBRATION = """
import json
d = {}
for i in range(30_000):
    t = tuple([float(j) for j in range(i % 7, i % 7 + 24)])
    d[i % 1000] = json.dumps(t)
"""
CALIBRATION_REF_S = 0.2


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DAGFORGE_SEED", None)
    return env


def spawn(argv: list[str], log_dir: Path) -> Child:
    """Run one child to completion; wall time is spawn to exit, RSS is this child's own."""
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text())


def dagforge(args: list[str], log_dir: Path) -> Child:
    return spawn([sys.executable, "-m", "dagforge", *args], log_dir)


def model_summary(validate_stdout: str) -> tuple[int, int]:
    """(nodes, edges) from the first line `dagforge validate` prints."""
    first = validate_stdout.splitlines()[0].split()
    return int(first[0]), int(first[2])


class Calibrated:
    """Runs children between calibration children; see CALIBRATION."""

    def __init__(self, work: Path):
        self.work = work
        self.before = self._calibrate()

    def _calibrate(self) -> float:
        cal = spawn([sys.executable, "-c", CALIBRATION], self.work)
        if cal.code != 0:
            raise SystemExit(f"calibration child exited {cal.code}: {cal.stderr.strip()}")
        return cal.wall_s

    def dagforge(self, args: list[str]) -> tuple[Child, float]:
        """The child and its scaled time."""
        child = dagforge(args, self.work)
        after = self._calibrate()
        scaled = child.wall_s * CALIBRATION_REF_S * 2 / (self.before + after)
        self.before = after
        return child, scaled


def end_to_end(w: workloads.Workload, seconds: float, work: Path) -> dict:
    references = check.load_references()
    warm = dagforge(["validate", str(w.model_path)], work)  # fills the bytecode cache; untimed
    if warm.code != 0:
        raise SystemExit(f"dagforge validate rejected the {w.name} model: {warm.stderr.strip()}")
    nodes, edges = model_summary(warm.stdout)

    timer = Calibrated(work)
    setups, runs, rss = [], [], []
    raw_setups, raw_runs = [], []
    attempted = failed = 0
    first_digest: dict[int, dict] = {}
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < SETUP_CHILDREN or time.perf_counter() < deadline:
        if len(setups) < SETUP_CHILDREN:
            v, scaled = timer.dagforge(["validate", str(w.model_path)])
            attempted += 1
            if v.code != 0:
                failed += 1
                problems.append(f"validate exited {v.code}")
            setups.append(scaled)
            raw_setups.append(v.wall_s)
        seed = w.program_seed(k)
        out_dir = work / f"out-{k}"
        r, scaled = timer.dagforge(w.run_args(out_dir, seed))
        attempted += 1
        found = [f"exit code {r.code}: {r.stderr.strip()[-200:]}"] if r.code != 0 else []
        if not found:
            got, found = check.check_output(w, seed, out_dir, references)
            if got is not None and first_digest.setdefault(seed, got) != got:
                found.append(f"output at seed {seed} differs from the earlier child with the same seed")
        if found:
            failed += 1
            problems += [f"run child {k} (seed {seed}): {p}" for p in found]
        runs.append(scaled)
        raw_runs.append(r.wall_s)
        rss.append(r.maxrss_mb)
        shutil.rmtree(out_dir, ignore_errors=True)
        k += 1

    for p in problems:
        print(f"FAIL {p}")
    print(f"model: {nodes} nodes, {edges} edges; {k} run children of {w.rows} rows, {len(setups)} validate children")
    print(f"raw wall time medians: run child {statistics.median(raw_runs):.4f} s, "
          f"validate child {statistics.median(raw_setups):.4f} s")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f} (children that exited non-zero or failed the output check)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "rows_per_s": {"value": w.rows / statistics.median(runs), "unit": "rows/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True, help="workload seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, required=True, help="how long to keep measuring")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from the traced driver")
    p.add_argument("--rows", type=int, default=None, help="kept rows per run (default: the workload's size)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/dagforge/__init__.py", "models/images.yaml", "models/bioseq.yaml") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a dagforge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = workloads.make(args.workload, args.seed, ROOT, work, args.rows)
        if args.trace:
            sys.path.insert(0, str(ROOT / "src"))
            import traced

            result = traced.run(w, w.program_seed(0), args.seconds, ROOT, work, WORK)
        else:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
            result = end_to_end(w, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
