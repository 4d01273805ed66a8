"""The shipped scripts run end to end against the current API."""

import subprocess
import sys

from conftest import REPO

SCRIPTS = REPO / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )


def test_run_examples_writes_both_models(tmp_path):
    proc = run_script("run_examples.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "images.yaml: kept 50 rows from 50 attempts" in proc.stdout
    assert "bioseq.yaml: kept 50 rows from 50 attempts" in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BioseqExample_yaml.csv", "BioseqExample_yaml.manifest",
        "Images_metadata.csv", "Images_metadata.manifest",
    ]


def test_intervention_demo_prints_the_comparison():
    proc = run_script("intervention_demo.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["column", "identical", "mean(base)", "mean(do", "H=1)"]
    identical = {line.split()[0]: line.split()[1] for line in lines[1:]}
    # do(H=1) changes H and its descendants only
    assert identical == {
        "U1": "True", "U2": "True", "H": "False", "C": "True",
        "V": "True", "R": "False", "Y": "True", "Image": "False",
    }
