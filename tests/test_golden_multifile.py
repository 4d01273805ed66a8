"""Byte-identity gate for a run that writes several files.

``tests/data/strata.yaml`` has a plate, a selection, a missing and a
stratify node, and is run with one intervention.  The digests pin every
stratum CSV and the manifest without its ``timestamp`` line.  They were
recorded from the engine that rendered each CSV as one string before
writing it; a change to any of them is a change to the reproducibility
contract, not a refactor.
"""

import hashlib

import pytest

from conftest import DATA

INTERVENTION = "Score=normal(U, 2)"

GOLDEN = {
    0: {
        "strata.manifest": "52fa96ccd49e6f2effc2d571469d50814d89269adf50fcb68cefbbbc1300a29c",
        "strata_high.csv": "71c1966973a12b04d50fa9d79cb725b2f25c36a00cf830280fdcb79977678ebe",
        "strata_low.csv": "5e34e47b94a5142a733f48829f68e7ccb10c480a819d4d8cfe9fdd9361f165a3",
        "strata_mid.csv": "f952367112421c48f867e8cd6e6768d6fc807f5e860d9897893a2d431736ef2c",
    },
    1: {
        "strata.manifest": "e57f98ef0eb81bdde7ecd9068533443db395da6e20b9d2b34ef7c9cce83cd34c",
        "strata_high.csv": "cd44141ed09b99693d2105ad490c41b77bf546914f86d064dd8afb1e3d9bee69",
        "strata_low.csv": "387d0c39aa67de2117353253d34a57c0efe6daaf28faa21b652f7917c6865ad6",
        "strata_mid.csv": "9098fddb906befbd3b6efc889895d17e4952712b51fb5f9d350d4a4ea960c5ad",
    },
    2: {
        "strata.manifest": "3709a5816de5c3a479879be9ede8509da57d7721f9f77cb05015f48115f7b5aa",
        "strata_high.csv": "af53e91326312b96c1a6fba8745e3d0ca0f0274afa47c3e70766fedd60e418dc",
        "strata_low.csv": "4e038012d03f9853eb5651b4993eba173cc1d220a229793978eeaec390dadeb7",
        "strata_mid.csv": "d437fcb4fbad424475a74eb2a961571daf2d8c95e33b363e39f716a53d63da1c",
    },
}


def _digest(path):
    blob = path.read_bytes()
    if path.suffix == ".manifest":
        blob = b"".join(line for line in blob.splitlines(keepends=True) if not line.startswith(b"timestamp = "))
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_stratified_run_bytes_are_pinned(run_cli, tmp_path, seed):
    code, _, err = run_cli(
        "run", DATA / "strata.yaml", "--seed", seed, "--intervene", INTERVENTION, "--out", tmp_path
    )
    assert code == 0, err
    assert {p.name: _digest(p) for p in tmp_path.iterdir()} == GOLDEN[seed]
