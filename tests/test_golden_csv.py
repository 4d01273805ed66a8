"""Byte-identity gate: the bundled models' CSV bytes are pinned by sha256.

A speedup may not change one output byte for an existing (model, seed)
pair.  The digests below were recorded from the engine before the trusted
tensor constructor and the batched draws; any change to them is a change
to the reproducibility contract, not a refactor.
"""

import hashlib

import pytest

from conftest import MODELS

ROWS = 200

GOLDEN = {
    ("images", 0): "501955c3865fcbe50b7c2b3fd032cd0bc0bd29fbd7ee2460a9ebd6ea19d0c190",
    ("images", 1): "c5d03bedee3906ecd51f06d37eda3c7ab41a11a9fed29ce8b1e224b02b694d6b",
    ("images", 2): "efb48e4e929f5694495bd3d06cfdc1b8972502cfc2ca31eadbb6b24648c26f1c",
    ("bioseq", 0): "d12ad7aa9e8f82137013762d759edc3f807deeaf773d872306b288aad753bd5e",
    ("bioseq", 1): "e671f0e7dda43f58a0492fb0b5f987fd7973dd2f58d12a55568cd60cf53099bc",
    ("bioseq", 2): "c22f000c037b89b4ce58a1d1d9790fa9e2ab0a1995d916dd84a50fae1d54f193",
}

CSV_NAMES = {"images": "Images_metadata.csv", "bioseq": "BioseqExample_yaml.csv"}


@pytest.mark.parametrize("model, seed", sorted(GOLDEN))
def test_bundled_model_csv_bytes_are_pinned(run_cli, tmp_path, model, seed):
    code, _, err = run_cli(
        "run", MODELS / f"{model}.yaml", "--seed", seed, "--num-samples", ROWS, "--out", tmp_path
    )
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / CSV_NAMES[model]).read_bytes()).hexdigest()
    assert digest == GOLDEN[(model, seed)]
